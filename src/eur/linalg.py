"""Dense complex linear algebra for small multi-qubit objects.

Everything operates on plain numpy arrays. The tensor-product convention
puts the left factor on the most significant index: for A of dimension m
and B of dimension n, the composite basis index is n*i_A + i_B (numpy's
``kron`` ordering). Every other module relies on this convention.

`partial_trace`, `_require_hermitian`, `hermitian_eigensystem` and
`_spectrum` act on the last two axes and broadcast over any leading stack
axes, so one call handles a single (d, d) matrix or a whole (..., d, d)
stack.

Input checks against the tolerances below, `_require_hermitian` and its
peers in the other modules, are written `not deviation <= TOLERANCE`, so
a NaN deviation, from NaN or infinite input, fails them.
"""

import math

import numpy as np

# Every tolerance of the package, absolute, on quantities of order one.
HERMITICITY_ATOL = 1e-10     # max |M - M^dag| of a matrix taken as Hermitian
TRACE_ATOL = 1e-10           # |tr rho - 1| of a state taken as normalized
NORM_ATOL = 1e-12            # | ||v|| - 1 | of a state vector taken as normalized
EIGENVALUE_FLOOR = -1e-10    # eigenvalues down to here are roundoff around 0
COMPLETENESS_ATOL = 1e-10    # max |sum K^dag K - I| of a trace-preserving channel
KRAUS_WEIGHT_CUTOFF = 1e-12  # Choi eigenvalues at or below this give no Kraus operator
ORTHONORMALITY_ATOL = 1e-12  # max |B^dag B - I| of an orthonormal basis
PROBABILITY_FLOOR = 1e-12    # outcome probabilities at or below this count as 0
BOUND_ORDER_ATOL = 1e-9      # slack allowed in lhs >= berta and lhs >= holevo
BOUND_GAP_ATOL = 1e-12       # slack allowed in holevo >= berta


def tensor(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product with `a` as the most significant factor."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def partial_trace(m: np.ndarray, keep, dims) -> np.ndarray:
    """Trace out every subsystem not listed in `keep`.

    Args:
        m: square matrix on a tensor-product space, or a stack of them
            with shape (..., d, d)
        keep: index or indices of the subsystems to retain (0 = most
            significant factor); the retained subsystems stay in their
            original order
        dims: dimension of each subsystem, most significant first

    Returns:
        The reduced matrix on the kept subsystems, with the same leading
        stack axes as `m`. The full trace is preserved.
    """
    m = np.asarray(m, dtype=complex)
    dims = [int(d) for d in dims]
    total = math.prod(dims)
    if m.shape[-2:] != (total, total):
        raise ValueError(
            f"matrix shape {m.shape} does not match subsystem dims {dims}"
        )
    if isinstance(keep, int):
        keep = [keep]
    keep = sorted(set(int(k) for k in keep))
    if not keep:
        raise ValueError("keep must name at least one subsystem")
    if keep[0] < 0 or keep[-1] >= len(dims):
        raise ValueError(f"keep indices {keep} out of range for {len(dims)} subsystems")

    stack = m.shape[:-2]
    t = m.reshape(stack + tuple(dims + dims))
    offset = len(stack)
    n = len(dims)
    for idx in sorted(set(range(n)) - set(keep), reverse=True):
        t = t.trace(axis1=offset + idx, axis2=offset + idx + n)
        n -= 1
    kept_dim = math.prod(dims[k] for k in keep)
    return t.reshape(stack + (kept_dim, kept_dim))


def _float_or_array(x):
    """`x` as a float when it holds one value (from one input matrix),
    otherwise the array itself (from a stack)."""
    return float(x) if np.ndim(x) == 0 else x


def _require_hermitian(m: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Return `m` as a complex array, or raise ValueError unless it is a
    square matrix, or a stack of them, within HERMITICITY_ATOL of its
    adjoint everywhere."""
    m = np.asarray(m, dtype=complex)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"expected {name} to be a square matrix, got shape {m.shape}")
    deviation = float(abs(m - m.conj().swapaxes(-1, -2)).max(initial=0.0))
    if not deviation <= HERMITICITY_ATOL:
        raise ValueError(f"{name} is not Hermitian: max |M - M^dag| = {deviation:.3e}")
    return m


def hermitian_eigensystem(m: np.ndarray):
    """Full eigensystem of a Hermitian matrix, or of each in a stack,
    eigenvalues ascending.

    The input is symmetrized as (M + M†)/2 before solving, so roundoff
    accumulated by upstream products cannot leak into the eigenbasis;
    matrices more than HERMITICITY_ATOL from Hermitian are rejected.

    Returns:
        (eigenvalues, eigenvectors): real eigenvalues in ascending order
        along the last axis, and unitary matrices whose k-th column is the
        eigenvector for eigenvalue k; both keep the leading stack axes of
        `m`. Within a degenerate eigenspace the basis choice is arbitrary
        and callers must not rely on it.
    """
    m = _require_hermitian(m)
    eigenvalues, eigenvectors = np.linalg.eigh((m + m.conj().swapaxes(-1, -2)) / 2.0)
    return eigenvalues, eigenvectors


def _spectrum(m: np.ndarray) -> np.ndarray:
    """Eigenvalues, ascending along the last axis, of a Hermitian matrix or
    of each in a stack; the same checks and symmetrization as
    `hermitian_eigensystem`, without the eigenvectors.

    A 2x2 spectrum is taken in closed form, (a+d)/2 -+ hypot((a-d)/2, |b|)
    for [[a, b], [b*, d]]; a larger one with `np.linalg.eigvalsh`.
    """
    m = _require_hermitian(m)
    if m.shape[-1] != 2:
        return np.linalg.eigvalsh((m + m.conj().swapaxes(-1, -2)) / 2.0)
    a, d = m[..., 0, 0].real, m[..., 1, 1].real
    b = (m[..., 0, 1] + m[..., 1, 0].conj()) / 2.0
    mean = (a + d) / 2.0
    # |b| as a real hypot: numpy's complex abs rounds differently on arrays
    # than on scalars, and a stack must give each matrix's own bits
    radius = np.hypot((a - d) / 2.0, np.hypot(b.real, b.imag))
    return np.stack([mean - radius, mean + radius], axis=-1)
