"""Dense linear algebra for small multi-qubit objects.

Everything operates on plain numpy arrays. The tensor-product convention
is that of ``np.kron(a, b)``: the left factor is the most significant,
so for A of dimension m and B of dimension n the composite basis index
is n*i_A + i_B. Every other module relies on this convention.

One dtype rule holds across the package: an array is float64 when its
entries are real and complex128 otherwise (`_real_or_complex`), and no
function turns a real input complex, so every real constructor returns
float64 and a float64 matrix is checked, symmetrized and solved in
float64 (LAPACK's real symmetric solver). What stays complex on purpose
says why where it is built.

`partial_trace`, `_hermitian_part` and `_eigenvalues` act on the last
two axes and broadcast over any leading stack axes, so one call handles
a single (d, d) matrix or a whole (..., d, d) stack.

Input checks, `_hermitian_part` and its peers in the other modules,
first reject NaN and infinite input by name. Their tests against the
tolerances below are written `not deviation <= TOLERANCE`, so a NaN
deviation fails them too. `_hermitian_part` checks and symmetrizes in
one step: every eigensolver takes the (M + M^dag)/2 it returns as it is.
"""

import math

import numpy as np

# Every tolerance of the package, absolute, on quantities of order one.
# Input acceptance, which faces the user: how far an input may be from what it is taken as.
HERMITICITY_ATOL = 1e-10     # max |M - M^dag| of a matrix taken as Hermitian
TRACE_ATOL = 1e-10           # |tr rho - 1| of a state taken as normalized
NORM_ATOL = 1e-12            # | ||v|| - 1 | of a state vector taken as normalized
ORTHONORMALITY_ATOL = 1e-12  # max |B^dag B - I| of an orthonormal basis
COMPLETENESS_ATOL = 1e-10    # max |sum K^dag K - I| of a trace-preserving channel
# Package roundoff: how far the package's own results may stray from exact values.
EIGENVALUE_FLOOR = -1e-10    # eigenvalues down to here are roundoff around 0
KRAUS_WEIGHT_CUTOFF = 1e-12  # Choi eigenvalues at or below this give no Kraus operator
PROBABILITY_FLOOR = 1e-12    # measurement_ensemble returns None for rho_B|i when p_i <= this
BOUND_ORDER_ATOL = 1e-9      # slack allowed in lhs >= berta and lhs >= holevo
BOUND_GAP_ATOL = 1e-12       # slack allowed in holevo >= berta

_FLOAT64, _COMPLEX128 = np.dtype(float), np.dtype(complex)


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
    m = _real_or_complex(m)
    dims = list(dims)
    if not all(float(d).is_integer() for d in dims):
        raise ValueError(f"dims must be integers, got {dims}")
    dims = [int(d) for d in dims]
    if min(dims, default=1) < 1:
        raise ValueError(f"dims must all be >= 1, got {dims}")
    total = math.prod(dims)
    if m.shape[-2:] != (total, total):
        raise ValueError(
            f"matrix shape {m.shape} does not match subsystem dims {dims}"
        )
    keep = [keep] if np.ndim(keep) == 0 else list(keep)
    if not all(float(k).is_integer() for k in keep):
        raise ValueError(f"keep must be integers, got {keep}")
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


def _real_or_complex(m) -> np.ndarray:
    """`m` as a float64 array when its entries are real numbers (bool,
    integer or float), otherwise as a complex128 array; no copy when it
    already is one."""
    m = np.asarray(m)
    if m.dtype is _FLOAT64 or m.dtype is _COMPLEX128:  # no cast to decide, and none to make
        return m
    return m.astype(float if m.dtype.kind in "biuf" else complex, copy=False)


def _hermitian_part(m: np.ndarray, name: str = "matrix") -> np.ndarray:
    """(M + M^dag)/2 of a finite square matrix, or of each in a stack,
    within HERMITICITY_ATOL of its adjoint everywhere, or ValueError for
    the first of not finite, not square and not Hermitian. A real `m` is
    checked and symmetrized in float64; its one adjoint serves both."""
    m = _real_or_complex(m)
    if not np.isfinite(m).all():
        raise ValueError(f"{name} is not finite: it holds NaN or inf")
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"expected {name} to be a square matrix, got shape {m.shape}")
    adjoint = m.conj().swapaxes(-1, -2)
    deviation = float(abs(m - adjoint).max(initial=0.0))
    if not deviation <= HERMITICITY_ATOL:
        raise ValueError(f"{name} is not Hermitian: max |M - M^dag| = {deviation:.3e}")
    return (m + adjoint) / 2.0


def _eigenvalues(m: np.ndarray) -> np.ndarray:
    """Eigenvalues, ascending along the last axis, of a float64 or complex
    (..., d, d) array whose matrices are already known to be finite and
    Hermitian; nothing is checked here, so only pass what is derived from
    a checked input. A float64 array is solved in float64.

    A 2x2 spectrum is taken in closed form, (a+d)/2 -+ hypot((a-d)/2, |b|)
    for [[a, b], [b*, d]], with b the mean of the two off-diagonal
    entries, both roots written into one new float64 (..., 2) array; a
    larger one must be a Hermitian part, taken by `np.linalg.eigvalsh`.
    """
    if m.shape[-1] != 2:
        return np.linalg.eigvalsh(m)
    a, d = m[..., 0, 0].real, m[..., 1, 1].real
    b = (m[..., 0, 1] + m[..., 1, 0].conj()) / 2.0
    mean = (a + d) / 2.0
    # |b| as a real hypot: numpy's complex abs rounds differently on arrays
    # than on scalars, and a stack must give each matrix's own bits
    radius = np.hypot((a - d) / 2.0, np.hypot(b.real, b.imag))
    spectrum = np.empty(mean.shape + (2,))
    np.subtract(mean, radius, out=spectrum[..., 0])
    np.add(mean, radius, out=spectrum[..., 1])
    return spectrum
