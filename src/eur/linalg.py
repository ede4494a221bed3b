"""Dense complex linear algebra for small multi-qubit objects.

Everything operates on plain numpy arrays. The tensor-product convention
puts the left factor on the most significant index: for A of dimension m
and B of dimension n, the composite basis index is n*i_A + i_B (numpy's
``kron`` ordering). Every other module relies on this convention.
"""

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


def tensor(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product with `a` as the most significant factor."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def partial_trace(m: np.ndarray, keep, dims) -> np.ndarray:
    """Trace out every subsystem not listed in `keep`.

    Args:
        m: square matrix on a tensor-product space
        keep: index or indices of the subsystems to retain (0 = most
            significant factor); the retained subsystems stay in their
            original order
        dims: dimension of each subsystem, most significant first

    Returns:
        The reduced matrix on the kept subsystems. The full trace is
        preserved.
    """
    m = np.asarray(m, dtype=complex)
    dims = [int(d) for d in dims]
    total = int(np.prod(dims))
    if m.ndim != 2 or m.shape != (total, total):
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

    t = m.reshape(dims + dims)
    n = len(dims)
    for idx in sorted(set(range(n)) - set(keep), reverse=True):
        t = np.trace(t, axis1=idx, axis2=idx + n)
        n -= 1
    kept_dim = int(np.prod([dims[k] for k in keep]))
    return t.reshape(kept_dim, kept_dim)


def _require_hermitian(m: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Return `m` as a complex array, or raise ValueError unless it is a
    square matrix within HERMITICITY_ATOL of its adjoint."""
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected {name} to be a square matrix, got shape {m.shape}")
    deviation = float(np.max(np.abs(m - m.conj().T)))
    if deviation > HERMITICITY_ATOL:
        raise ValueError(f"{name} is not Hermitian: max |M - M^dag| = {deviation:.3e}")
    return m


def hermitian_eigensystem(m: np.ndarray):
    """Full eigensystem of a Hermitian matrix, eigenvalues ascending.

    The input is symmetrized as (M + M†)/2 before solving, so roundoff
    accumulated by upstream products cannot leak into the eigenbasis;
    matrices more than HERMITICITY_ATOL from Hermitian are rejected.

    Returns:
        (eigenvalues, eigenvectors): a real 1-D array in ascending order
        and a unitary matrix whose k-th column is the eigenvector for
        eigenvalue k. Within a degenerate eigenspace the basis choice is
        arbitrary and callers must not rely on it.
    """
    m = _require_hermitian(m)
    eigenvalues, eigenvectors = np.linalg.eigh((m + m.conj().T) / 2.0)
    return eigenvalues, eigenvectors
