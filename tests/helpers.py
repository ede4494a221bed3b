"""Shared constants and random generators for the test suite.

Everything here is built with raw numpy, never with package code, so the
tests keep an independent route to the objects they check.
"""

import numpy as np

I2 = np.eye(2, dtype=complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)

PHI_PLUS = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
PHI_MINUS = np.array([1, 0, 0, -1], dtype=complex) / np.sqrt(2)
PSI_PLUS = np.array([0, 1, 1, 0], dtype=complex) / np.sqrt(2)
PSI_MINUS = np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2)

# Tomographically complete single-qubit inputs: identity plus the three
# states whose Bloch vectors point along z, x and y.
TOMO_INPUTS = [
    I2 / 2,
    np.array([[1, 0], [0, 0]], dtype=complex),
    np.array([[1, 1], [1, 1]], dtype=complex) / 2,
    np.array([[1, -1j], [1j, 1]], dtype=complex) / 2,
]


def proj(v):
    v = np.asarray(v, dtype=complex)
    return np.outer(v, v.conj())


def random_complex(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def random_density_matrix(rng, dim):
    g = random_complex(rng, (dim, dim))
    m = g @ g.conj().T
    return m / np.trace(m).real


def random_pure_state(rng, dim):
    v = random_complex(rng, (dim,))
    return v / np.linalg.norm(v)


def random_unitary(rng, dim):
    q, r = np.linalg.qr(random_complex(rng, (dim, dim)))
    phases = np.diag(r) / np.abs(np.diag(r))
    return q @ np.diag(phases)


def random_hermitian(rng, dim):
    """Hermitian matrix with real and imaginary parts drawn in [-1, 1]."""
    g = rng.uniform(-1.0, 1.0, size=(dim, dim)) + 1j * rng.uniform(-1.0, 1.0, size=(dim, dim))
    return (g + g.conj().T) / 2


def random_choi(rng):
    """Random CPTP Choi matrix (trace 2, input index most significant).

    A PSD sample is projected onto the trace-preserving affine subspace
    by the (M^{-1/2} (x) I) correction, M being its input marginal.
    """
    g = random_complex(rng, (4, 4))
    s = g @ g.conj().T
    marginal = s.reshape(2, 2, 2, 2).trace(axis1=1, axis2=3)
    w, v = np.linalg.eigh(marginal)
    correction = v @ np.diag(w ** -0.5) @ v.conj().T
    x = np.kron(correction, I2)
    return x @ s @ x.conj().T


def random_cptp_kraus(rng):
    """Random CPTP channel in Kraus form, extracted from `random_choi` by hand."""
    c = random_choi(rng)
    w, v = np.linalg.eigh(c)
    return [np.sqrt(lam) * vec.reshape(2, 2).T for lam, vec in zip(w, v.T) if lam > 1e-12]


def shannon_bits(p):
    """Reference -sum p log2 p of a probability vector in bits, with 0 log 0 = 0."""
    p = np.asarray(p, dtype=float)
    nonzero = p[p > 0.0]
    return float(-(nonzero * np.log2(nonzero)).sum())


# Slack of a state's Hermiticity, trace and smallest eigenvalue, written
# out here so that a change of the package's values shows up as a failure.
STATE_ATOL = 1e-10


def is_density_matrix(rho):
    """Reference state check: Hermitian, unit trace and no eigenvalue below
    -STATE_ATOL, each within STATE_ATOL."""
    rho = np.asarray(rho, dtype=complex)
    return bool(
        np.abs(rho - rho.conj().T).max() <= STATE_ATOL
        and abs(np.trace(rho) - 1.0) <= STATE_ATOL
        and np.linalg.eigvalsh((rho + rho.conj().T) / 2).min() >= -STATE_ATOL
    )


def apply_kraus(ops, rho):
    """Reference channel action, independent of the package implementation."""
    out = np.zeros_like(np.asarray(rho, dtype=complex))
    for k in ops:
        out += k @ rho @ k.conj().T
    return out


def apply_kraus_to_memory(ops, rho):
    """Reference action on the second (memory) qubit of a two-qubit state via kron(I, K)."""
    return apply_kraus([np.kron(I2, k) for k in ops], rho)


# Slack of the sweep's bound ordering lhs >= holevo >= berta, written out
# here so that a change of the package's values shows up as a failure.
BOUND_ORDER_ATOL = 1e-9  # lhs >= berta and lhs >= holevo
BOUND_GAP_ATOL = 1e-12   # holevo >= berta


def row_violation(lhs, berta, holevo):
    """Reference check of one sweep row: the first violated inequality, or None."""
    if lhs < berta - BOUND_ORDER_ATOL:
        return f"lhs {lhs:.12g} below berta {berta:.12g}"
    if lhs < holevo - BOUND_ORDER_ATOL:
        return f"lhs {lhs:.12g} below holevo {holevo:.12g}"
    if holevo < berta - BOUND_GAP_ATOL:
        return f"holevo {holevo:.12g} below berta {berta:.12g}"
    return None


def reference_bound_violations(lhs, berta, holevo):
    """(index, message) for every row that `row_violation` rejects, row by row."""
    return [
        (i, message)
        for i, row in enumerate(zip(lhs, berta, holevo))
        if (message := row_violation(*row)) is not None
    ]
