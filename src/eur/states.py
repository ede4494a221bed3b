"""Quantum states for the uncertainty game, and their entropies.

Two-qubit states are ordered with Alice's measured qubit as the most
significant index and Bob's memory qubit as the least significant one,
so the computational basis reads |00>, |01>, |10>, |11>. All entropies
are base-2 (bits).
"""

import numpy as np

from .channels import R_MAX
from .linalg import (
    EIGENVALUE_FLOOR,
    NEGATIVE_PROBABILITY_FLOOR,
    NORM_ATOL,
    PROBABILITY_SUM_ATOL,
    TRACE_ATOL,
    _float_or_array,
    hermitian_eigensystem,
    partial_trace,
    tensor,
)

PAULI = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}

_PSI_PLUS = np.array([0, 1, 1, 0], dtype=complex) / np.sqrt(2)  # (|01> + |10>)/sqrt(2)


def validate_density_matrix(rho: np.ndarray) -> np.ndarray:
    """Check Hermiticity, unit trace and positivity; return the array.

    Raises ValueError naming the violated property. Eigenvalues may dip
    to EIGENVALUE_FLOOR to absorb roundoff from upstream algebra.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1] or rho.shape[0] not in (2, 4, 8):
        raise ValueError(f"state must be a square matrix of dimension 2, 4 or 8, got shape {rho.shape}")
    smallest = float(hermitian_eigensystem(rho)[0][0])
    tr = complex(np.trace(rho))
    if abs(tr - 1.0) > TRACE_ATOL:
        raise ValueError(f"state has trace {tr:.12g}, expected 1")
    if smallest < EIGENVALUE_FLOOR:
        raise ValueError(f"state has negative eigenvalue {smallest:.3e}")
    return rho


def from_pure(v: np.ndarray) -> np.ndarray:
    """Rank-1 projector |v><v| of a normalized state vector."""
    v = np.asarray(v, dtype=complex).reshape(-1)
    norm = float(np.linalg.norm(v))
    if abs(norm - 1.0) > NORM_ATOL:
        raise ValueError(f"state vector has norm {norm:.12g}, expected 1")
    return np.outer(v, v.conj())


def bell_diagonal_state(r1: float, r2: float, r3: float) -> np.ndarray:
    """Two-qubit state with correlation vector (r1, r2, r3).

    rho = (I(x)I + r1 sx(x)sx + r2 sy(x)sy + r3 sz(x)sz) / 4, diagonal in
    the Bell basis. Physical only inside the tetrahedron with vertices
    (-1,-1,-1), (-1,1,1), (1,-1,1), (1,1,-1); outside it some Bell weight
    goes negative and the offender is named in the error.
    """
    weights = {
        "phi+": (1.0 + r1 - r2 + r3) / 4.0,
        "phi-": (1.0 - r1 + r2 + r3) / 4.0,
        "psi+": (1.0 + r1 + r2 - r3) / 4.0,
        "psi-": (1.0 - r1 - r2 - r3) / 4.0,
    }
    for label, w in weights.items():
        if w < EIGENVALUE_FLOOR:
            raise ValueError(
                f"correlation vector ({r1}, {r2}, {r3}) lies outside the Bell "
                f"tetrahedron: eigenvalue {w:.6g} of the |{label}> component is negative"
            )
    rho = 0.25 * np.eye(4, dtype=complex)
    for coeff, axis in ((r1, "x"), (r2, "y"), (r3, "z")):
        rho = rho + 0.25 * coeff * tensor(PAULI[axis], PAULI[axis])
    return rho


def bell_diagonal_p(p: float) -> np.ndarray:
    """One-parameter slice of the Bell-diagonal family: (1-2p, -p, -p).

    Equals p |psi-><psi-| + (1-p)/2 (|psi+><psi+| + |phi+><phi+|).
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    return bell_diagonal_state(1.0 - 2.0 * p, -p, -p)


def x_state(p: float) -> np.ndarray:
    """Mixture p |psi+><psi+| + (1-p) |11><11|, with |psi+> = (|01>+|10>)/sqrt(2).

    At p = 1 the pair is maximally entangled; at p = 0 it is the product
    state |11>.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    eleven = np.zeros(4, dtype=complex)
    eleven[3] = 1.0
    return p * from_pure(_PSI_PLUS) + (1.0 - p) * from_pure(eleven)


def rindler_tripartite_state(r: float) -> np.ndarray:
    """Three-mode pure state seen once the memory holder accelerates.

    Subsystem order is Alice (x) region-I mode (x) region-II mode, Alice
    most significant:

        (|0>_A (cos r |00> + sin r |11>) + |1>_A |10>) / sqrt(2)

    Tracing out the causally disconnected region-II mode reproduces the
    Kraus-pair channel acting on the memory half of |phi+>.
    """
    if not 0.0 <= r <= R_MAX:
        raise ValueError(f"r must lie in [0, pi/4], got {r}")
    v = np.zeros(8, dtype=complex)
    v[0] = np.cos(r) / np.sqrt(2)  # |0>_A |0>_I |0>_II
    v[3] = np.sin(r) / np.sqrt(2)  # |0>_A |1>_I |1>_II
    v[6] = 1.0 / np.sqrt(2)        # |1>_A |1>_I |0>_II
    return v


def vn_entropy(rho: np.ndarray):
    """Von Neumann entropy -tr(rho log2 rho) in bits.

    Takes one density matrix and returns a float, or a (..., d, d) stack
    and returns an array of the stack's shape. Eigenvalues in
    [EIGENVALUE_FLOOR, 0) are clamped to 0; anything more negative, in
    any matrix of the stack, means the input is not a state and is a hard
    error so upstream bugs surface instead of being rounded away.
    """
    eigenvalues, _ = hermitian_eigensystem(rho)
    smallest = float(eigenvalues[..., 0].min(initial=0.0))
    if smallest < EIGENVALUE_FLOOR:
        raise ValueError(
            f"not a density matrix: eigenvalue {smallest:.3e} below tolerance"
        )
    clamped = eigenvalues.clip(0.0, 1.0)
    logs = np.log2(clamped, out=np.zeros_like(clamped), where=clamped > 0.0)
    return _float_or_array(-(clamped * logs).sum(axis=-1))


def shannon_entropy(p) -> float:
    """Shannon entropy of a probability vector in bits, with 0 log 0 = 0.

    Entries in [NEGATIVE_PROBABILITY_FLOOR, 0) are treated as 0
    (measurement roundoff); more negative entries and vectors not summing
    to 1 within PROBABILITY_SUM_ATOL are errors.
    """
    p = np.asarray(p, dtype=float)
    if p.ndim != 1:
        raise ValueError(f"expected a probability vector, got shape {p.shape}")
    if float(p.min(initial=0.0)) < NEGATIVE_PROBABILITY_FLOOR:
        raise ValueError(f"negative probability {float(p.min()):.3e}")
    p = np.clip(p, 0.0, None)
    total = float(p.sum())
    if abs(total - 1.0) > PROBABILITY_SUM_ATOL:
        raise ValueError(f"probabilities sum to {total:.12g}, expected 1")
    nonzero = p[p > 0.0]
    return float(-np.sum(nonzero * np.log2(nonzero)))


def memory_marginal(rho: np.ndarray) -> np.ndarray:
    """Bob's reduced state tr_A(rho) of a two-qubit state or a stack of them."""
    return partial_trace(rho, keep=[1], dims=[2, 2])


def probe_marginal(rho: np.ndarray) -> np.ndarray:
    """Alice's reduced state tr_B(rho) of a two-qubit state or a stack of them."""
    return partial_trace(rho, keep=[0], dims=[2, 2])
