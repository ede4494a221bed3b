"""Quantum states for the uncertainty game, and their von Neumann entropy.

Two-qubit states are ordered with Alice's measured qubit as the most
significant index and Bob's memory qubit as the least significant one,
so the computational basis reads |00>, |01>, |10>, |11>. All entropies
are base-2 (bits).

The constructors check their own parameters. A state handed to the
pipeline is checked where it is read: Hermiticity and the spectrum in
`vn_entropy`, the trace in `measurement._conditioned`.
"""

import numpy as np

from .channels import R_MAX
from .linalg import EIGENVALUE_FLOOR, NORM_ATOL, _float_or_array, _spectrum, partial_trace, tensor

PAULI = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}

_PSI_PLUS = np.array([0, 1, 1, 0], dtype=complex) / np.sqrt(2)  # (|01> + |10>)/sqrt(2)


def from_pure(v: np.ndarray) -> np.ndarray:
    """Rank-1 projector |v><v| of a normalized state vector."""
    v = np.asarray(v, dtype=complex).reshape(-1)
    norm = float(np.linalg.norm(v))
    if not abs(norm - 1.0) <= NORM_ATOL:
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
        if not w >= EIGENVALUE_FLOOR:
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
    [EIGENVALUE_FLOOR, 0) are clamped to 0 and those in
    (1, 1 + |EIGENVALUE_FLOOR|] to 1; anything farther out, in any matrix
    of the stack, means the input is not a state and is a hard error so
    upstream bugs surface instead of being rounded away.
    """
    eigenvalues = _spectrum(rho)
    smallest = float(eigenvalues[..., 0].min(initial=0.0))
    if smallest < EIGENVALUE_FLOOR:
        raise ValueError(
            f"not a density matrix: eigenvalue {smallest:.3e} below tolerance"
        )
    largest = float(eigenvalues[..., -1].max(initial=1.0))
    if largest > 1.0 - EIGENVALUE_FLOOR:
        raise ValueError(
            f"not a density matrix: eigenvalue {largest:.12g} above 1"
        )
    return _float_or_array(_entropy_bits(eigenvalues.clip(0.0, 1.0)))


def _entropy_bits(weights: np.ndarray) -> np.ndarray:
    """-sum w log2 w over the last axis of nonnegative weights, with 0 log 0 = 0."""
    logs = np.log2(weights, out=np.zeros_like(weights), where=weights > 0.0)
    return -(weights * logs).sum(axis=-1)


def memory_marginal(rho: np.ndarray) -> np.ndarray:
    """Bob's reduced state tr_A(rho) of a two-qubit state or a stack of them."""
    return partial_trace(rho, keep=[1], dims=[2, 2])


def probe_marginal(rho: np.ndarray) -> np.ndarray:
    """Alice's reduced state tr_B(rho) of a two-qubit state or a stack of them."""
    return partial_trace(rho, keep=[0], dims=[2, 2])
