"""Quantum states for the uncertainty game, and their von Neumann entropy.

Two-qubit states are ordered with Alice's measured qubit as the most
significant index and Bob's memory qubit as the least significant one,
so the computational basis reads |00>, |01>, |10>, |11>. All entropies
are base-2 (bits).

The constructors check their own parameters. Every reader of a state
checks it once, with `_checked_spectrum`.
"""

import numpy as np

from .channels import R_MAX
from .linalg import (
    EIGENVALUE_FLOOR,
    NORM_ATOL,
    TRACE_ATOL,
    _eigenvalues,
    _float_or_array,
    _hermitian_part,
    _real_or_complex,
)


def from_pure(v: np.ndarray) -> np.ndarray:
    """Rank-1 projector |v><v| of a normalized state vector.

    `v` must be one-dimensional: a density matrix, whose Frobenius norm
    is 1 when it is pure, is rejected rather than flattened.
    """
    v = _real_or_complex(v)
    if v.ndim != 1:
        raise ValueError(f"expected a state vector, got shape {v.shape}")
    norm = float(np.linalg.norm(v))
    if not abs(norm - 1.0) <= NORM_ATOL:
        raise ValueError(f"state vector has norm {norm:.12g}, expected 1")
    return np.outer(v, v.conj())


# |psi+><psi+| with |psi+> = (|01> + |10>)/sqrt(2), and |11><11|: the terms of an X state
_PSI_PLUS_PROJ = from_pure(np.array([0, 1, 1, 0]) / np.sqrt(2))
_ELEVEN_PROJ = from_pure(np.array([0, 0, 0, 1]))


def bell_diagonal_state(r1: float, r2: float, r3: float) -> np.ndarray:
    """Two-qubit state with correlation vector (r1, r2, r3).

    rho = (I(x)I + r1 sx(x)sx + r2 sy(x)sy + r3 sz(x)sz) / 4, diagonal in
    the Bell basis. Physical only inside the tetrahedron with vertices
    (-1,-1,-1), (-1,1,1), (1,-1,1), (1,1,-1); outside it some Bell weight
    goes negative and the offender is named in the error.
    """
    if not np.isfinite([r1, r2, r3]).all():
        raise ValueError(f"correlation vector ({r1}, {r2}, {r3}) is not finite")
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
    rho = np.zeros((4, 4))
    rho[0, 0] = rho[3, 3] = (1.0 + r3) / 4.0
    rho[1, 1] = rho[2, 2] = (1.0 - r3) / 4.0
    rho[0, 3] = rho[3, 0] = (r1 - r2) / 4.0
    rho[1, 2] = rho[2, 1] = (r1 + r2) / 4.0
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
    return p * _PSI_PLUS_PROJ + (1.0 - p) * _ELEVEN_PROJ


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
    v = np.zeros(8)
    v[0] = np.cos(r) / np.sqrt(2)  # |0>_A |0>_I |0>_II
    v[3] = np.sin(r) / np.sqrt(2)  # |0>_A |1>_I |1>_II
    v[6] = 1.0 / np.sqrt(2)        # |1>_A |1>_I |0>_II
    return v


def vn_entropy(rho: np.ndarray):
    """Von Neumann entropy -tr(rho log2 rho) in bits.

    Takes one density matrix and returns a float, or a (..., d, d) stack
    and returns an array of the stack's shape: `_entropy_bits` of the
    spectrum, which `_checked_spectrum` holds to within |EIGENVALUE_FLOOR|
    of [0, 1].
    """
    return _float_or_array(_entropy_bits(_checked_spectrum(rho)))


def _checked_spectrum(rho: np.ndarray) -> np.ndarray:
    """Eigenvalues, ascending, of a density matrix or of each in a stack.

    This is the one check of a state, and every reader of one makes it
    once: it raises ValueError unless every matrix is finite and
    Hermitian, with its eigenvalues in [EIGENVALUE_FLOOR,
    1 - EIGENVALUE_FLOOR] and its trace within TRACE_ATOL of 1, tested in
    that order; the trace error gives the trace of the first state that
    fails. Anything farther out means the input is not a state and is a
    hard error, so upstream bugs surface instead of being rounded away.
    What a reader derives from a checked state is not checked again. The
    spectrum is of rho's `_hermitian_part`, in float64 for a float64 rho
    and in complex128 otherwise.
    """
    rho = _hermitian_part(rho)
    eigenvalues = _eigenvalues(rho)
    smallest = float(eigenvalues.min(initial=0.0))
    if smallest < EIGENVALUE_FLOOR:
        raise ValueError(f"not a density matrix: eigenvalue {smallest:.3e} below tolerance")
    largest = float(eigenvalues.max(initial=1.0))
    if largest > 1.0 - EIGENVALUE_FLOOR:
        raise ValueError(f"not a density matrix: eigenvalue {largest:.12g} above 1")
    tr = rho.trace(axis1=-2, axis2=-1).real
    normalized = abs(tr - 1.0) <= TRACE_ATOL
    if not normalized.all():
        raise ValueError(f"state has trace {tr[~normalized].flat[0]:.12g}, expected 1")
    return eigenvalues


def _entropy_bits(weights: np.ndarray, axis: int = -1) -> np.ndarray:
    """-sum w log2 w along `axis`, in bits, of float64 weights clipped to
    [0, 1], with 0 log 0 = 0: the log is taken into a new float64 array of
    zeros. Every weight it takes is an eigenvalue or an outcome
    probability of a checked state, so a weight past 1 is roundoff or
    the state's trace slack within TRACE_ATOL, and its term is 0, as at 1. The sum is subtracted from 0.0 rather than negated, so
    a zero entropy is +0.0, not -0.0."""
    w = weights.clip(0.0, 1.0)
    return 0.0 - (w * np.log2(w, out=np.zeros(w.shape), where=w > 0.0)).sum(axis=axis)
