"""Uncertainty quantities for two measurements on a qubit with a quantum memory.

All quantities are in bits. The measured uncertainty is the sum of the
two post-measurement conditional entropies; it is bounded below both by
log2(1/c) + S(A|B) and by the tighter variant that adds max(0, delta),
where delta trades total correlations against the two Holevo quantities.

Every state-dependent function takes one 4x4 state or a (..., 4, 4)
stack of them, and returns a float for one state or an array of the
stack's shape.
"""

import math
from dataclasses import dataclass

import numpy as np

from .linalg import BOUND_GAP_ATOL, BOUND_ORDER_ATOL, _float_or_array, _require_hermitian
from .measurement import (
    ProjectiveObservable,
    complementarity,
    holevo_quantity,
    post_measurement_state,
)
from .states import from_pure, memory_marginal, probe_marginal, vn_entropy


def conditional_entropy(rho: np.ndarray) -> float:
    """S(A|B) = S(AB) - S(B) in bits; negative iff the state is entangled enough."""
    return vn_entropy(rho) - vn_entropy(memory_marginal(rho))


def mutual_information(rho: np.ndarray) -> float:
    """I(A;B) = S(A) + S(B) - S(AB) in bits."""
    return (
        vn_entropy(probe_marginal(rho))
        + vn_entropy(memory_marginal(rho))
        - vn_entropy(rho)
    )


def uncertainty_lhs(
    q: ProjectiveObservable, r: ProjectiveObservable, rho: np.ndarray
) -> float:
    """Total conditional uncertainty S(Q|B) + S(R|B) of the two measurements.

    Each term is S(rho_OB) - S(rho_B) with rho_OB the post-measurement
    classical-quantum state.
    """
    s_memory = vn_entropy(memory_marginal(rho))
    return (
        vn_entropy(post_measurement_state(q, rho))
        + vn_entropy(post_measurement_state(r, rho))
        - 2.0 * s_memory
    )


def maassen_uffink_bound(
    q: ProjectiveObservable, r: ProjectiveObservable, rho: np.ndarray = None
) -> float:
    """Memoryless lower bound log2(1/c), plus S(rho) when a single-qubit state is given."""
    bound = math.log2(1.0 / complementarity(q, r))
    if rho is not None:
        rho = np.asarray(rho, dtype=complex)
        if rho.shape != (2, 2):
            raise ValueError(f"expected a 2x2 state for the state-dependent variant, got {rho.shape}")
        bound += vn_entropy(rho)
    return bound


def berta_bound(
    q: ProjectiveObservable, r: ProjectiveObservable, rho: np.ndarray
) -> float:
    """Memory-assisted lower bound log2(1/c) + S(A|B)."""
    return math.log2(1.0 / complementarity(q, r)) + conditional_entropy(rho)


def delta(
    q: ProjectiveObservable, r: ProjectiveObservable, rho: np.ndarray
) -> float:
    """Correlation surplus I(A;B) - I(Q;B) - I(R;B); may be negative."""
    return (
        mutual_information(rho)
        - holevo_quantity(q, rho)
        - holevo_quantity(r, rho)
    )


def holevo_bound(
    q: ProjectiveObservable, r: ProjectiveObservable, rho: np.ndarray
) -> float:
    """Tightened lower bound log2(1/c) + S(A|B) + max(0, delta).

    Never looser than `berta_bound`: the correction is clipped at zero.
    """
    return _float_or_array(berta_bound(q, r, rho) + np.maximum(0.0, delta(q, r, rho)))


@dataclass(frozen=True)
class EurReport:
    """Every uncertainty quantity for one (Q, R, state) triple, in bits.

    For one 4x4 state every field is a float. For a (..., 4, 4) stack of
    states the state-dependent fields are arrays of the stack's shape,
    element k belonging to state k; `mu_bound` and `c` depend only on
    the observables and stay floats.

    Attributes:
        lhs: S(Q|B) + S(R|B), the measured uncertainty sum
        mu_bound: log2(1/c), the memoryless bound
        berta_bound: log2(1/c) + S(A|B)
        holevo_bound: berta_bound + max(0, delta); equals
            berta_bound + np.maximum(0.0, delta) exactly, by construction
        delta: I(A;B) - I(Q;B) - I(R;B), unclipped
        c: maximal squared eigenstate overlap of the two observables
        s_cond: conditional entropy S(A|B)
        i_ab: mutual information I(A;B)
        i_qb: Holevo quantity I(Q;B)
        i_rb: Holevo quantity I(R;B)
    """

    lhs: float
    mu_bound: float
    berta_bound: float
    holevo_bound: float
    delta: float
    c: float
    s_cond: float
    i_ab: float
    i_qb: float
    i_rb: float


def evaluate_eur(
    q: ProjectiveObservable, r: ProjectiveObservable, rho: np.ndarray
) -> EurReport:
    """Evaluate the uncertainty sum and every lower bound on one state or a stack."""
    berta = berta_bound(q, r, rho)
    d = delta(q, r, rho)
    return EurReport(
        lhs=uncertainty_lhs(q, r, rho),
        mu_bound=maassen_uffink_bound(q, r),
        berta_bound=berta,
        holevo_bound=_float_or_array(berta + np.maximum(0.0, d)),
        delta=d,
        c=complementarity(q, r),
        s_cond=conditional_entropy(rho),
        i_ab=mutual_information(rho),
        i_qb=holevo_quantity(q, rho),
        i_rb=holevo_quantity(r, rho),
    )


def bound_violations(lhs, berta, holevo) -> list:
    """Check lhs >= holevo >= berta at every point of three equal-length columns.

    Returns (index, message) for each violating point, ascending; the
    message names the first of lhs >= berta, lhs >= holevo and
    holevo >= berta that fails, e.g. "lhs 0 below berta 1". NaN fails none.
    """
    columns = {"lhs": np.asarray(lhs, dtype=float), "berta": np.asarray(berta, dtype=float),
               "holevo": np.asarray(holevo, dtype=float)}
    found = {}
    for upper, lower, atol in (("lhs", "berta", BOUND_ORDER_ATOL),
                               ("lhs", "holevo", BOUND_ORDER_ATOL),
                               ("holevo", "berta", BOUND_GAP_ATOL)):
        high, low = columns[upper], columns[lower]
        for i in np.flatnonzero(high < low - atol).tolist():
            found.setdefault(i, f"{upper} {high[i]:.12g} below {lower} {low[i]:.12g}")
    return sorted(found.items())


def robertson_bound(q_op: np.ndarray, r_op: np.ndarray, psi: np.ndarray):
    """Standard-deviation uncertainty product and its commutator bound.

    Returns (DeltaQ * DeltaR, |<[Q, R]>| / 2) for Hermitian operators and
    a normalized pure state, with DeltaX = sqrt(<X^2> - <X>^2). The first
    element is never below the second (up to roundoff).
    """
    q_op = _require_hermitian(q_op, "Q")
    r_op = _require_hermitian(r_op, "R")
    if q_op.shape != (2, 2) or r_op.shape != (2, 2):
        raise ValueError(f"Q and R must be 2x2 operators, got shapes {q_op.shape} and {r_op.shape}")
    psi = np.asarray(psi, dtype=complex).reshape(-1)
    if psi.shape != (2,):
        raise ValueError(f"expected a single-qubit state vector, got shape {psi.shape}")
    rho = from_pure(psi)

    def spread(op):
        mean = np.trace(rho @ op).real
        second = np.trace(rho @ op @ op).real
        return math.sqrt(max(second - mean * mean, 0.0))

    commutator = q_op @ r_op - r_op @ q_op
    rhs = 0.5 * abs(np.trace(rho @ commutator))
    return spread(q_op) * spread(r_op), float(rhs)


def unruh_temperature(a: float) -> float:
    """Thermal temperature a / (2 pi) perceived at proper acceleration a.

    Natural units (c = hbar = k_B = 1).
    """
    if not (math.isfinite(a) and a >= 0.0):
        raise ValueError(f"acceleration must be finite and >= 0, got {a}")
    return a / (2.0 * math.pi)
