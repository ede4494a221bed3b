"""Uncertainty quantities for two measurements on a qubit with a quantum memory.

All quantities are in bits. The measured uncertainty is the sum of the
two post-measurement conditional entropies; it is bounded below both by
log2(1/c) + S(A|B) and by the tighter variant that adds max(0, delta),
where delta trades total correlations against the two Holevo quantities.

Every state-dependent function takes one 4x4 state or a (..., 4, 4)
stack of them, and returns a float for one state or an array of the
stack's shape.

`evaluate_eur` reads every entropy from one stacked pass,
`measurement._entropy_terms`; the standalone bounds return its fields and
`conditional_entropy` and `mutual_information` read the same pass, so
every formula is written once and each returns exactly the report's bits.
"""

import math
from dataclasses import dataclass

import numpy as np

from .linalg import BOUND_GAP_ATOL, BOUND_ORDER_ATOL, _float_or_array, _require_hermitian
from .measurement import ProjectiveObservable, _entropy_terms, complementarity
from .states import from_pure


def conditional_entropy(rho: np.ndarray) -> float:
    """S(A|B) = S(AB) - S(B) in bits; negative iff the state is entangled enough."""
    return _entropy_terms(rho)[0]


def mutual_information(rho: np.ndarray) -> float:
    """I(A;B) = S(A) + S(B) - S(AB) in bits."""
    return _entropy_terms(rho)[1]


def uncertainty_lhs(
    q: ProjectiveObservable, r: ProjectiveObservable, rho: np.ndarray
) -> float:
    """Total conditional uncertainty S(Q|B) + S(R|B) of the two measurements.

    Each term is S(rho_OB) - S(rho_B) with rho_OB the post-measurement
    classical-quantum state, evaluated as H(p) - I(O;B).
    """
    return evaluate_eur(q, r, rho).lhs


def berta_bound(
    q: ProjectiveObservable, r: ProjectiveObservable, rho: np.ndarray
) -> float:
    """Memory-assisted lower bound log2(1/c) + S(A|B)."""
    return evaluate_eur(q, r, rho).berta_bound


def delta(
    q: ProjectiveObservable, r: ProjectiveObservable, rho: np.ndarray
) -> float:
    """Correlation surplus I(A;B) - I(Q;B) - I(R;B); may be negative."""
    return evaluate_eur(q, r, rho).delta


def holevo_bound(
    q: ProjectiveObservable, r: ProjectiveObservable, rho: np.ndarray
) -> float:
    """Tightened lower bound log2(1/c) + S(A|B) + max(0, delta).

    Never looser than `berta_bound`: the correction is clipped at zero.
    """
    return evaluate_eur(q, r, rho).holevo_bound


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
    """Evaluate the uncertainty sum and every lower bound on one state or a stack.

    Takes one 4x4 spectrum, of rho, and one stack of six 2x2 ones in
    closed form: both marginals and the four conditional memory states.
    The post-measurement state rho_OB is block diagonal, so
    S(O|B) = H(p) + sum_i p_i S(rho_B|i) - S(B) = H(p) - I(O;B) needs no
    spectrum of its own.
    """
    s_cond, i_ab, i_qb, i_rb, h_q, h_r = _entropy_terms(rho, q, r)
    c = complementarity(q, r)
    mu = math.log2(1.0 / c)
    berta = mu + s_cond
    d = i_ab - i_qb - i_rb
    return EurReport(
        lhs=(h_q - i_qb) + (h_r - i_rb),
        mu_bound=mu,
        berta_bound=berta,
        holevo_bound=_float_or_array(berta + np.maximum(0.0, d)),
        delta=d,
        c=c,
        s_cond=s_cond,
        i_ab=i_ab,
        i_qb=i_qb,
        i_rb=i_rb,
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

