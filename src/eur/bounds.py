"""Uncertainty quantities for two measurements on a qubit with a quantum memory.

All quantities are in bits. The measured uncertainty is the sum of the
two post-measurement conditional entropies; it is bounded below both by
log2(1/c) + S(A|B) and by the tighter variant that adds max(0, delta),
where delta trades total correlations against the two Holevo quantities.

`evaluate_eur` is the one state-dependent evaluator. It takes one 4x4
state or a (..., 4, 4) stack of them, and `_conditioned`, its one
reader of the state, checks it once and writes both marginals and the
memory blocks of Q's and R's outcomes into one stacked array, whose
entropies `evaluate_eur` reads in one pass. It returns an `EurReport`
whose state-dependent fields are floats for one state or arrays of the
stack's shape.
"""

import math
from dataclasses import dataclass

import numpy as np

from .linalg import BOUND_ORDER_ATOL, _eigenvalues, _hermitian_part, _real_or_complex
from .measurement import ProjectiveObservable, complementarity
from .states import _checked_spectrum, _entropy_bits, from_pure


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


def _conditioned(rho: np.ndarray, q: ProjectiveObservable, r: ProjectiveObservable) -> tuple:
    """(spectrum, states, p) for both outcomes of q, then both of r.

    rho must be one 4x4 state or a (..., 4, 4) stack; its shape is checked
    first, then the state itself, once, by `states._checked_spectrum`,
    which gives `spectrum`, rho's eigenvalues. A float64 rho stays
    float64, so its check, its spectrum and its marginals run in float64;
    the rows are complex, so `states` is complex either way. `states` is
    one complex128 array, (6, ..., 2, 2), allocated once and written in
    place: rho_A and rho_B, each the sum of two diagonal blocks of rho,
    then the four unnormalized memory blocks <i|rho|i> (|i> the
    eigenstates on the probe), outcome first. One product of the stacked
    rows conj(P_i) = P_i^T, which each `ProjectiveObservable` stores, with
    all of rho as a (4, 4N) matrix, probe indices (b, c) down and stack
    and memory indices (..., j, l) across, writes the blocks straight into
    `states[2:]`; p, (4, ...), holds their traces. The rows stay on the
    left: swapped, BLAS takes another kernel for the product. `states` is
    not checked again.
    """
    rho = _real_or_complex(rho)
    if rho.shape[-2:] != (4, 4):
        raise ValueError(f"expected a 4x4 two-qubit state, got shape {rho.shape}")
    spectrum = _checked_spectrum(rho)
    stack = rho.shape[:-2]
    n = len(stack)
    t = rho.reshape(stack + (2, 2, 2, 2))  # rho[..., b, j, c, l] (probe b, c; memory j, l)
    rows = np.concatenate((q._rows, r._rows))
    columns = t.transpose((n, n + 2, *range(n), n + 1, n + 3)).reshape(4, -1)
    states = np.empty((2 + len(rows),) + stack + (2, 2), dtype=complex)
    np.add(t[..., :, 0, :, 0], t[..., :, 1, :, 1], out=states[0])
    np.add(t[..., 0, :, 0, :], t[..., 1, :, 1, :], out=states[1])
    np.matmul(rows, columns, out=states[2:].reshape(len(rows), -1))
    p = (states[2:, ..., 0, 0] + states[2:, ..., 1, 1]).real
    return spectrum, states, p


def evaluate_eur(
    q: ProjectiveObservable, r: ProjectiveObservable, rho: np.ndarray
) -> EurReport:
    """Evaluate the uncertainty sum and every lower bound on one state or a stack.

    rho is checked once, by `_conditioned`. The six 2x2 matrices it
    stacks along the first axis (both marginals, then the four
    unnormalized memory blocks B_i = <i|rho|i>) are read by index, with
    the unchecked closed form `linalg._eigenvalues`.

    The post-measurement state rho_OB = sum_i |i><i| (x) B_i is block
    diagonal, so its spectrum is that of its blocks pooled: S(OB) is the
    entropy of O's four block eigenvalues, with no division by p_i, and
    I(O;B) = S(B) + H(p) - S(OB), S(O|B) = H(p) - I(O;B). Every entropy,
    of a spectrum or of the outcome probabilities H(p), is
    `states._entropy_bits`, which clips each weight to [0, 1]: p_i = tr B_i
    is at most 1 for a state, so a p_i = 1 + d from roundoff or from trace
    slack within TRACE_ATOL gives a term of 0 rather than about -d / ln 2.

    For one state, S(AB), the six entropies, both H(p) and both I(O;B)
    are turned into Python floats once, and the fields are combined from
    them in float arithmetic: the same IEEE operations in the same order
    as on a stack, so element k of a stack's report has the bits of state
    k's own report. `max(delta, 0.0)` stands for `np.maximum(0.0, delta)`,
    whose -0.0 and NaN it keeps.
    """
    spectrum, states, p = _conditioned(rho, q, r)
    pairs = (2, 2) + p.shape[1:]  # (observable, outcome, ...)
    s_ab = _entropy_bits(spectrum)
    s = _entropy_bits(_eigenvalues(states))
    h = _entropy_bits(p.reshape(pairs), axis=1)
    i_ob = s[1] + h - s[2:].reshape(pairs).sum(axis=1)
    one_state = s_ab.ndim == 0
    if one_state:
        s_ab, s, h, i_ob = float(s_ab), s.tolist(), h.tolist(), i_ob.tolist()
    s_cond, i_ab = s_ab - s[1], s[0] + s[1] - s_ab
    (h_q, h_r), (i_qb, i_rb) = h, i_ob
    c = complementarity(q, r)
    mu = math.log2(1.0 / c)
    berta = mu + s_cond
    d = i_ab - i_qb - i_rb
    return EurReport(
        lhs=(h_q - i_qb) + (h_r - i_rb),
        mu_bound=mu,
        berta_bound=berta,
        holevo_bound=berta + (max(d, 0.0) if one_state else np.maximum(0.0, d)),
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
    The two lhs checks allow BOUND_ORDER_ATOL; holevo >= berta allows
    nothing, as `evaluate_eur`'s berta + max(0, delta) cannot round below
    berta.
    """
    columns = {"lhs": np.asarray(lhs, dtype=float), "berta": np.asarray(berta, dtype=float),
               "holevo": np.asarray(holevo, dtype=float)}
    found = {}
    for upper, lower, atol in (("lhs", "berta", BOUND_ORDER_ATOL),
                               ("lhs", "holevo", BOUND_ORDER_ATOL),
                               ("holevo", "berta", 0.0)):
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
    q_op = _hermitian_part(q_op, "Q")
    r_op = _hermitian_part(r_op, "R")
    if q_op.shape != (2, 2) or r_op.shape != (2, 2):
        raise ValueError(f"Q and R must be 2x2 operators, got shapes {q_op.shape} and {r_op.shape}")
    psi = _real_or_complex(psi).reshape(-1)
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

