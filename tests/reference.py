"""The whole pipeline in 40-digit arithmetic, and the error budget of the
float64 package against it.

`report` gives every `EurReport` field of one two-qubit state and one
observable pair; `sweep` gives every `Sweep` column of a sweep
configuration, from the mixing angle r = atan(exp(-pi omega / a)) over
the Kraus channel and the evolved state to the bounds. Everything runs in
mpmath at mp.dps = 40, in a private context, and every entropy comes from
an `eighe` spectrum: S(QB) and S(RB) from the dephased 4x4 states
themselves, not from the pooled spectra of the unnormalized memory
blocks <i|rho|i>, which the package uses, and I(O;B) from
S(B) - sum_i p_i S(rho_B|i), which it does not. Nothing here imports
`eur`. Float inputs (random states, observable bases, sweep bounds) are
taken as the exact binary numbers they are; the sweep's initial states
and Pauli bases are built exactly. As in the package, eigenvalues below
0 count as 0; an outcome of probability 0 adds nothing to the sum.

The budget. A float64 value v of reference value x passes when

    |v - x| <= K * EPS * (1 + |x|),    EPS = 2**-52,   K = 2**9.

Why K = 512. The entropies are O(1) sums of h(w) = -w log2 w over the
eigenvalues w of 2x2 and 4x4 states. The state entries carry a few ulps
from the channel and the contractions, and a backward-stable Hermitian
solver (LAPACK's, or the closed-form 2x2 one) returns each eigenvalue
within about n = 4 such ulps, so an eigenvalue error is d <= ~16 EPS.
For w > d the entropy term moves by |h'(w)| d = (log2(1/w) + 1/ln 2) d;
at a zero eigenvalue (a pure or rank-deficient state) it moves by up to
h(d) = d log2(1/d), about 48 d. So one spectrum's entropy may err by
4 eigenvalues * 48 * 16 EPS ~ 3000 EPS in the worst alignment, and by
far less in practice: the largest error seen is about 18 EPS on both
presets at 10^3 grid points and about 90 EPS on random rank-one states
(the zero eigenvalues dominate; full-rank states stay near 6 EPS).
K = 512 sits between the two: more than five times what is seen, so
rounding changes do not trip it, and small enough that a lost term, a
swapped operand or a wrong branch cannot hide in it. It is the one
roundoff tolerance of the tests outside `test_acceptance.py`, whose
tolerances are the spec's; a complex value is held to it with |x| its
modulus. The package's own slack is looser: `BOUND_ORDER_ATOL` (1e-9)
in lhs >= berta and lhs >= holevo, about 3.5 decades above the budget
at |x| = 2, while holevo >= berta holds with none, as holevo is berta
plus a term >= 0.
"""

import dataclasses

import mpmath
import numpy as np

MP = mpmath.MPContext()
MP.dps = 40

EPS = 2.0 ** -52
K = 2 ** 9


def budget(reference) -> float:
    """The largest allowed |value - reference| at one reference value, real
    or complex (|x| is then its modulus)."""
    return K * EPS * (1.0 + abs(complex(reference)))


def _number(x):
    return complex(x) if np.iscomplexobj(x) else float(x)


def outside_budget(values, references) -> list:
    """(index, value, reference, error / budget) for every element outside
    the budget, real or complex; an empty list when all pass."""
    values = np.asarray(values)
    values = np.ravel(values.astype(complex if values.dtype.kind == "c" else float))
    return [
        (i, v, _number(x), float(abs(v - x)) / budget(x))
        for i, (v, x) in enumerate(zip(values.tolist(), np.ravel(references).tolist()))
        if not abs(v - x) <= budget(x)
    ]


def report_outside_budget(eur_report, expected) -> dict:
    """{field: `outside_budget` list} for every field of an `EurReport`, of
    one state or a stack, that leaves the budget of the reference reports
    `expected`, one per state; empty when all pass."""
    failures = {}
    for field in dataclasses.fields(eur_report):
        values = np.broadcast_to(np.ravel(getattr(eur_report, field.name)), (len(expected),))
        bad = outside_budget(values, [rep[field.name] for rep in expected])
        if bad:
            failures[field.name] = bad
    return failures


def matrix(m):
    """An exact mpmath copy of a float or complex numpy matrix."""
    m = np.asarray(m, dtype=complex)
    return MP.matrix([[MP.mpc(z.real, z.imag) for z in row] for row in m.tolist()])


def _kron(a, b):
    out = MP.matrix(a.rows * b.rows, a.cols * b.cols)
    for i in range(a.rows):
        for j in range(a.cols):
            for k in range(b.rows):
                for m in range(b.cols):
                    out[i * b.rows + k, j * b.cols + m] = a[i, j] * b[k, m]
    return out


def _trace(m):
    return sum(m[i, i] for i in range(m.rows))


def entropy(m):
    """-tr(m log2 m) from the `eighe` spectrum of (m + m^dag)/2."""
    eigenvalues = MP.eighe((m + m.transpose_conj()) / 2, eigvals_only=True)
    return -sum(w * MP.log(w, 2) for w in eigenvalues if w > 0)


def _memory_block(m, v):
    """<v|_A m |v>_A, the unnormalized memory block for probe vector v."""
    return MP.matrix([[sum(MP.conj(v[b]) * m[2 * b + j, 2 * c + k] * v[c]
                           for b in range(2) for c in range(2))
                       for k in range(2)] for j in range(2)])


def _probe_marginal(m):
    return MP.matrix([[m[2 * i, 2 * k] + m[2 * i + 1, 2 * k + 1] for k in range(2)]
                      for i in range(2)])


def _memory_marginal(m):
    return MP.matrix([[m[j, k] + m[2 + j, 2 + k] for k in range(2)] for j in range(2)])


def _outcome_terms(m, basis):
    """(S(OB) of the dephased 4x4 state, sum_i p_i S(rho_B|i))."""
    dephased = MP.matrix(4, 4)
    mixed = MP.mpf(0)
    identity = MP.eye(2)
    for i in range(2):
        v = [basis[0, i], basis[1, i]]
        lifted = _kron(MP.matrix([[v[a] * MP.conj(v[b]) for b in range(2)] for a in range(2)]),
                       identity)
        dephased += lifted * m * lifted
        block = _memory_block(m, v)
        p = MP.re(_trace(block))
        if p > 0:
            mixed += p * entropy(block / p)
    return entropy(dephased), mixed


_REPORTS = {}


def report(q_basis, r_basis, rho) -> dict:
    """Every `EurReport` field, as mpf, for one 4x4 state and two observables
    given by their eigenbases (columns); each argument is a numpy array or an
    mpmath matrix. Reports are cached on the exact entries of the three
    matrices, so a state that a sweep, a table or a drawn example meets
    again is computed once; each call gets its own dict of the cached,
    immutable mpf values."""
    m, q, r = (x if isinstance(x, MP.matrix) else matrix(x) for x in (rho, q_basis, r_basis))
    key = tuple(tuple(x) for x in (q, r, m))
    if key not in _REPORTS:
        s_ab = entropy(m)
        s_a, s_b = entropy(_probe_marginal(m)), entropy(_memory_marginal(m))
        s_qb, mixed_q = _outcome_terms(m, q)
        s_rb, mixed_r = (s_qb, mixed_q) if key[1] == key[0] else _outcome_terms(m, r)
        c = max(abs(sum(MP.conj(q[k, i]) * r[k, j] for k in range(2))) ** 2
                for i in range(2) for j in range(2))
        mu = MP.log(1 / c, 2)
        i_ab = s_a + s_b - s_ab
        i_qb, i_rb = s_b - mixed_q, s_b - mixed_r
        d = i_ab - i_qb - i_rb
        _REPORTS[key] = {
            "lhs": s_qb + s_rb - 2 * s_b, "mu_bound": mu, "berta_bound": mu + s_ab - s_b,
            "holevo_bound": mu + s_ab - s_b + max(0, d), "delta": d, "c": c,
            "s_cond": s_ab - s_b, "i_ab": i_ab, "i_qb": i_qb, "i_rb": i_rb}
    return dict(_REPORTS[key])


def reports(q_basis, r_basis, states) -> list:
    """`report` of each state of a (4, 4) state or a (..., 4, 4) stack,
    given as numpy arrays."""
    return [report(q_basis, r_basis, rho) for rho in np.reshape(states, (-1, 4, 4))]


def pauli_basis(axis: str):
    """The exact eigenbasis of a Pauli operator, +1 eigenvector first."""
    h = 1 / MP.sqrt(2)
    return {"z": MP.eye(2), "x": MP.matrix([[h, h], [h, -h]]),
            "y": MP.matrix([[h, h], [1j * h, -1j * h]])}[axis]


def initial_state(family: str, p):
    """The CLI's state families: "bell", p|psi-><psi-| + (1-p)/2 (|psi+><psi+|
    + |phi+><phi+|), and "x", p|psi+><psi+| + (1-p)|11><11|."""
    p = MP.mpf(p)
    h = 1 / MP.sqrt(2)

    def projector(v):
        return MP.matrix([[a * b for b in v] for a in v])

    psi_plus = projector([0, h, h, 0])
    if family == "bell":
        return (p * projector([0, h, -h, 0])
                + (1 - p) / 2 * (psi_plus + projector([h, 0, 0, h])))
    return p * psi_plus + (1 - p) * projector([0, 0, 0, 1])


def unruh_r(a, omega):
    """r = atan(exp(-pi omega / a)), and r = 0 at a = 0."""
    a, omega = MP.mpf(a), MP.mpf(omega)
    return MP.atan(MP.exp(-MP.pi * omega / a)) if a > 0 else MP.mpf(0)


def evolve(rho, r):
    """sum_j (I (x) K_j) rho (I (x) K_j)^dag with K_1 = [[cos r, 0], [0, 1]]
    and K_2 = [[0, 0], [sin r, 0]]."""
    out = MP.matrix(4, 4)
    for k in (MP.matrix([[MP.cos(r), 0], [0, 1]]), MP.matrix([[0, 0], [MP.sin(r), 0]])):
        lifted = _kron(MP.eye(2), k)
        out += lifted * rho * lifted.transpose_conj()
    return out


def sweep(cfg, rows=None) -> tuple:
    """(columns, reports) of the sweep that `cfg` (a `SweepConfig`) describes,
    at the grid indices `rows`, every grid point by default: the six
    `Sweep` columns as lists of mpf (`a` is None for an r-sweep), and one
    `report` dict per row."""
    steps = cfg.steps
    lo, hi = MP.mpf(cfg.a_min), MP.mpf(cfg.a_max)
    grid = [lo + (hi - lo) * k / (steps - 1) for k in (range(steps) if rows is None else rows)]
    r_column = [unruh_r(a, cfg.omega) for a in grid] if cfg.sweep_var == "a" else grid
    initial = initial_state(cfg.state, cfg.p)
    q, o = pauli_basis(cfg.obs[0]), pauli_basis(cfg.obs[1])
    reports = [report(q, o, evolve(initial, r)) for r in r_column]
    columns = {"a": grid if cfg.sweep_var == "a" else None, "r": r_column}
    for column, field in (("lhs", "lhs"), ("berta", "berta_bound"),
                          ("holevo", "holevo_bound"), ("delta", "delta")):
        columns[column] = [rep[field] for rep in reports]
    return columns, reports
