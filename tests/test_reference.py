"""Every `Sweep` column and `EurReport` field against the 40-digit reference,
within the error budget stated in `reference.py`.

Each contract has one test:

1. `test_reference_gives_its_closed_forms`: the reference's own values on
   states and angles with closed forms, and the budget's arithmetic;
2. `test_reports_match_the_reference_at_small_outcome_probabilities`: an
   outcome of probability down to the 1e-12 floor keeps S(OB) within the
   budget;
3. `test_eur_sweep_matches_the_reference`: what `eur sweep` writes over
   the `cli_flags` domain, every column and report field at drawn rows
   (both presets at every row of 101) and every CSV cell at 12
   significant digits;
4. `test_lhs_exceeds_holevo_by_the_marginal_gap_on_drawn_states`:
   lhs - holevo = g + min(0, delta) on drawn states under Haar pairs;
5. `test_lhs_exceeds_holevo_by_the_marginal_gap_over_the_cli_domain`: the
   same at every row of `eur sweep`, and lhs == holevo where g = 0 in
   closed form;
6. `test_sweep_matches_the_closed_form_x_state_spectra`: every sweep
   state is an X state, and every field has the closed form of its spectra.
"""

import contextlib
import io
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import eur.cli as cli
import reference
from eur.bounds import evaluate_eur
from eur.channels import apply_to_memory, unruh_channel
from eur.measurement import ProjectiveObservable, pauli_observable
from eur.states import bell_diagonal_p, from_pure, x_state
from helpers import (cli_flags, random_density_matrix, random_pure_state, random_unitary, shannon_bits,
                     sweep_argv_of)

MP = reference.MP
seeds = st.integers(min_value=0, max_value=2**32 - 1)

# Two 40-digit routes to one value agree to mp.dps less five digits: the
# float64 budget does not apply here, and the worst difference seen
# between the closed forms below and the reference's is 2e-39.
MP_ATOL = MP.mpf(10) ** (5 - MP.dps)

H_QUARTER = -(MP.log(0.25, 2) + 3 * MP.log(0.75, 2)) / 4
X, Y = reference.pauli_basis("x"), reference.pauli_basis("y")
FIG2_STATE = reference.initial_state("x", 1.0)
UNIT = 2.0 ** -43  # the budget at 0: K * EPS with K = 512


def flagged():
    """How many of 1, 1 + 1e-12 and 1 + 1e-14 leave the budget of 1, and the first."""
    bad = reference.outside_budget([1.0, 1.0 + 1e-12, 1.0 + 1e-14], [1.0, 1.0, 1.0])
    return {"count": len(bad), "first": bad[0][0]}


# a thunk giving named reference values, and their closed forms
CLOSED_FORMS = {
    # p = 1/2 Bell-diagonal state, x/y pair: lhs = 1 + h(1/4), I(R;B) = 1 - h(1/4)
    "bell-half-xy": (lambda: reference.report(X, Y, reference.initial_state("bell", 0.5)),
                     {"lhs": 1 + H_QUARTER, "i_rb": 1 - H_QUARTER, "berta_bound": 1.5, "c": 0.5}),
    # the channel is the identity at r = 0, and the fig2 anchor gives zero everywhere
    "fig2-anchor": (lambda: reference.report(X, Y, reference.evolve(FIG2_STATE, 0)),
                    {"lhs": 0, "berta_bound": 0, "holevo_bound": 0}),
    # a = 2 pi omega / ln 2 makes exp(-2 pi omega / a) exactly 1/2, so cos^2 r = 2/3
    "unruh-r": (lambda: {"cos^2 r": MP.cos(reference.unruh_r(0.2 * MP.pi / MP.log(2), 0.1)) ** 2},
                {"cos^2 r": MP.mpf(2) / 3}),
    "budget": (lambda: {"at 0": reference.budget(0.0), "at -3": reference.budget(-3.0)},
               {"at 0": UNIT, "at -3": 4 * UNIT}),
    "outside-budget": (flagged, {"count": 1, "first": 1}),
}


@pytest.mark.parametrize("case", CLOSED_FORMS)
def test_reference_gives_its_closed_forms(case):
    values, expected = CLOSED_FORMS[case]
    got = values()
    off = {name: got[name] for name, x in expected.items() if not abs(got[name] - x) < MP_ATOL}
    assert not off, off


def small_outcome_states():
    """Probe sqrt(1-e)|+> + sqrt(e) e^{i theta}|->, so that the sigma_x
    outcome "-" has probability e, times a random memory qubit, then the
    channel at a random angle: ten states at each of e = 1e-7, 1e-9, 1e-11."""
    rng = np.random.default_rng(0)
    plus, minus = np.array([1.0, 1.0]) / np.sqrt(2), np.array([1.0, -1.0]) / np.sqrt(2)
    states = []
    for e in np.repeat([1e-7, 1e-9, 1e-11], 10):
        probe = np.sqrt(1 - e) * plus + np.sqrt(e) * np.exp(1j * rng.uniform(0, 2 * np.pi)) * minus
        psi = np.kron(probe, random_pure_state(rng, 2))
        states.append(apply_to_memory(unruh_channel(rng.uniform(0.0, 0.78)), from_pure(psi)))
    return np.stack(states)


def at_the_floor(e):
    """(1-e)|11><11| + e |0><0| (x) I/2: the sigma_z outcome 0 has probability
    e, and its memory block e I/2, never divided by e, still carries entropy
    e (1 - log2 e) into S(ZB)."""
    return lambda: (1 - e) * np.diag([0.0, 0.0, 0.0, 1.0]) + e * np.diag([0.5, 0.5, 0.0, 0.0])


# the observable pair, and a thunk giving the state or stack; each small
# memory block must give S(OB) within the budget, not be rejected or
# dropped for its size
SMALL_OUTCOMES = {
    "x-outcome-1e-7-to-1e-11-xy": ("xy", small_outcome_states),
    **{f"z-outcome-{e}-{pair}": (pair, at_the_floor(e))
       for e in (5e-13, 1e-12) for pair in ("zx", "zy", "xz")},
}


@pytest.mark.parametrize("case", SMALL_OUTCOMES)
def test_reports_match_the_reference_at_small_outcome_probabilities(case):
    pair, states = SMALL_OUTCOMES[case]
    q, r = (pauli_observable(axis) for axis in pair)
    states = states()
    expected = reference.reports(q.basis, r.basis, states)
    assert not reference.report_outside_budget(evaluate_eur(q, r, states), expected)


@st.composite
def cli_domain_argv(draw):
    """(argv, rows): a `cli_flags` draw, its first and last grid rows and two drawn ones."""
    flags = draw(cli_flags())
    steps = flags["steps"]
    drawn = draw(st.lists(st.integers(0, steps - 1), min_size=2, max_size=2))
    return sweep_argv_of(flags), sorted({0, steps - 1, *drawn})


@pytest.fixture(scope="module")
def sweep_csv(tmp_path_factory):
    return tmp_path_factory.mktemp("differential") / "sweep.csv"


@given(case=cli_domain_argv())
@example(case=(["sweep", "--preset", "fig1", "--steps", "101"], list(range(101))))
@example(case=(["sweep", "--preset", "fig2", "--steps", "101"], list(range(101))))
@settings(max_examples=200, deadline=None)
def test_eur_sweep_matches_the_reference(sweep_csv, case):
    # what `eur sweep` writes, against the 40-digit reference at its rows
    argv, rows = case
    run = {}

    def run_sweep(cfg):  # the config and sweep that main writes
        run["cfg"], run["sweep"] = cfg, sweep(cfg)
        return run["sweep"]

    sweep = cli.run_sweep
    with pytest.MonkeyPatch.context() as patch, contextlib.redirect_stderr(io.StringIO()) as err:
        patch.setattr(cli, "run_sweep", run_sweep)
        code = cli.main([*argv, f"--out={sweep_csv}"])
    assert code == cli.EXIT_OK, err.getvalue()
    cfg, sweep = run["cfg"], run["sweep"]
    expected, reports = reference.sweep(cfg, rows)
    for name, column in vars(sweep).items():
        if column is None:  # an r-sweep has no a column
            assert expected[name] is None
            continue
        bad = reference.outside_budget(column[rows], expected[name])
        assert not bad, (name, bad[:3])
    q, r = pauli_observable(cfg.obs[0]), pauli_observable(cfg.obs[1])
    initial = bell_diagonal_p(cfg.p) if cfg.state == "bell" else x_state(cfg.p)
    report = evaluate_eur(q, r, apply_to_memory(unruh_channel(sweep.r[rows]), initial))
    assert not reference.report_outside_budget(report, reports)
    # every cell holds its column's value at 12 significant digits
    lines = sweep_csv.read_text(encoding="ascii").splitlines()
    assert lines[0] == cli.CSV_HEADER and len(lines) == cfg.steps + 1
    for k, line in enumerate(lines[1:]):
        cells = ["" if column is None else f"{column[k]:.12g}" for column in vars(sweep).values()]
        assert line.split(",") == cells, k


def _marginal_gap(rho_a, q_basis, r_basis) -> float:
    """g = H(Q) + H(R) - log2(1/c) - S(A), from Alice's marginal alone, in
    raw numpy: the Maassen-Uffink gap of rho_A (Adabi, Salimi, Haseli,
    PRA 93, 062123 (2016)), >= 0.

    It is how far `lhs` lies above `holevo`. With H(O|B) = H(O) - I(O;B),
    S(A|B) = S(AB) - S(B) and I(A;B) = S(A) + S(B) - S(AB), the
    definitions give

        lhs - berta = H(Q) + H(R) - log2(1/c) - S(A) + delta = g + delta,

    and holevo = berta + max(0, delta), so lhs - holevo = g + min(0, delta).
    The channel acts on the memory alone, so g is constant along a sweep,
    and where g = 0 the bound lhs >= holevo makes delta >= 0 and
    lhs == holevo: the Holevo bound is exact.
    """
    h = [shannon_bits(np.einsum("ki,kl,li->i", basis.conj(), rho_a, basis).real)
         for basis in (q_basis, r_basis)]
    c = float((abs(q_basis.conj().T @ r_basis) ** 2).max())
    return h[0] + h[1] - math.log2(1.0 / c) - shannon_bits(np.linalg.eigvalsh(rho_a))


DRAWN_STATES = {"complex": {}, "real": {"real": True}, "rank-one": {"rank": 1}}


@pytest.mark.parametrize("kind", DRAWN_STATES)
@given(seed=seeds)
@settings(max_examples=50, deadline=None)
def test_lhs_exceeds_holevo_by_the_marginal_gap_on_drawn_states(kind, seed):
    # rho = G G^dag / tr, under a Haar pair of observables
    rng = np.random.default_rng(seed)
    rho = random_density_matrix(rng, 4, **DRAWN_STATES[kind])
    q_basis, r_basis = random_unitary(rng, 2), random_unitary(rng, 2)
    report = evaluate_eur(ProjectiveObservable("q", q_basis), ProjectiveObservable("r", r_basis), rho)
    gap = _marginal_gap(rho.reshape(2, 2, 2, 2).trace(axis1=1, axis2=3), q_basis, r_basis)
    excess = report.lhs - report.holevo_bound
    assert abs(excess - (gap + min(0.0, report.delta))) <= reference.budget(2.0), (excess, gap)


@given(case=cli_domain_argv())
@example(case=(["sweep", "--state", "x", "--p", "1.0", "--obs", "x,y", "--steps", "9"], []))
@example(case=(["sweep", "--state", "x", "--p", "0.3", "--obs", "x,y", "--steps", "9"], []))
@settings(max_examples=200, deadline=None)
def test_lhs_exceeds_holevo_by_the_marginal_gap_over_the_cli_domain(case):
    """At every row of `eur sweep`, lhs - holevo = g + min(0, delta), g
    from rho_A (`_marginal_gap`): I/2 for `bell`, diag(p/2, 1 - p/2) for
    `x`. g = 0 in closed form, so lhs == holevo, for two distinct axes
    when rho_A is I/2 (`bell`, or `x` at p = 1: H(Q) = H(R) = S(A) = 1,
    c = 1/2), and for `x` with a pair that includes z (rho_A diagonal:
    H(Z) = S(A), the other axis is unbiased, H = 1, c = 1/2). Elsewhere
    g > 0 in general: `x` with x,y at p = 0.3 gives g = 1 - S(A) = 0.39.
    """
    argv, _ = case
    cfg = cli.parse_args(argv)
    sweep = cli.run_sweep(cfg)
    rho_a = np.eye(2) / 2 if cfg.state == "bell" else np.diag([cfg.p / 2, 1 - cfg.p / 2])
    q, r = (pauli_observable(axis) for axis in cfg.obs)
    gap = _marginal_gap(rho_a, q.basis, r.basis)
    excess = sweep.lhs - sweep.holevo
    off = abs(excess - (gap + np.minimum(0.0, sweep.delta)))
    assert (off <= reference.budget(2.0)).all(), (gap, off.max())
    if cfg.obs[0] != cfg.obs[1] and (cfg.state == "bell" or "z" in cfg.obs or cfg.p == 1.0):
        assert (abs(excess) <= reference.budget(2.0)).all(), abs(excess).max()


def _roots(a, d, b) -> list:
    """Both eigenvalues of the Hermitian 2x2 [[a, b], [b*, d]]."""
    mean, radius = (a + d) / 2, MP.sqrt(((a - d) / 2) ** 2 + abs(b) ** 2)
    return [mean - radius, mean + radius]


def _bits(weights):
    return -sum(w * MP.log(w, 2) for w in weights if w > 0)


def x_state_report(rho, r, pair) -> dict:
    """The `EurReport` fields of an X state after the Unruh channel at angle
    r, under two distinct Pauli axes, from the closed forms of its spectra
    (Ali, Rau, Alber, PRA 81, 042105 (2010)), in mpmath.

    `rho` is an mpmath 4x4 matrix that is 0 off its diagonal and
    anti-diagonal, with real entries. With c = cos r and s = sin r the
    channel maps rho[0,0] to c^2 rho[0,0], rho[1,1] to rho[1,1] + s^2
    rho[0,0], rho[2,2] to c^2 rho[2,2], rho[3,3] to rho[3,3] + s^2
    rho[2,2], and rho[0,3] and rho[1,2] to c times themselves, and keeps
    the X shape. In the evolved entries, rho_AB is the direct sum of its
    blocks on {0, 3} and {1, 2}; both marginals are diagonal; the sigma_z memory blocks are
    diag(rho[0,0], rho[1,1]) and diag(rho[2,2], rho[3,3]); and both
    sigma_x (sigma_y) blocks have the diagonal ((rho[0,0] + rho[2,2]) / 2,
    (rho[1,1] + rho[3,3]) / 2) and an off-diagonal entry of modulus
    |rho[0,3] + rho[1,2]| / 2 (|rho[0,3] - rho[1,2]| / 2). S(OB) is the
    entropy of O's pooled block eigenvalues, and c = 1/2 for the pair.
    """
    c, s = MP.cos(r), MP.sin(r)
    d0, d1, d2, d3 = (MP.re(rho[k, k]) for k in range(4))
    d0, d1, d2, d3 = c * c * d0, d1 + s * s * d0, c * c * d2, d3 + s * s * d2
    e03, e12 = c * MP.re(rho[0, 3]), c * MP.re(rho[1, 2])
    unbiased = ((d0 + d2) / 2, (d1 + d3) / 2)
    blocks = {"z": [(d0, d1, 0), (d2, d3, 0)],
              "x": 2 * [(*unbiased, (e03 + e12) / 2)],
              "y": 2 * [(*unbiased, (e03 - e12) / 2)]}
    s_ab = _bits(_roots(d0, d3, e03) + _roots(d1, d2, e12))
    s_a, s_b = _bits([d0 + d1, d2 + d3]), _bits([d0 + d2, d1 + d3])
    s_ob = [_bits([w for block in blocks[axis] for w in _roots(*block)]) for axis in pair]
    i_qb, i_rb = (s_b + _bits([a + d for a, d, _ in blocks[axis]]) - s for axis, s in zip(pair, s_ob))
    berta, delta = 1 + s_ab - s_b, s_a + s_b - s_ab - i_qb - i_rb
    return {"lhs": s_ob[0] + s_ob[1] - 2 * s_b, "berta_bound": berta,
            "holevo_bound": berta + max(0, delta), "delta": delta, "s_cond": s_ab - s_b,
            "i_ab": s_a + s_b - s_ab, "i_qb": i_qb, "i_rb": i_rb}


# both presets at every grid point of 1001, and both families at four p
# under a pair with and one without a complex basis at 101
X_SWEEPS = [["--preset", preset, "--steps", "1001"] for preset in ("fig1", "fig2")] + [
    ["--state", state, "--p", p, "--obs", obs, "--steps", "101"]
    for state in ("bell", "x") for p in ("0", "0.3", "0.5", "1") for obs in ("x,z", "y,z")]


@pytest.mark.parametrize("flags", X_SWEEPS, ids=" ".join)
def test_sweep_matches_the_closed_form_x_state_spectra(flags):
    # every sweep state is an X state, so every field has a closed form at
    # run_sweep's own float64 angles, taken as exact
    cfg = cli.parse_args(["sweep", *flags])
    sweep = cli.run_sweep(cfg)
    initial = reference.initial_state(cfg.state, cfg.p)
    expected = [x_state_report(initial, MP.mpf(r), cfg.obs) for r in sweep.r.tolist()]
    q, r = pauli_observable(cfg.obs[0]), pauli_observable(cfg.obs[1])
    state = bell_diagonal_p(cfg.p) if cfg.state == "bell" else x_state(cfg.p)
    report = evaluate_eur(q, r, apply_to_memory(unruh_channel(sweep.r), state))
    for name in expected[0]:
        bad = reference.outside_budget(getattr(report, name), [rep[name] for rep in expected])
        assert not bad, (name, bad[:3])
    # the forms themselves against the reference's eighe spectra, at the last row
    last = reference.report(reference.pauli_basis(cfg.obs[0]), reference.pauli_basis(cfg.obs[1]),
                            reference.evolve(initial, MP.mpf(sweep.r[-1])))
    assert all(abs(last[name] - expected[-1][name]) < MP_ATOL for name in expected[-1])
