"""Uncertainty sums, the memory-assisted lower bounds, and the report."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from eur import linalg, states
from eur.bounds import (
    berta_bound,
    bound_violations,
    conditional_entropy,
    delta,
    evaluate_eur,
    holevo_bound,
    mutual_information,
    robertson_bound,
    uncertainty_lhs,
)
from eur.channels import apply_to_memory, unruh_channel
from eur.linalg import tensor
from eur.measurement import ProjectiveObservable, holevo_quantity, measurement_ensemble, pauli_observable
from eur.states import bell_diagonal_p, x_state
from helpers import (
    BOUND_GAP_ATOL,
    BOUND_ORDER_ATOL,
    PHI_PLUS,
    SX,
    SY,
    SZ,
    proj,
    random_density_matrix,
    random_pure_state,
    random_unitary,
    reference_bound_violations,
    shannon_bits,
)

seeds = st.integers(min_value=0, max_value=2**32 - 1)

# frozen from direct evaluation: h(1/4), and delta/holevo on the p = 1/2
# Bell-diagonal state with the x/y observable pair
H_QUARTER = 0.8112781244591328
DELTA_BD_HALF = 0.5 - (1 - H_QUARTER)        # 0.311278124459...
LHS_BD_HALF = 1.0 + H_QUARTER                # 1.811278124459...

X_OBS = pauli_observable("x")
Y_OBS = pauli_observable("y")
Z_OBS = pauli_observable("z")


def random_observable(rng) -> ProjectiveObservable:
    return ProjectiveObservable("random", random_unitary(rng, 2))


def test_conditional_entropy_values():
    assert conditional_entropy(proj(PHI_PLUS)) == pytest.approx(-1.0, abs=1e-12)
    assert conditional_entropy(np.eye(4) / 4) == pytest.approx(1.0, abs=1e-12)
    assert conditional_entropy(bell_diagonal_p(0.5)) == pytest.approx(0.5, abs=1e-9)


def test_mutual_information_values():
    rng = np.random.default_rng(31)
    product = tensor(random_density_matrix(rng, 2), random_density_matrix(rng, 2))
    assert mutual_information(product) == pytest.approx(0.0, abs=1e-9)
    assert mutual_information(proj(PHI_PLUS)) == pytest.approx(2.0, abs=1e-12)
    assert mutual_information(bell_diagonal_p(0.5)) == pytest.approx(0.5, abs=1e-9)


def test_uncertainty_lhs_values():
    assert uncertainty_lhs(X_OBS, Y_OBS, x_state(1.0)) == pytest.approx(0.0, abs=1e-9)
    assert uncertainty_lhs(X_OBS, Y_OBS, np.eye(4) / 4) == pytest.approx(2.0, abs=1e-9)
    assert uncertainty_lhs(X_OBS, Y_OBS, bell_diagonal_p(0.5)) == pytest.approx(
        LHS_BD_HALF, abs=1e-9
    )


@given(seeds)
@settings(max_examples=40, deadline=None)
def test_conditional_uncertainty_identity(seed):
    # S(O|B) = H(O) - I(O;B), the step that links the two bound families
    rng = np.random.default_rng(seed)
    rho = random_density_matrix(rng, 4)
    for obs in (random_observable(rng), X_OBS, Z_OBS):
        outcome_entropy = shannon_bits([p for p, _ in measurement_ensemble(obs, rho)])
        lhs_single = uncertainty_lhs(obs, obs, rho) / 2.0
        assert lhs_single == pytest.approx(
            outcome_entropy - holevo_quantity(obs, rho), abs=1e-9
        )


def test_maassen_uffink_values():
    maximally_mixed = np.eye(4) / 4
    assert evaluate_eur(X_OBS, Y_OBS, maximally_mixed).mu_bound == pytest.approx(1.0, abs=1e-9)
    assert evaluate_eur(Z_OBS, Z_OBS, maximally_mixed).mu_bound == pytest.approx(0.0, abs=1e-9)


def test_berta_bound_values():
    assert berta_bound(X_OBS, Y_OBS, x_state(1.0)) == pytest.approx(0.0, abs=1e-9)
    assert berta_bound(X_OBS, Y_OBS, bell_diagonal_p(0.5)) == pytest.approx(1.5, abs=1e-9)
    assert berta_bound(X_OBS, Y_OBS, np.eye(4) / 4) == pytest.approx(2.0, abs=1e-9)


def test_delta_values():
    rng = np.random.default_rng(32)
    product = tensor(random_density_matrix(rng, 2), random_density_matrix(rng, 2))
    assert delta(X_OBS, Y_OBS, product) == pytest.approx(0.0, abs=1e-9)
    assert delta(X_OBS, Y_OBS, bell_diagonal_p(0.5)) == pytest.approx(DELTA_BD_HALF, abs=1e-9)
    assert delta(X_OBS, Y_OBS, x_state(1.0)) == pytest.approx(0.0, abs=1e-9)


def test_holevo_bound_values():
    assert holevo_bound(X_OBS, Y_OBS, x_state(1.0)) == pytest.approx(0.0, abs=1e-9)
    assert holevo_bound(X_OBS, Y_OBS, bell_diagonal_p(0.5)) == pytest.approx(
        1.5 + DELTA_BD_HALF, abs=1e-9
    )
    rng = np.random.default_rng(33)
    product = tensor(random_density_matrix(rng, 2), random_density_matrix(rng, 2))
    assert holevo_bound(X_OBS, Y_OBS, product) == pytest.approx(
        berta_bound(X_OBS, Y_OBS, product), abs=1e-9
    )


def test_report_is_consistent_on_the_two_experiment_states():
    report = evaluate_eur(X_OBS, Y_OBS, bell_diagonal_p(0.5))
    assert report.c == pytest.approx(0.5, abs=1e-12)
    assert report.mu_bound == pytest.approx(1.0, abs=1e-9)
    assert report.s_cond == pytest.approx(0.5, abs=1e-9)
    assert report.i_ab == pytest.approx(0.5, abs=1e-9)
    assert report.i_qb == pytest.approx(0.0, abs=1e-9)
    assert report.i_rb == pytest.approx(1 - H_QUARTER, abs=1e-9)
    assert report.lhs == pytest.approx(LHS_BD_HALF, abs=1e-9)
    assert report.berta_bound == pytest.approx(1.5, abs=1e-9)
    assert report.holevo_bound == pytest.approx(1.5 + DELTA_BD_HALF, abs=1e-9)

    zero_report = evaluate_eur(X_OBS, Y_OBS, x_state(1.0))
    assert zero_report.lhs == pytest.approx(0.0, abs=1e-9)
    assert zero_report.berta_bound == pytest.approx(0.0, abs=1e-9)
    assert zero_report.holevo_bound == pytest.approx(0.0, abs=1e-9)


def test_report_matches_standalone_operations_exactly():
    rng = np.random.default_rng(34)
    # x_state(0) = |11><11|: sigma_z outcome 0 has probability exactly 0
    masked = np.stack([x_state(0.0), x_state(0.5)] + [
        apply_to_memory(unruh_channel(r), x_state(0.0)) for r in (0.2, np.pi / 4)])
    cases = (
        (X_OBS, Y_OBS, random_density_matrix(rng, 4)),
        (random_observable(rng), random_observable(rng),
         np.stack([random_density_matrix(rng, 4) for _ in range(64)])),
        (Z_OBS, Z_OBS, masked),
    )
    standalone = {"lhs": uncertainty_lhs, "berta_bound": berta_bound,
                  "holevo_bound": holevo_bound, "delta": delta}
    for q, r, rho in cases:
        report = evaluate_eur(q, r, rho)
        assert not reference.report_outside_budget(report, reference.reports(q.basis, r.basis, rho))
        for field, function in standalone.items():
            assert np.array_equal(function(q, r, rho), getattr(report, field)), field
        assert np.array_equal(conditional_entropy(rho), report.s_cond)
        assert np.array_equal(mutual_information(rho), report.i_ab)
        assert np.array_equal(holevo_quantity(q, rho), report.i_qb)
        assert np.array_equal(holevo_quantity(r, rho), report.i_rb)
        assert np.array_equal(report.holevo_bound, report.berta_bound + np.maximum(0.0, report.delta))


def test_evaluate_eur_takes_each_spectrum_once(monkeypatch):
    # one LAPACK spectrum, of rho; both marginals and the four conditional
    # memory states are 2x2 and solved in closed form as one stack
    rng = np.random.default_rng(36)
    solved, spectra = [], []

    def counted(name):
        solver = getattr(np.linalg, name)

        def call(a, *args, **kwargs):
            solved.append((name, np.shape(a)))
            return solver(a, *args, **kwargs)

        return call

    def spectrum(m):
        spectra.append(np.shape(m))
        return linalg._spectrum(m)

    one = apply_to_memory(unruh_channel(0.3), bell_diagonal_p(0.5))
    stack = np.stack([random_density_matrix(rng, 4) for _ in range(7)])
    for name in ("eigh", "eigvalsh", "eig", "eigvals"):
        monkeypatch.setattr(np.linalg, name, counted(name))
    monkeypatch.setattr(states, "_spectrum", spectrum)
    for rho, lead in ((one, ()), (stack, (7,))):
        solved.clear()
        spectra.clear()
        evaluate_eur(X_OBS, Y_OBS, rho)
        assert solved == [("eigvalsh", lead + (4, 4))]
        assert spectra == [lead + (4, 4), lead + (6, 2, 2)]


@pytest.mark.parametrize("bad, message", [
    (np.diag([0.4, 0.3, 0.2, 0.1]) + np.triu(np.full((4, 4), 1e-3), 1), "not Hermitian"),
    (np.diag([0.6, 0.5, 0.1, -0.2]), "below tolerance"),
    (np.diag([1.01, 0.0, 0.0, 0.0]), "eigenvalue 1.01 above 1"),
], ids=["non_hermitian", "negative_eigenvalue", "eigenvalue_above_one"])
def test_evaluate_eur_rejects_one_bad_state_in_a_stack(bad, message):
    rng = np.random.default_rng(37)
    stack = np.stack([random_density_matrix(rng, 4) for _ in range(5)])
    stack[2] = bad
    with pytest.raises(ValueError, match=message):
        evaluate_eur(X_OBS, Y_OBS, stack)


@pytest.mark.parametrize("scale", [2.0, 1.0 + 1e-9], ids=["trace_two", "trace_just_above_one"])
def test_evaluate_eur_rejects_an_unnormalized_state(scale):
    rho = scale * bell_diagonal_p(0.5)
    with pytest.raises(ValueError, match=f"state has trace {scale:.12g}, expected 1"):
        evaluate_eur(X_OBS, Y_OBS, rho)


def test_every_state_reader_rejects_an_unnormalized_state():
    stack = np.stack([np.eye(4) / 4, bell_diagonal_p(0.5), np.eye(4) / 2])
    with pytest.raises(ValueError, match="state has trace 2, expected 1"):
        evaluate_eur(X_OBS, Y_OBS, stack)
    with pytest.raises(ValueError, match="state has trace 0, expected 1"):
        conditional_entropy(np.zeros((4, 4)))
    with pytest.raises(ValueError, match="state has trace 0.5, expected 1"):
        holevo_quantity(X_OBS, np.eye(4) / 8)


def test_evaluate_eur_names_the_shape_of_a_non_two_qubit_input():
    with pytest.raises(ValueError, match=r"\(2, 2\)"):
        evaluate_eur(X_OBS, Y_OBS, np.eye(2) / 2)


def test_report_ordering_at_maximal_mixing():
    for initial in (bell_diagonal_p(0.5), x_state(1.0)):
        evolved = apply_to_memory(unruh_channel(np.pi / 4), initial)
        report = evaluate_eur(X_OBS, Y_OBS, evolved)
        assert report.lhs >= report.holevo_bound - 1e-9
        assert report.holevo_bound >= report.berta_bound - 1e-12


@given(seeds)
@settings(max_examples=100, deadline=None)
def test_both_bounds_hold_on_random_states(seed):
    rng = np.random.default_rng(seed)
    rho = random_density_matrix(rng, 4)
    q, r = random_observable(rng), random_observable(rng)
    report = evaluate_eur(q, r, rho)
    assert report.lhs >= report.berta_bound - 1e-9
    assert report.lhs >= report.holevo_bound - 1e-9


@pytest.mark.parametrize("make_state", [bell_diagonal_p, x_state],
                         ids=["bell_diagonal_half", "x_state_one"])
def test_bounds_grow_with_mixing_angle(make_state):
    initial = make_state(0.5) if make_state is bell_diagonal_p else make_state(1.0)
    grid = [k * np.pi / 40 for k in range(11)]
    reports = [
        evaluate_eur(X_OBS, Y_OBS, apply_to_memory(unruh_channel(r), initial))
        for r in grid
    ]
    for earlier, later in zip(reports, reports[1:]):
        assert later.berta_bound >= earlier.berta_bound - 1e-9
        assert later.holevo_bound >= earlier.holevo_bound - 1e-9


def test_robertson_equality_case():
    lhs, rhs = robertson_bound(SX, SY, np.array([1.0, 0.0]))
    assert lhs == pytest.approx(1.0, abs=1e-12)
    assert rhs == pytest.approx(1.0, abs=1e-12)


def test_robertson_commuting_pair_gives_trivial_bound():
    rng = np.random.default_rng(35)
    psi = random_pure_state(rng, 2)
    lhs, rhs = robertson_bound(SZ, SZ, psi)
    assert rhs == pytest.approx(0.0, abs=1e-12)
    assert lhs >= -1e-12


def test_robertson_on_plus_state():
    # |+> is a sigma_x eigenstate: Delta sx = 0, so the product collapses
    # and the commutator bound vanishes with <sz> = 0. The spread carries
    # sqrt-of-roundoff noise, hence the loose absolute tolerance.
    plus = np.array([1.0, 1.0]) / np.sqrt(2)
    lhs, rhs = robertson_bound(SX, SY, plus)
    assert rhs == pytest.approx(0.0, abs=1e-12)
    assert lhs == pytest.approx(0.0, abs=1e-7)
    assert lhs >= rhs - 1e-10


def test_robertson_rejects_bad_inputs():
    with pytest.raises(ValueError, match="Hermitian"):
        robertson_bound(np.array([[0, 1], [0, 0]]), SY, np.array([1.0, 0.0]))
    with pytest.raises(ValueError, match="norm"):
        robertson_bound(SX, SY, np.array([1.0, 1.0]))


@given(seeds)
@settings(max_examples=100, deadline=None)
def test_robertson_inequality_on_random_triples(seed):
    rng = np.random.default_rng(seed)
    g1 = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    g2 = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q_op = (g1 + g1.conj().T) / 2
    r_op = (g2 + g2.conj().T) / 2
    lhs, rhs = robertson_bound(q_op, r_op, random_pure_state(rng, 2))
    assert lhs >= rhs - 1e-10


def test_bound_violations_detects_each_invariant():
    lhs, berta, holevo = zip(
        (1.0, 0.5, 0.6),  # lhs >= holevo >= berta holds
        (0.1, 0.5, 0.1),  # lhs below berta
        (0.5, 0.1, 0.9),  # lhs below holevo only
        (1.0, 0.5, 0.4),  # holevo below berta only
        (0.0, 1.0, 2.0),  # every inequality fails; the first is named
        (math.nan, 0.5, 0.6),  # NaN compares false, so it violates nothing
    )
    assert bound_violations(np.array(lhs), np.array(berta), np.array(holevo)) == [
        (1, "lhs 0.1 below berta 0.5"),
        (2, "lhs 0.5 below holevo 0.9"),
        (3, "holevo 0.4 below berta 0.5"),
        (4, "lhs 0 below berta 1"),
    ]
    assert bound_violations(np.empty(0), np.empty(0), np.empty(0)) == []


bound_values = st.floats(min_value=-8.0, max_value=8.0)


def near_edge(draw, bound, atol):
    """A value free of `bound`, exactly at its slack `bound - atol`, or one ulp past it."""
    kind = draw(st.sampled_from(("free", "at", "past")))
    if kind == "free":
        return draw(bound_values)
    edge = bound - atol
    return edge if kind == "at" else math.nextafter(edge, -math.inf)


@st.composite
def bound_rows(draw):
    berta = draw(bound_values)
    holevo = near_edge(draw, berta, BOUND_GAP_ATOL)
    lhs = near_edge(draw, draw(st.sampled_from((berta, holevo))), BOUND_ORDER_ATOL)
    return lhs, berta, holevo


@given(st.lists(bound_rows(), max_size=12))
@settings(max_examples=300, deadline=None)
def test_bound_violations_match_the_row_by_row_reference(rows):
    lhs, berta, holevo = (list(column) for column in zip(*rows)) if rows else ([], [], [])
    assert bound_violations(np.array(lhs), np.array(berta), np.array(holevo)) == (
        reference_bound_violations(lhs, berta, holevo)
    )
