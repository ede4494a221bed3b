"""Uncertainty sums, the memory-assisted lower bounds, and the report."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from eur.bounds import bound_violations, evaluate_eur, robertson_bound
from eur.channels import R_MAX, amplitude_damping, apply_to_memory, unruh_channel
from eur.cli import parse_args, run_sweep
from eur.measurement import ProjectiveObservable, pauli_observable
from eur.states import bell_diagonal_p, vn_entropy, x_state
from helpers import (
    BOUND_ORDER_ATOL,
    PHI_PLUS,
    SX,
    SY,
    SZ,
    cli_flags,
    proj,
    random_density_matrix,
    random_observable,
    random_pure_state,
    random_states,
    reference_bound_violations,
    shannon_bits,
    steps_down,
    sweep_argv_of,
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


def xy_report(rho):
    return evaluate_eur(X_OBS, Y_OBS, rho)


def assert_fields(report, **expected):
    """Each named field of `report` within the budget of its expected value."""
    for name, value in expected.items():
        assert getattr(report, name) == pytest.approx(value, abs=reference.budget(value)), name


def test_s_cond_values():
    assert_fields(xy_report(proj(PHI_PLUS)), s_cond=-1.0)
    assert_fields(xy_report(np.eye(4) / 4), s_cond=1.0)
    assert_fields(xy_report(bell_diagonal_p(0.5)), s_cond=0.5)


def test_i_ab_values():
    rng = np.random.default_rng(31)
    product = np.kron(random_density_matrix(rng, 2), random_density_matrix(rng, 2))
    assert_fields(xy_report(product), i_ab=0.0)
    assert_fields(xy_report(proj(PHI_PLUS)), i_ab=2.0)
    assert_fields(xy_report(bell_diagonal_p(0.5)), i_ab=0.5)


def test_lhs_values():
    assert_fields(xy_report(x_state(1.0)), lhs=0.0)
    assert_fields(xy_report(np.eye(4) / 4), lhs=2.0)
    assert_fields(xy_report(bell_diagonal_p(0.5)), lhs=LHS_BD_HALF)


@given(seeds)
@settings(max_examples=40, deadline=None)
def test_conditional_uncertainty_identity(seed):
    # S(O|B) = H(O) - I(O;B), the step that links the two bound families
    rng = np.random.default_rng(seed)
    rho = random_density_matrix(rng, 4)
    rho_a = np.trace(rho.reshape(2, 2, 2, 2), axis1=1, axis2=3)
    for obs in (random_observable(rng), X_OBS, Z_OBS):
        # H(O) from rho_A's diagonal in the observable's basis
        outcome_entropy = shannon_bits(np.diag(obs.basis.conj().T @ rho_a @ obs.basis).real)
        same_pair = evaluate_eur(obs, obs, rho)
        expected = outcome_entropy - same_pair.i_qb
        assert same_pair.lhs / 2.0 == pytest.approx(expected, abs=reference.budget(expected))


def test_maassen_uffink_values():
    maximally_mixed = np.eye(4) / 4
    assert_fields(evaluate_eur(X_OBS, Y_OBS, maximally_mixed), mu_bound=1.0)
    assert_fields(evaluate_eur(Z_OBS, Z_OBS, maximally_mixed), mu_bound=0.0)


def test_berta_bound_values():
    assert_fields(xy_report(x_state(1.0)), berta_bound=0.0)
    assert_fields(xy_report(bell_diagonal_p(0.5)), berta_bound=1.5)
    assert_fields(xy_report(np.eye(4) / 4), berta_bound=2.0)


def test_delta_values():
    rng = np.random.default_rng(32)
    product = np.kron(random_density_matrix(rng, 2), random_density_matrix(rng, 2))
    assert_fields(xy_report(product), delta=0.0)
    assert_fields(xy_report(bell_diagonal_p(0.5)), delta=DELTA_BD_HALF)
    assert_fields(xy_report(x_state(1.0)), delta=0.0)


def test_holevo_bound_values():
    assert_fields(xy_report(x_state(1.0)), holevo_bound=0.0)
    assert_fields(xy_report(bell_diagonal_p(0.5)), holevo_bound=1.5 + DELTA_BD_HALF)
    rng = np.random.default_rng(33)
    product = xy_report(np.kron(random_density_matrix(rng, 2), random_density_matrix(rng, 2)))
    assert_fields(product, holevo_bound=product.berta_bound)


def test_an_outcome_probability_past_one_counts_as_one():
    # |00><00| at trace 1 + 5e-11, within TRACE_ATOL: sigma_z's outcome 0
    # has p = 1 + 5e-11, and H(p) takes it as 1, so every entropy is +0.0
    # and so is every field but c and mu (a weight p log2 p would leave
    # about -7.2e-11 in i_qb and i_rb, and 1.4e-10 in delta)
    rho = np.diag([1 + 5e-11, 0.0, 0.0, 0.0])
    for state in (rho, np.stack([rho, rho])):
        report = evaluate_eur(Z_OBS, Z_OBS, state)
        for name in ("lhs", "berta_bound", "holevo_bound", "delta", "s_cond", "i_ab", "i_qb", "i_rb"):
            value = np.asarray(getattr(report, name))
            assert not value.any() and not np.signbit(value).any(), name


def test_report_is_consistent_on_the_two_experiment_states():
    assert_fields(evaluate_eur(X_OBS, Y_OBS, bell_diagonal_p(0.5)), c=0.5, mu_bound=1.0,
                  s_cond=0.5, i_ab=0.5, i_qb=0.0, i_rb=1 - H_QUARTER, lhs=LHS_BD_HALF,
                  berta_bound=1.5, holevo_bound=1.5 + DELTA_BD_HALF)
    assert_fields(evaluate_eur(X_OBS, Y_OBS, x_state(1.0)), lhs=0.0, berta_bound=0.0,
                  holevo_bound=0.0)


NOT_TWO_QUBITS = "expected a 4x4 two-qubit state, got shape {shape}"
ABOVE_ONE = "not a density matrix: eigenvalue 1.01 above 1"

# (reader, input that is not a state, exact message); {shape} is the input's shape
NOT_STATES = {
    "vector": (xy_report, np.full(4, 0.25), NOT_TWO_QUBITS),
    "one_qubit": (xy_report, np.eye(2) / 2, NOT_TWO_QUBITS),
    "empty": (xy_report, np.zeros((0, 0)), NOT_TWO_QUBITS),
    "non_hermitian_3x3": (xy_report, np.triu(np.ones((3, 3))) / 3, NOT_TWO_QUBITS),
    "nan_4x2": (xy_report, np.full((4, 2), np.nan), NOT_TWO_QUBITS),
    "non_hermitian": (xy_report, np.diag([0.4, 0.3, 0.2, 0.1]) + np.triu(np.full((4, 4), 1e-3), 1),
                      "matrix is not Hermitian: max |M - M^dag| = 1.000e-03"),
    "negative_eigenvalue": (xy_report, np.diag([0.6, 0.5, 0.1, -0.2]),
                            "not a density matrix: eigenvalue -2.000e-01 below tolerance"),
    "eigenvalue_above_one": (xy_report, np.diag([1.01, 0.0, 0.0, 0.0]), ABOVE_ONE),
    "trace_two": (xy_report, 2.0 * bell_diagonal_p(0.5), "state has trace 2, expected 1"),
    "trace_just_above_one": (xy_report, (1.0 + 1e-9) * bell_diagonal_p(0.5),
                             "state has trace 1.000000001, expected 1"),
    "trace_zero": (xy_report, np.zeros((4, 4)), "state has trace 0, expected 1"),
    "trace_half": (xy_report, np.eye(4) / 8, "state has trace 0.5, expected 1"),
    "entropy_non_hermitian": (vn_entropy, np.eye(4) / 4 + np.triu(np.full((4, 4), 1e-6), 1),
                              "matrix is not Hermitian: max |M - M^dag| = 1.000e-06"),
    "entropy_negative_eigenvalue": (vn_entropy, np.diag([1.5, -0.5, 0.0, 0.0]),
                                    "not a density matrix: eigenvalue -5.000e-01 below tolerance"),
    # closed form (2x2) and LAPACK (4x4): an eigenvalue above 1 is not clipped away
    "entropy_qubit_above_one": (vn_entropy, np.diag([1.01, 0.0]), ABOVE_ONE),
    "entropy_above_one": (vn_entropy, np.diag([1.01, 0.0, 0.0, 0.0]), ABOVE_ONE),
    "entropy_qubit_trace_two": (vn_entropy, np.eye(2), "state has trace 2, expected 1"),
    "entropy_trace_half": (vn_entropy, np.eye(4) / 8, "state has trace 0.5, expected 1"),
}


def in_a_stack(bad):
    """`bad` at index 1 of a stack of three: between random states of its
    size when it is a square matrix, otherwise between copies of itself."""
    rng = np.random.default_rng(37)
    n = bad.shape[-1]
    good = [random_density_matrix(rng, n) if bad.shape == (n, n) and n else bad for _ in range(2)]
    return np.stack([good[0], bad, good[1]])


@pytest.mark.parametrize("case", NOT_STATES)
def test_every_state_reader_rejects_what_is_not_a_state_alone_and_in_a_stack(case):
    read, bad, message = NOT_STATES[case]
    for rho in (bad, in_a_stack(bad)):
        with pytest.raises(ValueError) as raised:
            read(rho)
        assert str(raised.value) == message.format(shape=rho.shape)


def test_report_ordering_at_maximal_mixing():
    for initial in (bell_diagonal_p(0.5), x_state(1.0)):
        evolved = apply_to_memory(unruh_channel(np.pi / 4), initial)
        report = evaluate_eur(X_OBS, Y_OBS, evolved)
        # lhs and holevo each lie within one budget of their exact values
        assert report.lhs >= report.holevo_bound - 2 * reference.budget(report.holevo_bound)
        # holevo is berta plus a term >= 0, so rounding cannot put it below berta
        assert report.holevo_bound >= report.berta_bound


@given(seeds)
@settings(max_examples=100, deadline=None)
def test_both_bounds_hold_on_random_states(seed):
    rng = np.random.default_rng(seed)
    rho = random_density_matrix(rng, 4)
    q, r = random_observable(rng), random_observable(rng)
    report = evaluate_eur(q, r, rho)
    # each side lies within one budget of its exact value
    assert report.lhs >= report.berta_bound - 2 * reference.budget(report.berta_bound)
    assert report.lhs >= report.holevo_bound - 2 * reference.budget(report.holevo_bound)


@given(seeds)
@settings(max_examples=50, deadline=None)
def test_report_invariances_over_random_pairs(seed):
    rng = np.random.default_rng(seed)
    q, r = random_observable(rng), random_observable(rng)
    rho = random_density_matrix(rng, 4)
    report = evaluate_eur(q, r, rho)
    tolerance = reference.budget(2.0)
    # swapping Q and R keeps the sum and the bounds and swaps I(Q;B) with I(R;B)
    swapped = evaluate_eur(r, q, rho)
    for field, twin in (("lhs", "lhs"), ("berta_bound", "berta_bound"),
                        ("holevo_bound", "holevo_bound"), ("delta", "delta"),
                        ("i_qb", "i_rb"), ("i_rb", "i_qb")):
        assert abs(getattr(swapped, field) - getattr(report, twin)) <= tolerance, field
    # a phase on each eigenvector column changes no field
    phases = np.exp(2j * np.pi * rng.uniform(size=(2, 2)))
    rephased = evaluate_eur(ProjectiveObservable("q", q.basis * phases[0]),
                            ProjectiveObservable("r", r.basis * phases[1]), rho)
    for field in dataclasses.fields(report):
        got, expected = getattr(rephased, field.name), getattr(report, field.name)
        assert abs(got - expected) <= tolerance, field.name
    # on a product state the memory knows nothing: lhs is H(Q) + H(R), read
    # off rho_A's diagonal in each basis, and the memoryless bound holds
    rho_a = random_density_matrix(rng, 2)
    product = evaluate_eur(q, r, np.kron(rho_a, random_density_matrix(rng, 2)))
    outcomes = sum(shannon_bits(np.diag(o.basis.conj().T @ rho_a @ o.basis).real) for o in (q, r))
    assert abs(product.lhs - outcomes) <= tolerance
    assert product.lhs >= product.mu_bound - tolerance


@pytest.mark.parametrize("pair", ["xz", "xy", "yz", "random"])
def test_swapping_the_pair_swaps_the_holevo_quantities_bit_for_bit(pair):
    rng = np.random.default_rng(43)
    if pair == "random":
        q, r = random_observable(rng), random_observable(rng)
    else:
        q, r = (pauli_observable(axis) for axis in pair)
    rho = random_states(rng, (64,))
    report, swapped = evaluate_eur(q, r, rho), evaluate_eur(r, q, rho)
    # each observable's blocks keep their bits in either place, and lhs is
    # a sum of two terms: these fields keep or swap their bits
    for field, twin in (("lhs", "lhs"), ("s_cond", "s_cond"), ("i_ab", "i_ab"),
                        ("i_qb", "i_rb"), ("i_rb", "i_qb")):
        assert getattr(swapped, field).tobytes() == getattr(report, twin).tobytes(), field
    # c takes the other product of the two bases, and delta subtracts in
    # the other order: these move by roundoff at most
    for field in ("c", "mu_bound", "berta_bound", "holevo_bound", "delta"):
        got, expected = getattr(swapped, field), getattr(report, field)
        assert np.max(np.abs(got - expected)) <= reference.budget(2.0), field


@pytest.mark.parametrize("make_state", [bell_diagonal_p, x_state],
                         ids=["bell_diagonal_half", "x_state_one"])
def test_bounds_grow_with_mixing_angle(make_state):
    initial = make_state(0.5) if make_state is bell_diagonal_p else make_state(1.0)
    grid = np.arange(11) * np.pi / 40
    report = evaluate_eur(X_OBS, Y_OBS, apply_to_memory(unruh_channel(grid), initial))
    assert not steps_down(report.berta_bound)
    assert not steps_down(report.holevo_bound)


@given(seeds)
@settings(max_examples=30, deadline=None)
def test_data_processing_along_the_mixing_angle(seed):
    # unruh_channel(r2) is unruh_channel(r1) followed by amplitude damping
    # conjugated by sigma_x, cos^2 r2 = cos^2 r1 (1 - g), so a larger r can
    # only lose what the memory knows about A; rho_A, and so H(Q) and H(R),
    # stay fixed (Nielsen and Chuang, sections 8.3.5 and 11.4)
    rng = np.random.default_rng(seed)
    rho = random_density_matrix(rng, 4) if rng.integers(2) else proj(random_pure_state(rng, 4))
    q, r = random_observable(rng), random_observable(rng)
    report = evaluate_eur(q, r, apply_to_memory(unruh_channel(np.linspace(0.0, R_MAX, 65)), rho))
    for name in ("lhs", "berta_bound", "s_cond"):
        assert not steps_down(getattr(report, name)), name
    for name in ("i_ab", "i_qb", "i_rb"):
        assert not steps_down(-getattr(report, name)), name
    r1, r2 = sorted(rng.uniform(0.0, R_MAX, size=2))
    damping = SX @ amplitude_damping(1.0 - np.cos(r2) ** 2 / np.cos(r1) ** 2) @ SX
    direct = apply_to_memory(unruh_channel(r2), rho)
    composed = apply_to_memory(damping, apply_to_memory(unruh_channel(r1), rho))
    assert all(abs(v - x) <= reference.budget(abs(x)) for v, x in zip(composed.flat, direct.flat))


@given(flags=cli_flags(), scale=st.floats(0.0, 1.0))
@settings(max_examples=300, deadline=None)
def test_data_processing_along_the_sweep_columns(flags, scale):
    # the CLI's a and r grids ascend in r, so the data processing inequality
    # above holds along its lhs and berta columns, on every flag set of
    # 257 steps from a = 0 to a_max/omega in [1e-2, 1e4], or r to [0, pi/4]
    omega = float(flags["omega"])
    a_max = scale * R_MAX if flags["sweep-var"] == "r" else omega * 10.0 ** (6.0 * scale - 2.0)
    sweep = run_sweep(parse_args(sweep_argv_of({**flags, "a-min": 0.0, "a-max": a_max, "steps": 257})))
    assert not steps_down(sweep.lhs)
    assert not steps_down(sweep.berta)


def test_robertson_equality_case():
    lhs, rhs = robertson_bound(SX, SY, np.array([1.0, 0.0]))
    assert lhs == pytest.approx(1.0, abs=reference.budget(1.0))
    assert rhs == pytest.approx(1.0, abs=reference.budget(1.0))


def test_robertson_commuting_pair_gives_trivial_bound():
    rng = np.random.default_rng(35)
    psi = random_pure_state(rng, 2)
    lhs, rhs = robertson_bound(SZ, SZ, psi)
    assert rhs == pytest.approx(0.0, abs=reference.budget(0.0))
    assert lhs >= 0.0


def test_robertson_on_plus_state():
    # |+> is a sigma_x eigenstate: Delta sx = 0, so the product collapses
    # and the commutator bound vanishes with <sz> = 0. Delta sx is the
    # square root of a variance that is roundoff, and Delta sy = 1, so the
    # product's square is held to the budget.
    plus = np.array([1.0, 1.0]) / np.sqrt(2)
    lhs, rhs = robertson_bound(SX, SY, plus)
    assert rhs == pytest.approx(0.0, abs=reference.budget(0.0))
    assert lhs ** 2 <= reference.budget(0.0)
    assert lhs >= rhs - reference.budget(rhs)


def test_robertson_rejects_bad_inputs():
    with pytest.raises(ValueError, match="Hermitian"):
        robertson_bound(np.array([[0, 1], [0, 0]]), SY, np.array([1.0, 0.0]))
    with pytest.raises(ValueError, match="norm"):
        robertson_bound(SX, SY, np.array([1.0, 1.0]))
    with pytest.raises(ValueError, match="must be 2x2 operators"):
        robertson_bound(SX, np.eye(3), np.array([1.0, 0.0]))
    with pytest.raises(ValueError, match="single-qubit state vector"):
        robertson_bound(SX, SY, np.array([1.0, 0.0, 0.0]))


@given(seeds)
@settings(max_examples=100, deadline=None)
def test_robertson_inequality_on_random_triples(seed):
    rng = np.random.default_rng(seed)
    g1 = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    g2 = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q_op = (g1 + g1.conj().T) / 2
    r_op = (g2 + g2.conj().T) / 2
    lhs, rhs = robertson_bound(q_op, r_op, random_pure_state(rng, 2))
    assert lhs >= rhs - reference.budget(rhs)


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


def near_edge(draw, edge):
    """A free value, exactly `edge`, or one ulp below it."""
    kind = draw(st.sampled_from(("free", "at", "past")))
    if kind == "free":
        return draw(bound_values)
    return edge if kind == "at" else math.nextafter(edge, -math.inf)


@st.composite
def bound_rows(draw):
    berta = draw(bound_values)
    holevo = near_edge(draw, berta)  # holevo >= berta has no slack
    lhs = near_edge(draw, draw(st.sampled_from((berta, holevo))) - BOUND_ORDER_ATOL)
    return lhs, berta, holevo


@given(st.lists(bound_rows(), max_size=12))
@settings(max_examples=300, deadline=None)
def test_bound_violations_match_the_row_by_row_reference(rows):
    lhs, berta, holevo = (list(column) for column in zip(*rows)) if rows else ([], [], [])
    assert bound_violations(np.array(lhs), np.array(berta), np.array(holevo)) == (
        reference_bound_violations(lhs, berta, holevo)
    )
