"""Uncertainty sums, the memory-assisted lower bounds, the report, and
the memory blocks behind the Holevo quantities. The report's bit
contracts are `helpers.check_eur_report`, run in `test_batched.py`.

1. report closed forms: `test_report_closed_forms`, one table of (state,
   pair, {field: closed form}), and on drawn Bell-diagonal states
   `test_holevo_of_bell_diagonal_states_is_the_closed_form`;
2. conditioned blocks: `test_conditioned_writes_the_memory_blocks`, one
   table of (state, observable, B_i = <i|rho|i>, p_i = tr B_i), and on
   drawn states `test_drawn_states_keep_the_block_identities`;
3. states rejected: `NOT_STATES`, one table of (reader, input, exact
   message) for `evaluate_eur` and `vn_entropy`;
4. the bounds hold, grow with the mixing angle, and keep their
   invariances, on drawn states, pairs and CLI flags;
5. `robertson_bound`: one table of values, one of rejections, and drawn
   triples; `bound_violations`: a table and drawn rows.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from eur.bounds import _conditioned, bound_violations, evaluate_eur, robertson_bound
from eur.channels import R_MAX, amplitude_damping, apply_to_memory, unruh_channel
from eur.cli import parse_args, run_sweep
from eur.linalg import partial_trace
from eur.measurement import ProjectiveObservable, pauli_observable
from eur.states import bell_diagonal_p, bell_diagonal_state, vn_entropy, x_state
from helpers import (
    BOUND_ORDER_ATOL,
    I2,
    PHI_PLUS,
    SX,
    SY,
    SZ,
    cli_flags,
    near,
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

PAULIS = {axis: pauli_observable(axis) for axis in "xyz"}
X_OBS, Y_OBS, Z_OBS = PAULIS.values()

# h(1/4); the p = 1/2 Bell-diagonal state has the correlation vector
# (0, -1/2, -1/2), so I(X;B) = 0, I(Y;B) = 1 - h(1/4) and delta =
# 1/2 - (1 - h(1/4)): holevo = 3/2 + delta = 1 + h(1/4) is lhs, tight
H_QUARTER = 0.8112781244591328


def xy_report(rho):
    return evaluate_eur(X_OBS, Y_OBS, rho)


def entropy_bits(m):
    """Reference von Neumann entropy of a Hermitian matrix, by numpy."""
    return shannon_bits(np.linalg.eigvalsh(m))


def dephased(obs, blocks):
    """The post-measurement state rho_OB = sum_i P_i (x) B_i."""
    return sum(np.kron(proj(v), b) for v, b in zip(obs.basis.T, blocks))


def classical_on_the_probe():
    """(obs, w, sigma, rho) with rho = sum_i w_i P_i (x) sigma_i, for a
    random observable and random qubit states sigma_i: rho is classical
    on the probe, so its blocks are w_i sigma_i, and
    I(O;B) = S(B) - sum_i w_i S(sigma_i)."""
    rng = np.random.default_rng(20)
    obs = random_observable(rng)
    weights = (0.3, 0.7)
    sigmas = [random_density_matrix(rng, 2) for _ in weights]
    return obs, weights, sigmas, dephased(obs, [w * sigma for w, sigma in zip(weights, sigmas)])


def report_closed_forms():
    """{case: (state, pair, {field: closed form})}: a float closed form is
    exact, to the sign of a zero, and a `near` one within budget."""
    rng = np.random.default_rng(31)
    rho_a = random_density_matrix(rng, 2)
    obs, weights, sigmas, classical = classical_on_the_probe()
    zero = near(0.0)
    return {
        "phi+-xy": (proj(PHI_PLUS), (X_OBS, Y_OBS), {"s_cond": near(-1.0), "i_ab": near(2.0)}),
        # outcome v_i on the probe of |phi+> leaves the memory in conj(v_i)
        **{f"phi+-{axis}{axis}": (proj(PHI_PLUS), (o, o), {"i_qb": near(1.0), "i_rb": near(1.0), "lhs": zero})
           for axis, o in PAULIS.items()},
        "maximally-mixed-xy": (np.eye(4) / 4, (X_OBS, Y_OBS), {"mu_bound": near(1.0), "s_cond": near(1.0),
                                                               "lhs": near(2.0), "berta_bound": near(2.0)}),
        "maximally-mixed-zz": (np.eye(4) / 4, (Z_OBS, Z_OBS), {"mu_bound": zero}),
        "bell_p-half-xy": (bell_diagonal_p(0.5), (X_OBS, Y_OBS), {
            "c": near(0.5), "mu_bound": near(1.0), "s_cond": near(0.5), "i_ab": near(0.5), "i_qb": zero,
            "i_rb": near(1 - H_QUARTER), "lhs": near(1.0 + H_QUARTER), "berta_bound": near(1.5),
            "delta": near(H_QUARTER - 0.5), "holevo_bound": near(1.0 + H_QUARTER)}),
        "x-1-xy": (x_state(1.0), (X_OBS, Y_OBS), {"lhs": zero, "berta_bound": zero, "delta": zero,
                                                  "holevo_bound": zero}),
        # the memory knows nothing: S(A|B) = S(A)
        "product": (np.kron(rho_a, random_density_matrix(rng, 2)),
                    (random_observable(rng), random_observable(rng)),
                    {"i_ab": zero, "i_qb": zero, "i_rb": zero, "delta": zero, "s_cond": near(entropy_bits(rho_a))}),
        "classical-on-the-probe": (classical, (obs, obs), {"i_qb": near(
            entropy_bits(sum(w * sigma for w, sigma in zip(weights, sigmas)))
            - sum(w * entropy_bits(sigma) for w, sigma in zip(weights, sigmas)))}),
        # |probe memory>: the sigma_z outcome 1 - probe has probability
        # exactly 0, and its empty block adds nothing to S(ZB): I(Z;B) = 0
        # and H(Z) = 0, and sigma_x's two outcomes give lhs = 1
        **{f"basis-{k:02b}-zx": (proj(np.eye(4)[k]), (Z_OBS, X_OBS), {"i_qb": 0.0, "i_rb": 0.0,
                                                                       "lhs": near(1.0)})
           for k in range(4)},
        # |00><00| at trace 1 + 5e-11, within TRACE_ATOL: sigma_z's outcome 0
        # has p = 1 + 5e-11, and H(p) takes it as 1, so every entropy is +0.0
        # and so is every field but c and mu (a weight p log2 p would leave
        # about -7.2e-11 in i_qb and i_rb, and 1.4e-10 in delta)
        "p-past-one-zz": (np.diag([1 + 5e-11, 0.0, 0.0, 0.0]), (Z_OBS, Z_OBS), dict.fromkeys(
            ("lhs", "berta_bound", "holevo_bound", "delta", "s_cond", "i_ab", "i_qb", "i_rb"), 0.0)),
    }


REPORT_CLOSED_FORMS = report_closed_forms()


@pytest.mark.parametrize("case", REPORT_CLOSED_FORMS)
def test_report_closed_forms(case):
    rho, (q, r), fields = REPORT_CLOSED_FORMS[case]
    alone, stacked = evaluate_eur(q, r, rho), evaluate_eur(q, r, np.stack([rho, rho]))
    for name, value in fields.items():
        for got in (getattr(alone, name), *np.broadcast_to(getattr(stacked, name), 2).tolist()):
            assert got == value, name
            if type(value) is float:
                assert math.copysign(1.0, got) == math.copysign(1.0, value), name


def holevo(obs, rho):
    """I(O;B) of one observable, read off the report of the pair (O, O)."""
    return evaluate_eur(obs, obs, rho).i_qb


@pytest.mark.parametrize("axis", "xyz")
@given(st.lists(st.floats(min_value=1e-3, max_value=1.0), min_size=4, max_size=4))
@settings(max_examples=30, deadline=None)
def test_holevo_of_bell_diagonal_states_is_the_closed_form(axis, weights):
    # Bell weights w (phi+, phi-, psi+, psi-) give the correlation vector c;
    # measuring sigma_k leaves the memory in (I +- c_k sigma_k)/2 with
    # probability 1/2 each, so I(sigma_k;B) = 1 - h((1 + |c_k|)/2)
    w = np.array(weights) / sum(weights)
    c = (w[0] - w[1] + w[2] - w[3], -w[0] + w[1] + w[2] - w[3], w[0] + w[1] - w[2] - w[3])
    rho = bell_diagonal_state(*c)
    c_k = abs(c["xyz".index(axis)])
    expected = 1.0 - shannon_bits([(1.0 + c_k) / 2.0, (1.0 - c_k) / 2.0])
    assert not reference.outside_budget(holevo(pauli_observable(axis), rho), expected)


def conditioned_blocks():
    """{case: (state, observable, blocks B_i, p_i, exact)}: an exact row
    holds the values of its blocks and p, any other one their budget."""
    obs, weights, sigmas, classical = classical_on_the_probe()
    rng = np.random.default_rng(21)
    rho, random = random_density_matrix(rng, 4), random_observable(rng)
    rho_a = partial_trace(rho, keep=[0], dims=[2, 2])
    return {
        # outcome v_i on the probe of |phi+> leaves the memory in conj(v_i)
        **{f"phi+-{axis}": (proj(PHI_PLUS), o, [proj(v.conj()) / 2 for v in o.basis.T], [0.5, 0.5], False)
           for axis, o in PAULIS.items()},
        # B_i = (I + c_k <i|sigma_k|i> sigma_k)/4 on a Bell-diagonal state
        "bell_p-half-x": (bell_diagonal_p(0.5), X_OBS, [I2 / 4, I2 / 4], [0.5, 0.5], False),
        "bell_p-half-y": (bell_diagonal_p(0.5), Y_OBS, [(I2 - SY / 2) / 4, (I2 + SY / 2) / 4], [0.5, 0.5],
                          False),
        # |probe memory>: the outcome 1 - probe has probability exactly 0 and an empty block
        **{f"basis-{probe}{memory}-z": (proj(np.eye(4)[2 * probe + memory]), Z_OBS,
                                        [proj(np.eye(2)[memory]) * (i == probe) for i in (0, 1)],
                                        [float(i == probe) for i in (0, 1)], True)
           for probe in (0, 1) for memory in (0, 1)},
        "classical-on-the-probe": (classical, obs, [w * sigma for w, sigma in zip(weights, sigmas)],
                                   weights, False),
        # p is rho_A's diagonal in the observable's basis
        "random": (rho, random, [np.kron(v.conj()[None, :], I2) @ rho @ np.kron(v[:, None], I2)
                                 for v in random.basis.T],
                   np.diag(random.basis.conj().T @ rho_a @ random.basis).real, False),
    }


CONDITIONED_BLOCKS = conditioned_blocks()


@pytest.mark.parametrize("case", CONDITIONED_BLOCKS)
def test_conditioned_writes_the_memory_blocks(case):
    rho, obs, blocks, p, exact = CONDITIONED_BLOCKS[case]
    _, states, got_p = _conditioned(rho, obs, obs)
    for got, expected in ((states[2:4], blocks), (got_p[:2], p)):
        if exact:
            assert np.array_equal(got, expected)
        else:
            assert not reference.outside_budget(got, expected)


@given(seeds)
@settings(max_examples=60, deadline=None)
def test_drawn_states_keep_the_block_identities(seed):
    rng = np.random.default_rng(seed)
    rho = random_density_matrix(rng, 4)
    memory = partial_trace(rho, keep=[1], dims=[2, 2])
    s_b = entropy_bits(memory)
    for obs in (random_observable(rng), X_OBS, Z_OBS):
        _, states, p = _conditioned(rho, obs, obs)
        blocks, p, report = states[2:4], p[:2], evaluate_eur(obs, obs, rho)
        info = report.i_qb
        # the blocks sum to rho_B, and their traces to 1
        assert not reference.outside_budget(states[1], memory)
        assert not reference.outside_budget(blocks.sum(axis=0), memory)
        assert p.sum() == near(1.0)
        # 0 <= I(O;B) <= S(B), each side within one budget of its exact value
        assert -reference.budget(0.0) <= info <= s_b + 2 * reference.budget(s_b)
        # I(O;B) = S(B) + H(p) - S(OB), with the dephased state
        # sum_i (P_i (x) I) rho (P_i (x) I) and p_i = tr (P_i (x) I) rho built here,
        # and S(O|B) = H(O) - I(O;B), the step that links the two bound families
        lifted = [np.kron(proj(v), I2) for v in obs.basis.T]
        once = sum(m @ rho @ m for m in lifted)
        outcome_entropy = shannon_bits([np.trace(m @ rho).real for m in lifted])
        assert info == near(s_b + outcome_entropy - entropy_bits(once))
        assert report.lhs / 2.0 == near(outcome_entropy - info)
        # which is sum_i P_i (x) B_i, block diagonal in the observable's basis
        assert not reference.outside_budget(dephased(obs, blocks), once)
        # measuring it again changes no block, no p and no I(O;B)
        _, again, p_again = _conditioned(once, obs, obs)
        assert not reference.outside_budget(again[2:4], blocks)
        assert not reference.outside_budget(p_again[:2], p)
        assert holevo(obs, once) == near(info)


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
    "entropy_qubit_non_hermitian": (vn_entropy, np.array([[0.0, 1.0], [0.0, 0.0]]),
                                    "matrix is not Hermitian: max |M - M^dag| = 1.000e+00"),
    "entropy_qubit_negative_eigenvalue": (vn_entropy, np.diag([1.5, -0.5]),
                                          "not a density matrix: eigenvalue -5.000e-01 below tolerance"),
    "entropy_not_square": (vn_entropy, np.ones((2, 3)),
                           "expected matrix to be a square matrix, got shape {shape}"),
    # a 0x0 matrix alone, and three of them in a stack
    "entropy_empty": (vn_entropy, np.zeros((0, 0)), "state has trace 0, expected 1"),
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


@given(seeds)
@settings(max_examples=100, deadline=None)
def test_random_pairs_keep_the_bounds_and_the_invariances(seed):
    rng = np.random.default_rng(seed)
    q, r = random_observable(rng), random_observable(rng)
    rho = random_density_matrix(rng, 4)
    report = evaluate_eur(q, r, rho)
    # each side of a bound lies within one budget of its exact value
    assert report.lhs >= report.berta_bound - 2 * reference.budget(report.berta_bound)
    assert report.lhs >= report.holevo_bound - 2 * reference.budget(report.holevo_bound)
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
    grid = np.arange(11) * np.pi / 40  # 0 to pi/4, where the mixing is maximal
    report = evaluate_eur(X_OBS, Y_OBS, apply_to_memory(unruh_channel(grid), initial))
    assert not steps_down(report.berta_bound)
    assert not steps_down(report.holevo_bound)
    # lhs and holevo each lie within one budget of their exact values, and
    # holevo is berta plus a term >= 0, so rounding cannot put it below berta
    for lhs, berta, holevo in zip(report.lhs.tolist(), report.berta_bound.tolist(),
                                  report.holevo_bound.tolist()):
        assert lhs >= holevo - 2 * reference.budget(holevo) and holevo >= berta


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


_PSI = random_pure_state(np.random.default_rng(35), 2)

# (Q, R, psi, (Delta Q Delta R)^2, |<[Q, R]>| / 2). The product is held by
# its square, the product of the variances: on |+>, a sigma_x eigenstate,
# Delta sx is the square root of a variance that is roundoff.
ROBERTSON_VALUES = {
    "equality": (SX, SY, np.array([1.0, 0.0]), 1.0, 1.0),
    # a commuting pair gives the trivial bound, and Delta sz^2 = 1 - <sz>^2
    "commuting": (SZ, SZ, _PSI, (1.0 - (abs(_PSI[0]) ** 2 - abs(_PSI[1]) ** 2) ** 2) ** 2, 0.0),
    "plus": (SX, SY, np.array([1.0, 1.0]) / np.sqrt(2), 0.0, 0.0),
}


@pytest.mark.parametrize("case", ROBERTSON_VALUES)
def test_robertson_values(case):
    q_op, r_op, psi, variances, bound = ROBERTSON_VALUES[case]
    lhs, rhs = robertson_bound(q_op, r_op, psi)
    assert lhs ** 2 == near(variances) and rhs == near(bound)


# (Q, R, psi, exact message)
ROBERTSON_REJECTIONS = {
    "non-hermitian": (np.array([[0, 1], [0, 0]]), SY, [1.0, 0.0],
                      "Q is not Hermitian: max |M - M^dag| = 1.000e+00"),
    "unnormalized": (SX, SY, [1.0, 1.0], "state vector has norm 1.41421356237, expected 1"),
    "3x3": (SX, np.eye(3), [1.0, 0.0], "Q and R must be 2x2 operators, got shapes (2, 2) and (3, 3)"),
    "qutrit": (SX, SY, [1.0, 0.0, 0.0], "expected a single-qubit state vector, got shape (3,)"),
    "column": (SX, SY, [[1.0], [0.0]], "expected a single-qubit state vector, got shape (2, 1)"),
    "density-matrix": (SX, SY, np.diag([1.0, 0.0]), "expected a single-qubit state vector, got shape (2, 2)"),
}


@pytest.mark.parametrize("case", ROBERTSON_REJECTIONS)
def test_robertson_rejects_bad_inputs(case):
    *args, message = ROBERTSON_REJECTIONS[case]
    with pytest.raises(ValueError) as raised:
        robertson_bound(*args)
    assert str(raised.value) == message


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
