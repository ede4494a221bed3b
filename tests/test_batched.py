"""Stacked evaluation: a (N, 4, 4) stack gives exactly the per-state results,
and a real (float64) input gives exactly the bits of the complex path where
its kernels must agree."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import eur.cli as cli
import reference
from eur.bounds import _conditioned, evaluate_eur
from eur.channels import (
    R_MAX,
    amplitude_damping,
    apply,
    apply_to_memory,
    choi,
    kraus_from_choi,
    unruh_channel,
    validate_kraus,
)
from eur.linalg import _eigenvalues, partial_trace
from eur.measurement import ProjectiveObservable, pauli_observable
from eur.states import (
    bell_diagonal_p,
    bell_diagonal_state,
    from_pure,
    rindler_tripartite_state,
    vn_entropy,
    x_state,
)
from helpers import (
    assert_same_bits,
    random_complex,
    random_cptp_kraus,
    random_density_matrix,
    random_unitary,
)

seeds = st.integers(min_value=0, max_value=2**32 - 1)

STACK = 6


def random_channel(rng):
    """A random CPTP family padded with zero operators to exactly four."""
    ops = random_cptp_kraus(rng)
    return ops + [np.zeros((2, 2), dtype=complex)] * (4 - len(ops))


@given(seeds)
@settings(max_examples=30, deadline=None)
def test_stack_equals_per_state_evaluation(seed):
    rng = np.random.default_rng(seed)
    q = ProjectiveObservable("q", random_unitary(rng, 2))
    o = ProjectiveObservable("o", random_unitary(rng, 2))
    states = np.stack([random_density_matrix(rng, 4) for _ in range(STACK)])
    channels = [random_channel(rng) for _ in range(STACK)]

    evolved = apply_to_memory(np.stack(channels, axis=1), states)
    singles = [apply_to_memory(ch, rho) for ch, rho in zip(channels, states)]
    assert np.array_equal(evolved, singles)

    stacked = evaluate_eur(q, o, evolved)
    per_state = [evaluate_eur(q, o, rho) for rho in singles]
    for field in dataclasses.fields(stacked):
        got = getattr(stacked, field.name)
        expected = [getattr(report, field.name) for report in per_state]
        if field.name in ("mu_bound", "c"):
            assert all(got == value for value in expected)  # observables only
        else:
            assert got.shape == (STACK,)
            assert np.array_equal(got, expected), field.name


def test_zero_probability_outcome_is_masked_in_a_stack():
    # x_state(0) = |11><11|: sigma_z outcome 0 has probability exactly 0
    z = pauli_observable("z")
    x = pauli_observable("x")
    states = np.stack([x_state(0.0), x_state(0.5)] + [
        apply_to_memory(unruh_channel(r), x_state(0.0)) for r in (0.2, np.pi / 4)])
    for pair in ((z, x), (z, z)):
        stacked = evaluate_eur(*pair, states)
        per_state = [evaluate_eur(*pair, rho) for rho in states]
        for field in ("lhs", "berta_bound", "holevo_bound", "delta", "i_qb", "i_rb"):
            assert np.array_equal(getattr(stacked, field), [getattr(p, field) for p in per_state])
    info = evaluate_eur(z, x, states).i_qb
    assert np.isfinite(info).all()
    assert info[0] == 0.0  # a product state stores nothing about the outcome


def test_single_state_gives_floats_and_stack_gives_arrays():
    rho = x_state(0.5)
    assert type(vn_entropy(rho)) is float
    assert vn_entropy(np.stack([rho, rho])).shape == (2,)
    x, y = pauli_observable("x"), pauli_observable("y")
    report = evaluate_eur(x, y, rho)
    assert all(type(getattr(report, f.name)) is float for f in dataclasses.fields(report))
    # an empty stack and a 2-D stack: every state-dependent field takes the
    # stack's shape, and the two observable-only fields stay floats
    for stack in (np.zeros((0, 4, 4)), np.broadcast_to(rho, (2, 3, 4, 4))):
        report = evaluate_eur(x, y, stack)
        for field in dataclasses.fields(report):
            value = getattr(report, field.name)
            if field.name in ("mu_bound", "c"):
                assert type(value) is float, field.name
            else:
                assert isinstance(value, np.ndarray) and value.shape == stack.shape[:-2], field.name


@pytest.mark.parametrize("pair", ["zz", "zx", "xy"])
@pytest.mark.parametrize("real", [False, True], ids=["complex", "float64"])
def test_one_state_report_has_the_bits_of_its_stack_element(pair, real):
    rng = np.random.default_rng(53)
    states = [x_state(0.0), x_state(1.0), x_state(0.3), bell_diagonal_p(0.0), bell_diagonal_p(0.7)]
    states += [random_density_matrix(rng, 4) for _ in range(4)]
    states = np.stack([rho.real if real else rho for rho in states])
    q, r = pauli_observable(pair[0]), pauli_observable(pair[1])
    stacked = evaluate_eur(q, r, states)
    for k, rho in enumerate(states):
        single = evaluate_eur(q, r, rho)
        for field in dataclasses.fields(single):
            value, column = getattr(single, field.name), getattr(stacked, field.name)
            assert type(value) is float, field.name
            if field.name in ("mu_bound", "c"):  # the observables' own, a float for stacks too
                assert type(column) is float and column == value
            else:
                assert isinstance(column, np.ndarray) and column.shape == (len(states),)
                assert_same_bits(column[k], np.float64(value))
        assert_same_bits(np.float64(single.holevo_bound),
                         np.float64(single.berta_bound) + np.maximum(0.0, single.delta))
    # |11><11| (x_state(0)) gives +0.0 in i_qb and i_rb on both paths: the
    # comparison above tells it from -0.0
    assert_same_bits(np.array([stacked.i_qb[0], stacked.i_rb[0]]), np.zeros(2))


@pytest.mark.parametrize("pair", ["zz", "zx", "xy", "xx"])
def test_a_zero_quantity_of_a_pure_product_state_is_positive_zero(pair):
    # |11><11| holds no correlation: every zero field is +0.0, never -0.0,
    # for one state and for each state of a stack
    q, r = pauli_observable(pair[0]), pauli_observable(pair[1])
    single = evaluate_eur(q, r, x_state(0.0))
    stacked = evaluate_eur(q, r, np.stack([x_state(0.0), x_state(0.3), x_state(0.0)]))
    for name in ("s_cond", "i_ab", "i_qb", "i_rb", "delta"):
        assert getattr(single, name) == 0.0 and math.copysign(1.0, getattr(single, name)) == 1.0
        assert_same_bits(getattr(stacked, name)[::2], np.zeros(2))


def test_checks_cover_every_matrix_of_a_stack():
    rng = np.random.default_rng(3)
    good = random_density_matrix(rng, 4)
    not_hermitian = good.copy()
    not_hermitian[0, 1] += 1e-6
    with pytest.raises(ValueError, match="not Hermitian"):
        vn_entropy(np.stack([good, good, not_hermitian]))
    negative = np.diag([1.5, -0.5, 0.0, 0.0]).astype(complex)
    with pytest.raises(ValueError, match="eigenvalue"):
        vn_entropy(np.stack([good, good, negative]))
    # an eigenvalue above 1 is not clipped away: 2x2 (closed form) and 4x4 (LAPACK)
    above_one = np.diag([1.01, 0.0]).astype(complex)
    good_2x2 = partial_trace(good, keep=[1], dims=[2, 2])
    with pytest.raises(ValueError, match="eigenvalue 1.01 above 1"):
        vn_entropy(np.stack([good_2x2, good_2x2, above_one]))
    with pytest.raises(ValueError, match="eigenvalue 1.01 above 1"):
        vn_entropy(np.stack([good, good, np.kron(above_one, np.diag([1.0, 0.0]))]))


@pytest.mark.parametrize("flags", [
    ["--preset", "fig1"],
    ["--preset", "fig2", "--sweep-var", "r"],
], ids=["a-sweep", "r-sweep"])
def test_sweep_chunk_seams_do_not_change_rows(monkeypatch, tmp_path, flags):
    cfg = cli.parse_args(["sweep", *flags, "--steps", "11"])
    whole = cli.run_sweep(cfg)
    cli.emit_csv(whole, str(tmp_path / "whole.csv"))

    seen = []
    evaluate = cli.evaluate_eur

    def spy(q, r, rho):
        seen.append(len(rho))
        return evaluate(q, r, rho)

    monkeypatch.setattr(cli, "_SWEEP_CHUNK", 4)
    monkeypatch.setattr(cli, "evaluate_eur", spy)
    chunked = cli.run_sweep(cfg)
    for field in dataclasses.fields(whole):
        got, expected = getattr(chunked, field.name), getattr(whole, field.name)
        if expected is None:
            assert got is None, field.name  # an r-sweep has no a column
        else:
            assert np.array_equal(got, expected), field.name
    assert seen == [4, 4, 3]
    cli.emit_csv(chunked, str(tmp_path / "chunked.csv"))  # written 4, 4 and 3 rows at a time
    assert (tmp_path / "chunked.csv").read_bytes() == (tmp_path / "whole.csv").read_bytes()


def random_states(rng, stack):
    """Random two-qubit density matrices, shape stack + (4, 4)."""
    states = [random_density_matrix(rng, 4) for _ in range(int(np.prod(stack)))]
    return np.array(states, dtype=complex).reshape(stack + (4, 4))


@pytest.mark.parametrize("stack", [(), (7,), (2, 3), (0,)], ids=str)
@pytest.mark.parametrize("real", [False, True], ids=["complex", "float64"])
def test_conditioned_states_are_both_marginals_then_the_conditional_states(stack, real):
    rng = np.random.default_rng(39 + len(stack))
    q, r = (ProjectiveObservable(name, random_unitary(rng, 2)) for name in "qr")
    rho = random_states(rng, stack)
    if real:  # the real part of a state is a state
        rho = np.ascontiguousarray(rho.real)
    _, states, _ = _conditioned(rho, q, r)
    # the stacked and concatenated form, as a reference formula: the
    # marginals, then the blocks as one product per matrix makes them
    t = rho.reshape(stack + (2, 2, 2, 2))
    marginals = np.stack([t[..., :, 0, :, 0] + t[..., :, 1, :, 1],
                          t[..., 0, :, 0, :] + t[..., 1, :, 1, :]])
    rows = np.concatenate((q._rows, r._rows))
    blocks = (rows @ t.swapaxes(-3, -2).reshape(stack + (4, 4))).reshape(stack + (4, 2, 2))
    expected = np.concatenate([marginals, np.moveaxis(blocks, -3, 0)])
    assert states.dtype == np.complex128 and states.flags.c_contiguous
    assert_same_bits(states, expected)
    # rho_A and rho_B in that order, each the partial trace
    assert not reference.outside_budget(states[0], partial_trace(rho, 0, (2, 2)))
    assert not reference.outside_budget(states[1], partial_trace(rho, 1, (2, 2)))


@pytest.mark.parametrize("stack", [(), (5,), (2, 3)], ids=str)
def test_blocks_of_one_observable_do_not_depend_on_its_partner(stack):
    rng = np.random.default_rng(23 + len(stack))
    q, r, s = (ProjectiveObservable(name, random_unitary(rng, 2)) for name in "qrs")
    rho = random_states(rng, stack)
    blocks = _conditioned(rho, q, r)[1][2:4]
    # with the rows on the left, each block is its own row's product: the
    # same bits beside any partner and in either place of the pair
    assert_same_bits(_conditioned(rho, q, s)[1][2:4], blocks)
    assert_same_bits(_conditioned(rho, s, q)[1][4:6], blocks)
    i_qb = np.asarray(evaluate_eur(q, r, rho).i_qb)
    assert_same_bits(np.asarray(evaluate_eur(q, q, rho).i_qb), i_qb)
    assert_same_bits(np.asarray(evaluate_eur(s, q, rho).i_rb), i_qb)


def as_given(rho, layout):
    """rho, (6, 4, 4), handed over in another memory layout, dtype or type."""
    return {
        "fortran": lambda: np.asfortranarray(rho),
        "strided": lambda: np.repeat(rho, 2, axis=0)[::2],
        "negative_strides": lambda: rho[::-1, ::-1, ::-1].copy()[::-1, ::-1, ::-1],
        "read_only": lambda: np.frombuffer(rho.tobytes(), dtype=rho.dtype).reshape(rho.shape),
        "broadcast": lambda: np.broadcast_to(rho[:1], rho.shape),
        "nested_list": lambda: rho.tolist(),
    }[layout]()


@pytest.mark.parametrize("layout", ["fortran", "strided", "negative_strides", "read_only",
                                    "broadcast", "nested_list"])
def test_evaluate_eur_gives_the_bits_of_a_contiguous_copy(layout):
    rng = np.random.default_rng(29)
    q, r = (ProjectiveObservable(name, random_unitary(rng, 2)) for name in "qr")
    rho = random_states(rng, (6,))
    given_rho = as_given(rho, layout)
    contiguous = np.array(given_rho, dtype=complex, order="C")
    report, expected = evaluate_eur(q, r, given_rho), evaluate_eur(q, r, contiguous)
    for field in dataclasses.fields(report):
        got, want = (np.asarray(getattr(x, field.name)) for x in (report, expected))
        assert got.tobytes() == want.tobytes(), field.name


@pytest.mark.parametrize("dtype", [np.int64, np.float32], ids=["int", "float32"])
def test_evaluate_eur_takes_a_real_state_of_another_dtype_as_float64(dtype):
    rng = np.random.default_rng(31)
    q, r = (ProjectiveObservable(name, random_unitary(rng, 2)) for name in "qr")
    # |00><00|, |11><11| and, for float32, an entangled state that it holds exactly
    rho = np.zeros((3, 4, 4))
    rho[0, 0, 0] = rho[1, 3, 3] = 1.0
    if dtype is np.float32:
        rho[2, [0, 0, 3, 3], [0, 3, 0, 3]] = 0.5, 0.25, 0.25, 0.5
    else:
        rho[2, 1, 1] = 1.0
    given_rho = rho.astype(dtype)
    report, expected = evaluate_eur(q, r, given_rho), evaluate_eur(q, r, given_rho.astype(float))
    for field in dataclasses.fields(report):
        got, want = (np.asarray(getattr(x, field.name)) for x in (report, expected))
        assert got.tobytes() == want.tobytes(), field.name


@pytest.mark.parametrize("stack", [(), (5,), (2, 3)], ids=str)
@pytest.mark.parametrize("real", [False, True], ids=["complex", "float64"])
def test_2x2_spectrum_is_one_new_float64_array_of_both_roots(stack, real):
    rng = np.random.default_rng(37 + len(stack))
    m = np.ascontiguousarray(random_states(rng, stack)[..., :2, :2])  # Hermitian blocks
    if real:
        m = np.ascontiguousarray(m.real)
    got = _eigenvalues(m)
    # both roots stacked along a new last axis, as a reference formula
    a, d = m[..., 0, 0].real, m[..., 1, 1].real
    b = (m[..., 0, 1] + m[..., 1, 0].conj()) / 2.0
    mean = (a + d) / 2.0
    radius = np.hypot((a - d) / 2.0, np.hypot(b.real, b.imag))
    expected = np.stack([mean - radius, mean + radius], axis=-1)
    assert got.dtype == np.float64 and got.flags.writeable and got.flags.c_contiguous
    assert_same_bits(got, expected)
    assert not reference.outside_budget(got, np.linalg.eigvalsh(m))


@pytest.mark.parametrize("channel", ["real", "complex"])
def test_choi_is_a_new_writable_array_on_every_call(channel):
    kraus = unruh_channel(0.3)
    if channel == "complex":
        kraus = kraus_from_choi(choi(kraus))
    first = choi(kraus)
    expected = first.copy()
    assert first.flags.writeable
    first[...] = np.nan
    assert_same_bits(choi(kraus), expected)
    assert np.isnan(first).all()  # the second call wrote into a new array


@pytest.mark.parametrize("complex_kraus", [False, True], ids=["float64 kraus", "complex kraus"])
@pytest.mark.parametrize("complex_rho", [False, True], ids=["float64 rho", "complex rho"])
def test_apply_to_memory_and_validate_kraus_take_read_only_inputs(complex_kraus, complex_rho):
    rng = np.random.default_rng(47)
    kraus = unruh_channel(np.full(3, 0.4))
    if complex_kraus:
        kraus = kraus_from_choi(choi(unruh_channel(0.4)))
    rho = random_density_matrix(rng, 4)
    if not complex_rho:
        rho = np.ascontiguousarray(rho.real)
    expected = apply_to_memory(kraus.copy(), rho.copy())
    kraus.flags.writeable = rho.flags.writeable = False
    validate_kraus(kraus)
    assert_same_bits(apply_to_memory(kraus, rho), expected)


def lifted_reference(kraus, rho):
    """sum_j (I (x) K_j) rho (I (x) K_j)^dag with one product per matrix,
    in float64 when both sides are real and in complex128 otherwise."""
    lifted = np.zeros(kraus.shape[:-2] + (4, 4), dtype=np.result_type(kraus, rho))
    lifted[..., :2, :2] = lifted[..., 2:, 2:] = kraus
    return (lifted @ rho @ lifted.conj().swapaxes(-1, -2)).sum(0)


@pytest.mark.parametrize("r", [0.3, np.linspace(0.0, R_MAX, 7), np.full((2, 3), 0.2)],
                         ids=["one", "seven", "2x3"])
def test_apply_to_memory_on_a_shared_state_equals_the_per_matrix_product(r):
    rng = np.random.default_rng(29)
    kraus = unruh_channel(r)
    for rho in (x_state(0.4), random_density_matrix(rng, 4)):
        assert_same_bits(apply_to_memory(kraus, rho), lifted_reference(kraus, rho))


@pytest.mark.parametrize("stack", [(), (5,), (2, 3)], ids=str)
@pytest.mark.parametrize("operators", [1, 2, 3, 4])
def test_apply_to_memory_of_complex_families_equals_the_per_matrix_product(stack, operators):
    rng = np.random.default_rng(31 + operators + 10 * len(stack))
    for _ in range(5):
        kraus = random_complex(rng, (operators,) + stack + (2, 2))
        rho = random_density_matrix(rng, 4)
        assert_same_bits(apply_to_memory(kraus, rho), lifted_reference(kraus, rho))


@pytest.mark.parametrize("steps", [4, 5, 11])
@pytest.mark.parametrize("flags", [
    ["--preset", "fig1"],
    ["--preset", "fig2", "--sweep-var", "r"],
], ids=["a-sweep", "r-sweep"])
def test_emit_csv_writes_each_row_as_percent_formatting_would(monkeypatch, tmp_path, flags, steps):
    monkeypatch.setattr(cli, "_SWEEP_CHUNK", 4)
    sweep = cli.run_sweep(cli.parse_args(["sweep", *flags, "--steps", str(steps)]))
    cli.emit_csv(sweep, str(tmp_path / "sweep.csv"))
    lines = [cli.CSV_HEADER]
    for k in range(steps):
        cells = [sweep.r[k], sweep.lhs[k], sweep.berta[k], sweep.holevo[k], sweep.delta[k]]
        first = "" if sweep.a is None else "%.12g" % sweep.a[k]
        lines.append(",".join([first] + ["%.12g" % value for value in cells]))
    assert (tmp_path / "sweep.csv").read_bytes() == ("\n".join(lines) + "\n").encode("ascii")


@pytest.mark.parametrize("flags", [
    ["--preset", "fig1"],
    ["--preset", "fig2", "--sweep-var", "r"],
    ["--state", "x", "--p", "0.3", "--obs", "y,z"],
], ids=["fig1", "fig2-r", "x-yz"])
def test_sweep_gives_the_bits_of_the_library_on_the_same_objects(flags):
    # every real constructor, and every transform of real inputs, is float64
    for built in (unruh_channel(0.3), amplitude_damping(0.2), bell_diagonal_state(0.1, -0.2, 0.3),
                  bell_diagonal_p(0.4), x_state(0.4), rindler_tripartite_state(0.3),
                  from_pure([0.6, 0.8]), choi(unruh_channel(0.3)),
                  partial_trace(x_state(0.4), 1, (2, 2)),
                  apply(amplitude_damping(0.2), np.eye(2) / 2)):
        assert built.dtype == np.float64
    cfg = cli.parse_args(["sweep", *flags, "--steps", "101"])
    sweep = cli.run_sweep(cfg)
    family = bell_diagonal_p if cfg.state == "bell" else x_state
    q, o = (pauli_observable(axis) for axis in cfg.obs)
    report = evaluate_eur(q, o, apply_to_memory(unruh_channel(sweep.r), family(cfg.p)))
    for name, value in (("lhs", report.lhs), ("berta", report.berta_bound),
                        ("holevo", report.holevo_bound), ("delta", report.delta)):
        assert value.tobytes() == getattr(sweep, name).tobytes(), name


def random_real_state(rng):
    """A random real two-qubit density matrix, G G^T / tr for a real Gaussian G."""
    g = rng.normal(size=(4, 4))
    m = g @ g.T
    return m / np.trace(m)


@pytest.mark.parametrize("r", [0.3, np.linspace(0.0, R_MAX, 7), np.full((2, 3), 0.2)],
                         ids=["one", "seven", "2x3"])
def test_real_apply_to_memory_equals_the_complex_path(r):
    rng = np.random.default_rng(41)
    kraus = unruh_channel(r)
    for rho in (x_state(0.4), bell_diagonal_p(0.5), random_real_state(rng)):
        real = apply_to_memory(kraus, rho)
        full = apply_to_memory(kraus.astype(complex), rho.astype(complex))
        assert real.dtype == np.float64 and full.dtype == np.complex128
        assert_same_bits(real, full.real)
        assert not full.imag.any() and not np.signbit(full.imag).any()  # every one +0
        # one complex side takes the complex path, bit for bit
        assert_same_bits(apply_to_memory(kraus, rho.astype(complex)), full)
        assert_same_bits(apply_to_memory(kraus.astype(complex), rho), full)


@pytest.mark.parametrize("pair", [("x", "y"), ("x", "z"), ("z", "z")], ids="".join)
def test_real_stack_equals_per_state_real_evaluation_and_the_reference(pair):
    rng = np.random.default_rng(43)
    q, o = (pauli_observable(axis) for axis in pair)
    channels = unruh_channel(np.linspace(0.0, R_MAX, 4))
    states = np.concatenate([apply_to_memory(channels, x_state(0.0)),
                             apply_to_memory(channels, bell_diagonal_p(0.5)),
                             [random_real_state(rng) for _ in range(2)]])
    assert states.dtype == np.float64

    stacked = evaluate_eur(q, o, states)
    per_state = [evaluate_eur(q, o, rho) for rho in states]
    for field in dataclasses.fields(stacked):
        got = np.broadcast_to(getattr(stacked, field.name), (len(states),))
        expected = np.array([getattr(report, field.name) for report in per_state])
        assert got.tobytes() == expected.tobytes(), field.name
    expected = reference.reports(q.basis, o.basis, states)
    assert not reference.report_outside_budget(stacked, expected)


def test_evaluate_eur_takes_one_real_spectrum_of_a_real_state(monkeypatch):
    rng = np.random.default_rng(47)
    solved = []

    def counted(name):
        solver = getattr(np.linalg, name)

        def call(a, *args, **kwargs):
            solved.append((name, np.shape(a), np.asarray(a).dtype))
            return solver(a, *args, **kwargs)

        return call

    one = apply_to_memory(unruh_channel(0.3), bell_diagonal_p(0.5))
    stack = np.stack([random_real_state(rng) for _ in range(7)])
    for name in ("eigh", "eigvalsh", "eig", "eigvals"):
        monkeypatch.setattr(np.linalg, name, counted(name))
    x, y = pauli_observable("x"), pauli_observable("y")
    for rho, lead in ((one, ()), (stack, (7,))):
        solved.clear()
        evaluate_eur(x, y, rho)
        assert solved == [("eigvalsh", lead + (4, 4), np.dtype(np.float64))]
