"""Stacked evaluation: a (N, 4, 4) stack gives exactly the per-state results."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import eur.cli as cli
from eur.bounds import evaluate_eur
from eur.channels import R_MAX, apply_to_memory, unruh_channel
from eur.linalg import hermitian_eigensystem, partial_trace
from eur.measurement import (
    ProjectiveObservable,
    _conditioned,
    measurement_ensemble,
    pauli_observable,
    post_measurement_state,
)
from eur.states import vn_entropy, x_state
from helpers import random_complex, random_cptp_kraus, random_density_matrix, random_unitary

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
    # the ensemble keeps its one-state form: None marks the masked outcome
    assert measurement_ensemble(z, states[0])[0] == (0.0, None)
    with pytest.raises(ValueError, match="one 4x4"):
        measurement_ensemble(z, states)


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


def test_checks_cover_every_matrix_of_a_stack():
    rng = np.random.default_rng(3)
    good = random_density_matrix(rng, 4)
    not_hermitian = good.copy()
    not_hermitian[0, 1] += 1e-6
    with pytest.raises(ValueError, match="not Hermitian"):
        hermitian_eigensystem(np.stack([good, good, not_hermitian]))
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
    return np.array(states).reshape(stack + (4, 4))


def assert_same_bits(got, expected):
    """Equal shape and bytes, the sign of every zero included."""
    assert got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()
    for part in ("real", "imag"):
        assert np.array_equal(np.signbit(getattr(got, part)), np.signbit(getattr(expected, part)))


@pytest.mark.parametrize("stack", [(), (5,), (2, 3), (0,)], ids=str)
@pytest.mark.parametrize("count", [1, 2])
def test_conditioned_blocks_equal_the_per_matrix_product(stack, count):
    rng = np.random.default_rng(17 + len(stack) + 10 * count)
    observables = [ProjectiveObservable("o", random_unitary(rng, 2)) for _ in range(count)]
    rho = random_states(rng, stack)
    # the product of the rows with one 4x4 per state, as a reference formula
    rows = np.concatenate([obs._rows for obs in observables])
    t = rho.reshape(stack + (2, 2, 2, 2))
    expected = (rows @ t.swapaxes(-3, -2).reshape(stack + (4, 4))).reshape(
        stack + (2 * count, 2, 2))
    assert_same_bits(_conditioned(rho, observables)[4], expected)


@pytest.mark.parametrize("stack", [(), (5,), (2, 3)], ids=str)
def test_post_measurement_blocks_equal_those_of_the_pair(stack):
    rng = np.random.default_rng(23 + len(stack))
    q, r = (ProjectiveObservable(name, random_unitary(rng, 2)) for name in "qr")
    rho = random_states(rng, stack)
    pair = _conditioned(rho, (q, r))[4]
    assert_same_bits(_conditioned(rho, (q,))[4], pair[..., :2, :, :])
    # post_measurement_state assembles exactly the blocks that evaluate_eur reads
    projectors = np.stack([q.projector(0), q.projector(1)])
    expected = np.einsum("iac,...ijl->...ajcl", projectors, pair[..., :2, :, :])
    assert_same_bits(post_measurement_state(q, rho), expected.reshape(stack + (4, 4)))


def lifted_reference(kraus, rho):
    """sum_j (I (x) K_j) rho (I (x) K_j)^dag with one product per matrix."""
    lifted = np.zeros(kraus.shape[:-2] + (4, 4), dtype=complex)
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
