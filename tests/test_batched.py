"""Stacked evaluation: a (N, 4, 4) stack gives exactly the per-state results."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import eur.cli as cli
from eur.bounds import evaluate_eur
from eur.channels import apply_to_memory, unruh_channel
from eur.linalg import hermitian_eigensystem, partial_trace
from eur.measurement import ProjectiveObservable, measurement_ensemble, pauli_observable
from eur.states import vn_entropy, x_state
from helpers import random_cptp_kraus, random_density_matrix, random_unitary

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
