"""Stacked evaluation: a (N, 4, 4) stack gives exactly the per-state results,
and a real (float64) input gives exactly the bits of the complex path where
its kernels must agree. Every contract of the `evaluate_eur` report is
`helpers.check_eur_report`, run on a table of named stacks and on drawn
ones; the bit contracts of `apply_to_memory` and `choi` are in
`test_channels.py`."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import eur.cli as cli
import eur.states
import reference
from eur import bounds, linalg
from eur.bounds import _conditioned, evaluate_eur
from eur.channels import (
    R_MAX,
    amplitude_damping,
    apply,
    apply_to_memory,
    choi,
    unruh_channel,
)
from eur.linalg import _eigenvalues, partial_trace
from eur.measurement import ProjectiveObservable, pauli_observable
from eur.states import (
    bell_diagonal_p,
    bell_diagonal_state,
    from_pure,
    rindler_tripartite_state,
    x_state,
)
from helpers import (
    assert_same_bits,
    check_eur_report,
    random_cptp_kraus,
    random_observable,
    random_states,
    random_unitary,
)

seeds = st.integers(min_value=0, max_value=2**32 - 1)


def random_channel(rng):
    """A random CPTP family padded with zero operators to exactly four."""
    ops = random_cptp_kraus(rng)
    return ops + [np.zeros((2, 2), dtype=complex)] * (4 - len(ops))


def sweep_states():
    """x_state(0) and bell_diagonal_p(0.5) through the channel at four
    angles, then two random real states."""
    channels = unruh_channel(np.linspace(0.0, R_MAX, 4))
    return np.concatenate([apply_to_memory(channels, x_state(0.0)),
                           apply_to_memory(channels, bell_diagonal_p(0.5)),
                           random_states(np.random.default_rng(43), (2,), real=True)])


def preset_states():
    """The states of the fig1 and fig2 sweeps at 33 grid points, in that
    order: X states, each evolved by the channel at its own angle."""
    stacks = []
    for preset in ("fig1", "fig2"):
        cfg = cli.parse_args(["sweep", "--preset", preset, "--steps", "33"])
        family = bell_diagonal_p if cfg.state == "bell" else x_state
        stacks.append(apply_to_memory(unruh_channel(cli.run_sweep(cfg).r), family(cfg.p)))
    return np.concatenate(stacks)


# x_state(0) = |11><11|: the sigma_z outcome 0 has probability exactly 0,
# and the state holds no correlation; int64 holds it, |00><00| and
# |01><01| exactly, and float32 those and bell_diagonal_p(0). The families
# and sweep stacks hold X and non-X states together, so a form chosen per
# stack instead of per state changes the bits of their X states; the
# presets stack holds X states alone, so a form chosen for a stack of X
# states only changes the bits of its elements against their own reports.
CONTRACT_STACKS = {
    "families": lambda: np.concatenate([np.stack([
        x_state(0.0), x_state(1.0), x_state(0.3), bell_diagonal_p(0.0), bell_diagonal_p(0.7),
        np.diag([1.0, 0.0, 0.0, 0.0]), np.diag([0.0, 1.0, 0.0, 0.0])]),
        random_states(np.random.default_rng(53), (4,))]),
    "zero_probability": lambda: np.stack([x_state(0.0), x_state(0.5)] + [
        apply_to_memory(unruh_channel(r), x_state(0.0)) for r in (0.2, np.pi / 4)]),
    "sweep": sweep_states,
    "presets": preset_states,
    "random": lambda: random_states(np.random.default_rng(53), (2, 3)),
    "empty": lambda: np.zeros((0, 4, 4)),
}


def observable_pair(pair):
    """Two Pauli observables, "zx" for z then x, or a fixed random pair."""
    if pair == "random":
        rng = np.random.default_rng(43)
        return random_observable(rng), random_observable(rng)
    return pauli_observable(pair[0]), pauli_observable(pair[1])


@pytest.mark.parametrize("stack", CONTRACT_STACKS)
@pytest.mark.parametrize("pair", ["zz", "zx", "xy", "xz", "xx", "yz", "random"])
@pytest.mark.parametrize("real", [False, True], ids=["complex", "float64"])
def test_evaluate_eur_keeps_the_report_contract(real, pair, stack):
    states = CONTRACT_STACKS[stack]()
    states = np.ascontiguousarray(states.real) if real else states.astype(complex)
    check_eur_report(*observable_pair(pair), states)


@given(seeds, st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=6))
@settings(max_examples=30, deadline=None)
def test_evaluate_eur_keeps_the_report_contract_on_drawn_states(seed, rank, size):
    rng = np.random.default_rng(seed)
    q, r = random_observable(rng), random_observable(rng)
    states = random_states(rng, (size,), rank)
    channels = [random_channel(rng) for _ in range(size)]
    evolved = apply_to_memory(np.stack(channels, axis=1), states)
    assert_same_bits(evolved, np.stack([apply_to_memory(ch, rho) for ch, rho in zip(channels, states)]))
    check_eur_report(q, r, np.concatenate([states, evolved]))


@pytest.mark.parametrize("stack", [(), (7,)], ids=["one", "seven"])
@pytest.mark.parametrize("real", [True, False], ids=["float64", "complex128"])
def test_evaluate_eur_takes_each_spectrum_once(monkeypatch, real, stack):
    # one LAPACK spectrum, of rho, checked once, in rho's own dtype (a real
    # state is never made complex); both marginals and the four conditional
    # memory states are 2x2, derived from the checked rho, and solved
    # unchecked in closed form as one stack. rho is an X state, alone or
    # ahead of six random states, so a spectrum taken per X block shows.
    x = apply_to_memory(unruh_channel(0.3), bell_diagonal_p(0.5)).astype(float if real else complex)
    rho = np.concatenate([[x], random_states(np.random.default_rng(36), (6,), real=real)]) if stack else x
    solved, spectra, checked = [], [], []

    def counted(name):
        solver = getattr(np.linalg, name)

        def call(a, *args, **kwargs):
            solved.append((name, np.shape(a), np.asarray(a).dtype))
            return solver(a, *args, **kwargs)

        return call

    def eigenvalues(m):
        spectra.append(np.shape(m))
        return linalg._eigenvalues(m)

    def hermitian_part(m, *args):
        checked.append(np.shape(m))
        return linalg._hermitian_part(m, *args)

    for name in ("eigh", "eigvalsh", "eig", "eigvals"):
        monkeypatch.setattr(np.linalg, name, counted(name))
    for module in (eur.states, bounds):
        monkeypatch.setattr(module, "_eigenvalues", eigenvalues)
        monkeypatch.setattr(module, "_hermitian_part", hermitian_part)
    evaluate_eur(pauli_observable("x"), pauli_observable("y"), rho)
    assert solved == [("eigvalsh", stack + (4, 4), rho.dtype)]
    assert spectra == [stack + (4, 4), (6,) + stack + (2, 2)]
    assert checked == [stack + (4, 4)]


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
    # with the rows on the left, each block is its own row's product: the
    # same bits beside any partner and in either place of the pair
    assert_same_bits(_conditioned(rho, q, q)[1][2:4], states[2:4])
    assert_same_bits(_conditioned(rho, r, q)[1][4:6], states[2:4])
    # rho_A and rho_B in that order, each the partial trace
    assert not reference.outside_budget(states[0], partial_trace(rho, 0, (2, 2)))
    assert not reference.outside_budget(states[1], partial_trace(rho, 1, (2, 2)))


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
