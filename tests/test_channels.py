"""Kraus channels, the Choi representation, and the acceleration channel."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from eur.channels import (
    R_MAX,
    amplitude_damping,
    apply,
    apply_to_memory,
    choi,
    kraus_from_choi,
    unruh_channel,
    unruh_r,
    validate_kraus,
)
from eur.linalg import partial_trace
from eur.states import probe_marginal
from helpers import (
    I2,
    PHI_PLUS,
    SX,
    SY,
    SZ,
    TOMO_INPUTS,
    apply_kraus,
    apply_kraus_to_memory,
    is_density_matrix,
    proj,
    random_choi,
    random_cptp_kraus,
    random_density_matrix,
)

seeds = st.integers(min_value=0, max_value=2**32 - 1)
r_values = st.floats(0.0, np.pi / 4, allow_nan=False)


def expected_acceleration_choi(r: float) -> np.ndarray:
    c, s = np.cos(r), np.sin(r)
    return np.array(
        [[c * c, 0, 0, c], [0, s * s, 0, 0], [0, 0, 0, 0], [c, 0, 0, 1]],
        dtype=complex,
    )


def test_unruh_r_at_zero_acceleration_is_zero():
    assert unruh_r(0.0, 0.1) == 0.0


def test_unruh_r_is_zero_next_to_zero_acceleration():
    # pi omega / a overflows or is huge here; warnings are errors under pytest
    assert np.array_equal(unruh_r(np.array([0.0, -0.0, 5e-324, 1e-300]), 0.1), np.zeros(4))
    assert 0.0 < unruh_r(1e-3, 0.1) < 1e-130


@pytest.mark.parametrize("a", [1e9, 1e17, 1e300])
def test_unruh_r_saturates_at_high_acceleration(a):
    r = unruh_r(a, 0.1)
    assert np.cos(r) == pytest.approx(1 / np.sqrt(2), abs=1e-9)
    assert r <= np.pi / 4


@given(st.floats(1e-3, 40.0), st.floats(1e-6, 1e6))
@settings(max_examples=100, deadline=None)
def test_unruh_r_keeps_full_relative_precision(ratio, a):
    # tan r = exp(-pi omega / a); the tail at large omega/a is where r is tiny
    omega = ratio * a
    expected = np.exp(-np.pi * omega / a)
    assert np.tan(unruh_r(a, omega)) == pytest.approx(expected, rel=1e-14)


def test_unruh_r_known_ratio():
    # a = 2*pi*omega/ln 2 makes the exponential exactly 1/2
    omega = 0.1
    a = 2 * np.pi * omega / np.log(2)
    assert np.cos(unruh_r(a, omega)) == pytest.approx(
        np.sqrt(2.0 / 3.0), abs=1e-12
    )


@given(st.floats(1e-6, 1e6), st.floats(1e-6, 1e6), st.floats(1.01, 10.0))
@settings(max_examples=60, deadline=None)
def test_unruh_r_monotonic(a, omega, factor):
    base = unruh_r(a, omega)
    assert unruh_r(a * factor, omega) >= base
    assert unruh_r(a, omega * factor) <= base


def test_unruh_params_validation():
    for bad in (-1.0, np.inf, float("nan")):
        with pytest.raises(ValueError) as exc:
            unruh_r(bad, 0.1)
        assert str(exc.value) == f"acceleration must be finite and >= 0, got {bad}"
        # one bad acceleration anywhere in an array fails the whole call
        with pytest.raises(ValueError) as exc:
            unruh_r(np.array([0.0, 1.0, bad, 2.0]), 0.1)
        assert str(exc.value) == f"acceleration must be finite and >= 0, got {bad}"
    for omega in (0.0, -0.1, np.inf, float("nan")):
        with pytest.raises(ValueError, match="mode frequency must be finite and > 0"):
            unruh_r(np.array([0.0, 1.0]), omega)


def test_unruh_r_takes_an_array_of_accelerations():
    # the fig1 grid: 0 to 20*omega*2pi, so a = 0 is the first point
    omega = 0.1
    grid = np.linspace(0.0, 20 * omega * 2 * math.pi, 1001)
    rs = unruh_r(grid, omega)
    assert rs.shape == grid.shape and rs[0] == 0.0
    assert not reference.outside_budget(rs, [reference.unruh_r(a, omega) for a in grid.tolist()])
    assert np.array_equal(unruh_r(grid.reshape(1, -1), omega), rs.reshape(1, -1))
    assert type(unruh_r(grid[5], omega)) is float
    assert unruh_r(grid[5], omega) == rs[5]


def test_unruh_channel_at_zero_is_identity():
    k1, k2 = unruh_channel(0.0)
    assert np.allclose(k1, I2, atol=0.0)
    assert np.allclose(k2, 0.0, atol=0.0)


@given(r_values)
@settings(max_examples=50, deadline=None)
def test_unruh_channel_is_complete(r):
    validate_kraus(unruh_channel(r))


def test_unruh_channel_rejects_out_of_range():
    with pytest.raises(ValueError):
        unruh_channel(-0.01)
    with pytest.raises(ValueError):
        unruh_channel(1.0)
    # one bad angle anywhere in an array fails the whole call
    for bad in (float("nan"), -0.01, R_MAX + 1e-15):
        with pytest.raises(ValueError) as exc:
            unruh_channel(np.array([0.0, 0.2, bad, R_MAX]))
        assert str(exc.value) == f"r must lie in [0, pi/4], got {bad}"


def test_unruh_channel_stacks_an_array_of_angles():
    rs = np.linspace(0.0, R_MAX, 101)
    assert rs[0] == 0.0 and rs[-1] == R_MAX
    kraus = unruh_channel(rs)
    assert kraus.shape == (2, 101, 2, 2)
    expected = np.array([
        [[[math.cos(r), 0.0], [0.0, 1.0]] for r in rs.tolist()],
        [[[0.0, 0.0], [math.sin(r), 0.0]] for r in rs.tolist()],
    ], dtype=complex)
    assert np.array_equal(kraus, expected)
    assert unruh_channel(rs.reshape(1, 101)).shape == (2, 1, 101, 2, 2)
    one = unruh_channel(float(rs[37]))
    assert one.shape == (2, 2, 2)
    assert np.array_equal(one, kraus[:, 37])


def test_unruh_channel_splits_ground_state_evenly_at_max_mixing():
    out = apply(unruh_channel(np.pi / 4), np.diag([1.0, 0.0]))
    assert np.allclose(out, np.diag([0.5, 0.5]), atol=1e-12)


def test_unruh_channel_leaves_excited_state_invariant():
    for r in (0.2, 0.5, np.pi / 4):
        out = apply(unruh_channel(r), np.diag([0.0, 1.0]))
        assert np.allclose(out, np.diag([0.0, 1.0]), atol=1e-12)


def test_unruh_channel_damps_ground_state():
    r = 0.3
    out = apply(unruh_channel(r), np.diag([1.0, 0.0]))
    assert np.allclose(out, np.diag([np.cos(r) ** 2, np.sin(r) ** 2]), atol=1e-12)


def test_amplitude_damping_endpoints():
    assert amplitude_damping(0.5).shape == (2, 2, 2)
    e0, e1 = amplitude_damping(0.0)
    assert np.allclose(e0, I2, atol=0.0) and np.allclose(e1, 0.0, atol=0.0)
    rng = np.random.default_rng(8)
    rho = random_density_matrix(rng, 2)
    assert np.allclose(apply(amplitude_damping(1.0), rho), np.diag([1.0, 0.0]), atol=1e-12)
    with pytest.raises(ValueError):
        amplitude_damping(1.5)


@given(seeds, r_values)
@settings(max_examples=60, deadline=None)
def test_unruh_equals_conjugated_amplitude_damping(seed, r):
    rng = np.random.default_rng(seed)
    rho = random_density_matrix(rng, 2)
    via_unruh = apply(unruh_channel(r), rho)
    via_ad = SX @ apply(amplitude_damping(np.sin(r) ** 2), SX @ rho @ SX) @ SX
    assert np.max(np.abs(via_unruh - via_ad)) < 1e-10


def test_apply_identity_channel_is_identity_map():
    rng = np.random.default_rng(9)
    rho = random_density_matrix(rng, 2)
    assert np.allclose(apply([I2], rho), rho, atol=0.0)
    with pytest.raises(ValueError):
        apply([I2], np.eye(4))
    with pytest.raises(ValueError, match="channel has no Kraus operators"):
        apply([], rho)
    with pytest.raises(ValueError, match=r"Kraus operator has shape \(3, 3\)"):
        apply([np.eye(3)], rho)


@given(seeds, r_values)
@settings(max_examples=50, deadline=None)
def test_apply_preserves_density_matrix_properties(seed, r):
    rng = np.random.default_rng(seed)
    rho = random_density_matrix(rng, 2)
    out = apply(unruh_channel(r), rho)
    assert abs(np.trace(out) - 1.0) < 1e-12
    assert np.max(np.abs(out - out.conj().T)) < 1e-12
    assert is_density_matrix(out)


def test_apply_to_memory_identity_channel():
    rng = np.random.default_rng(10)
    rho = random_density_matrix(rng, 4)
    assert np.allclose(apply_to_memory([I2], rho), rho, atol=0.0)
    with pytest.raises(ValueError):
        apply_to_memory([I2], np.eye(2))
    with pytest.raises(ValueError, match="channel has no Kraus operators"):
        apply_to_memory([], rho)
    with pytest.raises(ValueError, match=r"Kraus operator has shape \(3, 3\)"):
        apply_to_memory([np.eye(3)], rho)
    with pytest.raises(ValueError, match="Kraus operators have shapes"):
        apply_to_memory([I2, np.eye(3)], rho)
    # one identity channel per state of a stack: Kraus shape (K, N, 2, 2)
    stack = np.stack([rho, rho.T, np.eye(4) / 4])
    identities = np.broadcast_to(I2, (1, 3, 2, 2))
    assert np.allclose(apply_to_memory(identities, stack), stack, atol=0.0)


@pytest.mark.parametrize("r", [0.0, 0.3, np.pi / 4])
def test_apply_to_memory_on_maximal_entanglement_gives_half_choi(r):
    out = apply_to_memory(unruh_channel(r), proj(PHI_PLUS))
    assert np.max(np.abs(out - expected_acceleration_choi(r) / 2)) < 1e-12


@given(seeds, r_values, st.booleans())
@settings(max_examples=50, deadline=None)
def test_apply_to_memory_is_local(seed, r, general):
    rng = np.random.default_rng(seed)
    rho = random_density_matrix(rng, 4)
    ch = random_cptp_kraus(rng) if general else unruh_channel(r)
    out = apply_to_memory(ch, rho)
    assert np.max(np.abs(out - apply_kraus_to_memory(ch, rho))) < 1e-12
    # probe marginal untouched, memory marginal evolves under the channel
    assert np.max(np.abs(
        partial_trace(out, keep=[0], dims=[2, 2]) - partial_trace(rho, keep=[0], dims=[2, 2])
    )) < 1e-12
    assert np.max(np.abs(
        partial_trace(out, keep=[1], dims=[2, 2]) - apply(ch, partial_trace(rho, keep=[1], dims=[2, 2]))
    )) < 1e-12


def test_choi_of_identity_channel():
    assert np.allclose(choi([I2]), 2 * proj(PHI_PLUS), atol=0.0)


@pytest.mark.parametrize("r", [0.0, np.pi / 8, np.pi / 4])
def test_choi_of_acceleration_channel_matches_closed_form(r):
    assert np.max(np.abs(choi(unruh_channel(r)) - expected_acceleration_choi(r))) < 1e-12


def test_choi_of_depolarizing_channel():
    ops = [0.5 * I2, 0.5 * SX, 0.5 * SY, 0.5 * SZ]
    assert np.allclose(choi(ops), np.eye(4) / 2, atol=1e-15)


@given(r_values)
@settings(max_examples=40, deadline=None)
def test_choi_invariants(r):
    c = choi(unruh_channel(r))
    assert abs(np.trace(c) - 2.0) < 1e-12
    assert np.max(np.abs(probe_marginal(c) - I2)) < 1e-12
    assert np.linalg.eigvalsh(c)[0] > -1e-12


def test_kraus_from_choi_identity():
    ops = kraus_from_choi(2 * proj(PHI_PLUS))
    assert isinstance(ops, np.ndarray) and ops.shape == (1, 2, 2)
    rng = np.random.default_rng(12)
    rho = random_density_matrix(rng, 2)
    assert np.max(np.abs(apply(ops, rho) - rho)) < 1e-12


def test_kraus_from_choi_depolarizing_action():
    ops = kraus_from_choi(np.eye(4) / 2)
    assert isinstance(ops, np.ndarray) and ops.shape == (4, 2, 2)
    rng = np.random.default_rng(13)
    for _ in range(5):
        rho = random_density_matrix(rng, 2)
        assert np.max(np.abs(apply(ops, rho) - I2 / 2)) < 1e-12


@pytest.mark.parametrize("r", np.linspace(0.0, np.pi / 4, 10))
def test_kraus_from_choi_round_trip_acceleration(r):
    original = unruh_channel(r)
    rebuilt = kraus_from_choi(choi(original))
    for rho in TOMO_INPUTS:
        assert np.max(np.abs(apply(rebuilt, rho) - apply(original, rho))) < 1e-10


@given(seeds)
@settings(max_examples=60, deadline=None)
def test_kraus_from_choi_round_trip_random_channels(seed):
    rng = np.random.default_rng(seed)
    original = random_cptp_kraus(rng)
    rebuilt = kraus_from_choi(choi(original))
    for rho in TOMO_INPUTS:
        assert np.max(np.abs(apply(rebuilt, rho) - apply_kraus(original, rho))) < 1e-10


def test_kraus_from_choi_rejects_non_positive():
    bad = np.diag([1.5, 0.5, 0.5, -0.5]).astype(complex)
    with pytest.raises(ValueError, match="not completely positive"):
        kraus_from_choi(bad)


def test_kraus_from_choi_rejects_non_trace_preserving():
    # positive, trace 2, but the output marginal is not the identity
    bad = np.diag([2.0, 0.0, 0.0, 0.0]).astype(complex)
    with pytest.raises(ValueError, match="trace preserving"):
        kraus_from_choi(bad)
    # no eigenvalue above the cutoff leaves no operator at all
    with pytest.raises(ValueError, match="channel has no Kraus operators"):
        kraus_from_choi(np.zeros((4, 4), dtype=complex))


@given(seeds)
@settings(max_examples=40, deadline=None)
def test_random_choi_generator_is_cptp(seed):
    # sanity of the test infrastructure itself
    rng = np.random.default_rng(seed)
    c = random_choi(rng)
    assert abs(np.trace(c) - 2.0) < 1e-10
    assert np.linalg.eigvalsh(c)[0] > -1e-10
    assert np.max(np.abs(probe_marginal(c) - I2)) < 1e-10
