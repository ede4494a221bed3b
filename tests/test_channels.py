"""Kraus channels, the Choi representation, and the acceleration channel."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from eur import channels
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
from helpers import (
    I2,
    PHI_PLUS,
    SX,
    SY,
    SZ,
    TOMO_INPUTS,
    apply_kraus,
    apply_kraus_to_memory,
    assert_same_bits,
    is_density_matrix,
    proj,
    random_choi,
    random_complex,
    random_cptp_kraus,
    random_density_matrix,
    random_hermitian,
)

seeds = st.integers(min_value=0, max_value=2**32 - 1)
r_values = st.floats(0.0, np.pi / 4, allow_nan=False)

# r = atan(exp(-pi omega / a)) lies about pi omega / (2 a) below pi/4 at
# large a, so cos r exceeds 1/sqrt(2) by about 1.1e-10 at a = 1e9 and
# omega = 0.1: the physical approach to the limit, not roundoff.
SATURATION_ATOL = 1e-9


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
    assert np.cos(r) == pytest.approx(1 / np.sqrt(2), abs=SATURATION_ATOL)
    assert r <= np.pi / 4


@given(st.floats(1e-3, 40.0), st.floats(1e-6, 1e6))
@settings(max_examples=100, deadline=None)
def test_unruh_r_keeps_full_relative_precision(ratio, a):
    # tan r = exp(-pi omega / a); the tail at large omega/a is where r is
    # tiny, so the budget's K * EPS holds relative to the value
    omega = ratio * a
    expected = np.exp(-np.pi * omega / a)
    assert abs(np.tan(unruh_r(a, omega)) - expected) <= reference.K * reference.EPS * expected


def test_unruh_r_known_ratio():
    # a = 2*pi*omega/ln 2 makes the exponential exactly 1/2
    omega = 0.1
    a = 2 * np.pi * omega / np.log(2)
    expected = np.sqrt(2.0 / 3.0)
    assert np.cos(unruh_r(a, omega)) == pytest.approx(expected, abs=reference.budget(expected))


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
    assert np.array_equal(k1, I2)
    assert np.array_equal(k2, np.zeros((2, 2)))


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
    assert not reference.outside_budget(out, np.diag([0.5, 0.5]))


def test_unruh_channel_leaves_excited_state_invariant():
    for r in (0.2, 0.5, np.pi / 4):
        out = apply(unruh_channel(r), np.diag([0.0, 1.0]))
        assert not reference.outside_budget(out, np.diag([0.0, 1.0]))


def test_unruh_channel_damps_ground_state():
    r = 0.3
    out = apply(unruh_channel(r), np.diag([1.0, 0.0]))
    assert not reference.outside_budget(out, np.diag([np.cos(r) ** 2, np.sin(r) ** 2]))


def test_amplitude_damping_endpoints():
    assert amplitude_damping(0.5).shape == (2, 2, 2)
    e0, e1 = amplitude_damping(0.0)
    assert np.array_equal(e0, I2) and np.array_equal(e1, np.zeros((2, 2)))
    rng = np.random.default_rng(8)
    rho = random_density_matrix(rng, 2)
    assert not reference.outside_budget(apply(amplitude_damping(1.0), rho), np.diag([1.0, 0.0]))
    with pytest.raises(ValueError):
        amplitude_damping(1.5)


@given(seeds, r_values)
@settings(max_examples=60, deadline=None)
def test_unruh_equals_conjugated_amplitude_damping(seed, r):
    rng = np.random.default_rng(seed)
    rho = random_density_matrix(rng, 2)
    via_unruh = apply(unruh_channel(r), rho)
    via_ad = SX @ apply(amplitude_damping(np.sin(r) ** 2), SX @ rho @ SX) @ SX
    assert not reference.outside_budget(via_unruh, via_ad)


def test_apply_identity_channel_is_identity_map():
    rng = np.random.default_rng(9)
    rho = random_density_matrix(rng, 2)
    assert np.array_equal(apply([I2], rho), rho)
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
    assert np.trace(out) == pytest.approx(1.0, abs=reference.budget(1.0))
    assert not reference.outside_budget(out, out.conj().T)
    assert is_density_matrix(out)


def test_apply_to_memory_identity_channel():
    rng = np.random.default_rng(10)
    rho = random_density_matrix(rng, 4)
    assert np.array_equal(apply_to_memory([I2], rho), rho)
    with pytest.raises(ValueError):
        apply_to_memory([I2], np.eye(2))
    with pytest.raises(ValueError, match="channel has no Kraus operators"):
        apply_to_memory([], rho)
    with pytest.raises(ValueError, match=r"Kraus operator has shape \(3, 3\)"):
        apply_to_memory([np.eye(3)], rho)
    with pytest.raises(ValueError, match="Kraus operators have shapes"):
        apply_to_memory([I2, np.eye(3)], rho)
    # one bare operator, or an array of fewer axes still, is named by its whole shape
    entry_points = (lambda k: apply(k, I2 / 2), lambda k: apply_to_memory(k, rho), choi, validate_kraus)
    for bare in (I2, np.ones(2), 1.0):
        message = f"channel has shape {np.shape(bare)}, expected (K, ..., 2, 2)"
        for entry_point in entry_points:
            with pytest.raises(ValueError, match=re.escape(message)):
                entry_point(bare)
    # one identity channel per state of a stack: Kraus shape (K, N, 2, 2)
    stack = np.stack([rho, rho.T, np.eye(4) / 4])
    identities = np.broadcast_to(I2, (1, 3, 2, 2))
    assert np.array_equal(apply_to_memory(identities, stack), stack)


@pytest.mark.parametrize("r", [0.0, 0.3, np.pi / 4])
def test_apply_to_memory_on_maximal_entanglement_gives_half_choi(r):
    out = apply_to_memory(unruh_channel(r), proj(PHI_PLUS))
    assert not reference.outside_budget(out, expected_acceleration_choi(r) / 2)


@given(seeds, r_values, st.booleans())
@settings(max_examples=50, deadline=None)
def test_apply_to_memory_is_local(seed, r, general):
    rng = np.random.default_rng(seed)
    rho = random_density_matrix(rng, 4)
    ch = random_cptp_kraus(rng) if general else unruh_channel(r)
    out = apply_to_memory(ch, rho)
    assert not reference.outside_budget(out, apply_kraus_to_memory(ch, rho))
    # probe marginal untouched, memory marginal evolves under the channel
    assert not reference.outside_budget(partial_trace(out, keep=[0], dims=[2, 2]),
                                        partial_trace(rho, keep=[0], dims=[2, 2]))
    assert not reference.outside_budget(partial_trace(out, keep=[1], dims=[2, 2]),
                                        apply(ch, partial_trace(rho, keep=[1], dims=[2, 2])))


@pytest.mark.parametrize("kraus_stack, state_stack", [((2,), (3,)), ((2, 3), (4,)), ((5,), (2, 3))],
                         ids=str)
@pytest.mark.parametrize("dtype", [float, complex])
def test_apply_to_memory_names_both_stacks_that_do_not_broadcast(kraus_stack, state_stack, dtype):
    kraus = unruh_channel(np.zeros(kraus_stack)).astype(dtype)
    rho = np.broadcast_to(np.eye(4) / 4, state_stack + (4, 4))
    message = f"channel stack {kraus_stack} does not broadcast against state stack {state_stack}"
    with pytest.raises(ValueError, match=re.escape(message)):
        apply_to_memory(kraus, rho)


def test_channel_constants_are_read_only():
    with pytest.raises(ValueError, match="read-only"):
        channels._IDENTITY[0, 0] = 2.0


def test_choi_of_identity_channel():
    assert not reference.outside_budget(choi([I2]), 2 * proj(PHI_PLUS))


@pytest.mark.parametrize("r", [0.0, np.pi / 8, np.pi / 4])
def test_choi_of_acceleration_channel_matches_closed_form(r):
    assert not reference.outside_budget(choi(unruh_channel(r)), expected_acceleration_choi(r))


def test_choi_of_depolarizing_channel():
    ops = [0.5 * I2, 0.5 * SX, 0.5 * SY, 0.5 * SZ]
    assert not reference.outside_budget(choi(ops), np.eye(4) / 2)


@given(r_values)
@settings(max_examples=40, deadline=None)
def test_choi_invariants(r):
    c = choi(unruh_channel(r))
    assert np.trace(c) == pytest.approx(2.0, abs=reference.budget(2.0))
    assert not reference.outside_budget(partial_trace(c, keep=[0], dims=[2, 2]), I2)
    assert np.linalg.eigvalsh(c)[0] >= -reference.budget(0.0)


def test_kraus_from_choi_identity():
    ops = kraus_from_choi(2 * proj(PHI_PLUS))
    assert isinstance(ops, np.ndarray) and ops.shape == (1, 2, 2)
    rng = np.random.default_rng(12)
    rho = random_density_matrix(rng, 2)
    assert not reference.outside_budget(apply(ops, rho), rho)


def test_kraus_from_choi_depolarizing_action():
    ops = kraus_from_choi(np.eye(4) / 2)
    assert isinstance(ops, np.ndarray) and ops.shape == (4, 2, 2)
    rng = np.random.default_rng(13)
    for _ in range(5):
        rho = random_density_matrix(rng, 2)
        assert not reference.outside_budget(apply(ops, rho), I2 / 2)


@pytest.mark.parametrize("r", np.linspace(0.0, np.pi / 4, 10))
def test_kraus_from_choi_round_trip_acceleration(r):
    original = unruh_channel(r)
    rebuilt = kraus_from_choi(choi(original))
    for rho in TOMO_INPUTS:
        assert not reference.outside_budget(apply(rebuilt, rho), apply(original, rho))


@given(seeds)
@settings(max_examples=60, deadline=None)
def test_kraus_from_choi_round_trip_random_channels(seed):
    rng = np.random.default_rng(seed)
    original = random_cptp_kraus(rng)
    rebuilt = kraus_from_choi(choi(original))
    for rho in TOMO_INPUTS:
        assert not reference.outside_budget(apply(rebuilt, rho), apply_kraus(original, rho))


def test_kraus_from_choi_rejects_non_positive():
    bad = np.diag([1.5, 0.5, 0.5, -0.5]).astype(complex)
    with pytest.raises(ValueError, match="not completely positive"):
        kraus_from_choi(bad)
    with pytest.raises(ValueError, match="expected a 4x4 Choi matrix"):
        kraus_from_choi(np.eye(2))


def test_kraus_from_choi_rejects_non_trace_preserving():
    # positive, trace 2, but the output marginal is not the identity
    bad = np.diag([2.0, 0.0, 0.0, 0.0]).astype(complex)
    with pytest.raises(ValueError, match="trace preserving"):
        kraus_from_choi(bad)
    # no eigenvalue above the cutoff leaves no operator at all
    with pytest.raises(ValueError, match="channel has no Kraus operators"):
        kraus_from_choi(np.zeros((4, 4), dtype=complex))


def random_family(rng, count, stack=(), real=False):
    """`count` Gaussian 2x2 operators per channel, shape (count, *stack, 2, 2)."""
    shape = (count, *stack, 2, 2)
    return rng.normal(size=shape) if real else random_complex(rng, shape)


@pytest.mark.parametrize("count", [1, 2, 3, 4])
@pytest.mark.parametrize("real", [False, True], ids=["complex", "float64"])
def test_choi_is_the_channel_on_phi_bit_for_bit(count, real):
    # C = (I (x) E)(|phi><phi|) for phi = sum_i |ii>, taken by apply_to_memory
    phi_projector = np.outer([1.0, 0.0, 0.0, 1.0], [1.0, 0.0, 0.0, 1.0])
    rng = np.random.default_rng(60 + count + 10 * real)
    for _ in range(25):
        one, stack = random_family(rng, count, real=real), random_family(rng, count, (5,), real)
        for channel in (one, stack, list(one)):
            assert_same_bits(choi(channel), apply_to_memory(channel, phi_projector))
        for k in range(5):
            assert_same_bits(choi(stack)[k], choi(stack[:, k]))


def isometry_kraus(rng, count):
    """A random trace-preserving family of `count` operators: the 2x2 row
    blocks of a (2 count, 2) matrix with orthonormal columns."""
    q, _ = np.linalg.qr(random_complex(rng, (2 * count, 2)))
    return q.reshape(count, 2, 2)


@given(seeds, st.integers(1, 4), st.sampled_from([0.0, 1e-13, 1e-12, 1e-11, 5e-11, 1e-10, 2e-10]),
       st.booleans())
@settings(max_examples=300, deadline=None)
def test_kraus_from_choi_accepts_only_what_validate_kraus_accepts(seed, rank, size, hermitian):
    # random Choi matrices of every rank, moved by about the tolerances: a
    # Hermitian shift moves the eigenvalues across EIGENVALUE_FLOOR and
    # KRAUS_WEIGHT_CUTOFF and tr_out C across COMPLETENESS_ATOL
    rng = np.random.default_rng(seed)
    c = random_choi(rng) if rank == 4 else choi(isometry_kraus(rng, rank))
    shift = random_hermitian(rng, 4) if hermitian else random_complex(rng, (4, 4)) / 2
    try:
        family = kraus_from_choi(c + size * shift)
    except ValueError:
        assert size > 0.0  # every CPTP Choi matrix is accepted as it is
        return
    validate_kraus(family)


def test_kraus_from_choi_reports_its_trace_deviation():
    # tr_out C = diag(2, 0): max |tr_out C - I| = 1, nothing dropped
    with pytest.raises(ValueError, match=re.escape(
            "Choi matrix is not trace preserving: max |tr_out C - I| + dropped weight = 1.000e+00")):
        kraus_from_choi(np.diag([2.0, 0.0, 0.0, 0.0]))
    # the identity channel's Choi matrix less 8e-11 on |01><01|: tr_out C is
    # 8e-11 from I, and the eigenvalue -8e-11 is dropped at the cutoff; the
    # family it would give, [I], is exactly trace preserving
    c = 2 * proj(PHI_PLUS)
    c[1, 1] -= 8e-11
    with pytest.raises(ValueError, match=re.escape("dropped weight = 1.600e-10")):
        kraus_from_choi(c)
    c[1, 1] = 5e-13  # a weight dropped at the cutoff, within the tolerance
    assert kraus_from_choi(c).shape == (1, 2, 2)


@pytest.mark.parametrize("c, message", [
    # not CP, and not trace preserving either
    (np.diag([2.5, -0.5, 0.0, 0.0]), "not completely positive: Choi eigenvalue -5.000e-01"),
    # CP, but no weight above the cutoff, and not trace preserving either
    (np.zeros((4, 4)), "channel has no Kraus operators"),
    (np.diag([1e-12, 1e-12, 0.0, 0.0]), "channel has no Kraus operators"),
    (-np.eye(4), "not completely positive: Choi eigenvalue -1.000e+00"),
], ids=["not_cp", "zero", "below_cutoff", "negative"])
def test_kraus_from_choi_raises_the_first_failing_check(c, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        kraus_from_choi(c)


def test_kraus_from_choi_names_the_choi_matrix():
    skew = 2 * proj(PHI_PLUS)
    skew[0, 1] += 1e-6
    with pytest.raises(ValueError, match=r"^Choi matrix is not Hermitian: max \|M - M\^dag\| = 1\.000e-06$"):
        kraus_from_choi(skew)
    with pytest.raises(ValueError, match="^Choi matrix is not finite: it holds NaN or inf$"):
        kraus_from_choi(np.full((4, 4), np.nan))


@given(seeds)
@settings(max_examples=40, deadline=None)
def test_random_choi_generator_is_cptp(seed):
    # sanity of the test infrastructure itself
    rng = np.random.default_rng(seed)
    c = random_choi(rng)
    assert np.trace(c) == pytest.approx(2.0, abs=reference.budget(2.0))
    assert np.linalg.eigvalsh(c)[0] >= -reference.budget(0.0)
    assert not reference.outside_budget(partial_trace(c, keep=[0], dims=[2, 2]), I2)
