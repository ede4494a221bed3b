"""Kraus channels, the Choi representation, and the acceleration channel.

Each public contract of the channel layer has one table-driven test:

1. `unruh_r` values: `test_unruh_r_values`, at and next to a = 0, at a
   known ratio and at saturation;
2. the Kraus pair: `test_unruh_channel_is_the_kraus_pair`, its closed form
   and its action on |0><0| and |1><1|;
3. rejections: `test_channel_layer_rejects_bad_input_by_name`, one table of
   (entry point, bad input, exact message);
4. Choi and Kraus: `test_choi_matches_its_closed_form`, and
   `test_kraus_from_choi_round_trip` from families through their Choi
   matrices and back, on drawn families in
   `test_kraus_from_choi_round_trip_random_channels`;
5. bit contracts: `test_apply_to_memory_keeps_its_bit_contracts`, over
   float64 and complex families and states, one channel or a stack.
"""

import math

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
from eur.states import x_state
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
    perturbed,
    proj,
    random_choi,
    random_complex,
    random_cptp_kraus,
    random_density_matrix,
    random_hermitian,
    random_states,
)

seeds = st.integers(min_value=0, max_value=2**32 - 1)
r_values = st.floats(0.0, np.pi / 4, allow_nan=False)

DEPOLARIZING = [0.5 * I2, 0.5 * SX, 0.5 * SY, 0.5 * SZ]


def expected_acceleration_choi(r: float) -> np.ndarray:
    c, s = np.cos(r), np.sin(r)
    return np.array(
        [[c * c, 0, 0, c], [0, s * s, 0, 0], [0, 0, 0, 0], [c, 0, 0, 1]],
        dtype=complex,
    )


def random_family(rng, count, stack=(), real=False):
    """A random trace-preserving family of `count` operators per channel,
    shape (count, *stack, 2, 2), complex or float64: the 2x2 row blocks of
    a (2 count, 2) matrix with orthonormal columns."""
    shape = (*stack, 2 * count, 2)
    q, _ = np.linalg.qr(rng.normal(size=shape) if real else random_complex(rng, shape))
    return np.moveaxis(q.reshape(*stack, count, 2, 2), -3, 0)


# (a, r) at omega = 0.1. r is 0 at and next to a = 0, where pi omega / a
# overflows (warnings are errors under pytest); tan r = exp(-100 pi) at
# a = 1e-3; a = 2 pi omega / ln 2 makes the exponential 1/2, so
# cos r = sqrt(2/3); and r = pi/4 - pi omega / (2 a) up to a term of
# order (omega / a)^3 at large a.
UNRUH_R_VALUES = [
    (0.0, 0.0), (-0.0, 0.0), (5e-324, 0.0), (1e-300, 0.0),
    (1e-3, math.exp(-100 * math.pi)),
    (2 * math.pi * 0.1 / math.log(2), math.acos(math.sqrt(2 / 3))),
    *[(a, math.pi / 4 - math.pi * 0.1 / (2 * a)) for a in (1e9, 1e17, 1e300)],
]


@pytest.mark.parametrize("a, r", UNRUH_R_VALUES, ids=[repr(a) for a, _ in UNRUH_R_VALUES])
def test_unruh_r_values(a, r):
    got = unruh_r(a, 0.1)
    assert type(got) is float and got <= R_MAX
    # relative to the value, as the precision test holds it: a zero is exact
    assert abs(got - r) <= reference.K * reference.EPS * r


@given(st.floats(1e-3, 40.0), st.floats(1e-6, 1e6))
@settings(max_examples=100, deadline=None)
def test_unruh_r_keeps_full_relative_precision(ratio, a):
    # tan r = exp(-pi omega / a); the tail at large omega/a is where r is
    # tiny, so the budget's K * EPS holds relative to the value
    omega = ratio * a
    expected = np.exp(-np.pi * omega / a)
    assert abs(np.tan(unruh_r(a, omega)) - expected) <= reference.K * reference.EPS * expected


@given(st.floats(1e-6, 1e6), st.floats(1e-6, 1e6), st.floats(1.01, 10.0))
@settings(max_examples=60, deadline=None)
def test_unruh_r_monotonic(a, omega, factor):
    base = unruh_r(a, omega)
    assert unruh_r(a * factor, omega) >= base
    assert unruh_r(a, omega * factor) <= base


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


@pytest.mark.parametrize("r", [0.0, 0.2, 0.3, 0.5, R_MAX])
def test_unruh_channel_is_the_kraus_pair(r):
    # K1 = [[cos r, 0], [0, 1]] and K2 = [[0, 0], [sin r, 0]]: |0> leaks
    # to |1> with probability sin^2 r, and |1> is invariant. The layout is
    # exact, and numpy's cos r and sin r are held to the budget; at r = 0
    # the pair is I and 0 bit for bit.
    c, s = math.cos(r), math.sin(r)
    kraus = unruh_channel(r)
    trig = (0, 1), (0, 1), (0, 0)  # K1[0, 0] and K2[1, 0]
    layout = kraus.copy()
    layout[trig] = 0.0
    assert_same_bits(layout, np.array([[[0.0, 0.0], [0.0, 1.0]], [[0.0, 0.0], [0.0, 0.0]]]))
    assert not reference.outside_budget(kraus[trig], [c, s])
    if r == 0.0:
        assert_same_bits(kraus, np.array([[[1.0, 0.0], [0.0, 1.0]], [[0.0, 0.0], [0.0, 0.0]]]))
    ground, excited = (apply(unruh_channel(r), np.diag(p)) for p in ([1.0, 0.0], [0.0, 1.0]))
    assert not reference.outside_budget(ground, np.diag([c * c, s * s]))
    assert not reference.outside_budget(excited, np.diag([0.0, 1.0]))


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


@given(r_values)
@settings(max_examples=50, deadline=None)
def test_unruh_channel_is_complete(r):
    validate_kraus(unruh_channel(r))


def test_amplitude_damping_endpoints():
    assert amplitude_damping(0.5).shape == (2, 2, 2)
    e0, e1 = amplitude_damping(0.0)
    assert np.array_equal(e0, I2) and np.array_equal(e1, np.zeros((2, 2)))
    rng = np.random.default_rng(8)
    rho = random_density_matrix(rng, 2)
    assert not reference.outside_budget(apply(amplitude_damping(1.0), rho), np.diag([1.0, 0.0]))


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
    rho, state = random_density_matrix(rng, 2), random_density_matrix(rng, 4)
    assert np.array_equal(apply([I2], rho), rho)
    assert np.array_equal(apply_to_memory([I2], state), state)
    # one identity channel per state of a stack: Kraus shape (K, N, 2, 2)
    stack = np.stack([state, state.T, np.eye(4) / 4])
    assert np.array_equal(apply_to_memory(np.broadcast_to(I2, (1, 3, 2, 2)), stack), stack)


@given(seeds, r_values)
@settings(max_examples=50, deadline=None)
def test_apply_preserves_density_matrix_properties(seed, r):
    rng = np.random.default_rng(seed)
    rho = random_density_matrix(rng, 2)
    out = apply(unruh_channel(r), rho)
    assert np.trace(out) == pytest.approx(1.0, abs=reference.budget(1.0))
    assert not reference.outside_budget(out, out.conj().T)
    assert is_density_matrix(out)


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


_RHO = np.eye(4) / 4


def _apply_to_a_qubit(kraus):
    return apply(kraus, I2 / 2)


def _apply_to_memory_of_a_state(kraus):
    return apply_to_memory(kraus, _RHO)


_EVERY_READER = (_apply_to_a_qubit, _apply_to_memory_of_a_state, choi, validate_kraus)

# (entry point, arguments, exact message). One bad value anywhere in an
# array fails the whole call, and kraus_from_choi raises for the first of
# its checks that fails.
REJECTIONS = [
    *[(unruh_r, (a, 0.1), f"acceleration must be finite and >= 0, got {bad}")
      for bad in (-1.0, np.inf, np.nan) for a in (bad, np.array([0.0, 1.0, bad, 2.0]))],
    *[(unruh_r, (np.array([0.0, 1.0]), omega), f"mode frequency must be finite and > 0, got {omega}")
      for omega in (0.0, -0.1, np.inf, np.nan)],
    *[(unruh_channel, (r,), f"r must lie in [0, pi/4], got {bad}")
      for bad in (np.nan, -0.01, R_MAX + 1e-15, 1.0) for r in (bad, np.array([0.0, 0.2, bad, R_MAX]))],
    (amplitude_damping, (1.5,), "gamma must lie in [0, 1], got 1.5"),
    (apply, ([I2], np.eye(4)), "expected a 2x2 matrix, got shape (4, 4)"),
    (apply_to_memory, ([I2], np.eye(2)), "expected a 4x4 matrix, got shape (2, 2)"),
    *[(reader, ([],), "channel has no Kraus operators") for reader in _EVERY_READER],
    *[(reader, ([np.eye(3)],), "Kraus operator has shape (3, 3), expected (2, 2)")
      for reader in _EVERY_READER],
    (apply_to_memory, ([I2, np.eye(3)], _RHO),
     "Kraus operators have shapes [(2, 2), (3, 3)], expected (2, 2)"),
    # one bare operator, or an array of fewer axes still, is named by its whole shape
    *[(reader, (bare,), f"channel has shape {np.shape(bare)}, expected (K, ..., 2, 2)")
      for bare in (I2, np.ones(2), 1.0) for reader in _EVERY_READER],
    *[(apply_to_memory, (unruh_channel(np.zeros(kraus_stack)).astype(dtype),
                         np.broadcast_to(_RHO, state_stack + (4, 4))),
       f"channel stack {kraus_stack} does not broadcast against state stack {state_stack}")
      for kraus_stack, state_stack in (((2,), (3,)), ((2, 3), (4,)), ((5,), (2, 3)))
      for dtype in (float, complex)],
    (validate_kraus, ([2 * I2],),
     "Kraus family is not trace preserving: max |sum K^dag K - I| = 3.000e+00"),
    (kraus_from_choi, (np.eye(2),), "expected a 4x4 Choi matrix, got shape (2, 2)"),
    (kraus_from_choi, (np.full((4, 4), np.nan),), "Choi matrix is not finite: it holds NaN or inf"),
    (kraus_from_choi, (2 * proj(PHI_PLUS) + 1e-6 * np.eye(4, k=1),),
     "Choi matrix is not Hermitian: max |M - M^dag| = 1.000e-06"),
    (kraus_from_choi, (np.diag([1.5, 0.5, 0.5, -0.5]),),
     "not completely positive: Choi eigenvalue -5.000e-01"),
    # not CP, and not trace preserving either
    (kraus_from_choi, (np.diag([2.5, -0.5, 0.0, 0.0]),),
     "not completely positive: Choi eigenvalue -5.000e-01"),
    (kraus_from_choi, (-np.eye(4),), "not completely positive: Choi eigenvalue -1.000e+00"),
    # CP, but no weight above the cutoff, and not trace preserving either
    (kraus_from_choi, (np.zeros((4, 4)),), "channel has no Kraus operators"),
    (kraus_from_choi, (np.diag([1e-12, 1e-12, 0.0, 0.0]),), "channel has no Kraus operators"),
    # positive, trace 2, but tr_out C = diag(2, 0): max |tr_out C - I| = 1, nothing dropped
    (kraus_from_choi, (np.diag([2.0, 0.0, 0.0, 0.0]),),
     "Choi matrix is not trace preserving: max |tr_out C - I| + dropped weight = 1.000e+00"),
    # the identity channel's Choi matrix less 8e-11 on |01><01|: tr_out C is
    # 8e-11 from I, and the eigenvalue -8e-11 is dropped at the cutoff; the
    # family it would give, [I], is exactly trace preserving
    (kraus_from_choi, (2 * proj(PHI_PLUS) - 8e-11 * proj([0, 1, 0, 0]),),
     "Choi matrix is not trace preserving: max |tr_out C - I| + dropped weight = 1.600e-10"),
]


@pytest.mark.parametrize("entry_point, args, message", REJECTIONS,
                         ids=[f"{f.__name__}-{k}" for k, (f, *_) in enumerate(REJECTIONS)])
def test_channel_layer_rejects_bad_input_by_name(entry_point, args, message):
    with pytest.raises(ValueError) as raised:
        entry_point(*args)
    assert raised.type is ValueError and str(raised.value) == message


def test_channel_constants_are_read_only():
    with pytest.raises(ValueError, match="read-only"):
        channels._IDENTITY[0, 0] = 2.0


CHOI_CLOSED_FORMS = {
    "identity": ([I2], 2 * proj(PHI_PLUS)),
    "depolarizing": (DEPOLARIZING, np.eye(4) / 2),
    **{f"acceleration-{name}": (unruh_channel(r), expected_acceleration_choi(r))
       for name, r in (("0", 0.0), ("pi/8", np.pi / 8), ("pi/4", np.pi / 4))},
}


@pytest.mark.parametrize("family", CHOI_CLOSED_FORMS)
def test_choi_matches_its_closed_form(family):
    channel, expected = CHOI_CLOSED_FORMS[family]
    assert not reference.outside_budget(choi(channel), expected)
    # on |phi+><phi+|, the channel gives the Choi matrix over 2
    assert not reference.outside_budget(apply_to_memory(channel, proj(PHI_PLUS)), expected / 2)


@given(r_values)
@settings(max_examples=40, deadline=None)
def test_choi_invariants(r):
    c = choi(unruh_channel(r))
    assert np.trace(c) == pytest.approx(2.0, abs=reference.budget(2.0))
    assert not reference.outside_budget(partial_trace(c, keep=[0], dims=[2, 2]), I2)
    assert np.linalg.eigvalsh(c)[0] >= -reference.budget(0.0)


def assert_round_trip(rng, original, c):
    """kraus_from_choi(c), c the Choi matrix of `original`, acts as
    `original` does, with one operator of squared norm lam per Choi weight
    lam, and from c moved within HERMITICITY_ATOL of Hermitian (by a
    complex and by a real perturbation drawn from `rng`) gives the bits of
    its Hermitian part. The operators of `original` are mutually
    orthogonal, so its Choi weights are their squared norms."""
    weights = [w for w in (abs(np.asarray(original)) ** 2).sum(axis=(-2, -1)).tolist() if w > 0.0]
    rebuilt = kraus_from_choi(c)
    assert isinstance(rebuilt, np.ndarray) and rebuilt.shape == (len(weights), 2, 2)
    assert not reference.outside_budget(np.sort((abs(rebuilt) ** 2).sum(axis=(-2, -1))), sorted(weights))
    for rho in TOMO_INPUTS:
        assert not reference.outside_budget(apply(rebuilt, rho), apply_kraus(original, rho))
    for real in (False, True):
        m, part = perturbed(rng, c, real)
        assert_same_bits(kraus_from_choi(m), kraus_from_choi(part))


# (family, its Choi matrix). The acceleration channel at r = 0 has one zero
# operator; the identity's Choi matrix plus 5e-13 on |01><01| has a weight
# dropped at the cutoff, within the trace tolerance.
ROUND_TRIPS = {
    "identity": ([I2], choi([I2])),
    "identity-dropped-5e-13": ([I2], choi([I2]) + np.diag([0.0, 5e-13, 0.0, 0.0])),
    "depolarizing": (DEPOLARIZING, choi(DEPOLARIZING)),
    **{f"acceleration-{k}": (unruh_channel(r), choi(unruh_channel(r)))
       for k, r in enumerate(np.linspace(0.0, R_MAX, 10))},
}


@pytest.mark.parametrize("family", ROUND_TRIPS)
def test_kraus_from_choi_round_trip(family):
    assert_round_trip(np.random.default_rng(47), *ROUND_TRIPS[family])


@given(seeds)
@settings(max_examples=60, deadline=None)
def test_kraus_from_choi_round_trip_random_channels(seed):
    rng = np.random.default_rng(seed)
    original = random_cptp_kraus(rng)
    assert_round_trip(rng, original, choi(original))


@given(seeds, st.integers(1, 4), st.sampled_from([0.0, 1e-13, 1e-12, 1e-11, 5e-11, 1e-10, 2e-10]),
       st.booleans())
@settings(max_examples=300, deadline=None)
def test_kraus_from_choi_accepts_only_what_validate_kraus_accepts(seed, rank, size, hermitian):
    # random Choi matrices of every rank, moved by about the tolerances: a
    # Hermitian shift moves the eigenvalues across EIGENVALUE_FLOOR and
    # KRAUS_WEIGHT_CUTOFF and tr_out C across COMPLETENESS_ATOL
    rng = np.random.default_rng(seed)
    c = random_choi(rng) if rank == 4 else choi(random_family(rng, rank))
    shift = random_hermitian(rng, 4) if hermitian else random_complex(rng, (4, 4)) / 2
    try:
        family = kraus_from_choi(c + size * shift)
    except ValueError:
        assert size > 0.0  # every CPTP Choi matrix is accepted as it is
        return
    validate_kraus(family)


@given(seeds)
@settings(max_examples=40, deadline=None)
def test_random_choi_generator_is_cptp(seed):
    # sanity of the test infrastructure itself
    rng = np.random.default_rng(seed)
    c = random_choi(rng)
    assert np.trace(c) == pytest.approx(2.0, abs=reference.budget(2.0))
    assert np.linalg.eigvalsh(c)[0] >= -reference.budget(0.0)
    assert not reference.outside_budget(partial_trace(c, keep=[0], dims=[2, 2]), I2)


def lifted_reference(kraus, rho):
    """sum_j (I (x) K_j) rho (I (x) K_j)^dag with one product per matrix,
    in float64 when both sides are real and in complex128 otherwise."""
    lifted = np.zeros(kraus.shape[:-2] + (4, 4), dtype=np.result_type(kraus, rho))
    lifted[..., :2, :2] = lifted[..., 2:, 2:] = kraus
    return (lifted @ rho @ lifted.conj().swapaxes(-1, -2)).sum(0)


@pytest.mark.parametrize("stack", [(), (7,), (2, 3)], ids=str)
@pytest.mark.parametrize("family", ["float64", "complex"])
@pytest.mark.parametrize("state", ["float64", "complex"])
def test_apply_to_memory_keeps_its_bit_contracts(state, family, stack):
    # apply_to_memory takes each product per 4x4 matrix, so a state shared
    # by a stack of channels, or a stack of states, gets the bits of each
    # channel alone; real inputs run in float64, with the bits of the
    # complex path; no input is written to; and choi is the channel on
    # |phi><phi|, phi = sum_i |ii>, channel by channel, in a new writable
    # array on every call. The acceleration family runs r from 0 (K2 = 0)
    # to pi/4 over the stack; 25 random families of each size follow.
    real_family, real_state = family == "float64", state == "float64"
    rng = np.random.default_rng([len(stack), real_family, real_state])
    rs = np.linspace(0.0, R_MAX, math.prod(stack)).reshape(stack) if stack else 0.3
    families = [unruh_channel(rs).astype(float if real_family else complex),
                *[random_family(rng, count, stack, real_family) for count in (1, 2, 3, 4) for _ in range(25)]]
    states = [x_state(0.4).astype(float if real_state else complex),
              random_density_matrix(rng, 4, real=real_state), random_states(rng, stack, real=real_state)]
    phi = np.outer([1.0, 0.0, 0.0, 1.0], [1.0, 0.0, 0.0, 1.0])
    for kraus in families:
        kraus.flags.writeable = False
        validate_kraus(kraus)
        for rho in states:
            rho.flags.writeable = False
            got = apply_to_memory(kraus, rho)
            assert got.dtype == np.result_type(kraus, rho)
            assert_same_bits(got, lifted_reference(kraus, rho))
            # a real result is the complex path's real part, and its imaginary part is +0
            assert_same_bits(got.astype(complex), apply_to_memory(kraus.astype(complex), rho.astype(complex)))
            for k in np.ndindex(stack):
                alone = apply_to_memory(kraus[(slice(None), *k)], np.broadcast_to(rho, stack + (4, 4))[k])
                assert_same_bits(got[k], alone)
        first = choi(kraus)
        assert first.flags.writeable
        assert_same_bits(first, apply_to_memory(kraus, phi))
        assert_same_bits(choi(list(kraus)), first)
        for k in np.ndindex(stack):
            assert_same_bits(first[k], choi(kraus[(slice(None), *k)]))
        expected = first.copy()
        first[...] = np.nan
        assert_same_bits(choi(kraus), expected)  # a second call writes into a new array
