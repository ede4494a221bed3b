"""State constructors, their validity, and the von Neumann entropy."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from eur.channels import apply_to_memory, unruh_channel, unruh_r
from eur.cli import parse_args
from eur.linalg import partial_trace
from eur.states import (
    bell_diagonal_p,
    bell_diagonal_state,
    from_pure,
    rindler_tripartite_state,
    vn_entropy,
    x_state,
)
from helpers import (
    I2,
    PHI_PLUS,
    PSI_MINUS,
    PSI_PLUS,
    is_density_matrix,
    proj,
    random_density_matrix,
    random_pure_state,
    random_unitary,
)

seeds = st.integers(min_value=0, max_value=2**32 - 1)

def test_from_pure_basis_state():
    assert np.array_equal(from_pure([1, 0]), np.diag([1.0, 0.0]))


def test_from_pure_plus_state():
    plus = np.array([1, 1]) / np.sqrt(2)
    assert not reference.outside_budget(from_pure(plus), np.full((2, 2), 0.5))


def test_from_pure_maximally_entangled_corners():
    rho = from_pure(PHI_PLUS)
    expected = np.zeros((4, 4))
    expected[0, 0] = expected[0, 3] = expected[3, 0] = expected[3, 3] = 0.5
    assert not reference.outside_budget(rho, expected)


def test_from_pure_rejects_unnormalized():
    with pytest.raises(ValueError, match="norm"):
        from_pure([1.0, 1.0])


def test_bell_diagonal_center_is_maximally_mixed():
    assert not reference.outside_budget(bell_diagonal_state(0, 0, 0), np.eye(4) / 4)


def test_bell_diagonal_p_half_eigenvalues():
    rho = bell_diagonal_p(0.5)
    values = np.linalg.eigvalsh(rho)
    assert not reference.outside_budget(values, [0.0, 0.25, 0.25, 0.5])


def test_bell_diagonal_all_minus_one_is_singlet():
    rho = bell_diagonal_state(-1.0, -1.0, -1.0)
    assert not reference.outside_budget(rho, from_pure(PSI_MINUS))


def test_bell_diagonal_rejects_outside_tetrahedron():
    with pytest.raises(ValueError, match="tetrahedron"):
        bell_diagonal_state(1.0, 1.0, 1.0)


@given(
    st.floats(-1, 1, allow_nan=False),
    st.floats(-1, 1, allow_nan=False),
    st.floats(-1, 1, allow_nan=False),
)
@settings(max_examples=100, deadline=None)
def test_bell_diagonal_output_is_valid_or_rejected(r1, r2, r3):
    try:
        rho = bell_diagonal_state(r1, r2, r3)
    except ValueError:
        return
    assert is_density_matrix(rho)


def test_bell_diagonal_p_endpoints():
    even = 0.5 * (from_pure(PSI_PLUS) + from_pure(PHI_PLUS))
    assert not reference.outside_budget(bell_diagonal_p(0.0), even)
    assert not reference.outside_budget(bell_diagonal_p(1.0), from_pure(PSI_MINUS))
    with pytest.raises(ValueError):
        bell_diagonal_p(1.2)


def test_bell_diagonal_p_half_entropy():
    assert vn_entropy(bell_diagonal_p(0.5)) == pytest.approx(1.5, abs=reference.budget(1.5))


def test_x_state_endpoints():
    assert not reference.outside_budget(x_state(1.0), from_pure(PSI_PLUS))
    assert not reference.outside_budget(x_state(0.0), np.diag([0.0, 0.0, 0.0, 1.0]))
    with pytest.raises(ValueError):
        x_state(-0.1)


def test_x_state_half_eigenvalues():
    values = np.linalg.eigvalsh(x_state(0.5))
    assert not reference.outside_budget(values, [0.0, 0.0, 0.5, 0.5])


@given(st.floats(0, 1, allow_nan=False))
@settings(max_examples=50, deadline=None)
def test_state_families_are_valid(p):
    assert is_density_matrix(bell_diagonal_p(p))
    assert is_density_matrix(x_state(p))


def test_rindler_state_at_zero_mixing():
    v = rindler_tripartite_state(0.0)
    expected = np.zeros(8)
    expected[0] = expected[6] = 1 / np.sqrt(2)
    assert not reference.outside_budget(v, expected)


@given(st.floats(0, np.pi / 4, allow_nan=False))
@settings(max_examples=50, deadline=None)
def test_rindler_state_is_normalized(r):
    assert abs(np.linalg.norm(rindler_tripartite_state(r)) - 1.0) <= reference.budget(1.0)


def test_rindler_state_rejects_out_of_range():
    with pytest.raises(ValueError):
        rindler_tripartite_state(-0.1)
    with pytest.raises(ValueError):
        rindler_tripartite_state(1.0)


@pytest.mark.parametrize("r", np.linspace(0.0, np.pi / 4, 10))
def test_tracing_out_region_two_equals_channel_on_memory(r):
    # keystone: the tripartite picture and the Kraus picture agree
    rho_tri = from_pure(rindler_tripartite_state(r))
    reduced = partial_trace(rho_tri, keep=[0, 1], dims=[2, 2, 2])
    channeled = apply_to_memory(unruh_channel(r), from_pure(PHI_PLUS))
    assert not reference.outside_budget(reduced, channeled)


# the eight entries of a 4x4 off its diagonal and anti-diagonal
OFF_X = ~(np.eye(4, dtype=bool) | np.eye(4, dtype=bool)[::-1])


def sweep_angles():
    """1001 angles over [0, pi/4], then `unruh_r` of fig1's a-grid and of
    the a-grid from 1e-300 to 1e300, both at fig1's omega = 0.1."""
    yield np.linspace(0.0, np.pi / 4, 1001)
    for bounds in ([], ["--a-min", "1e-300", "--a-max", "1e300"]):
        cfg = parse_args(["sweep", "--preset", "fig1", *bounds])
        yield unruh_r(np.linspace(cfg.a_min, cfg.a_max, cfg.steps), cfg.omega)


@pytest.mark.parametrize("p", [0.0, 0.3, 0.5, 1.0])
@pytest.mark.parametrize("family", [bell_diagonal_p, x_state], ids=["bell", "x"])
def test_every_sweep_state_is_an_x_state_with_positive_zeros(family, p):
    # both families stay X-shaped under the channel: every off-X entry is +0.0
    for r in sweep_angles():
        evolved = apply_to_memory(unruh_channel(r), family(p))
        assert evolved.dtype == np.float64
        off_x = evolved[..., OFF_X]
        assert np.all(off_x == 0) and not np.signbit(off_x).any()


def test_vn_entropy_of_pure_state_is_zero():
    rng = np.random.default_rng(11)
    assert abs(vn_entropy(proj(random_pure_state(rng, 4)))) <= reference.budget(0.0)


def test_vn_entropy_of_a_pure_state_is_positive_zero():
    # 0.0 minus a sum of 0 log 0 and 1 log 1 terms: +0.0, never -0.0
    for psi in ([1, 0], [0, 1], [1, 0, 0, 0], [0, 0, 0, 1]):
        entropy = vn_entropy(from_pure(psi))
        assert type(entropy) is float and entropy == 0.0 and math.copysign(1.0, entropy) == 1.0
    stack = vn_entropy(np.stack([from_pure([1, 0]), from_pure([0, 1])]))
    assert stack.tolist() == [0.0, 0.0] and not np.signbit(stack).any()


def test_vn_entropy_of_maximally_mixed_qubit():
    assert vn_entropy(I2 / 2) == pytest.approx(1.0, abs=reference.budget(1.0))


def test_vn_entropy_rejects_negative_eigenvalue():
    with pytest.raises(ValueError, match="eigenvalue"):
        vn_entropy(np.diag([1.5, -0.5]))


@pytest.mark.parametrize("shape", [(0, 0), (3, 0, 0)])
def test_vn_entropy_rejects_an_empty_matrix_by_its_trace(shape):
    with pytest.raises(ValueError, match="state has trace 0, expected 1"):
        vn_entropy(np.zeros(shape))


@given(seeds, st.sampled_from([2, 4, 8]))
@settings(max_examples=60, deadline=None)
def test_vn_entropy_range_and_basis_invariance(seed, dim):
    rng = np.random.default_rng(seed)
    rho = random_density_matrix(rng, dim)
    s = vn_entropy(rho)
    assert -reference.budget(0.0) <= s <= np.log2(dim) + reference.budget(np.log2(dim))
    u = random_unitary(rng, dim)
    assert vn_entropy(u @ rho @ u.conj().T) == pytest.approx(s, abs=reference.budget(s))


@given(seeds)
@settings(max_examples=40, deadline=None)
def test_vn_entropy_is_additive_on_products(seed):
    rng = np.random.default_rng(seed)
    rho_a = random_density_matrix(rng, 2)
    rho_b = random_density_matrix(rng, 2)
    total = vn_entropy(np.kron(rho_a, rho_b))
    expected = vn_entropy(rho_a) + vn_entropy(rho_b)
    assert total == pytest.approx(expected, abs=reference.budget(expected))

