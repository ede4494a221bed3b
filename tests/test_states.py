"""State constructors, their validity, and the von Neumann entropy."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eur.channels import apply_to_memory, unruh_channel
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
    assert np.allclose(from_pure(plus), np.full((2, 2), 0.5), atol=1e-15)


def test_from_pure_maximally_entangled_corners():
    rho = from_pure(PHI_PLUS)
    expected = np.zeros((4, 4))
    expected[0, 0] = expected[0, 3] = expected[3, 0] = expected[3, 3] = 0.5
    assert np.allclose(rho, expected, atol=1e-15)


def test_from_pure_rejects_unnormalized():
    with pytest.raises(ValueError, match="norm"):
        from_pure([1.0, 1.0])


def test_bell_diagonal_center_is_maximally_mixed():
    assert np.allclose(bell_diagonal_state(0, 0, 0), np.eye(4) / 4, atol=1e-15)


def test_bell_diagonal_p_half_eigenvalues():
    rho = bell_diagonal_p(0.5)
    values = np.linalg.eigvalsh(rho)
    assert np.allclose(values, [0.0, 0.25, 0.25, 0.5], atol=1e-12)


def test_bell_diagonal_all_minus_one_is_singlet():
    rho = bell_diagonal_state(-1.0, -1.0, -1.0)
    assert np.allclose(rho, from_pure(PSI_MINUS), atol=1e-12)


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
    assert np.allclose(bell_diagonal_p(0.0), even, atol=1e-12)
    assert np.allclose(bell_diagonal_p(1.0), from_pure(PSI_MINUS), atol=1e-12)
    with pytest.raises(ValueError):
        bell_diagonal_p(1.2)


def test_bell_diagonal_p_half_entropy():
    assert vn_entropy(bell_diagonal_p(0.5)) == pytest.approx(1.5, abs=1e-12)


def test_x_state_endpoints():
    assert np.allclose(x_state(1.0), from_pure(PSI_PLUS), atol=1e-15)
    assert np.allclose(x_state(0.0), np.diag([0.0, 0.0, 0.0, 1.0]), atol=1e-15)
    with pytest.raises(ValueError):
        x_state(-0.1)


def test_x_state_half_eigenvalues():
    values = np.linalg.eigvalsh(x_state(0.5))
    assert np.allclose(values, [0.0, 0.0, 0.5, 0.5], atol=1e-12)


@given(st.floats(0, 1, allow_nan=False))
@settings(max_examples=50, deadline=None)
def test_state_families_are_valid(p):
    assert is_density_matrix(bell_diagonal_p(p))
    assert is_density_matrix(x_state(p))


def test_rindler_state_at_zero_mixing():
    v = rindler_tripartite_state(0.0)
    expected = np.zeros(8)
    expected[0] = expected[6] = 1 / np.sqrt(2)
    assert np.allclose(v, expected, atol=1e-15)


@given(st.floats(0, np.pi / 4, allow_nan=False))
@settings(max_examples=50, deadline=None)
def test_rindler_state_is_normalized(r):
    assert np.linalg.norm(rindler_tripartite_state(r)) == pytest.approx(1.0, abs=1e-12)


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
    assert np.max(np.abs(reduced - channeled)) < 1e-10


def test_vn_entropy_of_pure_state_is_zero():
    rng = np.random.default_rng(11)
    assert vn_entropy(proj(random_pure_state(rng, 4))) == pytest.approx(0.0, abs=1e-10)


def test_vn_entropy_of_a_pure_state_is_positive_zero():
    # 0.0 minus a sum of 0 log 0 and 1 log 1 terms: +0.0, never -0.0
    for psi in ([1, 0], [0, 1], [1, 0, 0, 0], [0, 0, 0, 1]):
        entropy = vn_entropy(from_pure(psi))
        assert entropy == 0.0 and math.copysign(1.0, entropy) == 1.0
    stack = vn_entropy(np.stack([from_pure([1, 0]), from_pure([0, 1])]))
    assert stack.tolist() == [0.0, 0.0] and not np.signbit(stack).any()


def test_vn_entropy_of_maximally_mixed_qubit():
    assert vn_entropy(I2 / 2) == pytest.approx(1.0, abs=1e-12)


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
    assert -1e-9 <= s <= np.log2(dim) + 1e-9
    u = random_unitary(rng, dim)
    assert vn_entropy(u @ rho @ u.conj().T) == pytest.approx(s, abs=1e-9)


@given(seeds)
@settings(max_examples=40, deadline=None)
def test_vn_entropy_is_additive_on_products(seed):
    rng = np.random.default_rng(seed)
    rho_a = random_density_matrix(rng, 2)
    rho_b = random_density_matrix(rng, 2)
    total = vn_entropy(np.kron(rho_a, rho_b))
    assert total == pytest.approx(vn_entropy(rho_a) + vn_entropy(rho_b), abs=1e-9)

