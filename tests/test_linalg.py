"""Partial traces, and the Hermitian check in front of every eigensolver."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eur.channels import choi, kraus_from_choi, unruh_channel
from eur.linalg import HERMITICITY_ATOL, partial_trace
from eur.states import _checked_spectrum, vn_entropy
from helpers import (
    I2,
    PHI_PLUS,
    assert_same_bits,
    proj,
    random_choi,
    random_complex,
    random_density_matrix,
)

seeds = st.integers(min_value=0, max_value=2**32 - 1)


def test_partial_trace_of_product_state_recovers_factor():
    rng = np.random.default_rng(3)
    rho_a = random_density_matrix(rng, 2)
    rho_b = random_density_matrix(rng, 2)
    reduced = partial_trace(np.kron(rho_a, rho_b), keep=[0], dims=[2, 2])
    assert np.allclose(reduced, rho_a, atol=1e-12)


def test_partial_trace_of_maximally_entangled_state_is_maximally_mixed():
    reduced = partial_trace(proj(PHI_PLUS), keep=[1], dims=[2, 2])
    assert np.allclose(reduced, I2 / 2, atol=1e-12)


@given(seeds)
@settings(max_examples=50, deadline=None)
def test_partial_trace_preserves_trace(seed):
    rng = np.random.default_rng(seed)
    m = random_complex(rng, (8, 8))
    stack = random_complex(rng, (3, 8, 8))
    for keep in ([0], [1], [2], [0, 1], [0, 2], [1, 2], [0, 1, 2]):
        reduced = partial_trace(m, keep=keep, dims=[2, 2, 2])
        assert abs(np.trace(reduced) - np.trace(m)) < 1e-12
        per_matrix = [partial_trace(s, keep=keep, dims=[2, 2, 2]) for s in stack]
        assert np.array_equal(partial_trace(stack, keep=keep, dims=[2, 2, 2]), per_matrix)


def test_partial_trace_composes_to_full_trace():
    rng = np.random.default_rng(4)
    m = random_density_matrix(rng, 4)
    over_memory = partial_trace(m, keep=[0], dims=[2, 2])
    assert np.trace(over_memory) == pytest.approx(np.trace(m), abs=1e-12)
    over_both = partial_trace(m, keep=[0, 1], dims=[2, 2])
    assert np.allclose(over_both, m, atol=0.0)


def test_partial_trace_accepts_single_index():
    rng = np.random.default_rng(5)
    m = random_density_matrix(rng, 4)
    assert np.allclose(
        partial_trace(m, keep=1, dims=[2, 2]),
        partial_trace(m, keep=[1], dims=[2, 2]),
        atol=0.0,
    )


def test_partial_trace_rejects_bad_dims_and_empty_keep():
    m = np.eye(4)
    with pytest.raises(ValueError):
        partial_trace(m, keep=[0], dims=[2, 4])
    with pytest.raises(ValueError):
        partial_trace(m, keep=[], dims=[2, 2])
    with pytest.raises(ValueError):
        partial_trace(m, keep=[2], dims=[2, 2])


@pytest.mark.parametrize("dims", [[-2, -2], [0, 4], [4, 1, 0]])
def test_partial_trace_names_a_non_positive_dim(dims):
    with pytest.raises(ValueError, match=r"dims must all be >= 1, got \["):
        partial_trace(np.eye(4), keep=0, dims=dims)


@pytest.mark.parametrize("dims", [[2.7, 2.2], [2, 2.5], [float("nan"), 4], [4, float("inf")]],
                         ids=["2.7x2.2", "2x2.5", "nan", "inf"])
def test_partial_trace_names_a_non_integral_dim(dims):
    # 2.7 and 2.2 truncate to 2 and 2, whose product matches a 4x4 matrix:
    # the check comes before the shape check
    with pytest.raises(ValueError, match=r"dims must be integers, got \["):
        partial_trace(np.eye(4), keep=0, dims=dims)
    # an integral float is an integer
    assert np.array_equal(partial_trace(np.eye(4), keep=0, dims=[2.0, 2.0]), 2 * np.eye(2))


@pytest.mark.parametrize("keep", [[0.7], [1.9], [float("inf")], [float("nan")], 0.5, [0, 1.5]],
                         ids=["0.7", "1.9", "inf", "nan", "scalar 0.5", "0 and 1.5"])
def test_partial_trace_names_a_non_integral_keep(keep):
    # 0.7 and 1.9 would truncate to the valid indices 0 and 1: the check
    # comes before the range check
    with pytest.raises(ValueError, match=r"keep must be integers, got \["):
        partial_trace(np.eye(4), keep=keep, dims=[2, 2])


def test_partial_trace_takes_numpy_and_integral_float_keep():
    rho = np.kron(np.diag([0.75, 0.25]), np.diag([0.6, 0.4]))
    for keep, expected in ((0, np.diag([0.75, 0.25])), (1, np.diag([0.6, 0.4]))):
        for same in (np.int64(keep), np.array(keep), float(keep), [np.int32(keep)], np.array([keep])):
            assert np.array_equal(partial_trace(rho, keep=same, dims=[2, 2]), expected)


def test_eigensystem_of_acceleration_choi_block():
    # the channel's Choi matrix is [[cos^2 r, 0, 0, cos r], [0, sin^2 r, 0, 0],
    # [0, 0, 0, 0], [cos r, 0, 0, 1]]; its block [[cos^2 r, cos r], [cos r, 1]]
    # on indices {0, 3} has determinant 0, so the spectrum is
    # {0, 0, sin^2 r, 1 + cos^2 r}, and each Kraus operator that
    # `kraus_from_choi` reads is sqrt(lam) times a unit eigenvector, of
    # squared Frobenius norm lam
    r = np.pi / 6
    c, s = np.cos(r), np.sin(r)
    kraus = kraus_from_choi(choi(unruh_channel(r)))
    norms = np.sort((abs(kraus) ** 2).sum(axis=(-2, -1)))
    assert np.allclose(norms, [s * s, 1 + c * c], atol=1e-12)


def test_eigensystem_rejects_non_hermitian():
    with pytest.raises(ValueError, match="not Hermitian"):
        vn_entropy(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError, match=r"expected matrix to be a square matrix, got shape \(2, 3\)"):
        vn_entropy(np.ones((2, 3)))


def perturbed(rng, h, real):
    """`h` plus an anti-Hermitian part of about 1e-12, real for a real
    perturbation, and (that matrix, its Hermitian part (M + M^dag)/2),
    both as numpy forms it; the matrix is within HERMITICITY_ATOL of
    Hermitian but not Hermitian."""
    g = rng.normal(size=h.shape) if real else random_complex(rng, h.shape)
    m = h + 1e-12 * (g - np.conj(np.swapaxes(g, -1, -2))) / 2
    adjoint = np.conj(np.swapaxes(m, -1, -2))
    assert 0.0 < np.abs(m - adjoint).max() <= HERMITICITY_ATOL
    return m, (m + adjoint) / 2


# The solvers take a checked matrix's Hermitian part: a matrix within
# HERMITICITY_ATOL of Hermitian gives the bits of its (M + M^dag)/2, not
# of its lower or upper triangle.
@pytest.mark.parametrize("real", [False, True], ids=["complex", "float64"])
@pytest.mark.parametrize("dim", [2, 4])
def test_state_check_takes_the_hermitian_part(dim, real):
    rng = np.random.default_rng(43 + dim)
    rho = random_density_matrix(rng, dim)
    if real:
        rho = np.ascontiguousarray(rho.real)  # a real state: symmetric, PSD, trace 1
    m, part = perturbed(rng, rho, real)
    assert_same_bits(_checked_spectrum(m), _checked_spectrum(part))


@pytest.mark.parametrize("real", [False, True], ids=["complex", "float64"])
@pytest.mark.parametrize("family", ["unruh", "random"])
def test_kraus_from_choi_takes_the_hermitian_part(family, real):
    rng = np.random.default_rng(47 + real)
    c = choi(unruh_channel(0.3)) if family == "unruh" else random_choi(rng)
    m, part = perturbed(rng, c, real)
    assert_same_bits(kraus_from_choi(m), kraus_from_choi(part))
