"""Partial traces, and the spectra of the Hermitian part.

1. partial_trace values: `test_partial_trace_values`, one table of
   (matrix, keep, dims, exact result), keep and dims in each form they
   take; on drawn matrices, `test_partial_trace_preserves_trace`;
2. partial_trace rejections: `test_partial_trace_rejects_bad_keep_and_dims`,
   one table of (keep, dims, exact message);
3. spectra of the Hermitian part: a matrix within HERMITICITY_ATOL of
   Hermitian gives the bits of its (M + M^dag)/2, in the state check
   (`test_state_check_takes_the_hermitian_part`) and in the 2x2 solver
   (`test_2x2_spectrum_is_one_new_float64_array_of_both_roots`). CI runs
   these bit contracts under every BLAS kernel.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from eur.linalg import _eigenvalues, _hermitian_part, partial_trace
from eur.states import _checked_spectrum
from helpers import (
    assert_same_bits,
    perturbed,
    random_complex,
    random_density_matrix,
    random_states,
)

seeds = st.integers(min_value=0, max_value=2**32 - 1)

# Unit-trace factors with few-bit dyadic entries, so every product and sum
# a partial trace of their Kronecker products takes is exact; D is 3x3.
A = np.array([[0.75, 0.25 - 0.125j], [0.25 + 0.125j, 0.25]])
B = np.array([[0.5, 0.25j], [-0.25j, 0.5]])
C = np.array([[0.625, 0.125], [0.125, 0.375]])
D = np.array([[0.5, 0.125, 0.0], [0.125, 0.25, 0.125j], [0.0, -0.125j, 0.25]])
ABC = np.kron(np.kron(A, B), C)
M = random_complex(np.random.default_rng(4), (4, 4))

# (matrix, keep, dims, exact result of the matrix's dtype)
PARTIAL_TRACES = {
    "AB-keep-0": (np.kron(A, B), 0, [2, 2], A),
    "AB-keep-1": (np.kron(A, B), [1], [2, 2], B),
    "phi+-keep-1": (np.outer([1.0, 0.0, 0.0, 1.0], [1.0, 0.0, 0.0, 1.0]) / 2, [1], [2, 2], np.eye(2) / 2),
    "keep-all": (M, [0, 1], [2, 2], M),
    "ABC-keep-0": (ABC, [0], [2, 2, 2], A),
    "ABC-keep-1": (ABC, [1], [2, 2, 2], B),
    "ABC-keep-2": (ABC, [2], [2, 2, 2], C + 0j),
    "ABC-keep-0-2": (ABC, [0, 2], [2, 2, 2], np.kron(A, C)),
    "ABC-keep-2-1": (ABC, [2, 1], [2, 2, 2], np.kron(B, C)),
    "AD-keep-0": (np.kron(A, D), [0], [2, 3], A),
    "AD-keep-1": (np.kron(A, D), [1], [2, 3], D),
    "stack": (np.stack([np.kron(A, B), np.kron(B, A)]), [0], [2, 2], np.stack([A, B])),
}


def same_subsystems(keep, dims):
    """(keep, dims) in each other form that names the same subsystems: keep
    as a numpy array, integral floats, a list, a list of numpy int32 and,
    for one index, a numpy int64 or a float; dims as integral floats."""
    k = np.array(keep)
    keeps = [k, k.astype(float), k.reshape(-1).tolist(), list(k.reshape(-1).astype(np.int32))]
    keeps += [np.int64(keep), float(keep)] if k.ndim == 0 else [k.astype(float).tolist()]
    return [(same, dims) for same in keeps] + [(keep, [float(d) for d in dims])]


@pytest.mark.parametrize("case", PARTIAL_TRACES)
def test_partial_trace_values(case):
    m, keep, dims, expected = PARTIAL_TRACES[case]
    got = partial_trace(m, keep, dims)
    assert got.dtype == expected.dtype and np.array_equal(got, expected)
    for same_keep, same_dims in same_subsystems(keep, dims):
        assert_same_bits(partial_trace(m, same_keep, same_dims), got)


@given(seeds)
@settings(max_examples=50, deadline=None)
def test_partial_trace_preserves_trace(seed):
    rng = np.random.default_rng(seed)
    m = random_complex(rng, (8, 8))
    stack = random_complex(rng, (3, 8, 8))
    for keep in ([0], [1], [2], [0, 1], [0, 2], [1, 2], [0, 1, 2]):
        reduced = partial_trace(m, keep=keep, dims=[2, 2, 2])
        assert not reference.outside_budget(np.trace(reduced), np.trace(m))
        per_matrix = [partial_trace(s, keep=keep, dims=[2, 2, 2]) for s in stack]
        assert np.array_equal(partial_trace(stack, keep=keep, dims=[2, 2, 2]), per_matrix)


# (keep, dims, exact message) on a 4x4 matrix. The integer checks come
# first: 2.7 x 2.2 truncates to 2 x 2, which matches the shape, and keep
# 0.7 or 1.9 truncates to a valid index.
PARTIAL_TRACE_REJECTIONS = [
    ([0], [2, 4], "matrix shape (4, 4) does not match subsystem dims [2, 4]"),
    ([], [2, 2], "keep must name at least one subsystem"),
    ([2], [2, 2], "keep indices [2] out of range for 2 subsystems"),
    *[(0, dims, f"dims must all be >= 1, got {dims}") for dims in ([-2, -2], [0, 4], [4, 1, 0])],
    *[(0, dims, f"dims must be integers, got {dims}")
      for dims in ([2.7, 2.2], [2, 2.5], [float("nan"), 4], [4, float("inf")])],
    *[(keep, [2, 2], f"keep must be integers, got {named}") for keep, named in (
        ([0.7], "[0.7]"), ([1.9], "[1.9]"), ([float("inf")], "[inf]"), ([float("nan")], "[nan]"),
        (0.5, "[0.5]"), ([0, 1.5], "[0, 1.5]"))],
]


@pytest.mark.parametrize("keep, dims, message", PARTIAL_TRACE_REJECTIONS,
                         ids=[f"keep={keep}-dims={dims}" for keep, dims, _ in PARTIAL_TRACE_REJECTIONS])
def test_partial_trace_rejects_bad_keep_and_dims(keep, dims, message):
    with pytest.raises(ValueError) as raised:
        partial_trace(np.eye(4), keep, dims)
    assert str(raised.value) == message


@pytest.mark.parametrize("real", [False, True], ids=["complex", "float64"])
@pytest.mark.parametrize("dim", [2, 4])
def test_state_check_takes_the_hermitian_part(dim, real):
    rng = np.random.default_rng(43 + dim)
    rho = random_density_matrix(rng, dim)
    if real:
        rho = np.ascontiguousarray(rho.real)  # a real state: symmetric, PSD, trace 1
    m, part = perturbed(rng, rho, real)
    assert_same_bits(_checked_spectrum(m), _checked_spectrum(part))


@pytest.mark.parametrize("stack", [(), (5,), (2, 3)], ids=str)
@pytest.mark.parametrize("real", [False, True], ids=["complex", "float64"])
def test_2x2_spectrum_is_one_new_float64_array_of_both_roots(stack, real):
    # the blocks `_conditioned` writes are within roundoff of Hermitian,
    # not Hermitian, so b must be the mean of the two off-diagonal entries
    rng = np.random.default_rng(37 + len(stack))
    blocks = random_states(rng, stack)[..., :2, :2]
    m, _ = perturbed(rng, np.ascontiguousarray(blocks.real if real else blocks), real)
    got = _eigenvalues(m)
    part = _hermitian_part(m)
    assert_same_bits(got, _eigenvalues(part))
    # both roots stacked along a new last axis, as a reference formula
    a, d, b = part[..., 0, 0].real, part[..., 1, 1].real, part[..., 0, 1]
    mean = (a + d) / 2.0
    radius = np.hypot((a - d) / 2.0, np.hypot(b.real, b.imag))
    expected = np.stack([mean - radius, mean + radius], axis=-1)
    assert got.dtype == np.float64 and got.flags.writeable and got.flags.c_contiguous
    assert_same_bits(got, expected)
    assert not reference.outside_budget(got, np.linalg.eigvalsh(part))
