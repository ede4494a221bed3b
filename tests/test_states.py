"""State constructors, their validity, and the von Neumann entropy.

1. constructor closed forms: `test_constructors_give_their_closed_forms`,
   one table of (built, closed form);
2. drawn constructors give states: `test_drawn_constructors_give_states`;
3. constructor rejections: `test_constructors_reject_bad_input_by_name`,
   one table of (constructor, input, exact message);
4. the tripartite picture: `test_tracing_out_region_two_equals_channel_on_memory`;
5. `test_every_sweep_state_is_an_x_state_with_positive_zeros`;
6. vn_entropy values: `test_vn_entropy_values`, one table of (state,
   entropy), alone and in a stack, and two drawn tests; what it rejects
   is in `test_bounds.py`'s `NOT_STATES`.
"""

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
    is_density_matrix,
    near,
    proj,
    random_density_matrix,
    random_pure_state,
    random_unitary,
)

seeds = st.integers(min_value=0, max_value=2**32 - 1)


def projector(v):
    """|v><v| / |v|^2 of an integer vector, exact in float64."""
    v = np.array(v, dtype=float)
    return np.outer(v, v) / (v @ v)


SINGLET, PSI_PLUS_PROJ, PHI_PLUS_PROJ = (projector(v) for v in ([0, 1, -1, 0], [0, 1, 1, 0], [1, 0, 0, 1]))
ELEVEN = projector([0, 0, 0, 1])

# (built, closed form, exact): an exact row holds the closed form's
# values, any other one its budget
CLOSED_FORMS = {
    "from_pure-basis": (from_pure([1, 0]), np.diag([1.0, 0.0]), True),
    "from_pure-plus": (from_pure(np.array([1, 1]) / np.sqrt(2)), np.full((2, 2), 0.5), False),
    "from_pure-complex": (from_pure(np.array([1, 1j]) / np.sqrt(2)), np.array([[1, -1j], [1j, 1]]) / 2,
                          False),
    "from_pure-phi+": (from_pure(PHI_PLUS), PHI_PLUS_PROJ, False),
    "bell-center": (bell_diagonal_state(0, 0, 0), np.eye(4) / 4, True),
    "bell-singlet": (bell_diagonal_state(-1.0, -1.0, -1.0), SINGLET, True),
    # p |psi-><psi-| + (1 - p)/2 (|psi+><psi+| + |phi+><phi+|)
    "bell_p-0": (bell_diagonal_p(0.0), (PSI_PLUS_PROJ + PHI_PLUS_PROJ) / 2, True),
    "bell_p-half": (bell_diagonal_p(0.5), SINGLET / 2 + (PSI_PLUS_PROJ + PHI_PLUS_PROJ) / 4, True),
    "bell_p-1": (bell_diagonal_p(1.0), SINGLET, True),
    # p |psi+><psi+| + (1 - p) |11><11|
    "x-0": (x_state(0.0), ELEVEN, True),
    "x-half": (x_state(0.5), (PSI_PLUS_PROJ + ELEVEN) / 2, False),
    "x-1": (x_state(1.0), PSI_PLUS_PROJ, False),
    # (|000> + |110>)/sqrt(2), then (|000> + |011>)/2 + |110>/sqrt(2)
    "rindler-0": (rindler_tripartite_state(0.0), np.eye(8)[[0, 6]].sum(axis=0) / np.sqrt(2), False),
    "rindler-pi/4": (rindler_tripartite_state(np.pi / 4),
                     np.eye(8)[[0, 3]].sum(axis=0) / 2 + np.eye(8)[6] / np.sqrt(2), False),
}


@pytest.mark.parametrize("case", CLOSED_FORMS)
def test_constructors_give_their_closed_forms(case):
    built, expected, exact = CLOSED_FORMS[case]
    if exact:
        assert np.array_equal(built, expected)
    else:
        assert not reference.outside_budget(built, expected)


@given(st.floats(-1, 1), st.floats(-1, 1), st.floats(-1, 1), st.floats(0, 1), st.floats(0, np.pi / 4))
@settings(max_examples=100, deadline=None)
def test_drawn_constructors_give_states(r1, r2, r3, p, r):
    try:
        rho = bell_diagonal_state(r1, r2, r3)
    except ValueError as error:
        assert "lies outside the Bell tetrahedron" in str(error)
    else:
        assert is_density_matrix(rho)
    assert is_density_matrix(bell_diagonal_p(p))
    assert is_density_matrix(x_state(p))
    assert abs(np.linalg.norm(rindler_tripartite_state(r)) - 1.0) <= reference.budget(1.0)


# (constructor, bad input, exact message)
CONSTRUCTOR_REJECTIONS = {
    "from_pure-unnormalized": (from_pure, ([1.0, 1.0],), "state vector has norm 1.41421356237, expected 1"),
    # a pure state's density matrix has Frobenius norm 1, and is not a vector
    **{f"from_pure-matrix-{k}": (from_pure, (m,), "expected a state vector, got shape (2, 2)")
       for k, m in enumerate((np.diag([1.0, 0.0]), np.full((2, 2), 0.5)))},
    "bell-outside": (bell_diagonal_state, (1, 1, 1), "correlation vector (1, 1, 1) lies outside the Bell "
                     "tetrahedron: eigenvalue -0.5 of the |psi-> component is negative"),
    "bell_p-above-1": (bell_diagonal_p, (1.2,), "p must lie in [0, 1], got 1.2"),
    "x-below-0": (x_state, (-0.1,), "p must lie in [0, 1], got -0.1"),
    "rindler-below-0": (rindler_tripartite_state, (-0.1,), "r must lie in [0, pi/4], got -0.1"),
    "rindler-above-pi/4": (rindler_tripartite_state, (1.0,), "r must lie in [0, pi/4], got 1.0"),
}


@pytest.mark.parametrize("case", CONSTRUCTOR_REJECTIONS)
def test_constructors_reject_bad_input_by_name(case):
    constructor, args, message = CONSTRUCTOR_REJECTIONS[case]
    with pytest.raises(ValueError) as raised:
        constructor(*args)
    assert str(raised.value) == message


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


# (state, entropy): a float entropy is exact, a `near` one within budget
VN_ENTROPIES = {
    **{f"pure-{k}": (from_pure(psi), 0.0)
       for k, psi in enumerate(([1, 0], [0, 1], [1, 0, 0, 0], [0, 0, 0, 1]))},
    "pure-random": (proj(random_pure_state(np.random.default_rng(11), 4)), near(0.0)),
    "maximally-mixed-qubit": (I2 / 2, 1.0),
    "bell_p-half": (bell_diagonal_p(0.5), near(1.5)),  # weights 1/2, 1/4, 1/4 and 0
}


@pytest.mark.parametrize("case", VN_ENTROPIES)
def test_vn_entropy_values(case):
    state, entropy = VN_ENTROPIES[case]
    alone, stacked = vn_entropy(state), vn_entropy(np.stack([state, state]))
    assert type(alone) is float and alone == entropy
    assert stacked.dtype == np.float64 and stacked.shape == (2,)
    assert all(value == entropy for value in stacked.tolist())
    # 0.0 minus a sum of 0 log 0 and 1 log 1 terms: +0.0, never -0.0
    assert not np.signbit([alone, *stacked]).any()


@given(seeds, st.sampled_from([2, 4, 8]))
@settings(max_examples=60, deadline=None)
def test_vn_entropy_range_and_basis_invariance(seed, dim):
    rng = np.random.default_rng(seed)
    rho = random_density_matrix(rng, dim)
    s = vn_entropy(rho)
    assert -reference.budget(0.0) <= s <= np.log2(dim) + reference.budget(np.log2(dim))
    u = random_unitary(rng, dim)
    assert vn_entropy(u @ rho @ u.conj().T) == near(s)


@given(seeds)
@settings(max_examples=40, deadline=None)
def test_vn_entropy_is_additive_on_products(seed):
    rng = np.random.default_rng(seed)
    rho_a = random_density_matrix(rng, 2)
    rho_b = random_density_matrix(rng, 2)
    total = vn_entropy(np.kron(rho_a, rho_b))
    expected = vn_entropy(rho_a) + vn_entropy(rho_b)
    assert total == near(expected)

