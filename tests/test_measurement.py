"""Projective observables, post-measurement states and the Holevo quantities."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eur.bounds import evaluate_eur
from eur.linalg import partial_trace
from eur.measurement import (
    ProjectiveObservable,
    complementarity,
    measurement_ensemble,
    pauli_observable,
    post_measurement_state,
)
from eur.states import bell_diagonal_p, vn_entropy
from helpers import (
    I2,
    PHI_PLUS,
    proj,
    random_complex,
    random_density_matrix,
    random_observable,
    random_unitary,
    shannon_bits,
)

seeds = st.integers(min_value=0, max_value=2**32 - 1)

H_QUARTER = 0.8112781244591328  # binary entropy of 1/4


def test_pauli_observable_bases():
    z = pauli_observable("z")
    assert np.allclose(z.basis, np.eye(2), atol=0.0)
    x = pauli_observable("x")
    assert np.allclose(x.basis[:, 0], np.array([1, 1]) / np.sqrt(2), atol=1e-15)
    assert np.allclose(x.basis[:, 1], np.array([1, -1]) / np.sqrt(2), atol=1e-15)
    y = pauli_observable("y")
    assert np.allclose(y.basis[:, 0], np.array([1, 1j]) / np.sqrt(2), atol=1e-15)
    assert np.allclose(y.basis[:, 1], np.array([1, -1j]) / np.sqrt(2), atol=1e-15)
    with pytest.raises(ValueError):
        pauli_observable("w")


def test_pauli_observable_plus_one_eigenvector_first():
    paulis = {"x": np.array([[0, 1], [1, 0]]), "y": np.array([[0, -1j], [1j, 0]]),
              "z": np.diag([1, -1])}
    for axis, op in paulis.items():
        obs = pauli_observable(axis)
        for k, eigval in ((0, 1.0), (1, -1.0)):
            v = obs.basis[:, k]
            assert np.allclose(op @ v, eigval * v, atol=1e-12)


def test_pauli_observable_is_one_shared_read_only_instance():
    for axis in "xyz":
        obs = pauli_observable(axis)
        assert pauli_observable(axis.upper()) is obs
        assert obs.name == f"sigma_{axis}"
        for array in (obs.basis, obs._rows):
            with pytest.raises(ValueError, match="read-only"):
                array[0, 0] = 0.0


@pytest.mark.parametrize("axis, named", [
    ("w", "'w'"), ("W", "'w'"), (1, "1"), (None, "None"), (["x"], r"\['x'\]"),
], ids=["w", "W", "int", "None", "list"])
def test_pauli_observable_names_an_axis_that_is_not_x_y_or_z(axis, named):
    with pytest.raises(ValueError, match=f"^unknown Pauli axis {named}; expected 'x', 'y' or 'z'$"):
        pauli_observable(axis)


def test_observable_rejects_non_orthonormal_basis():
    with pytest.raises(ValueError, match="orthonormal"):
        ProjectiveObservable("bad", np.array([[1, 1], [0, 0]], dtype=complex))
    with pytest.raises(ValueError, match="basis must be 2x2"):
        ProjectiveObservable("bad", np.eye(3))


def test_observable_keeps_a_read_only_copy_of_its_basis():
    rng = np.random.default_rng(42)
    basis = random_unitary(rng, 2)
    q, r = ProjectiveObservable("q", basis), random_observable(rng)
    with pytest.raises(ValueError, match="read-only"):
        q.basis[0, 0] = 1.0
    rho = random_density_matrix(rng, 4)
    report, dephased = evaluate_eur(q, r, rho), post_measurement_state(q, rho)
    basis[:] = np.eye(2)  # the caller's array, changed after construction
    assert evaluate_eur(q, r, rho) == report
    assert np.array_equal(post_measurement_state(q, rho), dephased)


def test_projector_is_the_outer_product_bit_for_bit():
    rng = np.random.default_rng(43)
    q, r = np.linalg.qr(random_complex(rng, (20_000, 2, 2)))
    diagonal = np.diagonal(r, axis1=-2, axis2=-1)
    haar = q * (diagonal / abs(diagonal))[..., None, :]
    paulis = [pauli_observable(axis).basis for axis in "xyz"]
    for basis in [*paulis, -np.eye(2), *haar]:
        obs = ProjectiveObservable("q", basis)
        for i in (0, 1):
            # the projector P_i that post_measurement_state reads from the rows
            v = obs.basis[:, i]
            assert obs._rows[i].conj().reshape(2, 2).tobytes() == np.outer(v, v.conj()).tobytes()


def test_complementarity_of_unbiased_and_identical_bases():
    x, y, z = (pauli_observable(axis) for axis in "xyz")
    assert complementarity(x, y) == pytest.approx(0.5, abs=1e-12)
    assert complementarity(z, z) == pytest.approx(1.0, abs=1e-12)


def test_complementarity_of_rotated_basis():
    theta = np.pi / 3
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    rotated = ProjectiveObservable("rotated", np.array([[c, -s], [s, c]], dtype=complex))
    value = complementarity(pauli_observable("z"), rotated)
    assert value == pytest.approx(max(c * c, s * s), abs=1e-12)
    assert value == pytest.approx(0.75, abs=1e-12)


@given(seeds)
@settings(max_examples=50, deadline=None)
def test_complementarity_range(seed):
    rng = np.random.default_rng(seed)
    value = complementarity(random_observable(rng), random_observable(rng))
    assert 0.5 - 1e-12 <= value <= 1.0 + 1e-12


def test_post_measurement_fixed_point():
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = 1.0  # |00><00| is a sigma_z eigenstate on the probe
    assert np.allclose(post_measurement_state(pauli_observable("z"), rho), rho, atol=0.0)


def test_post_measurement_decoheres_off_diagonal_blocks():
    out = post_measurement_state(pauli_observable("z"), proj(PHI_PLUS))
    assert np.allclose(out, np.diag([0.5, 0.0, 0.0, 0.5]), atol=1e-15)


def test_post_measurement_probe_marginal_is_diagonal_in_basis():
    rng = np.random.default_rng(21)
    rho = random_density_matrix(rng, 4)
    obs = random_observable(rng)
    out = post_measurement_state(obs, rho)
    probe = partial_trace(out, keep=[0], dims=[2, 2])
    in_basis = obs.basis.conj().T @ probe @ obs.basis
    off_diagonal = in_basis - np.diag(np.diag(in_basis))
    assert np.max(np.abs(off_diagonal)) < 1e-12
    probabilities = [p for p, _ in measurement_ensemble(obs, rho)]
    assert np.allclose(np.diag(in_basis).real, probabilities, atol=1e-12)


@given(seeds)
@settings(max_examples=50, deadline=None)
def test_post_measurement_is_idempotent_and_block_structured(seed):
    rng = np.random.default_rng(seed)
    rho = random_density_matrix(rng, 4)
    obs = random_observable(rng)
    once = post_measurement_state(obs, rho)
    twice = post_measurement_state(obs, once)
    assert np.max(np.abs(twice - once)) < 1e-12
    v0, v1 = obs.basis.T
    parity = np.kron(np.outer(v0, v0.conj()) - np.outer(v1, v1.conj()), I2)
    assert np.max(np.abs(parity @ once - once @ parity)) < 1e-12


def test_ensemble_on_maximally_entangled_state():
    ensemble = measurement_ensemble(pauli_observable("z"), proj(PHI_PLUS))
    (p0, rho0), (p1, rho1) = ensemble
    assert p0 == pytest.approx(0.5, abs=1e-12)
    assert p1 == pytest.approx(0.5, abs=1e-12)
    assert np.allclose(rho0, np.diag([1.0, 0.0]), atol=1e-12)
    assert np.allclose(rho1, np.diag([0.0, 1.0]), atol=1e-12)


def test_ensemble_conditionals_on_bell_diagonal_half():
    rho = bell_diagonal_p(0.5)
    for p, conditional in measurement_ensemble(pauli_observable("x"), rho):
        assert p == pytest.approx(0.5, abs=1e-12)
        assert np.allclose(conditional, I2 / 2, atol=1e-12)
    for p, conditional in measurement_ensemble(pauli_observable("y"), rho):
        assert p == pytest.approx(0.5, abs=1e-12)
        assert np.allclose(np.linalg.eigvalsh(conditional), [0.25, 0.75], atol=1e-12)


def test_ensemble_flags_zero_probability_outcome():
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = 1.0  # probe definitely in |0>
    (p0, rho0), (p1, rho1) = measurement_ensemble(pauli_observable("z"), rho)
    assert p0 == pytest.approx(1.0, abs=1e-12)
    assert rho0 is not None
    assert p1 == pytest.approx(0.0, abs=1e-12) and p1 >= 0.0
    assert rho1 is None


@given(seeds)
@settings(max_examples=50, deadline=None)
def test_ensemble_reassembles_memory_marginal(seed):
    rng = np.random.default_rng(seed)
    rho = random_density_matrix(rng, 4)
    obs = random_observable(rng)
    ensemble = measurement_ensemble(obs, rho)
    assert sum(p for p, _ in ensemble) == pytest.approx(1.0, abs=1e-10)
    mixed = sum(p * c for p, c in ensemble if c is not None)
    assert np.max(np.abs(mixed - partial_trace(rho, keep=[1], dims=[2, 2]))) < 1e-10


def holevo(obs, rho):
    """I(O;B) of one observable, read off the report of the pair (O, O)."""
    return evaluate_eur(obs, obs, rho).i_qb


def test_holevo_vanishes_on_product_states():
    rng = np.random.default_rng(22)
    rho = np.kron(random_density_matrix(rng, 2), random_density_matrix(rng, 2))
    assert holevo(random_observable(rng), rho) == pytest.approx(0.0, abs=1e-10)


def test_holevo_is_one_bit_on_maximal_entanglement():
    assert holevo(pauli_observable("z"), proj(PHI_PLUS)) == pytest.approx(1.0, abs=1e-12)


def test_holevo_on_bell_diagonal_half():
    rho = bell_diagonal_p(0.5)
    report = evaluate_eur(pauli_observable("x"), pauli_observable("y"), rho)
    assert report.i_qb == pytest.approx(0.0, abs=1e-10)
    assert report.i_rb == pytest.approx(1 - H_QUARTER, abs=1e-12)


@given(seeds)
@settings(max_examples=60, deadline=None)
def test_holevo_bounds_and_entropy_decomposition(seed):
    rng = np.random.default_rng(seed)
    rho = random_density_matrix(rng, 4)
    obs = random_observable(rng)
    info = holevo(obs, rho)
    memory = partial_trace(rho, keep=[1], dims=[2, 2])
    assert -1e-9 <= info <= vn_entropy(memory) + 1e-9
    # classical-quantum decomposition: S(OB) = H(p) + sum_i p_i S(rho_B|i)
    ensemble = measurement_ensemble(obs, rho)
    mixture = shannon_bits([p for p, _ in ensemble])
    mixture += sum(p * vn_entropy(c) for p, c in ensemble if c is not None)
    assert vn_entropy(post_measurement_state(obs, rho)) == pytest.approx(mixture, abs=1e-9)
