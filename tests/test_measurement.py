"""Projective observables and the Holevo quantities."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from eur.bounds import _conditioned, evaluate_eur
from eur.linalg import partial_trace
from eur.measurement import ProjectiveObservable, complementarity, pauli_observable
from eur.states import bell_diagonal_p, bell_diagonal_state, vn_entropy
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
    assert np.array_equal(z.basis, np.eye(2))
    x = pauli_observable("x")
    assert not reference.outside_budget(x.basis, np.array([[1, 1], [1, -1]]) / np.sqrt(2))
    y = pauli_observable("y")
    assert not reference.outside_budget(y.basis, np.array([[1, 1], [1j, -1j]]) / np.sqrt(2))
    with pytest.raises(ValueError):
        pauli_observable("w")


def test_pauli_observable_plus_one_eigenvector_first():
    paulis = {"x": np.array([[0, 1], [1, 0]]), "y": np.array([[0, -1j], [1j, 0]]),
              "z": np.diag([1, -1])}
    for axis, op in paulis.items():
        obs = pauli_observable(axis)
        for k, eigval in ((0, 1.0), (1, -1.0)):
            v = obs.basis[:, k]
            assert not reference.outside_budget(op @ v, eigval * v)


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
    report = evaluate_eur(q, r, rho)
    basis[:] = np.eye(2)  # the caller's array, changed after construction
    assert evaluate_eur(q, r, rho) == report


def test_projector_is_the_outer_product_bit_for_bit():
    rng = np.random.default_rng(43)
    q, r = np.linalg.qr(random_complex(rng, (20_000, 2, 2)))
    diagonal = np.diagonal(r, axis1=-2, axis2=-1)
    haar = q * (diagonal / abs(diagonal))[..., None, :]
    paulis = [pauli_observable(axis).basis for axis in "xyz"]
    for basis in [*paulis, -np.eye(2), *haar]:
        obs = ProjectiveObservable("q", basis)
        for i in (0, 1):
            # row i is conj(P_i), P_i the projector on eigenstate i
            v = obs.basis[:, i]
            assert obs._rows[i].conj().reshape(2, 2).tobytes() == np.outer(v, v.conj()).tobytes()


def test_complementarity_of_unbiased_and_identical_bases():
    x, y, z = (pauli_observable(axis) for axis in "xyz")
    assert complementarity(x, y) == pytest.approx(0.5, abs=reference.budget(0.5))
    assert complementarity(z, z) == pytest.approx(1.0, abs=reference.budget(1.0))


def test_complementarity_of_rotated_basis():
    theta = np.pi / 3
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    rotated = ProjectiveObservable("rotated", np.array([[c, -s], [s, c]], dtype=complex))
    value = complementarity(pauli_observable("z"), rotated)
    assert not reference.outside_budget([value, value], [max(c * c, s * s), 0.75])


@given(seeds)
@settings(max_examples=50, deadline=None)
def test_complementarity_range(seed):
    rng = np.random.default_rng(seed)
    value = complementarity(random_observable(rng), random_observable(rng))
    assert 0.5 - reference.budget(0.5) <= value <= 1.0 + reference.budget(1.0)


def holevo(obs, rho):
    """I(O;B) of one observable, read off the report of the pair (O, O)."""
    return evaluate_eur(obs, obs, rho).i_qb


def test_holevo_vanishes_on_product_states():
    rng = np.random.default_rng(22)
    rho = np.kron(random_density_matrix(rng, 2), random_density_matrix(rng, 2))
    assert holevo(random_observable(rng), rho) == pytest.approx(0.0, abs=reference.budget(0.0))


def test_holevo_is_one_bit_on_maximal_entanglement():
    assert abs(holevo(pauli_observable("z"), proj(PHI_PLUS)) - 1.0) <= reference.budget(1.0)


def test_holevo_on_bell_diagonal_half():
    rho = bell_diagonal_p(0.5)
    report = evaluate_eur(pauli_observable("x"), pauli_observable("y"), rho)
    assert not reference.outside_budget([report.i_qb, report.i_rb], [0.0, 1 - H_QUARTER])


@given(seeds)
@settings(max_examples=60, deadline=None)
def test_holevo_bounds_and_entropy_decomposition(seed):
    rng = np.random.default_rng(seed)
    rho = random_density_matrix(rng, 4)
    obs = random_observable(rng)
    info = holevo(obs, rho)
    memory = partial_trace(rho, keep=[1], dims=[2, 2])
    # 0 <= I(O;B) <= S(B), each side within one budget of its exact value
    s_b = vn_entropy(memory)
    assert -reference.budget(0.0) <= info <= s_b + 2 * reference.budget(s_b)
    # I(O;B) = S(B) + H(p) - S(OB), with the dephased state
    # sum_i (P_i (x) I) rho (P_i (x) I) and p_i = tr (P_i (x) I) rho built here
    lifted = [np.kron(np.outer(v, v.conj()), I2) for v in obs.basis.T]
    dephased = sum(m @ rho @ m for m in lifted)
    p = [np.trace(m @ rho).real for m in lifted]
    spectra = [np.linalg.eigvalsh(m) for m in (memory, dephased)]
    expected = shannon_bits(spectra[0]) + shannon_bits(p) - shannon_bits(spectra[1])
    assert info == pytest.approx(expected, abs=reference.budget(expected))


@pytest.mark.parametrize("axis", "xyz")
@given(st.lists(st.floats(min_value=1e-3, max_value=1.0), min_size=4, max_size=4))
@settings(max_examples=30, deadline=None)
def test_holevo_of_bell_diagonal_states_is_the_closed_form(axis, weights):
    # Bell weights w (phi+, phi-, psi+, psi-) give the correlation vector c;
    # measuring sigma_k leaves the memory in (I +- c_k sigma_k)/2 with
    # probability 1/2 each, so I(sigma_k;B) = 1 - h((1 + |c_k|)/2)
    w = np.array(weights) / sum(weights)
    c = (w[0] - w[1] + w[2] - w[3], -w[0] + w[1] + w[2] - w[3], w[0] + w[1] - w[2] - w[3])
    rho = bell_diagonal_state(*c)
    c_k = abs(c["xyz".index(axis)])
    expected = 1.0 - shannon_bits([(1.0 + c_k) / 2.0, (1.0 - c_k) / 2.0])
    assert not reference.outside_budget(holevo(pauli_observable(axis), rho), expected)


def blocks(obs, rho):
    """The memory blocks B_i = <i|rho|i> of obs's two outcomes and their
    traces p_i, as `_conditioned` writes them for the pair (obs, obs)."""
    _, states, p = _conditioned(rho, obs, obs)
    return states[2:4], p[:2]


def dephased(obs, conditional):
    """The post-measurement state rho_OB = sum_i P_i (x) B_i."""
    return sum(np.kron(proj(v), b) for v, b in zip(obs.basis.T, conditional))


@pytest.mark.parametrize("axis", "xyz")
def test_ensemble_on_maximally_entangled_state(axis):
    obs = pauli_observable(axis)
    conditional, p = blocks(obs, proj(PHI_PLUS))
    assert not reference.outside_budget(p, [0.5, 0.5])
    # outcome v_i on the probe of |phi+> leaves the memory in conj(v_i)
    for v, block in zip(obs.basis.T, conditional):
        assert not reference.outside_budget(block, proj(v.conj()) / 2)
    assert holevo(obs, proj(PHI_PLUS)) == pytest.approx(1.0, abs=reference.budget(1.0))


def test_ensemble_conditionals_on_bell_diagonal_half():
    rho = bell_diagonal_p(0.5)
    conditional, p = blocks(pauli_observable("x"), rho)
    assert not reference.outside_budget(p, [0.5, 0.5])
    for block in conditional:
        assert not reference.outside_budget(block / 0.5, I2 / 2)
    conditional, p = blocks(pauli_observable("y"), rho)
    assert not reference.outside_budget(p, [0.5, 0.5])
    for block in conditional:
        assert not reference.outside_budget(np.linalg.eigvalsh(block / 0.5), [0.25, 0.75])


@pytest.mark.parametrize("probe, memory", [(0, 0), (0, 1), (1, 0), (1, 1)],
                         ids=["00", "01", "10", "11"])
def test_ensemble_flags_zero_probability_outcome(probe, memory):
    # |probe memory>: the sigma_z outcome 1 - probe has probability exactly 0
    rho = proj(np.eye(4)[2 * probe + memory])
    conditional, p = blocks(pauli_observable("z"), rho)
    assert p[probe] == 1.0 and p[1 - probe] == 0.0
    assert np.array_equal(conditional[probe], proj(np.eye(2)[memory]))
    assert not conditional[1 - probe].any()
    # the empty block adds nothing to S(ZB): a pure product state gives
    # I(Z;B) = 0 and H(Z) = 0, and sigma_x's two outcomes give lhs = 1
    report = evaluate_eur(pauli_observable("z"), pauli_observable("x"), rho)
    assert report.i_qb == 0.0 and report.i_rb == 0.0
    assert report.lhs == pytest.approx(1.0, abs=reference.budget(1.0))


@given(seeds)
@settings(max_examples=50, deadline=None)
def test_ensemble_reassembles_memory_marginal(seed):
    rng = np.random.default_rng(seed)
    rho = random_density_matrix(rng, 4)
    q, r = random_observable(rng), random_observable(rng)
    _, states, p = _conditioned(rho, q, r)
    memory = partial_trace(rho, keep=[1], dims=[2, 2])
    assert not reference.outside_budget(states[1], memory)
    for outcomes in (slice(0, 2), slice(2, 4)):
        assert p[outcomes].sum() == pytest.approx(1.0, abs=reference.budget(1.0))
        mixed = states[2:][outcomes].sum(axis=0)
        assert not reference.outside_budget(mixed, memory)


def test_post_measurement_fixed_point():
    # rho = sum_i w_i P_i (x) sigma_i is already classical on the probe:
    # its blocks are w_i sigma_i, and I(O;B) = S(B) - sum_i w_i S(sigma_i)
    rng = np.random.default_rng(20)
    obs = random_observable(rng)
    weights = (0.3, 0.7)
    sigmas = [random_density_matrix(rng, 2) for _ in weights]
    conditional_states = [w * sigma for w, sigma in zip(weights, sigmas)]
    rho = dephased(obs, conditional_states)
    conditional, p = blocks(obs, rho)
    assert not reference.outside_budget(p, weights)
    assert not reference.outside_budget(conditional, conditional_states)
    assert not reference.outside_budget(dephased(obs, conditional), rho)
    memory = partial_trace(rho, keep=[1], dims=[2, 2])
    expected = vn_entropy(memory) - sum(w * vn_entropy(s) for w, s in zip(weights, sigmas))
    assert holevo(obs, rho) == pytest.approx(expected, abs=reference.budget(expected))


def test_post_measurement_decoheres_off_diagonal_blocks():
    z = pauli_observable("z")
    out = dephased(z, blocks(z, proj(PHI_PLUS))[0])
    assert not reference.outside_budget(out, np.diag([0.5, 0.0, 0.0, 0.5]))


def test_post_measurement_probe_marginal_is_diagonal_in_basis():
    rng = np.random.default_rng(21)
    rho = random_density_matrix(rng, 4)
    obs = random_observable(rng)
    conditional, p = blocks(obs, rho)
    probe = partial_trace(dephased(obs, conditional), keep=[0], dims=[2, 2])
    in_basis = obs.basis.conj().T @ probe @ obs.basis
    assert not reference.outside_budget(in_basis, np.diag(p))
    # p is rho_A's diagonal in the observable's basis
    rho_a = partial_trace(rho, keep=[0], dims=[2, 2])
    assert not reference.outside_budget(np.diag(obs.basis.conj().T @ rho_a @ obs.basis).real, p)


@given(seeds)
@settings(max_examples=50, deadline=None)
def test_post_measurement_is_idempotent_and_block_structured(seed):
    rng = np.random.default_rng(seed)
    rho = random_density_matrix(rng, 4)
    obs = random_observable(rng)
    conditional, p = blocks(obs, rho)
    once = dephased(obs, conditional)
    # measuring the post-measurement state again changes no block
    again, p_again = blocks(obs, once)
    assert not reference.outside_budget(again, conditional)
    assert not reference.outside_budget(p_again, p)
    expected = holevo(obs, rho)
    assert holevo(obs, once) == pytest.approx(expected, abs=reference.budget(expected))
    v0, v1 = obs.basis.T
    parity = np.kron(proj(v0) - proj(v1), I2)
    assert not reference.outside_budget(parity @ once, once @ parity)
