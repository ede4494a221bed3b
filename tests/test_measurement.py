"""Projective observables and their complementarity; the blocks that the
rows write and the Holevo quantities are tested in `test_bounds.py`.

1. the observable: `test_observable_keeps_a_read_only_copy_of_its_basis_and_rows`,
   over the three Paulis, each shared and in closed form, +1 eigenvector
   first, and a Haar sample; the rows are conj(P_i), bit for bit;
2. rejections: `test_observables_reject_bad_input_by_name`, one table of
   (entry point, input, exact message);
3. complementarity: `test_complementarity_values`, one table of (q, r, c),
   and on drawn pairs `test_complementarity_range`.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from eur.measurement import ProjectiveObservable, complementarity, pauli_observable
from helpers import SX, SY, SZ, assert_same_bits, random_observable, random_unitary

seeds = st.integers(min_value=0, max_value=2**32 - 1)

# axis: (Pauli operator, its eigenbasis in closed form, +1 eigenvector first)
PAULIS = {
    "x": (SX, np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)),
    "y": (SY, np.array([[1, 1], [1j, -1j]]) / np.sqrt(2)),
    "z": (SZ, np.eye(2, dtype=complex)),
}


@pytest.mark.parametrize("case", [*PAULIS, "haar"])
def test_observable_keeps_a_read_only_copy_of_its_basis_and_rows(case):
    if case == "haar":
        rng = np.random.default_rng(43)
        bases = np.array([-np.eye(2), *(random_unitary(rng, 2) for _ in range(20_000))])
        observables = [ProjectiveObservable("q", basis) for basis in bases]
        original = bases.copy()
        bases[...] = np.eye(2)  # the caller's array, changed after construction
        assert_same_bits(np.stack([obs.basis for obs in observables]), original)
    else:
        op, basis = PAULIS[case]
        obs = pauli_observable(case)
        assert pauli_observable(case.upper()) is obs and obs.name == f"sigma_{case}"
        assert_same_bits(obs.basis, basis)
        assert not reference.outside_budget(op @ basis, basis * [1, -1])
        observables = [obs]
    for obs in observables:
        assert not obs.basis.flags.writeable and not obs._rows.flags.writeable
        for i in (0, 1):
            v = obs.basis[:, i]
            assert obs._rows[i].conj().reshape(2, 2).tobytes() == np.outer(v, v.conj()).tobytes()


# (entry point, arguments, exact message)
OBSERVABLE_REJECTIONS = {
    **{f"axis-{case}": (pauli_observable, (axis,), f"unknown Pauli axis {named}; expected 'x', 'y' or 'z'")
       for case, axis, named in (("w", "w", "'w'"), ("W", "W", "'w'"), ("int", 1, "1"),
                                 ("None", None, "None"), ("list", ["x"], "['x']"))},
    "not-orthonormal": (ProjectiveObservable, ("bad", np.array([[1, 1], [0, 0]])),
                        "basis of 'bad' is not orthonormal (deviation 1.000e+00)"),
    "just-past-orthonormal": (ProjectiveObservable, ("bad", np.diag([1.0, 1.0 + 1e-11])),
                              "basis of 'bad' is not orthonormal (deviation 2.000e-11)"),
    "3x3": (ProjectiveObservable, ("bad", np.eye(3)),
            "basis must be 2x2 with eigenstate columns, got shape (3, 3)"),
}


@pytest.mark.parametrize("case", OBSERVABLE_REJECTIONS)
def test_observables_reject_bad_input_by_name(case):
    entry_point, args, message = OBSERVABLE_REJECTIONS[case]
    with pytest.raises(ValueError) as raised:
        entry_point(*args)
    assert str(raised.value) == message


# cos(pi/3) sigma_z + sin(pi/3) sigma_x has the eigenbasis ROTATED
COS, SIN = np.cos(np.pi / 6), np.sin(np.pi / 6)
ROTATED = ProjectiveObservable("rotated", [[COS, -SIN], [SIN, COS]])

# (q, r, c): unbiased, identical and rotated by pi/3, cos^2(pi/6) = 3/4
COMPLEMENTARITY = {
    **{pair: (pauli_observable(pair[0]), pauli_observable(pair[1]), 0.5) for pair in ("xy", "xz", "yz")},
    "zz": (pauli_observable("z"), pauli_observable("z"), 1.0),
    "z-rotated-pi/3": (pauli_observable("z"), ROTATED, 0.75),
}


@pytest.mark.parametrize("case", COMPLEMENTARITY)
def test_complementarity_values(case):
    q, r, c = COMPLEMENTARITY[case]
    assert abs(complementarity(q, r) - c) <= reference.budget(c)


@given(seeds)
@settings(max_examples=50, deadline=None)
def test_complementarity_range(seed):
    rng = np.random.default_rng(seed)
    value = complementarity(random_observable(rng), random_observable(rng))
    assert 0.5 - reference.budget(0.5) <= value <= 1.0 + reference.budget(1.0)
