"""Projective measurements on the probed qubit and what the memory learns.

Measurements only ever act on Alice's (most significant) qubit; the
memory is conditioned, never measured. This asymmetry is baked into the
API on purpose so subsystem-convention bugs cannot arise.

`post_measurement_state` and `holevo_quantity` take one 4x4 state or a
(..., 4, 4) stack; `holevo_quantity` returns a float or an array to match.
"""

from dataclasses import dataclass

import numpy as np

from .linalg import ORTHONORMALITY_ATOL, PROBABILITY_FLOOR, _float_or_array
from .states import _entropy_bits, memory_marginal, vn_entropy

_SQRT2 = np.sqrt(2.0)


@dataclass(frozen=True, eq=False)
class ProjectiveObservable:
    """A qubit observable named by its orthonormal eigenbasis.

    `basis` is a 2x2 complex matrix whose columns are the eigenstates.
    Only the basis enters any computed quantity, so eigenvalues and
    global column phases are irrelevant by construction.
    """

    name: str
    basis: np.ndarray

    def __post_init__(self):
        basis = np.asarray(self.basis, dtype=complex)
        if basis.shape != (2, 2):
            raise ValueError(f"basis must be 2x2 with eigenstate columns, got shape {basis.shape}")
        gram = basis.conj().T @ basis
        deviation = float(np.max(np.abs(gram - np.eye(2))))
        if deviation > ORTHONORMALITY_ATOL:
            raise ValueError(f"basis of {self.name!r} is not orthonormal (deviation {deviation:.3e})")
        object.__setattr__(self, "basis", basis)

    def eigenstate(self, i: int) -> np.ndarray:
        return self.basis[:, i]

    def projector(self, i: int) -> np.ndarray:
        v = self.basis[:, i]
        return np.outer(v, v.conj())


def pauli_observable(axis: str) -> ProjectiveObservable:
    """Eigenbasis of a Pauli operator, +1 eigenvector first."""
    axis = axis.lower()
    if axis == "z":
        basis = np.array([[1, 0], [0, 1]], dtype=complex)
    elif axis == "x":
        basis = np.array([[1, 1], [1, -1]], dtype=complex) / _SQRT2
    elif axis == "y":
        basis = np.array([[1, 1], [1j, -1j]], dtype=complex) / _SQRT2
    else:
        raise ValueError(f"unknown Pauli axis {axis!r}; expected 'x', 'y' or 'z'")
    return ProjectiveObservable(f"sigma_{axis}", basis)


def complementarity(q: ProjectiveObservable, r: ProjectiveObservable) -> float:
    """Largest squared overlap between eigenstates of the two observables.

    Ranges from 1/2 (mutually unbiased bases) to 1 (identical bases).
    """
    overlaps = np.abs(q.basis.conj().T @ r.basis) ** 2
    return float(overlaps.max())


def _memory_blocks(obs: ProjectiveObservable, rho: np.ndarray) -> np.ndarray:
    """The unnormalized memory blocks <i|rho|i>, with |i> the observable's
    eigenstates on the probe, as a (..., 2, 2, 2) stack indexed by outcome.

    One contraction of rho with the rows conj(P_i) = P_i^T forms both.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape[-2:] != (4, 4):
        raise ValueError(f"expected a 4x4 two-qubit state, got shape {rho.shape}")
    stack = rho.shape[:-2]
    rows = np.stack([obs.projector(i).conj().reshape(4) for i in (0, 1)])
    # rho[..., b, j, c, l] (probe b, c; memory j, l) as (..., bc, jl)
    by_probe = rho.reshape(stack + (2, 2, 2, 2)).swapaxes(-3, -2).reshape(stack + (4, 4))
    return (rows @ by_probe).reshape(stack + (2, 2, 2))


def _conditioned(obs: ProjectiveObservable, rho: np.ndarray) -> tuple:
    """(p, rho_B|i, kept) for both outcomes i over the whole stack, the
    outcome on the last axis of p and kept and on axis -3 of rho_B|i.

    `kept` is False where p_i is at or below PROBABILITY_FLOOR. There the
    normalizing division is suppressed rather than amplified into noise:
    rho_B|i is the unnormalized, negligible memory block, a finite matrix
    whose entropy a zero weight cancels exactly.
    """
    blocks = _memory_blocks(obs, rho)
    p = (blocks[..., 0, 0] + blocks[..., 1, 1]).real
    kept = p > PROBABILITY_FLOOR
    return p, blocks / np.where(kept, p, 1.0)[..., None, None], kept


def _outcome_entropies(obs: ProjectiveObservable, rho: np.ndarray) -> tuple:
    """(H(p), sum_i p_i S(rho_B|i)) of the observable's outcomes.

    A zero-probability outcome gets weight 0 in the sum, so it contributes
    exactly nothing. S(OB) = H(p) + sum_i p_i S(rho_B|i) is the entropy
    of the block-diagonal post-measurement state.
    """
    p, conditional, kept = _conditioned(obs, rho)
    outcomes = _entropy_bits(p.clip(0.0, None))
    mixed = (np.where(kept, p, 0.0) * vn_entropy(conditional)).sum(axis=-1)
    return _float_or_array(outcomes), _float_or_array(mixed)


def post_measurement_state(obs: ProjectiveObservable, rho: np.ndarray) -> np.ndarray:
    """Dephase the probed qubit in the observable's eigenbasis.

    Returns sum_i (P_i (x) I) rho (P_i (x) I) = sum_i P_i (x) <i|rho|i>:
    the classical-quantum state held once the outcome is recorded but not
    read out. Block diagonal in the measurement basis, and idempotent for
    a fixed observable.
    """
    projectors = np.stack([obs.projector(0), obs.projector(1)])
    out = np.einsum("iac,...ijl->...ajcl", projectors, _memory_blocks(obs, rho))
    return out.reshape(out.shape[:-4] + (4, 4))


def measurement_ensemble(obs: ProjectiveObservable, rho: np.ndarray):
    """Outcome probabilities of one state with the memory states conditioned on them.

    Returns [(p_0, rho_B|0), (p_1, rho_B|1)]. An outcome whose probability
    is at or below PROBABILITY_FLOOR carries None in place of a
    conditional state; the normalizing division is suppressed rather than
    amplified into noise. The probability-weighted conditional states sum
    back to the memory marginal.
    """
    if np.shape(rho) != (4, 4):
        raise ValueError(f"expected one 4x4 two-qubit state, got shape {np.shape(rho)}")
    return [
        (float(p), conditional) if kept else (max(float(p), 0.0), None)
        for p, conditional, kept in zip(*_conditioned(obs, rho))
    ]


def holevo_quantity(obs: ProjectiveObservable, rho: np.ndarray):
    """Accessible information about the outcome stored in the memory, in bits.

    I(O;B) = S(rho_B) - sum_i p_i S(rho_B|i); zero-probability outcomes
    get weight 0 and so contribute exactly nothing.
    """
    return vn_entropy(memory_marginal(rho)) - _outcome_entropies(obs, rho)[1]
