"""Projective measurements on the probed qubit and what the memory learns.

Measurements only ever act on Alice's (most significant) qubit; the
memory is conditioned, never measured. This asymmetry is baked into the
API on purpose so subsystem-convention bugs cannot arise.

`post_measurement_state` and `holevo_quantity` take one 4x4 state or a
(..., 4, 4) stack; `holevo_quantity` returns a float or an array to match.
Each state-dependent function reads `_conditioned`, one contraction that
forms the blocks of every observable at once, or the entropies that
`_entropy_terms` takes from it in one stacked pass.
"""

from dataclasses import dataclass

import numpy as np

from .linalg import ORTHONORMALITY_ATOL, PROBABILITY_FLOOR, TRACE_ATOL, _float_or_array
from .states import _entropy_bits, vn_entropy

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
        if not deviation <= ORTHONORMALITY_ATOL:
            raise ValueError(f"basis of {self.name!r} is not orthonormal (deviation {deviation:.3e})")
        object.__setattr__(self, "basis", basis)

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


def _conditioned(rho: np.ndarray, observables) -> tuple:
    """(states, p, kept, blocks) for every outcome of each observable in turn.

    One contraction of rho with the stacked rows conj(P_i) = P_i^T gives
    `blocks`, the unnormalized memory blocks <i|rho|i> (|i> the eigenstates
    on the probe) as a (..., 2k, 2, 2) stack, and p their traces. `states`
    stacks rho_A and rho_B, taken by trace as in `partial_trace`, on the
    conditional states rho_B|i: (..., 2 + 2k, 2, 2). `kept` is False where
    p_i is at or below PROBABILITY_FLOOR; there the normalizing division
    is suppressed rather than amplified into noise, so rho_B|i is the
    negligible unnormalized block, a finite matrix whose entropy a zero
    weight cancels exactly.

    Raises ValueError unless tr rho, read off rho_A, is within TRACE_ATOL
    of 1 for every state of the stack; the message gives the trace of the
    first state that fails.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape[-2:] != (4, 4):
        raise ValueError(f"expected a 4x4 two-qubit state, got shape {rho.shape}")
    stack = rho.shape[:-2]
    t = rho.reshape(stack + (2, 2, 2, 2))  # rho[..., b, j, c, l] (probe b, c; memory j, l)
    marginals = np.stack([t.trace(axis1=-3, axis2=-1), t.trace(axis1=-4, axis2=-2)], axis=-3)
    tr = (marginals[..., 0, 0, 0] + marginals[..., 0, 1, 1]).real
    normalized = abs(tr - 1.0) <= TRACE_ATOL
    if not normalized.all():
        raise ValueError(f"state has trace {tr[~normalized].flat[0]:.12g}, expected 1")
    rows = np.reshape([obs.projector(i).conj() for obs in observables for i in (0, 1)], (-1, 4))
    blocks = (rows @ t.swapaxes(-3, -2).reshape(stack + (4, 4))).reshape(stack + (len(rows), 2, 2))
    p = (blocks[..., 0, 0] + blocks[..., 1, 1]).real
    kept = p > PROBABILITY_FLOOR
    states = np.concatenate([marginals, blocks / np.where(kept, p, 1.0)[..., None, None]], axis=-3)
    return states, p, kept, blocks


def _entropy_terms(rho: np.ndarray, *observables: ProjectiveObservable) -> tuple:
    """(S(A|B), I(A;B), I(O;B) of each observable, H(p) of each observable).

    One `vn_entropy` call takes the 4x4 spectrum of rho, a second the
    (..., 2 + 2k, 2, 2) stack of `_conditioned`, and one `_entropy_bits`
    call every outcome law. S(OB) = H(p) + sum_i p_i S(rho_B|i) is the
    entropy of the block-diagonal post-measurement state, so
    I(O;B) = S(B) - sum_i p_i S(rho_B|i); a zero-probability outcome gets
    weight 0 and contributes exactly nothing.
    """
    s_ab = vn_entropy(rho)  # first, so a bad spectrum is named before a bad trace
    states, p, kept, _ = _conditioned(rho, observables)
    s = vn_entropy(states)
    s_a, s_b = s[..., 0], s[..., 1]
    pairs = p.shape[:-1] + (len(observables), 2)
    i_ob = s_b[..., None] - (np.where(kept, p, 0.0) * s[..., 2:]).reshape(pairs).sum(axis=-1)
    h = _entropy_bits(p.clip(0.0, None).reshape(pairs))
    per_observable = [x[..., k] for x in (i_ob, h) for k in range(len(observables))]
    return tuple(map(_float_or_array, (s_ab - s_b, s_a + s_b - s_ab, *per_observable)))


def post_measurement_state(obs: ProjectiveObservable, rho: np.ndarray) -> np.ndarray:
    """Dephase the probed qubit in the observable's eigenbasis.

    Returns sum_i (P_i (x) I) rho (P_i (x) I) = sum_i P_i (x) <i|rho|i>:
    the classical-quantum state held once the outcome is recorded but not
    read out. Block diagonal in the measurement basis, and idempotent for
    a fixed observable.
    """
    projectors = np.stack([obs.projector(0), obs.projector(1)])
    out = np.einsum("iac,...ijl->...ajcl", projectors, _conditioned(rho, (obs,))[3])
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
    states, p, kept, _ = _conditioned(rho, (obs,))
    return [
        (float(p_i), conditional) if kept_i else (max(float(p_i), 0.0), None)
        for p_i, conditional, kept_i in zip(p, states[2:], kept)
    ]


def holevo_quantity(obs: ProjectiveObservable, rho: np.ndarray):
    """Accessible information about the outcome stored in the memory, in bits.

    I(O;B) = S(rho_B) - sum_i p_i S(rho_B|i); zero-probability outcomes
    get weight 0 and so contribute exactly nothing.
    """
    return _entropy_terms(rho, obs)[2]
