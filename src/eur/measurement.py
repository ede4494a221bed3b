"""Projective measurements on the probed qubit and what the memory learns.

Measurements only ever act on Alice's (most significant) qubit; the
memory is conditioned, never measured. This asymmetry is baked into the
API on purpose so subsystem-convention bugs cannot arise.

`post_measurement_state` takes one 4x4 state or a (..., 4, 4) stack,
`measurement_ensemble` one state. `_conditioned` is the one reader of a
two-qubit state, for both and for `bounds.evaluate_eur`: it checks the
state, then forms the memory blocks of every observable given in one
contraction; `evaluate_eur` reads it for Q and R together.
"""

from dataclasses import dataclass, field

import numpy as np

from .linalg import ORTHONORMALITY_ATOL, PROBABILITY_FLOOR
from .states import _checked_spectrum

_SQRT2 = np.sqrt(2.0)


@dataclass(frozen=True, eq=False)
class ProjectiveObservable:
    """A qubit observable named by its orthonormal eigenbasis.

    `basis` is a 2x2 complex matrix whose columns are the eigenstates.
    Only the basis enters any computed quantity, so eigenvalues and
    global column phases are irrelevant by construction.

    The observable keeps a read-only copy of `basis`, so changing the
    caller's array later changes nothing, and builds the read-only rows
    conj(P_i), flattened to (2, 4), once; `projector` and
    `_conditioned` both read them.
    """

    name: str
    basis: np.ndarray
    _rows: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        basis = np.array(self.basis, dtype=complex)
        if not np.isfinite(basis).all():
            raise ValueError(f"basis of {self.name!r} is not finite: it holds NaN or inf")
        if basis.shape != (2, 2):
            raise ValueError(f"basis must be 2x2 with eigenstate columns, got shape {basis.shape}")
        gram = basis.conj().T @ basis
        deviation = float(np.max(np.abs(gram - np.eye(2))))
        if not deviation <= ORTHONORMALITY_ATOL:
            raise ValueError(f"basis of {self.name!r} is not orthonormal (deviation {deviation:.3e})")
        basis.flags.writeable = False
        v = basis.T  # v[i] is eigenstate i
        rows = (v[:, :, None] * v.conj()[:, None, :]).conj().reshape(2, 4)
        rows.flags.writeable = False
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "_rows", rows)

    def projector(self, i: int) -> np.ndarray:
        """P_i = |v_i><v_i| for eigenstate i, as a new 2x2 array."""
        return self._rows[i].conj().reshape(2, 2)


# the three Pauli eigenbases, +1 eigenvector first, built once
_PAULI = {
    axis: ProjectiveObservable(f"sigma_{axis}", basis) for axis, basis in (
        ("x", np.array([[1, 1], [1, -1]], dtype=complex) / _SQRT2),
        ("y", np.array([[1, 1], [1j, -1j]], dtype=complex) / _SQRT2),
        ("z", np.array([[1, 0], [0, 1]], dtype=complex)),
    )
}


def pauli_observable(axis: str) -> ProjectiveObservable:
    """Eigenbasis of a Pauli operator, +1 eigenvector first.

    The observable is shared: every call for one axis, in either case,
    returns the same frozen instance, whose arrays are read-only.
    """
    try:
        return _PAULI[axis.lower()]
    except KeyError:
        raise ValueError(
            f"unknown Pauli axis {axis.lower()!r}; expected 'x', 'y' or 'z'") from None


def complementarity(q: ProjectiveObservable, r: ProjectiveObservable) -> float:
    """Largest squared overlap between eigenstates of the two observables.

    Ranges from 1/2 (mutually unbiased bases) to 1 (identical bases).
    """
    overlaps = np.abs(q.basis.conj().T @ r.basis) ** 2
    return float(overlaps.max())


def _conditioned(rho: np.ndarray, observables) -> tuple:
    """(spectrum, states, p, kept, blocks) for every outcome of each observable in turn.

    rho must be one 4x4 state or a (..., 4, 4) stack; its shape is checked
    first, then the state itself, once, by `states._checked_spectrum`,
    which gives `spectrum`, rho's eigenvalues. One product of the stacked
    rows conj(P_i) = P_i^T, which each `ProjectiveObservable` stores, with
    all of rho as a (4, 4N) matrix, probe indices (b, c) down and stack
    and memory indices (..., j, l) across, gives `blocks`, the
    unnormalized memory blocks <i|rho|i> (|i> the eigenstates on the
    probe), as a (..., 2k, 2, 2) view, and p their traces. The rows stay
    on the left: swapped, BLAS takes another kernel for two rows, and one
    observable's blocks would differ in bits from its blocks in a pair.
    `states` stacks rho_A and rho_B, each the sum of two diagonal blocks
    of rho, on the conditional states rho_B|i: (..., 2 + 2k, 2, 2).
    `kept` is False where p_i is at or below PROBABILITY_FLOOR; there the
    normalizing division is suppressed rather than amplified into noise,
    so rho_B|i is the negligible unnormalized block, a finite matrix
    whose entropy a zero weight cancels exactly.

    `states` is not checked again. Dividing by a small p_i magnifies rho's
    roundoff, so a conditional state may sit slightly outside the
    tolerances a checked input must meet.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape[-2:] != (4, 4):
        raise ValueError(f"expected a 4x4 two-qubit state, got shape {rho.shape}")
    spectrum = _checked_spectrum(rho)
    stack = rho.shape[:-2]
    n = len(stack)
    t = rho.reshape(stack + (2, 2, 2, 2))  # rho[..., b, j, c, l] (probe b, c; memory j, l)
    marginals = np.stack([t[..., :, 0, :, 0] + t[..., :, 1, :, 1],
                          t[..., 0, :, 0, :] + t[..., 1, :, 1, :]], axis=-3)
    rows = np.concatenate([obs._rows for obs in observables])
    columns = t.transpose((n, n + 2, *range(n), n + 1, n + 3)).reshape(4, -1)
    blocks = (rows @ columns).reshape((len(rows),) + stack + (2, 2)).transpose(
        (*range(1, n + 1), 0, n + 1, n + 2))
    p = (blocks[..., 0, 0] + blocks[..., 1, 1]).real
    kept = p > PROBABILITY_FLOOR
    states = np.concatenate([marginals, blocks / np.where(kept, p, 1.0)[..., None, None]], axis=-3)
    return spectrum, states, p, kept, blocks


def post_measurement_state(obs: ProjectiveObservable, rho: np.ndarray) -> np.ndarray:
    """Dephase the probed qubit in the observable's eigenbasis.

    Returns sum_i (P_i (x) I) rho (P_i (x) I) = sum_i P_i (x) <i|rho|i>:
    the classical-quantum state held once the outcome is recorded but not
    read out. Block diagonal in the measurement basis, and idempotent for
    a fixed observable.
    """
    projectors = np.stack([obs.projector(0), obs.projector(1)])
    out = np.einsum("iac,...ijl->...ajcl", projectors, _conditioned(rho, (obs,))[4])
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
    _, states, p, kept, _ = _conditioned(rho, (obs,))
    return [
        (float(p_i), conditional) if kept_i else (max(float(p_i), 0.0), None)
        for p_i, conditional, kept_i in zip(p, states[2:], kept)
    ]

