"""Projective measurements on the probed qubit and what the memory learns.

Measurements only ever act on Alice's (most significant) qubit; the
memory is conditioned, never measured. This asymmetry is baked into the
API on purpose so subsystem-convention bugs cannot arise.

`post_measurement_state` takes one 4x4 state or a (..., 4, 4) stack,
`measurement_ensemble` one state. `_conditioned` is the one reader of a
two-qubit state, for both and for `bounds.evaluate_eur`: it checks the
state, then writes the unnormalized memory blocks of every observable
given, outcome first, into `states[2:]` with one contraction, after the
two marginals; `evaluate_eur` reads it for Q and R together. Only
`measurement_ensemble` divides a block by its outcome probability.
"""

from dataclasses import dataclass, field

import numpy as np

from .linalg import ORTHONORMALITY_ATOL, PROBABILITY_FLOOR, _real_or_complex
from .states import _checked_spectrum

_SQRT2 = np.sqrt(2.0)


@dataclass(frozen=True, eq=False)
class ProjectiveObservable:
    """A qubit observable named by its orthonormal eigenbasis.

    `basis` is a 2x2 matrix whose columns are the eigenstates, complex
    even when real: the conditional blocks are complex by design, and
    real rows would take other kernels and move report bits. Only the
    basis enters any computed quantity, so eigenvalues and global column
    phases are irrelevant by construction.

    The observable keeps a read-only copy of `basis`, so changing the
    caller's array later changes nothing, and builds the read-only rows
    conj(P_i), flattened to (2, 4), once; `projector`, `_conditioned`
    and `post_measurement_state` read them.
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
        """P_i = |v_i><v_i| for eigenstate i, as a new 2x2 array.

        Raises ValueError unless i is the integer 0 or 1 (a numpy integer
        included; a bool is not taken for one).
        """
        if isinstance(i, bool) or not isinstance(i, (int, np.integer)) or i not in (0, 1):
            raise ValueError(f"eigenstate index must be 0 or 1, got {i!r}")
        return self._rows[i].conj().reshape(2, 2)


# the three Pauli eigenbases, +1 eigenvector first, built once
_PAULI = {
    axis: ProjectiveObservable(f"sigma_{axis}", basis) for axis, basis in (
        ("x", np.array([[1, 1], [1, -1]]) / _SQRT2),
        ("y", np.array([[1, 1], [1j, -1j]]) / _SQRT2),
        ("z", np.eye(2)),
    )
}


def pauli_observable(axis: str) -> ProjectiveObservable:
    """Eigenbasis of a Pauli operator, +1 eigenvector first.

    The observable is shared: every call for one axis, in either case,
    returns the same frozen instance, whose arrays are read-only. Any
    other axis, a string or not, raises ValueError naming it.
    """
    key = axis.lower() if isinstance(axis, str) else axis
    try:
        return _PAULI[key]
    except (KeyError, TypeError):  # TypeError: an unhashable axis
        raise ValueError(f"unknown Pauli axis {key!r}; expected 'x', 'y' or 'z'") from None


def complementarity(q: ProjectiveObservable, r: ProjectiveObservable) -> float:
    """Largest squared overlap between eigenstates of the two observables.

    Ranges from 1/2 (mutually unbiased bases) to 1 (identical bases).
    """
    overlaps = np.abs(q.basis.conj().T @ r.basis) ** 2
    return float(overlaps.max())


def _conditioned(rho: np.ndarray, observables) -> tuple:
    """(spectrum, states, p) for every outcome of each observable in turn.

    rho must be one 4x4 state or a (..., 4, 4) stack; its shape is checked
    first, then the state itself, once, by `states._checked_spectrum`,
    which gives `spectrum`, rho's eigenvalues. A float64 rho stays
    float64, so its check, its spectrum and its marginals run in float64;
    the rows are complex, so `states` is complex either way. `states` is
    one complex128 array, (2 + 2k, ..., 2, 2), allocated once and written
    in place: rho_A and rho_B, each the sum of two diagonal blocks of rho,
    then the unnormalized memory blocks <i|rho|i> (|i> the eigenstates on
    the probe), outcome first. One product of the stacked rows
    conj(P_i) = P_i^T, which each `ProjectiveObservable` stores, with all
    of rho as a (4, 4N) matrix, probe indices (b, c) down and stack and
    memory indices (..., j, l) across, writes the blocks straight into
    `states[2:]`; p, (2k, ...), holds their traces. The rows stay on the
    left: swapped, BLAS takes another kernel for two rows, and one
    observable's blocks would differ in bits from its blocks in a pair.
    `states` is not checked again.
    """
    rho = _real_or_complex(rho)
    if rho.shape[-2:] != (4, 4):
        raise ValueError(f"expected a 4x4 two-qubit state, got shape {rho.shape}")
    spectrum = _checked_spectrum(rho)
    stack = rho.shape[:-2]
    n = len(stack)
    t = rho.reshape(stack + (2, 2, 2, 2))  # rho[..., b, j, c, l] (probe b, c; memory j, l)
    rows = np.concatenate([obs._rows for obs in observables])
    columns = t.transpose((n, n + 2, *range(n), n + 1, n + 3)).reshape(4, -1)
    states = np.empty((2 + len(rows),) + stack + (2, 2), dtype=complex)
    np.add(t[..., :, 0, :, 0], t[..., :, 1, :, 1], out=states[0])
    np.add(t[..., 0, :, 0, :], t[..., 1, :, 1, :], out=states[1])
    np.matmul(rows, columns, out=states[2:].reshape(len(rows), -1))
    p = (states[2:, ..., 0, 0] + states[2:, ..., 1, 1]).real
    return spectrum, states, p


def post_measurement_state(obs: ProjectiveObservable, rho: np.ndarray) -> np.ndarray:
    """Dephase the probed qubit in the observable's eigenbasis.

    Returns sum_i (P_i (x) I) rho (P_i (x) I) = sum_i P_i (x) <i|rho|i>:
    the classical-quantum state held once the outcome is recorded but not
    read out. Block diagonal in the measurement basis, and idempotent for
    a fixed observable.
    """
    projectors = obs._rows.conj().reshape(2, 2, 2)  # P_0 and P_1
    out = np.einsum("iac,i...jl->...ajcl", projectors, _conditioned(rho, (obs,))[1][2:])
    return out.reshape(out.shape[:-4] + (4, 4))


def measurement_ensemble(obs: ProjectiveObservable, rho: np.ndarray):
    """Outcome probabilities of one state with the memory states conditioned on them.

    Returns [(p_0, rho_B|0), (p_1, rho_B|1)], rho_B|i the memory block of
    outcome i divided by p_i. Dividing by a small p_i magnifies rho's
    roundoff, so a conditional state may sit slightly outside the
    tolerances a checked input must meet, and it is not checked again. An
    outcome whose probability is at or below PROBABILITY_FLOOR carries
    None in place of a conditional state; the normalizing division is
    suppressed rather than amplified into noise. The probability-weighted
    conditional states sum back to the memory marginal.
    """
    if np.shape(rho) != (4, 4):
        raise ValueError(f"expected one 4x4 two-qubit state, got shape {np.shape(rho)}")
    _, states, p = _conditioned(rho, (obs,))
    return [
        (float(p_i), block / p_i) if p_i > PROBABILITY_FLOOR else (max(float(p_i), 0.0), None)
        for p_i, block in zip(p, states[2:])
    ]
