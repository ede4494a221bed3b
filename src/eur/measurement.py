"""Projective measurements on the probed qubit.

Measurements only ever act on Alice's (most significant) qubit; the
memory is conditioned, never measured. This asymmetry is baked into the
API on purpose so subsystem-convention bugs cannot arise.

A `ProjectiveObservable` is named by its eigenbasis and stores the rows
that `bounds._conditioned` multiplies into a two-qubit state to write
the memory blocks of each outcome.
"""

from dataclasses import dataclass, field

import numpy as np

from .linalg import ORTHONORMALITY_ATOL

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
    conj(P_i), flattened to (2, 4), once; `bounds._conditioned` reads
    them.
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
