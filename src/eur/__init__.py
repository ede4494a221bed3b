"""Entropic uncertainty bounds for a qubit whose quantum memory accelerates.

The package builds the full pipeline: acceleration -> mixing angle ->
Kraus channel on the memory -> evolved two-qubit state -> uncertainty
sum and its memory-assisted lower bounds, plus a CLI that sweeps the
acceleration and writes the bounds as CSV.
"""

from .bounds import EurReport, evaluate_eur, robertson_bound
from .channels import (
    amplitude_damping,
    apply,
    apply_to_memory,
    choi,
    kraus_from_choi,
    unruh_channel,
    unruh_r,
    validate_kraus,
)
from .cli import parse_args
from .linalg import partial_trace
from .measurement import ProjectiveObservable, complementarity, pauli_observable
from .states import (
    bell_diagonal_p,
    bell_diagonal_state,
    from_pure,
    rindler_tripartite_state,
    vn_entropy,
    x_state,
)

__version__ = "0.1.0"

__all__ = [
    "EurReport",
    "ProjectiveObservable",
    "amplitude_damping",
    "apply",
    "apply_to_memory",
    "bell_diagonal_p",
    "bell_diagonal_state",
    "choi",
    "complementarity",
    "evaluate_eur",
    "from_pure",
    "kraus_from_choi",
    "parse_args",
    "partial_trace",
    "pauli_observable",
    "rindler_tripartite_state",
    "robertson_bound",
    "unruh_channel",
    "unruh_r",
    "validate_kraus",
    "vn_entropy",
    "x_state",
]
