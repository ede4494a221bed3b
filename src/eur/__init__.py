"""Entropic uncertainty bounds for a qubit whose quantum memory accelerates.

The package builds the full pipeline: acceleration -> mixing angle ->
Kraus channel on the memory -> evolved two-qubit state -> uncertainty
sum and its memory-assisted lower bounds, plus a CLI that sweeps the
acceleration and writes the bounds as CSV.
"""

from .bounds import (
    EurReport,
    berta_bound,
    conditional_entropy,
    delta,
    evaluate_eur,
    holevo_bound,
    maassen_uffink_bound,
    mutual_information,
    robertson_bound,
    uncertainty_lhs,
    unruh_temperature,
)
from .channels import (
    UnruhParams,
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
from .linalg import hermitian_eigensystem, partial_trace, tensor
from .measurement import (
    ProjectiveObservable,
    complementarity,
    holevo_quantity,
    measurement_ensemble,
    pauli_observable,
    post_measurement_state,
)
from .states import (
    PAULI,
    bell_diagonal_p,
    bell_diagonal_state,
    from_pure,
    memory_marginal,
    probe_marginal,
    rindler_tripartite_state,
    shannon_entropy,
    validate_density_matrix,
    vn_entropy,
    x_state,
)

__version__ = "0.1.0"

__all__ = [
    "EurReport",
    "PAULI",
    "ProjectiveObservable",
    "UnruhParams",
    "amplitude_damping",
    "apply",
    "apply_to_memory",
    "bell_diagonal_p",
    "bell_diagonal_state",
    "berta_bound",
    "choi",
    "complementarity",
    "conditional_entropy",
    "delta",
    "evaluate_eur",
    "from_pure",
    "hermitian_eigensystem",
    "holevo_bound",
    "holevo_quantity",
    "kraus_from_choi",
    "maassen_uffink_bound",
    "measurement_ensemble",
    "memory_marginal",
    "mutual_information",
    "parse_args",
    "partial_trace",
    "pauli_observable",
    "post_measurement_state",
    "probe_marginal",
    "rindler_tripartite_state",
    "robertson_bound",
    "shannon_entropy",
    "tensor",
    "uncertainty_lhs",
    "unruh_channel",
    "unruh_r",
    "unruh_temperature",
    "validate_density_matrix",
    "validate_kraus",
    "vn_entropy",
    "x_state",
]
