"""Gray-code bosonic compilation and two-photon interference simulation."""

from .beamsplitter import (
    Interaction,
    exact_unitary,
    interaction,
    reduced_interaction,
    sector_evolution,
)
from .circuit import (
    Circuit,
    Gate,
    export_qasm,
    metrics,
    rotation_circuit,
    synthesize,
    trotter_circuit,
    trotter_sequence,
)
from .experiments import (
    ExperimentConfig,
    ExperimentReport,
    circuit_report,
    run_hom,
    sweep_theta,
    sweep_trotter,
)
from .gray import (
    FockEncoding,
    annihilation_op,
    basis_index,
    creation_op,
    gray_bits,
    hop_term,
    ladder,
    projector,
)
from .pauli import PauliOp, PauliTerm
from .statevector import (
    Histogram,
    StateVector,
    apply_circuit,
    apply_dense,
    circuit_unitary,
    fidelity,
    init_basis,
    probabilities,
    sample,
)

__all__ = [
    "Circuit",
    "ExperimentConfig",
    "ExperimentReport",
    "FockEncoding",
    "Gate",
    "Histogram",
    "Interaction",
    "PauliOp",
    "PauliTerm",
    "StateVector",
    "annihilation_op",
    "apply_circuit",
    "apply_dense",
    "basis_index",
    "circuit_report",
    "circuit_unitary",
    "creation_op",
    "exact_unitary",
    "export_qasm",
    "fidelity",
    "gray_bits",
    "hop_term",
    "init_basis",
    "interaction",
    "ladder",
    "metrics",
    "probabilities",
    "projector",
    "reduced_interaction",
    "rotation_circuit",
    "run_hom",
    "sample",
    "sector_evolution",
    "sweep_theta",
    "sweep_trotter",
    "synthesize",
    "trotter_circuit",
    "trotter_sequence",
]

__version__ = "0.1.0"
