"""Noisy variational-quantum-eigensolver simulation with reference-state
error mitigation.

The package is organized bottom-up: `pauli` (observables), `circuits`
(gate-level IR), `sim` (statevector / density-matrix backends with
depolarizing and readout noise), `ansatz` (parameterized state families),
`mitigation` (readout unfolding and the reference-state correction), `vqe`
(energy evaluation and derivative-free minimization), `chemdata` (embedded
molecular Hamiltonians), and `experiments` (curve / sweep / report drivers
behind the `remvqe` command).
"""
from .ansatz import (
    AnsatzSpec,
    ansatz_circuit,
    h2_compact_spec,
    hardware_efficient_spec,
    uccsd_excitations,
    uccsd_spec,
)
from .chemdata import (
    Geometry,
    MoleculeDataset,
    audit,
    builtin,
    dump,
    load,
)
from .circuits import Circuit, Gate, Param, circuit_stats, gate_matrix
from .experiments import (
    ConfigError,
    DissociationResult,
    NoiseSweepResult,
    PointResult,
    RunConfig,
    SinglePointResult,
    cmd_calibrate,
    cmd_dissociation,
    cmd_noise_sweep,
    cmd_single_point,
    four_pipelines,
)
from .mitigation import (
    ConfusionMatrix,
    RemReport,
    calibrate_confusion,
    counts_to_distribution,
    device_confusion,
    format_confusion_csv,
    parse_confusion_csv,
    read_confusion_csv,
    rem_report,
    unfold,
    write_confusion_csv,
)
from .pauli import (
    MeasurementGroup,
    PauliHamiltonian,
    PauliString,
    format_hamiltonian,
    ground_state_energy,
    group_terms,
    parse_hamiltonian,
    parse_pauli,
    to_dense_matrix,
)
from .sim import (
    NoiseModel,
    QuantumState,
    apply_readout_noise,
    expectation,
    hf_state,
    run_density,
    run_statevector,
    sample_counts,
)
from .vqe import (
    EnergyEvaluator,
    SweepFit,
    VqeOutcome,
    default_grid,
    evaluate,
    minimize,
    reference_exact_energy,
    sweep_and_fit,
)

__version__ = "0.1.0"

__all__ = [
    "AnsatzSpec",
    "Circuit",
    "ConfigError",
    "ConfusionMatrix",
    "DissociationResult",
    "EnergyEvaluator",
    "Gate",
    "Geometry",
    "MeasurementGroup",
    "MoleculeDataset",
    "NoiseModel",
    "NoiseSweepResult",
    "Param",
    "PauliHamiltonian",
    "PauliString",
    "PointResult",
    "QuantumState",
    "RemReport",
    "RunConfig",
    "SinglePointResult",
    "SweepFit",
    "VqeOutcome",
    "ansatz_circuit",
    "apply_readout_noise",
    "audit",
    "builtin",
    "calibrate_confusion",
    "circuit_stats",
    "cmd_calibrate",
    "cmd_dissociation",
    "cmd_noise_sweep",
    "cmd_single_point",
    "counts_to_distribution",
    "default_grid",
    "device_confusion",
    "dump",
    "evaluate",
    "expectation",
    "format_confusion_csv",
    "format_hamiltonian",
    "four_pipelines",
    "gate_matrix",
    "ground_state_energy",
    "group_terms",
    "h2_compact_spec",
    "hardware_efficient_spec",
    "hf_state",
    "load",
    "minimize",
    "parse_confusion_csv",
    "parse_hamiltonian",
    "parse_pauli",
    "read_confusion_csv",
    "reference_exact_energy",
    "rem_report",
    "run_density",
    "run_statevector",
    "sample_counts",
    "sweep_and_fit",
    "to_dense_matrix",
    "uccsd_excitations",
    "uccsd_spec",
    "unfold",
    "write_confusion_csv",
]
