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
from types import ModuleType as _ModuleType

from .ansatz import (
    AnsatzSpec,
    ansatz_circuit,
    h2_compact_spec,
    uccsd_excitations,
    uccsd_spec,
)
from .chemdata import (
    Geometry,
    MoleculeDataset,
    audit,
    builtin,
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
    unfold,
)
from .pauli import (
    PauliHamiltonian,
    ground_state_energy,
    group_terms,
    parse_hamiltonian,
    to_dense_matrix,
)
from .sim import (
    NoiseModel,
    QuantumState,
    apply_readout_noise,
    expectation,
    on_grid,
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

# the public names are the ones imported above, not the submodules
__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
