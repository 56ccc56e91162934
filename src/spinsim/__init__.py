"""Simulator for driven spin-1/2 quantum registers.

Solves the time-dependent Schrodinger equation for L interacting spin-1/2
particles under static and sinusoidal fields with a second-order symmetrized
product-formula integrator, and runs a 2-qubit database-search experiment on
both idealized and NMR-style elementary operations.
"""

from .config import ConfigError, ExperimentConfig, dump_profile, parse_config
from .experiments import (
    Q_TOLERANCE,
    REFERENCE_Q,
    run_grover,
    run_report,
    self_test,
    write_trajectory_csv,
)
from .propagator import (
    ElementaryOperation,
    PulseSequence,
    SpinModel,
    StepPlan,
    Trajectory,
    auto_substeps,
    evolve_eo,
    run_sequence,
    symmetrized_step,
)
from .pulses import (
    EO_NAMES,
    GroverProgram,
    HardwareProfile,
    execution_order,
    grover_program,
    make_profile,
    sequence_from_product,
)
from .reference import (
    ConvergenceError,
    dense_propagator,
    grover_iterate_check,
    hamiltonian,
    ideal_gate,
    ideal_two_qubit,
    matrix_of_sequence,
)
from .state import (
    MAX_QUBITS,
    CapacityError,
    Observables,
    StateVector,
    UnitarityError,
    fidelity,
    new_basis_state,
)

__version__ = "0.1.0"
