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
    ConvergenceFailure,
    converge_grover,
    run_grover,
    self_test,
    write_trajectory_csv,
)
from .propagator import (
    ElementaryOperation,
    KernelCounters,
    PulseSequence,
    SpinModel,
    StepPlan,
    Trajectory,
    auto_substeps,
    counters,
    evolve_eo,
    global_half_pi_rotation,
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
    GateMatrix,
    dense_propagator,
    dense_propagator_composed,
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
    inner_product,
    new_basis_state,
)

__version__ = "0.1.0"
