"""Reactive Cahn-Hilliard simulator with sharp-interface cross-validation."""

from .errors import (
    ConfigurationError,
    MeasurementError,
    NumericalError,
    ResolutionWarning,
    StepFailureError,
    TrackingError,
)
from .model import (
    GAMMA_QUARTIC,
    DoubleWellPotential,
    MobilitySpec,
    PhaseFieldParams,
    ReactionSpec,
    SharpParams,
    ddpsi,
    derive_sharp_params,
    dpsi,
    mobility_m,
    profile_Phi0,
    psi,
    si_closed_form,
    si_quadrature,
    source_S,
    source_S2,
)
from .planar import (
    ModeIndex,
    PlanarTrajectory,
    StabilityRow,
    amplification,
    enumerate_modes,
    find_stationary,
    integrate_q,
    mode_representatives,
    mu_planar,
)

__version__ = "0.1.0"

from .mesh import NodalField, StructuredMesh, build_mesh, stiffness_matrix
from .initial import init_field
from .solver import (
    RunRecord,
    SimState,
    SolverConfig,
    Stepper,
    free_energy,
    run_members,
    run_simulation,
)
from .analysis import (
    ConvergenceRow,
    ConvergenceTable,
    auto_mesh_size,
    convergence_study,
    eoc_sequence,
    fit_growth_rate,
    growth_window,
    mode_amplitudes,
    reference_front_position,
    track_interface,
)
from .config import RunConfig, parse_config, parse_epsilon
from .output import (
    Checkpoint,
    OutputOptions,
    read_checkpoint,
    table_text,
    write_checkpoint,
    write_table,
    write_vtk,
)
