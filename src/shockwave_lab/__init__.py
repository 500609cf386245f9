"""Numerical laboratory for two-shock composite waves of the 1-D
isentropic Navier-Stokes system in Lagrangian coordinates."""

from .riemann import (
    GasModel,
    EndState,
    TwoShockData,
    NoTwoShockSolution,
    BracketError,
    char_speeds,
    hugoniot_u,
    in_ss_region,
    solve_intermediate,
    rh_residuals,
    entropy_margins,
)
from .profile import (
    ShockProfile,
    DegenerateWaveError,
    IntegrationError,
    profile_rhs,
    decay_rates,
    integrate_profile,
    build_profiles,
    sample_uniform,
)
from .composite import (
    CompositeWave,
    CompositeFields,
    ShiftInputs,
    SeparationError,
    TruncationError,
    TruncationWarning,
    compute_shift_inputs,
    solve_shifts,
    w_decay_constants,
    predicted_w_decay,
    interaction_norm,
    w_naive,
)
from .solver import (
    Grid1D,
    FieldState,
    PositivityError,
    semidiscrete_rhs,
    hyperbolic_dt,
    stable_dt,
    rk4_step,
    advance,
    effective_velocity,
    auto_grid,
    apply_perturbations,
    setup_experiment,
    ExperimentSetup,
    run_simulation,
    SimulationResult,
    Snapshot,
    write_csv,
)
from .diagnostics import (
    PerturbationFields,
    PerturbationTerms,
    SobolevNorms,
    RateFit,
    InequalityReport,
    DiagnosticsRecord,
    DiagnosticsSeries,
    antiderivatives,
    closed_form_Psi,
    sobolev_norms,
    perturbation_terms,
    energy_functionals,
    fit_exponential_rate,
    pointwise_inequality_report,
    make_record,
)
from .config import (
    ConfigError,
    Perturbation,
    RiemannSpec,
    GridSpec,
    TimeSpec,
    ExperimentConfig,
    parse_config,
)

__version__ = "0.1.0"
