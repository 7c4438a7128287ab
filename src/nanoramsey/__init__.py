"""Free-flight spin-force Ramsey interferometry of a released nano-object.

Closed-form spin-conditioned wavepacket dynamics, a split-operator grid
oracle that certifies every analytic formula, a momentum-kick decoherence
model, collective (multi-NV) sector dynamics, and feasibility budgets, all
behind a deterministic CLI.
"""

__version__ = "0.1.0"

from .constants import CODATA, DEFAULT_G_NV, PhysicalConstants
from .params import (
    ConfigError,
    ExperimentParams,
    SpinBranch,
    branch_force,
    build_params,
    parse_config_text,
    sphere_mass,
)
from .dynamics import (
    CompositeState,
    GaussianBranchState,
    PulseSequence,
    branch_overlap,
    evolve_sequence,
    gravitational_phase,
    initial_state,
    max_separation,
    ramsey_probability,
    separation_at,
    separation_time_integral,
    wavepacket_width,
)
from .grid import (
    ClosureError,
    GridBoundaryError,
    GridSpec,
    GridWavefunction,
    OracleReport,
    ScaledUnits,
    ScaleError,
    auto_grid,
    desk_scale_params,
    evolve_branch_on_grid,
    gaussian_packet,
    oracle_compare,
    oracle_phase,
    scale_params,
    snapshot_frames,
    split_step_evolve,
    splitting_phase,
)
from .decoherence import (
    BlackbodyChannel,
    QuadratureError,
    SpectralRateModel,
    VisibilitySurface,
    angular_factor,
    default_model,
    default_model_family,
    dephasing_exposures,
    localization_rate_profile,
    surface_to_csv,
    surface_to_json,
    visibility_surface,
)
from .dicke import (
    CollectiveFinalState,
    collective_final_state,
    sector_action_phases,
    sector_phase_quadratic_coefficient,
    sector_table,
)
from .budget import (
    BudgetReport,
    ZeemanResolvability,
    budget_report,
    csl_bound,
    doppler_linewidth,
    thermal_velocity,
    zeeman_resolvability,
)
