"""Three-field glioblastoma growth simulator.

Deterministic reaction-diffusion engine for the coupled tumor / necrosis /
vasculature system, with ring-quotient and surface-quotient morphometrics
and a one-parameter sweep harness.
"""

from .errors import (
    ConfigError,
    EmptyRegionError,
    InvalidParameterError,
    MeshError,
    SimulationError,
    SolverFailure,
)
from .kinetics import (
    DimensionalParameters,
    DimensionlessParameters,
    FieldTriple,
    hypoxia_factor,
    nondimensionalize,
    reaction_necrosis,
    reaction_tumor,
    reaction_vasculature,
    rescale_spacetime,
    vascular_fraction,
)
from .mesh import (
    StructuredTriMesh,
    assemble_stiffness,
    build_mesh,
    lumped_integral,
)
from .metrics import (
    DEFAULT_THRESHOLD,
    MetricsSample,
    ThresholdedRegion,
    compute_sample,
    max_radius,
    ring_quotient,
    surface_quotient,
    threshold_indicator,
    tumor_area,
)
from .solver import (
    BoundViolation,
    HomogeneousTrajectory,
    RunResult,
    SimulationState,
    SolverConfig,
    run,
    run_homogeneous,
    solve_spd,
    step,
)
from .experiments import (
    DEFAULT_PARAMETERS,
    PARAMETER_NAMES,
    PARAMETER_RANGES,
    BumpSpec,
    Scenario,
    ZonedVasculature,
    ZoneSpec,
    default_sweep_values,
    scenario_ring_width,
    scenario_surface_regularity,
    sweep,
)
from .config import RunConfig, parse_config
from .output import METRICS_HEADER, write_metrics_csv, write_snapshot

__version__ = "0.1.0"
