"""isoflow: isoperimetric profile, quasilocal mass, and component-freezing
weak mean curvature flow in conformally flat model spaces."""

from .metric import (
    AmbientMetric,
    SphereGeometry,
    asymptotic_flatness_checks,
    enclosed_volume,
    sphere_area,
    sphere_area_derivative,
    sphere_geometry,
    sphere_hawking_mass,
    sphere_mean_curvature,
)
from .profile import (
    ProfilePoint,
    convexity_threshold,
    convexity_threshold_radius,
    horizon_area,
    mass_from_region,
    profile_point,
    profile_ratio_margin,
    profile_slope,
    profile_superadditivity_gap,
    profile_volume,
    profile_volume_or_zero,
    radius_from_area,
)
from .flow_ode import SymmetricFlowState, run_symmetric_flow, trace_arrays
from .measure import AxiGrid, ComponentMeasure, measure_components
from .flow_levelset import (
    FlowRunConfig,
    FlowTrace,
    RunFailure,
    cfl_time_step,
    initial_state,
    run_modified_flow,
)
from .mass import (
    ISO_ADM_FIT_C,
    RegionSummary,
    appendix_union_gap,
    check_iso_adm_bound,
    exhaustion_mass,
    fit_iso_adm_constant,
    hawking_mass,
    quasilocal_mass,
)
from .config import ConfigError, RunPlan, Scenario, load_plan, parse_plan

__version__ = "0.1.0"
