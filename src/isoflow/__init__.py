"""isoflow: isoperimetric profile, quasilocal mass, and component-freezing
weak mean curvature flow in conformally flat model spaces."""

import importlib

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
from .trace import FlowTrace, RunFailure
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

# the grid code loads on first use of one of its names, so the radial
# modes never compile it
_GRID_NAMES = {
    "measure": ("AxiGrid", "ComponentMeasure", "measure_components"),
    "flow_levelset": ("FlowRunConfig", "cfl_time_step", "initial_state", "run_modified_flow"),
}


def __getattr__(name: str):
    if name in _GRID_NAMES:  # the module itself, as a loaded submodule would be
        return importlib.import_module(f".{name}", __name__)
    for module, names in _GRID_NAMES.items():
        if name in names:
            return getattr(importlib.import_module(f".{module}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
