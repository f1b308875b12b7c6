"""Spherically symmetric mean curvature flow as a radial ODE.

A centered sphere stays a centered sphere under mean curvature flow, so
in the conformally flat model spaces the whole motion reduces to one
scalar ODE for the coordinate radius,

    dr/dt = -H(r) / w(r)**2,

where the conformal length density w**2 converts metric normal speed
into coordinate speed.  RK4 integrates r together with a *swept* volume,
dV/dt = -H * A, and the state holds just those two; every closed form of
:mod:`isoflow.metric` (area, enclosed volume, mean curvature, Hawking mass)
is a property of r, evaluated when read.  Each RK4 stage finds w once, and
one radius check, on the new radius, guards each step.  The profile
volume at the current area minus the swept volume (the ``profile_defect``)
vanishes identically for the exact flow -- shrinking centered spheres
realize the equality case of the profile-versus-volume monotonicity -- so
whatever defect accumulates is pure integrator error.  That makes it a
sharp convergence diagnostic: the classical 4th-order scheme used here
shrinks it by roughly 16x per halving of dt.

In the Euclidean model the flow is the textbook shrinking sphere
r(t) = sqrt(r0**2 - 4 t); with positive mass the sphere decelerates and
approaches the horizon without reaching it (H -> 0 there).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .metric import (
    AmbientMetric,
    _area,
    _check_radius,
    _mean_curvature,
    enclosed_volume,
    sphere_area,
    sphere_hawking_mass,
    sphere_mean_curvature,
)
from .profile import profile_volume_or_zero

# The continuous flow never arrives at the horizon, so landing at or
# below this padded radius can only be numerical overshoot; the run
# clamps there and terminates.
_HORIZON_PAD = 1e-12

# A Euclidean sphere loses squared radius at rate 4, so once
# r**2 <= 4.5 * dt one more step risks crossing r = 0.
_EXTINCTION_GUARD = 4.5


@dataclass(frozen=True)
class SymmetricFlowState:
    """One snapshot of the shrinking-sphere flow.

    The fields are the metric and what RK4 advances; ``area``, ``volume``
    (enclosed), ``mean_curvature`` and ``hawking_mass`` are closed forms of
    ``r``, and ``profile_defect`` is profile_volume(area) - swept_volume.
    """

    metric: AmbientMetric
    t: float
    r: float
    swept_volume: float

    @property
    def area(self) -> float:
        return float(sphere_area(self.metric, self.r))

    @property
    def volume(self) -> float:
        return float(enclosed_volume(self.metric, self.r))

    @property
    def profile_defect(self) -> float:
        return float(profile_volume_or_zero(self.metric.mass, self.area)) - self.swept_volume

    @property
    def mean_curvature(self) -> float:
        return float(sphere_mean_curvature(self.metric, self.r))

    @property
    def hawking_mass(self) -> float:
        return float(sphere_hawking_mass(self.metric, self.r))


def initial_state(metric: AmbientMetric, r0: float) -> SymmetricFlowState:
    """Starting state for a sphere of coordinate radius ``r0``.

    ``r0`` may equal the horizon radius (the flow is then stationary)
    but must not lie inside it, and must be positive when the mass is
    zero.
    """
    r0 = float(r0)
    if not math.isfinite(r0) or r0 <= 0:
        raise ValueError("initial radius must be positive")
    if r0 < metric.horizon_radius:
        raise ValueError("initial radius lies inside the horizon")
    return SymmetricFlowState(metric, 0.0, r0, float(enclosed_volume(metric, r0)))


def _rhs(metric: AmbientMetric, r: float) -> tuple[float, float]:
    # a stage may overshoot the horizon by a hair (H is zero there, so the
    # clamp is smooth); a non-finite stage reaches r_next, which step checks
    r = max(r, metric.horizon_radius)
    w = metric.conformal_factor(r)
    h = float(_mean_curvature(r, w))
    return -h / float(w * w), -h * float(_area(r, w))


def step(state: SymmetricFlowState, dt: float) -> SymmetricFlowState:
    """One classical RK4 step of the (radius, swept volume) system."""
    if not dt > 0:
        raise ValueError("dt must be positive")
    g = state.metric
    r, v = state.r, state.swept_volume
    k1r, k1v = _rhs(g, r)
    k2r, k2v = _rhs(g, r + 0.5 * dt * k1r)
    k3r, k3v = _rhs(g, r + 0.5 * dt * k2r)
    k4r, k4v = _rhs(g, r + dt * k3r)
    r_next = r + dt / 6.0 * (k1r + 2 * k2r + 2 * k3r + k4r)
    v_next = v + dt / 6.0 * (k1v + 2 * k2v + 2 * k3v + k4v)
    if g.mass > 0.0 and r_next < g.horizon_radius:
        # numerical overshoot: the continuous flow cannot cross
        r_next = g.horizon_radius * (1.0 + _HORIZON_PAD)
    _check_radius(g, r_next)  # no state holds a radius the closed forms reject
    return SymmetricFlowState(g, state.t + dt, r_next, v_next)


def run_symmetric_flow(
    metric: AmbientMetric,
    r0: float,
    dt: float,
    t_max: float,
    sample_every: int = 1,
) -> list[SymmetricFlowState]:
    """March the sphere from ``r0`` to ``t_max`` in uniform steps.

    Returns every ``sample_every``-th state; the initial and final
    states are always included.  The run ends early if the sphere is
    clamped at the horizon (positive mass) or comes within one step of
    extinction (zero mass, guard r**2 <= 4.5 dt).
    """
    if not t_max > 0:
        raise ValueError("t_max must be positive")
    if not 0 < dt < math.inf or not math.isfinite(t_max / dt):
        raise ValueError("dt must be positive and finite, and t_max / dt finite")
    if sample_every < 1:
        raise ValueError("sample_every must be at least 1")
    state = initial_state(metric, r0)
    out = [state]
    n_steps = int(round(t_max / dt))
    floor = metric.horizon_radius * (1.0 + _HORIZON_PAD)
    for i in range(1, n_steps + 1):
        if metric.mass == 0.0 and state.r * state.r <= _EXTINCTION_GUARD * dt:
            break
        prev_r = state.r
        state = step(state, dt)
        if i % sample_every == 0:
            out.append(state)
        # a sphere started exactly on the horizon is stationary, not done
        if metric.mass > 0.0 and prev_r > metric.horizon_radius and state.r <= floor:
            break
    if out[-1] is not state:
        out.append(state)
    return out


def trace_arrays(states: list[SymmetricFlowState]) -> dict[str, np.ndarray]:
    """Column view of a run, keyed by state attribute name."""
    cols = ("t", "r", "area", "volume", "swept_volume", "profile_defect")
    return {name: np.array([getattr(s, name) for s in states]) for name in cols}
