"""Spherically symmetric mean curvature flow as a radial ODE.

A centered sphere stays a centered sphere under mean curvature flow, so
in the conformally flat model spaces the whole motion reduces to one
scalar ODE for the coordinate radius,

    dr/dt = -H(r) / w(r)**2,

where the conformal length density w**2 converts metric normal speed
into coordinate speed.  RK4 integrates r together with a *swept* volume,
dV/dt = -H * A, on plain floats (the np.float64 bits), in locals; a state
is built per returned sample, and its closed forms (area, enclosed volume,
mean curvature, Hawking mass) are properties of r.  An RK4 stage is one
call: it finds w once, then H and A by metric's own operations on the
float, in locals.  One float compare of the new radius, by metric's radius
rule, guards each step.  The profile volume at the current area minus the
swept volume (the ``profile_defect``) vanishes identically for the exact
flow -- shrinking centered spheres realize the equality case of the
profile-versus-volume monotonicity -- so whatever defect accumulates is
pure integrator error.  That makes it a sharp convergence diagnostic: the
classical 4th-order scheme used here shrinks it by roughly 16x per halving
of dt.

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
    _check_radius,
    _conformal_weight,
    _radius_ok,
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
    """One returned sample of the shrinking-sphere flow; the march builds no other.

    The fields are the metric, t and what RK4 advances; ``area``, ``volume``
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


def _stage(m: float, hr: float, r: float) -> tuple[float, float]:
    # a stage may overshoot the horizon by a hair: H is zero there, so the clamp is smooth
    r = hr if hr > r else r  # max(r, hr); a NaN stays, for _rk4's radius check
    w = _conformal_weight(m, r)
    # metric's _mean_curvature and _area on a float (its _pow is ** there), in locals;
    # tests/test_flow_ode_properties.py pins the two rates to them, bit for bit
    h = 2.0 * (2.0 - w) / (r * w**3)
    return -h / (w * w), -h * (4.0 * math.pi * r * r * w**4)


def _rk4(metric: AmbientMetric, hr: float, r: float, v: float, dt: float) -> tuple[float, float]:
    """One classical RK4 step of (radius, swept volume), on plain floats;
    ``hr`` is the metric's horizon radius."""
    m = metric.mass
    try:
        k1r, k1v = _stage(m, hr, r)
        k2r, k2v = _stage(m, hr, r + 0.5 * dt * k1r)
        k3r, k3v = _stage(m, hr, r + 0.5 * dt * k2r)
        k4r, k4v = _stage(m, hr, r + dt * k3r)
    except ZeroDivisionError:  # numpy would give inf, then a rejected r_next
        raise ValueError("an RK4 stage radius reached 0") from None
    r_next = r + dt / 6.0 * (k1r + 2 * k2r + 2 * k3r + k4r)
    v_next = v + dt / 6.0 * (k1v + 2 * k2v + 2 * k3v + k4v)
    if hr > 0.0 and -math.inf < r_next < hr:
        # a finite overshoot is numerical: the continuous flow cannot cross
        r_next = hr * (1.0 + _HORIZON_PAD)
    if not _radius_ok(hr, r_next):  # no state holds a radius the closed forms reject
        _check_radius(metric, r_next)  # raises, with the rule's message
    return r_next, v_next


def step(state: SymmetricFlowState, dt: float) -> SymmetricFlowState:
    """One classical RK4 step of the (radius, swept volume) system."""
    if not dt > 0:
        raise ValueError("dt must be positive")
    g = state.metric
    return SymmetricFlowState(g, state.t + dt, *_rk4(g, g.horizon_radius, state.r, state.swept_volume, dt))


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
    clamped at the horizon (positive horizon radius) or comes within one
    step of extinction (zero horizon radius, guard r**2 <= 4.5 dt).
    """
    if not t_max > 0:
        raise ValueError("t_max must be positive")
    if not 0 < dt < math.inf or not math.isfinite(t_max / dt):
        raise ValueError("dt must be positive and finite, and t_max / dt finite")
    if type(sample_every) is not int or sample_every < 1:  # bool is not an int here
        raise ValueError("sample_every must be an int of at least 1")
    out = [initial_state(metric, r0)]
    t, r, v, done = 0.0, out[0].r, out[0].swept_volume, 0
    hr = metric.horizon_radius
    for i in range(1, int(round(t_max / dt)) + 1):
        # m / 2 may round to 0 at a subnormal m: such a sphere goes extinct too
        if hr == 0.0 and r * r <= _EXTINCTION_GUARD * dt:
            break
        prev_r = r
        r, v = _rk4(metric, hr, r, v, dt)
        t, done = t + dt, i
        if i % sample_every == 0:
            out.append(SymmetricFlowState(metric, t, r, v))
        # a sphere started exactly on the horizon is stationary, not done
        if hr > 0.0 and prev_r > hr and r <= hr * (1.0 + _HORIZON_PAD):
            break
    if done % sample_every:
        out.append(SymmetricFlowState(metric, t, r, v))
    return out


def trace_arrays(states: list[SymmetricFlowState]) -> dict[str, np.ndarray]:
    """Column view of a run, keyed by state attribute name."""
    cols = ("t", "r", "area", "volume", "swept_volume", "profile_defect")
    return {name: np.array([getattr(s, name) for s in states]) for name in cols}
