"""Test oracle for the radial RK4 march of :mod:`isoflow.flow_ode`.

The stage and the step are the np.float64 forms the march ran before it
moved to plain floats: w from :meth:`AmbientMetric.conformal_factor`, the
closed forms on np.float64 scalars, one radius check per step and one
state per step.  The march around them keys the extinction guard on the
horizon radius, as the shipped march does, so that a subnormal mass whose
m / 2 rounds to 0 stops at the guard too.
"""

from __future__ import annotations

from isoflow.flow_ode import _EXTINCTION_GUARD, _HORIZON_PAD, SymmetricFlowState, initial_state
from isoflow.metric import AmbientMetric, _area, _check_radius, _mean_curvature


def rhs(metric: AmbientMetric, r: float) -> tuple[float, float]:
    r = max(r, metric.horizon_radius)
    w = metric.conformal_factor(r)
    h = float(_mean_curvature(r, w))
    return -h / float(w * w), -h * float(_area(r, w))


def step(state: SymmetricFlowState, dt: float) -> SymmetricFlowState:
    if not dt > 0:
        raise ValueError("dt must be positive")
    g = state.metric
    r, v = state.r, state.swept_volume
    k1r, k1v = rhs(g, r)
    k2r, k2v = rhs(g, r + 0.5 * dt * k1r)
    k3r, k3v = rhs(g, r + 0.5 * dt * k2r)
    k4r, k4v = rhs(g, r + dt * k3r)
    r_next = r + dt / 6.0 * (k1r + 2 * k2r + 2 * k3r + k4r)
    v_next = v + dt / 6.0 * (k1v + 2 * k2v + 2 * k3v + k4v)
    if g.mass > 0.0 and r_next < g.horizon_radius:
        r_next = g.horizon_radius * (1.0 + _HORIZON_PAD)
    _check_radius(g, r_next)
    return SymmetricFlowState(g, state.t + dt, r_next, v_next)


def march(metric: AmbientMetric, r0: float, dt: float, t_max: float, sample_every: int = 1):
    """Every ``sample_every``-th state of the march, and the first and last."""
    state = initial_state(metric, r0)
    out = [state]
    hr = metric.horizon_radius
    floor = hr * (1.0 + _HORIZON_PAD)
    for i in range(1, int(round(t_max / dt)) + 1):
        if hr == 0.0 and state.r * state.r <= _EXTINCTION_GUARD * dt:
            break
        prev_r = state.r
        state = step(state, dt)
        if i % sample_every == 0:
            out.append(state)
        if metric.mass > 0.0 and prev_r > hr and state.r <= floor:
            break
    if out[-1] is not state:
        out.append(state)
    return out
