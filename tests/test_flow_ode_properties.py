"""Properties of the radial RK4 march on plain floats.

- the march equals the np.float64 reference march (tests/ode_oracles.py)
  bit for bit in t, r and swept volume, or both raise ValueError
- a stage radius that reaches 0 raises ValueError from ``step``, never
  ZeroDivisionError
- a stage's two rates are metric's mean curvature and area forms on the
  float, bit for bit, or the same exception
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

import ode_oracles
from isoflow.flow_ode import _stage, initial_state, run_symmetric_flow, step
from isoflow.metric import AmbientMetric, _area, _conformal_weight, _mean_curvature

PROPERTY = settings(max_examples=200, deadline=None)

# m / 2 rounds to 0 at 5e-324; 1e-155 and 1e-300 keep a tiny horizon
MASSES = st.one_of(st.sampled_from([0.0, 5e-324, 1e-155, 1e-300]), st.floats(0.1, 3.0))


def bits(march):
    """float.hex of (t, r, swept volume) per state, or the ValueError."""
    try:
        with np.errstate(all="ignore"):
            return [tuple(float(x).hex() for x in (s.t, s.r, s.swept_volume)) for s in march()]
    except ValueError:
        return "ValueError"


@PROPERTY
@given(MASSES, st.floats(0.0, 5.0), st.floats(1e-4, 0.05), st.integers(1, 80), st.integers(1, 7))
def test_the_float_march_matches_the_float64_reference_to_the_bit(m, span, dt, n, every):
    g = AmbientMetric(m)
    r0 = g.horizon_radius + span if g.horizon_radius > 0.0 else max(span, 1e-3)
    t_max = n * dt
    got = bits(lambda: run_symmetric_flow(g, r0, dt, t_max, sample_every=every))
    assert got == bits(lambda: ode_oracles.march(g, r0, dt, t_max, sample_every=every))
    assert got != "ValueError"


@PROPERTY
@given(st.sampled_from([0.0, 5e-324]), st.floats(0.1, 10.0), st.floats(1.0, 1e6))
def test_a_stage_radius_reaching_zero_raises_value_error(m, r0, factor):
    # the second stage sits at r0 - dt / r0 <= 0, clamped to the zero horizon
    state = initial_state(AmbientMetric(m), r0)
    dt = factor * r0 * r0
    with pytest.raises(ValueError):
        step(state, dt)
    with np.errstate(all="ignore"), pytest.raises(ValueError):
        ode_oracles.step(state, dt)


def rates(f):
    """float.hex of the two rates ``f`` returns, or the name of what it raises."""
    try:
        return tuple(float(x).hex() for x in f())
    except (ZeroDivisionError, OverflowError) as e:
        return type(e).__name__


def metric_rates(m, r):
    w = _conformal_weight(m, r)
    return -_mean_curvature(r, w) / (w * w), -_mean_curvature(r, w) * _area(r, w)


@PROPERTY
@given(st.one_of(st.sampled_from([0.0, 5e-324]), st.floats(0.5, 1e3)), st.data())
def test_a_stage_is_metric_mean_curvature_and_area_on_the_float(m, data):
    hr = AmbientMetric(m).horizon_radius
    r = data.draw(st.floats(hr, 1e6), label="r")  # r = 0 at m = 0: both divide by zero
    assert rates(lambda: _stage(m, hr, r)) == rates(lambda: metric_rates(m, r))


@pytest.mark.parametrize("m, r, raised", [(0.0, 0.0, "ZeroDivisionError"), (1e3, 1e-150, "OverflowError")])
def test_a_stage_raises_what_the_metric_forms_raise(m, r, raised):
    # _stage is told the horizon is 0, so r = 1e-150 stands: w is 5e152 and w**3 overflows
    assert rates(lambda: _stage(m, 0.0, r)) == rates(lambda: metric_rates(m, r)) == raised
