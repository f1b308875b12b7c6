"""Shrinking-sphere flow against exact solutions and conserved quantities.

Tests verify:
- Euclidean flow reproduces r(t) = sqrt(r0^2 - 4t) to 1e-8 relative
- near-extinction endpoint is reached cleanly (guard, no blowup)
- the profile defect stays at float noise across masses and radii
- drift shrinks ~16x per dt halving (4th-order one-step method)
- dA/dt differencing matches -H^2 A
- Hawking mass is conserved along the flow
- horizon start is stationary; bad inputs, a non-int sample_every
  included, are rejected
- closed forms are evaluated only when read, and each RK4 stage finds w once
- every sample of a fixed run matches its recorded bits
"""

import json
import math
import os

import numpy as np
import pytest

import isoflow.flow_ode as flow_ode_mod
import isoflow.metric as metric_mod
from isoflow.flow_ode import (
    SymmetricFlowState,
    initial_state,
    run_symmetric_flow,
    step,
    trace_arrays,
)
from isoflow.metric import AmbientMetric, sphere_area, sphere_mean_curvature

EUCLID = AmbientMetric.euclidean()


def test_euclidean_matches_exact_shrinking_sphere():
    states = run_symmetric_flow(EUCLID, 1.0, dt=1e-4, t_max=0.2, sample_every=100)
    for s in states:
        exact = math.sqrt(1.0 - 4.0 * s.t)
        assert abs(s.r - exact) / exact < 1e-8, f"t={s.t}: {s.r} vs {exact}"
    assert states[-1].t == pytest.approx(0.2, rel=1e-12)


def test_euclidean_near_extinction_endpoint():
    states = run_symmetric_flow(EUCLID, 1.0, dt=1e-4, t_max=0.2499)
    final = states[-1]
    assert final.r == pytest.approx(0.02, rel=1e-3)
    assert all(s.r > 0 for s in states)


def test_euclidean_extinction_guard_stops_run():
    # t_max lies beyond extinction (t_ext = 0.0025); the run must stop
    # on its own, before the radius can cross zero
    states = run_symmetric_flow(EUCLID, 0.1, dt=1e-5, t_max=1.0)
    assert states[-1].t < 0.0025
    assert states[-1].r ** 2 <= 4.5 * 1e-5 * 1.5


def test_profile_defect_is_integrator_noise():
    for m in (0.5, 1.0, 2.0):
        for factor in (3, 10, 50):
            r0 = factor * m
            t_max = r0**2 / 8
            states = run_symmetric_flow(
                AmbientMetric(m), r0, dt=t_max / 400, t_max=t_max, sample_every=20
            )
            v0 = states[0].volume
            worst = max(abs(s.profile_defect) for s in states)
            assert worst <= 1e-8 * v0, f"m={m} r0={r0}: drift {worst / v0:.3e}"


def test_defect_zero_at_start():
    s = initial_state(AmbientMetric(1.0), 7.0)
    assert s.profile_defect == pytest.approx(0.0, abs=1e-12 * s.volume)


def test_drift_fourth_order_in_dt():
    g = AmbientMetric(1.0)
    drifts = []
    for n_steps in (8, 16, 32):
        states = run_symmetric_flow(g, 3.0, dt=1.0 / n_steps, t_max=1.0)
        drifts.append(max(abs(s.profile_defect) for s in states))
    assert drifts[0] / drifts[1] >= 12.0, f"ratio {drifts[0] / drifts[1]}"
    assert drifts[1] / drifts[2] >= 12.0, f"ratio {drifts[1] / drifts[2]}"


def test_area_decay_rate_is_minus_h_squared_area():
    g = AmbientMetric(1.0)
    tr = trace_arrays(run_symmetric_flow(g, 3.0, dt=5e-4, t_max=0.5))
    t, area, r = tr["t"], tr["area"], tr["r"]
    dadt = (area[2:] - area[:-2]) / (t[2:] - t[:-2])
    h_mid = np.asarray(sphere_mean_curvature(g, r[1:-1]))
    expected = -(h_mid**2) * area[1:-1]
    rel = np.abs(dadt - expected) / np.abs(expected)
    assert np.max(rel) < 1e-6


def test_hawking_mass_conserved_along_flow():
    states = run_symmetric_flow(AmbientMetric(1.0), 5.0, dt=1e-3, t_max=3.0, sample_every=100)
    for s in states:
        assert abs(s.hawking_mass - 1.0) < 1e-10


def test_areas_and_volumes_strictly_decreasing():
    tr = trace_arrays(run_symmetric_flow(AmbientMetric(1.0), 2.0, dt=1e-3, t_max=0.5))
    assert np.all(np.diff(tr["area"]) < 0)
    assert np.all(np.diff(tr["volume"]) < 0)
    assert np.all(np.diff(tr["swept_volume"]) < 0)


def test_closed_forms_consistent_with_radius():
    states = run_symmetric_flow(AmbientMetric(2.0), 4.0, dt=1e-3, t_max=0.3, sample_every=50)
    for s in states:
        assert s.area == float(sphere_area(s.metric, s.r))


def test_horizon_start_is_stationary():
    states = run_symmetric_flow(AmbientMetric(1.0), 0.5, dt=1e-3, t_max=0.1)
    assert all(s.r == 0.5 for s in states)
    assert states[-1].t == pytest.approx(0.1, rel=1e-12)
    assert states[0].mean_curvature == 0.0


def test_bad_inputs_rejected():
    with pytest.raises(ValueError):
        initial_state(AmbientMetric(1.0), 0.49)
    with pytest.raises(ValueError):
        initial_state(EUCLID, 0.0)
    s = initial_state(EUCLID, 1.0)
    with pytest.raises(ValueError):
        step(s, 0.0)
    with pytest.raises(ValueError):
        run_symmetric_flow(EUCLID, 1.0, dt=1e-3, t_max=-1.0)


@pytest.mark.parametrize("dt", [0.0, math.nan, 1e-320, -1e-3, math.inf])
def test_a_dt_that_is_not_a_usable_step_is_rejected(dt):
    # 1e-320 is positive and finite, but t_max / dt overflows
    with pytest.raises(ValueError, match="dt"):
        run_symmetric_flow(EUCLID, 1.0, dt=dt, t_max=1.0)


@pytest.mark.parametrize("every", [2.5, 2.0, True, "2"])
def test_a_sample_every_that_is_not_an_int_is_rejected(every):
    # 2.5 would otherwise sample every 5th state, and True every state
    with pytest.raises(ValueError, match="sample_every"):
        run_symmetric_flow(EUCLID, 1.0, dt=1e-3, t_max=0.1, sample_every=every)


def test_a_step_past_extinction_is_rejected():
    # the radius lands at -inf, which no closed form accepts
    with np.errstate(divide="ignore"), pytest.raises(ValueError):
        step(initial_state(EUCLID, 1.0), 1e300)


def test_closed_forms_are_evaluated_only_when_read(monkeypatch):
    calls = []
    wrapped = flow_ode_mod.enclosed_volume

    def counting(metric, r):
        calls.append(r)
        return wrapped(metric, r)

    monkeypatch.setattr(flow_ode_mod, "enclosed_volume", counting)
    states = run_symmetric_flow(AmbientMetric(1.0), 4.0, 0.01, 9.5, sample_every=10)
    assert calls == [4.0]  # the initial swept volume
    assert states[-1].volume == float(wrapped(AmbientMetric(1.0), states[-1].r))
    assert len(calls) == 2


def test_each_rk4_stage_finds_w_once(monkeypatch):
    # the one function that finds w, wherever it is bound
    calls = []
    wrapped = metric_mod._conformal_weight

    def counting(m, r):
        calls.append(r)
        return wrapped(m, r)

    for mod in (metric_mod, flow_ode_mod):
        monkeypatch.setattr(mod, "_conformal_weight", counting)
    states = run_symmetric_flow(AmbientMetric(1.0), 4.0, 0.01, 1.0)
    assert len(states) == 101  # 100 steps
    assert len(calls) == 4 * 100


@pytest.mark.parametrize("m", [0.5, 1.0, 2.0])
def test_stepping_950_times_gives_the_march_bit_for_bit(m):
    # step() and run_symmetric_flow share one RK4 step; the radial-oracle march
    g, dt = AmbientMetric(m), 0.01 * m * m
    states = run_symmetric_flow(g, 4.0 * m, dt, 950 * dt)
    assert len(states) == 951
    state = states[0]
    for want in states[1:]:
        state = step(state, dt)
        assert [x.hex() for x in (state.t, state.r, state.swept_volume)] == [
            x.hex() for x in (want.t, want.r, want.swept_volume)
        ]


def test_sampling_keeps_endpoints():
    states = run_symmetric_flow(AmbientMetric(1.0), 3.0, dt=1e-3, t_max=0.1, sample_every=7)
    assert states[0].t == 0.0
    assert states[-1].t == pytest.approx(0.1, rel=1e-12)
    assert isinstance(states[0], SymmetricFlowState)


# float.hex of every sample of run_symmetric_flow(AmbientMetric(m), 4.0,
# 0.01, 9.5, sample_every=10) at m = 0.5, 1 and 2, recorded before the
# closed forms took scalars as np.float64 instead of 0-d arrays.  m = 2's
# volume columns were re-recorded when enclosed_volume took its form in
# y = a/r: its swept volume starts at the enclosed volume of r0 = 4 (2 ulp).
ORACLE_SAMPLES = os.path.join(os.path.dirname(__file__), "data", "oracle_samples.json")


ORACLE_MASSES = (0.5, 1.0, 2.0)


def oracle_record(m: float) -> dict:
    """The recorded form of the oracle run at mass ``m``: float.hex of
    each sample's value, per column."""
    states = run_symmetric_flow(AmbientMetric(m), 4.0, 0.01, 9.5, sample_every=10)
    names = ("t", "r", "area", "volume", "swept_volume", "profile_defect")
    return {name: [float(getattr(s, name)).hex() for s in states] for name in names}


@pytest.mark.parametrize("m", ORACLE_MASSES)
def test_oracle_samples_match_the_recorded_bits(m):
    with open(ORACLE_SAMPLES, encoding="utf-8") as f:
        recorded = json.load(f)[str(m)]
    got = oracle_record(m)
    assert len(got["t"]) == len(recorded["t"])
    # the integrated columns read enclosed_volume only at r0: bit-exact
    for name in ("t", "r", "area", "swept_volume"):
        assert got[name] == recorded[name], name
    # enclosed_volume may round differently: 4 ulp, and 1e-12 on the defect
    columns = (got["t"], got["volume"], recorded["volume"], got["profile_defect"], recorded["profile_defect"])
    for t, vol, want, defect, want_defect in zip(*(map(float.fromhex, c) for c in columns)):
        assert abs(vol - want) <= 4 * np.spacing(want), t
        assert abs(defect - want_defect) <= 1e-12, t
