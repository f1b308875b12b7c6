"""The loop's skipped cadence sweeps change nothing a run reports.

Every ``sweep_cadence`` steps the loop asks ``_sweep_can_change`` whether a
freeze sweep could freeze a component or change the component count, and
sweeps only when it could.  A run with that check replaced by "always
sweep" is the reference: both runs must give the same samples, records,
ids, ``freeze_all_time`` and arrival times, to the bit.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

import isoflow.flow_levelset as flow_levelset_mod
from isoflow.flow_levelset import FlowRunConfig, freeze_sweep, initial_state, run_modified_flow
from isoflow.measure import AxiGrid, measure_components
from isoflow.metric import AmbientMetric
from isoflow.profile import convexity_threshold
from test_levelset_pins import RUNS, pinned_record

H = 0.1
EXTENT = 2.5


def counted_runs(run):
    """``run()`` with the loop's own check and with every cadence sweep
    kept, each with its number of freeze sweeps."""
    out = []
    for always in (False, True):
        calls = []
        sweep = flow_levelset_mod.freeze_sweep

        def counting(*args, **kwargs):
            calls.append(None)
            return sweep(*args, **kwargs)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(flow_levelset_mod, "freeze_sweep", counting)
            if always:
                mp.setattr(flow_levelset_mod, "_sweep_can_change", lambda *args: True)
            out.append((run(), len(calls)))
    return out


def assert_same_trace(got, ref):
    # repr is exact for floats and equates NaNs
    assert repr(got.samples) == repr(ref.samples)
    assert got.freeze_all_time == ref.freeze_all_time
    assert got.incomplete == ref.incomplete
    assert got.arrival_time.tobytes() == ref.arrival_time.tobytes()


@st.composite
def ball_unions(draw):
    """Level-set values of a union of one to three balls (possibly
    overlapping; off-axis centres revolve into solid tori)."""
    balls = [
        (draw(st.floats(0.0, 1.2)), draw(st.floats(-1.2, 1.2)), draw(st.floats(0.3, 0.9)))
        for _ in range(draw(st.integers(1, 3)))
    ]

    def union(rho, z):
        return np.min([np.hypot(rho - rc, z - zc) - r for rc, zc, r in balls], axis=0)

    return AxiGrid.sample(H, EXTENT, -EXTENT, EXTENT, union)


@settings(max_examples=60, deadline=None)
@given(
    ball_unions(),
    st.sampled_from([AmbientMetric(mass=0.0), AmbientMetric(mass=1.0)]),
    # scales below 0.05 take threshold mass zero, where nothing freezes
    st.floats(-0.2, 1.5).map(lambda s: s if s >= 0.05 else 0.0),
)
def test_a_run_equals_the_run_that_sweeps_at_every_cadence_step(grid, metric, scale):
    # the threshold area is a multiple of the largest component's, so that
    # none, some or all of the components freeze, at the start or mid-run
    largest = max(c.perimeter for c in measure_components(metric, grid))
    config = FlowRunConfig(
        metric=metric,
        grid=grid,
        t_max=0.12,
        sample_interval=0.04,
        threshold_mass=math.sqrt(scale * largest / (36.0 * math.pi)),
        sweep_cadence=2,
        reinit_cadence=10,
    )
    (got, _), (ref, _) = counted_runs(lambda: run_modified_flow(config))
    assert_same_trace(got, ref)


def test_an_off_axis_torus_pinching_off_between_samples_is_swept_at_once():
    # an on-axis ball (area 28) joined by a sheet thinner than a cell to an
    # off-axis solid torus (area 23): the sheet breaks within a few steps,
    # the axis keeps one run throughout, and only the component count shows
    # the split; the torus is below the threshold area 25 and freezes at the
    # first sweep after it, long before the next sample
    def ball_neck_torus(rho, z):
        ball = np.hypot(rho, z) - 1.5
        torus = np.hypot(rho - 2.3, z) - 0.25
        neck = np.maximum(np.abs(z) - 0.04, np.abs(rho - 1.9) - 0.4)
        return np.minimum(np.minimum(ball, torus), neck)

    config = FlowRunConfig(
        metric=AmbientMetric.euclidean(),
        grid=AxiGrid.sample(0.05, 2.8, -1.8, 1.8, ball_neck_torus),
        t_max=0.05,
        sample_interval=0.025,
        threshold_mass=math.sqrt(25.0 / (36.0 * math.pi)),
        sweep_cadence=3,
    )
    runs = []
    count_runs = flow_levelset_mod._axis_run_count

    def recording(u):
        runs.append(count_runs(u))
        return runs[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(flow_levelset_mod, "_axis_run_count", recording)
        (got, calls), (ref, ref_calls) = counted_runs(lambda: run_modified_flow(config))
    assert_same_trace(got, ref)
    assert set(runs) == {1}
    assert calls < ref_calls
    first, second = got.samples[:2]
    assert first.n_components == 1
    ball, torus = second.components
    assert not ball.frozen and torus.frozen
    assert 0.0 < torus.freeze_time < 0.2 * config.sample_interval


def test_the_pinned_m1_sphere_run_skips_cadence_sweeps():
    # the bit pins of tests/test_levelset_pins.py run through skipped sweeps
    (got, calls), (ref, ref_calls) = counted_runs(lambda: pinned_record(RUNS["sphere-m1"]))
    assert got == ref
    assert calls < ref_calls


def test_a_rebuild_since_the_last_sweep_makes_the_check_sweep():
    # a live m = 1 sphere well above 36 pi m^2, swept at t = 0.5 and checked
    # 0.01 later on the same field: only a rebuild since that sweep (at its
    # t or later) makes the check sweep, and only with threshold mass > 0
    metric = AmbientMetric(mass=1.0)
    grid = AxiGrid.sample(H, 4.0, -4.0, 4.0, lambda rho, z: np.hypot(rho, z) - 3.0)
    state = freeze_sweep(replace(initial_state(metric, grid), t=0.5), metric, metric.mass)
    (sphere,) = state.components
    assert not sphere.frozen and sphere.perimeter > 1.5 * convexity_threshold(1.0)
    can_change, t = flow_levelset_mod._sweep_can_change, state.t + 0.01
    assert can_change(state, grid, 1.0, t, state.t)
    assert not can_change(state, grid, 1.0, t, math.nextafter(state.t, -math.inf))
    assert not can_change(state, grid, 1.0, t, -math.inf)
    assert not can_change(state, grid, 0.0, t, state.t)
