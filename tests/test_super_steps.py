"""RKL2 super-steps of the banded step: stability at the full bound,
agreement with the explicit steps they replace, and when the run loop
takes them."""

import math

import numpy as np
import pytest

import isoflow.flow_levelset as flow_levelset_mod
from isoflow.flow_levelset import (
    MAX_STAGES,
    FlowRunConfig,
    _BandedStepper,
    _stretch,
    _plan,
    cfl_time_step,
    reinitialize,
    run_modified_flow,
)
from isoflow.measure import AxiGrid
from isoflow.metric import AmbientMetric
from measure_oracles import band_cutoff

STAGES = range(2, MAX_STAGES + 1)
SCHW = AmbientMetric(mass=1.0)


def circle_grid(h=0.05, r0=2.0):
    return AxiGrid.sample(h, r0 + 0.6, -r0 - 0.6, r0 + 0.6, lambda rho, z: np.hypot(rho, z) - r0)


def checkerboard_gaps(metric, stages, g, steps, refresh_every=None):
    """Step a rebuilt distance field on ``g`` and a copy perturbed by a
    checkerboard of 1e-3 cells on its band, ``steps`` times at
    _stretch(stages) times the band's bound, refreshing both bands every
    ``refresh_every`` steps if given: the largest gap between the two
    after each step over the first perturbation, and the last gap over
    the nodes the first refresh put at full weight (cutoff 1).  Where the
    weight is 0 the perturbation stays put by design.  Both steppers take
    their bands, and so their cutoff weights, from the clean field, so
    the two runs step by one operator; weights taken from the perturbed
    field would carry the checkerboard into its own operator."""
    frozen = np.zeros(g.values.shape, dtype=bool)
    clean = reinitialize(g.values, g.h, frozen)
    perturbed = clean.copy()
    clean_stepper, stepper = (_BandedStepper(metric, g, clean, frozen) for _ in range(2))
    eps, band = 1e-3 * g.h, stepper.stencil[0]
    full = band[band_cutoff(clean.reshape(-1)[band], g.h, _BandedStepper.WIDTH) == 1.0]
    i, j = np.indices(g.values.shape)
    perturbed.reshape(-1)[band] += eps * np.where((i + j) % 2, 1.0, -1.0).reshape(-1)[band]
    dt = _stretch(stages) * cfl_time_step(metric, g) * stepper.bound_scale
    gaps = []
    for k in range(steps):
        if refresh_every and k and k % refresh_every == 0:
            clean_stepper.refresh(clean, frozen)
            stepper.refresh(clean, frozen)
        clean_stepper.step(clean, dt, stages)
        stepper.step(perturbed, dt, stages)
        gaps.append(np.abs(perturbed - clean).max() / eps)
    return gaps, np.abs(perturbed - clean).reshape(-1)[full].max() / eps


@pytest.mark.parametrize("metric", [AmbientMetric.euclidean(), SCHW], ids=["m0", "m1"])
@pytest.mark.parametrize("stages", STAGES)
def test_a_checkerboard_does_not_grow_over_super_steps_at_the_full_bound(metric, stages):
    # the stiffest mode of the step, on a rebuilt distance field, stepped
    # at _stretch(stages) times the band's bound, its band refreshed every
    # 8 steps: the gap between a perturbed and a clean run never grows
    # past its start, and decays at full weight
    gaps, full = checkerboard_gaps(metric, stages, circle_grid(), 20, refresh_every=8)
    # the max norm may swell a little at one node before it falls
    assert max(gaps) <= 1.1
    assert full < 0.1


@pytest.mark.parametrize("metric", [AmbientMetric.euclidean(), SCHW], ids=["m0", "m1"])
@pytest.mark.parametrize("stages", range(1, MAX_STAGES + 1))
def test_a_checkerboard_does_not_grow_on_a_band_that_is_never_refreshed(metric, stages):
    # Where band nodes move and their neighbours outside stay put, |grad u|
    # passes through 0, and without the cutoff a checkerboard grows there
    # from 10 stages at m = 0 (measured 25.9 times by super-step 40).  A
    # sphere of radius 80 cells keeps the zero set at full weight through
    # 40 super-steps
    gaps, full = checkerboard_gaps(metric, stages, circle_grid(r0=4.0), 40)
    assert max(gaps) <= 1.1
    assert full < 0.1


@pytest.mark.parametrize("metric", [AmbientMetric.euclidean(), SCHW], ids=["m0", "m1"])
@pytest.mark.parametrize("stages", STAGES)
def test_a_super_step_matches_the_explicit_steps_over_its_dt(metric, stages):
    # one super-step of n explicit bounds (n the whole part of
    # _stretch(stages)) against n explicit steps, on a smooth field: near
    # the zero set the two agree to 1e-3 of the motion (measured: below
    # 2e-4)
    g = circle_grid()
    assert super_step_gap(g, g.values, metric, stages) < 1e-3


@pytest.mark.parametrize("metric", [AmbientMetric.euclidean(), SCHW], ids=["m0", "m1"])
def test_a_super_step_on_a_rebuilt_field_matches_the_explicit_steps(metric):
    # a rebuild of a distorted field leaves second differences clean
    # enough for super-steps right after it: measured below 3.6e-3 of the
    # motion at every stage count (a relaxation's rebuild read 0.15-0.27)
    g = AxiGrid.sample(0.05, 2.6, -2.6, 2.6, lambda rho, z: (np.hypot(rho, z) - 2.0) * (1.5 + 0.4 * np.sin(3 * z + rho)))
    rebuilt = reinitialize(g.values, g.h, np.zeros(g.values.shape, dtype=bool))
    assert max(super_step_gap(g, rebuilt, metric, stages) for stages in STAGES) < 1e-2


def super_step_gap(g, u0, metric, stages):
    """The largest gap, near the zero set, between one super-step of
    ``stages`` over n explicit bounds from ``u0`` (on ``g``'s lattice) and
    those n explicit steps, over the largest motion; only band nodes may
    move."""
    frozen = np.zeros(g.values.shape, dtype=bool)
    bound, n = cfl_time_step(metric, g), math.floor(_stretch(stages))
    fields = u0.copy(), u0.copy()
    steppers = [_BandedStepper(metric, g, u, frozen) for u in fields]
    steppers[0].step(fields[0], n * bound, stages)
    for _ in range(n):
        steppers[1].step(fields[1], bound)
    band = steppers[0].stencil[0]
    motion = np.abs(fields[1] - u0).reshape(-1)[band]
    gap = np.abs(fields[0] - fields[1]).reshape(-1)[band]
    near = np.abs(u0.reshape(-1)[band]) < 2.0 * g.h
    assert np.isin(np.flatnonzero(fields[0] != u0), band).all()
    return gap[near].max() / motion.max()


def test_super_steps_run_on_through_a_rebuild():
    g = circle_grid(r0=1.0)
    events = []
    step, rebuild = _BandedStepper.step, flow_levelset_mod.reinitialize

    def spy_step(self, u, dt, stages=1):
        events.append(stages)
        return step(self, u, dt, stages)

    def spy_rebuild(*args):
        events.append("rebuild")
        return rebuild(*args)

    # a check period as long as the rebuild's, so that super-steps pay
    times = dict(t_max=0.1, sample_interval=0.05, sweep_cadence=30, reinit_cadence=30)
    config = FlowRunConfig(metric=AmbientMetric.euclidean(), grid=g, **times)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_BandedStepper, "step", spy_step)
        mp.setattr(flow_levelset_mod, "reinitialize", spy_rebuild)
        run_modified_flow(config)
    rebuilds = [k for k, e in enumerate(events) if e == "rebuild"]
    assert len(rebuilds) >= 3
    # at m = 0 a refresh keeps the bound, so a rebuild leaves the step as it was
    for k in rebuilds:
        assert events[k + 1] == events[k - 1] > 1
    assert events[0] > 1


@pytest.mark.parametrize("n", range(1, 6))
def test_an_interval_of_five_explicit_steps_or_fewer_takes_none(n):
    # k super-steps of s stages take k s kernel calls, at least 5 for
    # the five steps _stretch(5) = 7 covers
    assert _plan(n * 1e-3, 1e-3, math.inf, 1e-3) == (1, 1e-3)


def test_super_steps_cover_the_interval_within_their_bound():
    for span, limit, n in ((6e-3, 1e-3, 6), (0.05, 7.7e-4, 65), (0.1, 2.08e-3, 49)):
        stages, dt = _plan(span, limit, math.inf, span / n)
        k = round(span / dt)
        assert k * stages < n and dt <= _stretch(stages) * limit
        assert k * dt == pytest.approx(span, rel=1e-12)
        # the fewest super-steps, then the fewest stages
        assert (k - 1) * _stretch(MAX_STAGES) * limit < span
        assert stages == 2 or _stretch(stages - 1) * limit < dt


@pytest.mark.parametrize("span", [1.4e15, 1e300])
def test_the_stage_search_ends_on_any_span(span):
    # a huge span needs as many super-steps, never more stages than MAX_STAGES
    stages, dt = _plan(span, 2e-3, math.inf, math.inf)
    assert 1 <= stages <= MAX_STAGES and dt <= _stretch(stages) * 2e-3


def test_super_steps_keep_within_the_cap():
    # a cap of one cadence period, below the MAX_STAGES bound, sets the
    # step count; the stages are still the fewest that cover the step
    span, limit, cap = 0.05, 9e-4, 3.85e-3
    stages, dt = _plan(span, limit, cap, math.inf)
    assert dt <= cap and round(span / dt) == math.ceil(span / cap)
    assert _stretch(stages - 1) * limit < dt <= _stretch(stages) * limit


def test_a_kept_dt_counts_its_own_steps():
    # the dumbbell-m0 pin's samples: the grid's dt 0.002 covers the span
    # in 5 steps to round-off, while span / limit reads 5 + 3.6e-15, so
    # a snapped dt takes 6 steps and a 5-stage super-step would beat them
    span, limit, cap = 0.010000000000000009, 0.0020000000000000005, 0.02
    assert _plan(span, limit, cap, 0.002) == (1, 0.002)
    assert _plan(span, limit, cap, math.inf) == (5, span)


def test_a_kept_dt_past_the_bound_or_the_cap_is_snapped():
    assert _plan(4e-3, 1e-3, math.inf, 1.5e-3) == (1, 4e-3 / 4)
    assert _plan(4e-3, 2e-3, 1e-3, 1.5e-3) == (1, 4e-3 / 4)
