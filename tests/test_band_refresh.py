"""The band refresh: it reads only the field and the frozen nodes it is
given, so a refreshed stepper holds the tables a stepper built on that
field would, and a run takes its band only before a step that follows
its start, a rebuild or a freeze."""

import numpy as np
import pytest

import isoflow.flow_levelset as flow_levelset_mod
from isoflow.flow_levelset import FlowRunConfig, _BandedStepper, run_modified_flow
from isoflow.measure import AxiGrid
from isoflow.metric import AmbientMetric
from test_levelset_pins import RUNS, pinned_record

SCHW = AmbientMetric(mass=1.0)


def sphere_freeze_grid(r0=4.0):
    # the perfbench sphere-freeze grid: a band of 2,933 nodes at r0 = 4
    return AxiGrid.sample(0.088, 4.4, -4.4, 4.4, lambda rho, z: np.hypot(rho, z) - r0)


def test_a_refresh_depends_only_on_the_field_and_the_frozen_nodes():
    # two fields with one band, but other |u| between the cutoff's start
    # (6 cells) and the band's edge (12 cells): a stepper built on the
    # first and refreshed on the second weights its band by the second
    g = sphere_freeze_grid()
    h, u1 = g.h, g.values.copy()
    frozen = np.zeros(u1.shape, dtype=bool)
    slope = (np.abs(u1) > 6.0 * h) & (np.abs(u1) < _BandedStepper.WIDTH * h)
    u2 = np.where(slope, 0.99 * u1, u1)
    stepper = _BandedStepper(SCHW, g, u1, frozen)
    first = stepper.coef.copy()
    stepper.refresh(u2, frozen)
    fresh = _BandedStepper(SCHW, g, u2, frozen)
    assert np.array_equal(stepper.stencil, fresh.stencil)
    assert not np.array_equal(first, fresh.coef)
    assert np.array_equal(stepper.coef, fresh.coef)
    assert stepper.bound_scale == fresh.bound_scale


def test_a_changed_band_gathers_a_fresh_steppers_tables():
    g = sphere_freeze_grid()
    frozen = np.zeros(g.values.shape, dtype=bool)
    stepper = _BandedStepper(SCHW, g, g.values.copy(), frozen)
    size = stepper.stencil.shape[1]
    # the same sphere a whole cell higher: other nodes, as many of them
    shifted = np.ascontiguousarray(np.roll(g.values, 1, axis=1))
    half = frozen.copy()
    half[:, : g.n_z // 2] = True
    for u, mask in ((shifted, frozen), (shifted, half)):
        stepper.refresh(u, mask)
        fresh = _BandedStepper(SCHW, g, u, mask)
        assert np.array_equal(stepper.stencil, fresh.stencil)
        assert np.array_equal(stepper.coef, fresh.coef)
        assert stepper.stencil.flags.c_contiguous and stepper.coef.flags.c_contiguous
        assert stepper.near.shape == stepper.work.shape == fresh.near.shape
        # the shifted band has as many nodes; half of it frozen, fewer
        assert (stepper.stencil.shape[1] < size) == (mask is half)


def test_a_refresh_keeps_a_nan_in_the_band():
    # the band is the nodes with |u| < WIDTH cells, and a NaN: a value a
    # step spoiled stays where the run loop's finite check reads
    g = sphere_freeze_grid()
    u = g.values.copy()
    frozen = np.zeros(u.shape, dtype=bool)
    width = _BandedStepper.WIDTH * g.h
    far = np.flatnonzero(np.abs(u) >= width)[0]
    u.reshape(-1)[far] = np.nan
    stepper = _BandedStepper(SCHW, g, u, frozen)
    inside = np.flatnonzero(np.abs(g.values) < width)
    assert np.array_equal(stepper.stencil[0], np.union1d(inside, [far]))


def two_ball_config() -> FlowRunConfig:
    """An m = 0 union of two balls whose small one freezes at t = 0.03, in
    a pass that also rebuilds: threshold mass 1/6, both cadences 5."""

    def two_balls(rho, z):
        return np.minimum(np.hypot(rho, z - 1.4) - 1.2, np.hypot(rho, z + 1.6) - 0.6)

    return FlowRunConfig(
        metric=AmbientMetric.euclidean(),
        grid=AxiGrid.sample(0.1, 2.5, -3.0, 3.5, two_balls),
        t_max=0.1,
        sample_interval=0.05,
        threshold_mass=0.5 / 3,
        sweep_cadence=5,
        reinit_cadence=5,
    )


def event_log(run):
    """The events of ``run()``, in order: "refresh" (a stepper's build
    included), "rebuild", "step", and "freeze" or "sweep" for a sweep that
    did or did not freeze a component."""
    log = []
    refresh, step = _BandedStepper.refresh, _BandedStepper.step
    rebuild, sweep = flow_levelset_mod.reinitialize, flow_levelset_mod.freeze_sweep

    def spy_refresh(self, u, frozen_mask):
        log.append("refresh")
        refresh(self, u, frozen_mask)

    def spy_step(self, *args):
        log.append("step")
        return step(self, *args)

    def spy_rebuild(*args):
        log.append("rebuild")
        return rebuild(*args)

    def spy_sweep(state, *args):
        swept = sweep(state, *args)
        log.append("freeze" if swept.frozen_count != state.frozen_count else "sweep")
        return swept

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_BandedStepper, "refresh", spy_refresh)
        mp.setattr(_BandedStepper, "step", spy_step)
        mp.setattr(flow_levelset_mod, "reinitialize", spy_rebuild)
        mp.setattr(flow_levelset_mod, "freeze_sweep", spy_sweep)
        run()
    return log


def between_steps(log):
    """The log cut at its steps: the events before the first step, between
    each two steps and after the last."""
    passes = [[]]
    for event in log:
        if event == "step":
            passes.append([])
        else:
            passes[-1].append(event)
    return passes


def assert_taken_before_steps_that_need_it(log):
    first, *later, last = between_steps(log)
    # the band is taken once before the first step, right before it
    assert first.count("refresh") == 1 and first[-1] == "refresh"
    # and once before each later step that follows a rebuild or a freezing
    # sweep, right before it, and before no other
    for events in later:
        taken = "rebuild" in events or "freeze" in events
        assert events.count("refresh") == int(taken)
        assert not taken or events[-1] == "refresh"
    # no take follows the run's last sweep
    assert "refresh" not in last


# the m = 1 sphere through its freeze, and the m = 0 dumbbell at threshold
# mass 1 through its pinch and the sweep that freezes both halves
@pytest.mark.parametrize("name", ["sphere-m1", "dumbbell-m0"])
def test_a_run_refreshes_the_band_only_at_its_start_a_rebuild_or_a_freeze(name):
    log = event_log(lambda: pinned_record(RUNS[name]))
    assert_taken_before_steps_that_need_it(log)
    # both runs rebuild, and end at the sweep that freezes their last component
    assert "rebuild" in log and "freeze" in between_steps(log)[-1]


def test_a_freeze_and_a_rebuild_in_one_pass_take_the_band_once():
    log = event_log(lambda: run_modified_flow(two_ball_config()))
    assert_taken_before_steps_that_need_it(log)
    start = log.index("freeze")
    assert log[start : log.index("step", start)] == ["freeze", "rebuild", "refresh"]
    assert log.count("refresh") == 10
