"""The band refresh: an unchanged band keeps its tables, a changed one
gathers the tables a fresh stepper would, and a run refreshes only where
its band can change."""

import tracemalloc

import numpy as np
import pytest

import isoflow.flow_levelset as flow_levelset_mod
from isoflow.flow_levelset import _BandedStepper, cfl_time_step
from isoflow.measure import AxiGrid
from isoflow.metric import AmbientMetric
from test_levelset_pins import RUNS, pinned_record

SCHW = AmbientMetric(mass=1.0)


def sphere_freeze_grid(r0=4.0):
    # the perfbench sphere-freeze grid: a band of 2,933 nodes at r0 = 4
    return AxiGrid.sample(0.088, 4.4, -4.4, 4.4, lambda rho, z: np.hypot(rho, z) - r0)


# a sphere whose band keeps its nodes through the first dozen steps
STILL_BAND_R0 = 3.5


def tables(stepper):
    return stepper.stencil, stepper.coef, stepper.near, stepper.work, stepper.rows


def test_an_unchanged_band_keeps_its_tables_and_buffers():
    g = sphere_freeze_grid(STILL_BAND_R0)
    u = g.values.copy()
    frozen = np.zeros(u.shape, dtype=bool)
    stepper = _BandedStepper(SCHW, g)
    stepper.refresh(u, frozen)
    before = tables(stepper)
    stepper.step(u, cfl_time_step(SCHW, g))
    stepper.refresh(u, frozen)
    assert all(a is b for a, b in zip(tables(stepper), before))


def test_a_changed_band_gathers_a_fresh_steppers_tables():
    g = sphere_freeze_grid()
    frozen = np.zeros(g.values.shape, dtype=bool)
    stepper = _BandedStepper(SCHW, g)
    stepper.refresh(g.values.copy(), frozen)
    near, work = stepper.near, stepper.work
    # the same sphere a whole cell higher: other nodes, as many of them
    shifted = np.ascontiguousarray(np.roll(g.values, 1, axis=1))
    half = frozen.copy()
    half[:, : g.n_z // 2] = True
    for u, mask in ((shifted, frozen), (shifted, half)):
        stepper.refresh(u, mask)
        fresh = _BandedStepper(SCHW, g)
        fresh.refresh(u, mask)
        assert np.array_equal(stepper.stencil, fresh.stencil)
        assert np.array_equal(stepper.coef, fresh.coef)
        assert stepper.stencil.flags.c_contiguous and stepper.coef.flags.c_contiguous
        assert stepper.near.shape == stepper.work.shape == fresh.near.shape
        if u is shifted and mask is frozen:
            # same size: the step buffers stay
            assert stepper.near is near and stepper.work is work
        else:
            assert stepper.near.shape[1] < near.shape[1]


def test_steps_across_an_unchanged_band_refresh_allocate_no_band_sized_array():
    g = sphere_freeze_grid(STILL_BAND_R0)
    u = g.values.copy()
    frozen = np.zeros(u.shape, dtype=bool)
    dt = cfl_time_step(SCHW, g)
    stepper = _BandedStepper(SCHW, g)
    stepper.refresh(u, frozen)
    before = tables(stepper)
    tracemalloc.start()
    try:
        for k in range(12):
            if k == 8:  # one refresh among them
                stepper.refresh(u, frozen)
            stepper.step(u, dt)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert all(a is b for a, b in zip(tables(stepper), before))
    assert peak < stepper.stencil.shape[1] * np.dtype(float).itemsize
    assert not np.array_equal(u, g.values)


def test_a_refresh_keeps_a_nan_in_the_band():
    # the band is the nodes with |u| < WIDTH cells, and a NaN: a value a
    # step spoiled stays where the run loop's finite check reads
    g = sphere_freeze_grid()
    u = g.values.copy()
    frozen = np.zeros(u.shape, dtype=bool)
    width = _BandedStepper.WIDTH * g.h
    far = np.flatnonzero(np.abs(u) >= width)[0]
    u.reshape(-1)[far] = np.nan
    stepper = _BandedStepper(SCHW, g)
    stepper.refresh(u, frozen)
    inside = np.flatnonzero(np.abs(g.values) < width)
    assert np.array_equal(stepper.stencil[0], np.union1d(inside, [far]))


def refresh_log(run):
    """The events of the planned run ``run`` (a ``RUNS`` entry), in order:
    "refresh", "rebuild", and "freeze" or "sweep" for a sweep that did or
    did not freeze a component."""
    log = []
    refresh, rebuild, sweep = _BandedStepper.refresh, flow_levelset_mod.reinitialize, flow_levelset_mod.freeze_sweep

    def spy_refresh(self, u, frozen_mask):
        log.append("refresh")
        refresh(self, u, frozen_mask)

    def spy_rebuild(*args):
        log.append("rebuild")
        return rebuild(*args)

    def spy_sweep(state, *args):
        swept = sweep(state, *args)
        log.append("freeze" if swept.frozen_count != state.frozen_count else "sweep")
        return swept

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_BandedStepper, "refresh", spy_refresh)
        mp.setattr(flow_levelset_mod, "reinitialize", spy_rebuild)
        mp.setattr(flow_levelset_mod, "freeze_sweep", spy_sweep)
        pinned_record(run)
    return log


# the m = 1 sphere through its freeze, and the m = 0 dumbbell at threshold
# mass 1 through its pinch and the sweep that freezes both halves
@pytest.mark.parametrize("name", ["sphere-m1", "dumbbell-m0"])
def test_a_run_refreshes_the_band_only_at_its_start_a_rebuild_or_a_freeze(name):
    log = refresh_log(RUNS[name])
    # the start: one refresh after the first sweep, before the first step
    assert log[:2] == ["sweep", "refresh"]
    # then one refresh right after each rebuild and each freezing sweep,
    # and no other
    after = [log[k - 1] for k, event in enumerate(log) if event == "refresh"][1:]
    assert after == [event for event in log[2:] if event in ("rebuild", "freeze")]
    assert "rebuild" in after and "freeze" in after
