"""The band refresh: it reads only the field and the frozen nodes it is
given, so a refreshed stepper holds the tables a stepper built on that
field would, and a run refreshes only where its band can change."""

import numpy as np
import pytest

import isoflow.flow_levelset as flow_levelset_mod
from isoflow.flow_levelset import _BandedStepper
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
