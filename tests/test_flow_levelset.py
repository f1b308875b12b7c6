"""Level-set flow: tracking oracles, freezing semantics, reinit."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

import isoflow.flow_levelset as flow_levelset_mod
from isoflow.config import ConfigError, TimeSpec
from isoflow.flow_levelset import (
    CFL_SAFETY,
    MAX_STAGES,
    FlowRunConfig,
    _BandedStepper,
    _stretch,
    cfl_time_step,
    freeze_sweep,
    initial_state,
    reinitialize,
    run_modified_flow,
)
from isoflow.flow_ode import run_symmetric_flow
from isoflow.measure import AxiGrid, _curvature_stencil, _normal_geometry
from isoflow.metric import AmbientMetric, enclosed_volume, sphere_area
from isoflow.profile import radius_from_area
from measure_oracles import band_cutoff, interface_contour

EUCLID = AmbientMetric.euclidean()
SCHW = AmbientMetric(mass=1.0)


def sphere_grid(R, h, pad=0.2, center=0.0):
    ext = R + pad
    return AxiGrid.sample(
        h, ext, center - ext, center + ext, lambda rho, z: np.hypot(rho, z - center) - R
    )


@pytest.fixture(scope="module")
def euclid_sphere_run():
    R0, h = 0.5, 0.01
    g = sphere_grid(R0, h)
    t_max = (R0**2 - (10 * h) ** 2) / 4.0
    # the inside mask of the field at every sample
    masks = []
    sample = flow_levelset_mod._sample

    def recording_sample(state, m_profile):
        sample(state, m_profile)
        masks.append(state.grid.values < 0.0)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(flow_levelset_mod, "_sample", recording_sample)
        trace = run_modified_flow(
            FlowRunConfig(metric=EUCLID, grid=g, t_max=t_max, sample_interval=0.0025)
        )
    return R0, h, trace, masks


@pytest.fixture(scope="module")
def schwarzschild_sphere_run():
    r0, h = 2.5, 0.05
    g = sphere_grid(r0, h, pad=0.6)
    trace = run_modified_flow(
        FlowRunConfig(metric=SCHW, grid=g, t_max=0.2, sample_interval=0.05)
    )
    return r0, h, trace


@pytest.fixture(scope="module")
def dumbbell_run():
    # flat metric, artificial threshold: the freezing machinery without
    # conformal weights; halves drop below threshold only after pinch
    def dumbbell(rho, z):
        b1 = np.hypot(rho, z - 1.5) - 1.2
        b2 = np.hypot(rho, z + 1.5) - 1.2
        neck = np.maximum(rho - 0.35, np.abs(z) - 1.5)
        return np.minimum(np.minimum(b1, b2), neck)

    h = 0.05
    g = AxiGrid.sample(h, 1.9, -3.1, 3.1, dumbbell)
    threshold_mass = math.sqrt(16.0 / (36.0 * math.pi))  # freeze below area 16
    trace = run_modified_flow(
        FlowRunConfig(
            metric=EUCLID,
            grid=g,
            t_max=0.4,
            sample_interval=0.005,
            threshold_mass=threshold_mass,
        )
    )
    return h, threshold_mass, trace


def test_cfl_bound_flat():
    g = sphere_grid(0.5, 0.02)
    assert cfl_time_step(EUCLID, g) == pytest.approx(0.2 * 0.02**2, rel=1e-12)


def test_step_rejects_unstable_dt():
    g = sphere_grid(0.5, 0.02)
    dt = 10 * cfl_time_step(EUCLID, g)
    with pytest.raises(ConfigError, match="stability bound"):
        run_modified_flow(FlowRunConfig(metric=EUCLID, grid=g, t_max=0.1, sample_interval=0.05, dt=dt))


def test_a_stability_bound_that_underflows_is_a_config_error():
    # h = 1e-170 squares to 0.0: no step count covers the sample interval
    g = sphere_grid(5e-169, 1e-170, pad=5e-169)
    assert cfl_time_step(EUCLID, g) == 0.0
    with pytest.raises(ConfigError, match="sample_interval: too long for steps of the stability bound 0.0"):
        FlowRunConfig(metric=EUCLID, grid=g, t_max=0.1, sample_interval=0.05)


@settings(max_examples=40, deadline=None)
@given(
    dt_scale=st.none() | st.floats(0.5, 1.5),
    sample_interval=st.floats(0.005, 1e306) | st.sampled_from([1e300, 1e306]),
)
def test_a_config_that_builds_runs_without_a_config_error(dt_scale, sample_interval):
    # every check on dt and the sample interval is made when the config is built
    g = sphere_grid(0.5, 0.1)
    dt = None if dt_scale is None else dt_scale * cfl_time_step(EUCLID, g)
    try:
        config = FlowRunConfig(metric=EUCLID, grid=g, t_max=0.01, sample_interval=sample_interval, dt=dt)
    except ConfigError:
        return
    run_modified_flow(config)


@pytest.mark.parametrize(
    "name, value",
    [("sweep_cadence", 0), ("sample_interval", 0.0), ("sample_interval", -0.01), ("t_max", math.nan), ("reinit_cadence", -1)],
)
def test_run_rejects_time_settings_the_parser_rejects(name, value):
    # the library entry point keeps a config file's time rules
    times = {"t_max": 0.01, "sample_interval": 0.005, name: value}
    with pytest.raises(ConfigError, match=name):
        run_modified_flow(FlowRunConfig(metric=EUCLID, grid=sphere_grid(0.5, 0.02), **times))


@pytest.mark.parametrize("config", [TimeSpec, FlowRunConfig])
@pytest.mark.parametrize(
    "name, value",
    [("sweep_cadence", 0), ("sample_interval", 0.0), ("sample_interval", -0.01), ("t_max", math.nan), ("reinit_cadence", -1)],
)
def test_time_settings_are_checked_when_built(config, name, value):
    times = {"t_max": 0.01, "sample_interval": 0.005, name: value}
    extra = {"metric": EUCLID, "grid": None} if config is FlowRunConfig else {}
    with pytest.raises(ConfigError, match=f"^{name}: "):
        config(**times, **extra)


@pytest.mark.parametrize("value", [-1.0, math.nan])
def test_run_rejects_a_threshold_mass_the_parser_rejects(value):
    with pytest.raises(ConfigError, match="threshold_mass"):
        run_modified_flow(
            FlowRunConfig(metric=EUCLID, grid=sphere_grid(0.5, 0.02), t_max=0.01, sample_interval=0.005, threshold_mass=value)
        )


def test_a_tiny_threshold_mass_runs():
    # the profile at m = 1e-155 reads (m/2)**-3, which overflows a float
    trace = run_modified_flow(
        FlowRunConfig(metric=EUCLID, grid=sphere_grid(0.5, 0.05), t_max=0.01, sample_interval=0.005, threshold_mass=1e-155)
    )
    assert trace.samples and all(math.isfinite(s.profile_gap) for s in trace.samples)


def spied_run(config, steps=None):
    """Run ``config``; return the trace, each step's (dt, min w^4 over the
    nodes it moved, stages), appended to ``steps`` as the run goes, and
    the run's rebuild and cadence-check counts."""
    steps, counts = [] if steps is None else steps, {"reinitialize": 0, "_sweep_can_change": 0}
    step = _BandedStepper.step
    g, mass = config.grid, config.metric.mass

    def spy_step(self, u, dt, stages=1):
        moved = step(self, u, dt, stages)
        i, j = np.divmod(self.stencil[0], g.n_z)
        r = np.hypot(i * g.h, g.z_min + j * g.h)
        steps.append((dt, float(np.min((1.0 + mass / (2.0 * r)) ** 4)), stages))
        return moved

    def counted(name):
        real = getattr(flow_levelset_mod, name)

        def spy(*args):
            counts[name] += 1
            return real(*args)

        return spy

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_BandedStepper, "step", spy_step)
        for name in counts:
            mp.setattr(flow_levelset_mod, name, counted(name))
        trace = run_modified_flow(config)
    return trace, steps, counts


def snapped_grid_dt(metric, grid, sample_interval):
    return sample_interval / math.ceil(sample_interval / cfl_time_step(metric, grid))


def test_m1_steps_at_the_band_bound_on_the_grid_bound_schedule():
    g = sphere_grid(2.5, 0.05, pad=0.6)
    # 65 grid-bound steps per sample.  A check due at a sample step is
    # left to the sample's sweep; with a cadence that divides 65 that
    # happens at the same times in both runs below.
    times = dict(t_max=0.2, sample_interval=0.05, sweep_cadence=5, reinit_cadence=30)
    trace, steps, counts = spied_run(FlowRunConfig(metric=SCHW, grid=g, **times))
    # the band's CFL bound holds at every step, explicit or super (to
    # round-off in its scaling)
    assert all(dt <= _stretch(s) * CFL_SAFETY * g.h**2 * w4 * (1.0 + 1e-12) for dt, w4, s in steps)
    grid_dt = snapped_grid_dt(SCHW, g, times["sample_interval"])
    assert max(dt for dt, _, s in steps if s == 1) > 1.1 * grid_dt
    assert {s for _, _, s in steps} > {1}
    assert [s.t for s in trace.samples] == pytest.approx([0.0, 0.05, 0.1, 0.15, 0.2], rel=0.0, abs=1e-12)
    # a run at an explicit dt, the grid bound, takes it at every step,
    # never a super-step, and reaches the same t with as many rebuilds
    # and cadence checks
    fixed, fixed_steps, fixed_counts = spied_run(FlowRunConfig(metric=SCHW, grid=g, dt=grid_dt, **times))
    assert fixed.samples[-1].t == pytest.approx(trace.samples[-1].t, rel=0.0, abs=1e-12)
    assert counts == fixed_counts and counts["reinitialize"] > 0 and counts["_sweep_can_change"] > 0
    assert len(steps) < len(fixed_steps)
    assert all(dt == grid_dt and s == 1 for dt, _, s in fixed_steps)


@pytest.mark.parametrize(
    "interval, explicit_first, reinit_cadence",
    # super-steps over 0.05; five explicit steps of 8e-4 over 0.004, too
    # few for a super-step, with a rebuild every three grid-bound steps
    [(0.05, False, 100), (0.004, True, 3)],
    ids=["super-steps", "explicit"],
)
def test_a_band_bound_falling_mid_interval_takes_dt_down_at_once(monkeypatch, interval, explicit_first, reinit_cadence):
    # from the second refresh, a rebuild's (mid-way through a sample
    # interval), the band's bound reads as the grid's
    g = sphere_grid(2.5, 0.05, pad=0.6)
    refresh, steps, fell_at = _BandedStepper.refresh, [], []

    def refresh_then_fall(self, u, frozen_mask):
        refresh(self, u, frozen_mask)
        fell_at.append(len(steps))
        if len(fell_at) >= 2:
            self.bound_scale = 1.0

    monkeypatch.setattr(_BandedStepper, "refresh", refresh_then_fall)
    times = dict(t_max=2 * interval, sample_interval=interval, reinit_cadence=reinit_cadence)
    trace, _, _ = spied_run(FlowRunConfig(metric=SCHW, grid=g, **times), steps)
    bound, fall = cfl_time_step(SCHW, g), fell_at[1]
    assert abs(math.remainder(sum(dt for dt, _, _ in steps[:fall]), interval)) > 1e-9 and fall < len(steps)
    assert all((s == 1) == explicit_first for _, _, s in steps[:fall])
    # before the fall every step exceeds the grid's bound for its stages;
    # from the fall every step keeps it
    assert all(dt > _stretch(s) * bound for dt, _, s in steps[:fall])
    assert all(dt <= _stretch(s) * bound for dt, _, s in steps[fall:])
    assert [s.t for s in trace.samples] == pytest.approx([0.0, interval, 2 * interval], rel=0.0, abs=1e-12)


def test_m0_steps_at_the_snapped_grid_bound():
    g = sphere_grid(0.5, 0.02)
    times = dict(t_max=0.01, sample_interval=0.0025)
    trace, steps, _ = spied_run(FlowRunConfig(metric=EUCLID, grid=g, **times))
    # at m = 0 the band's bound is the grid's: each step keeps it, an
    # explicit step exactly (w^4 = 1) and a super-step _stretch(s) times over
    bound = cfl_time_step(EUCLID, g)
    assert steps and all(dt <= _stretch(s) * bound for dt, _, s in steps)
    assert any(s > 1 for _, _, s in steps)
    assert [s.t for s in trace.samples] == pytest.approx([0.0, 0.0025, 0.005, 0.0075, 0.01], rel=0.0, abs=1e-12)
    # a configured dt, the snapped grid bound, pins every step: explicit, at that dt
    grid_dt = snapped_grid_dt(EUCLID, g, 0.0025)
    _, fixed_steps, _ = spied_run(FlowRunConfig(metric=EUCLID, grid=g, dt=grid_dt, **times))
    assert fixed_steps and all(dt == grid_dt and s == 1 for dt, _, s in fixed_steps)


def test_fully_frozen_state_never_changes():
    g = sphere_grid(0.5, 0.02)
    frozen = np.ones(g.values.shape, dtype=bool)
    u = g.values.copy()
    stepper = _BandedStepper(EUCLID, g, u, frozen)
    # an empty band steps as two empty arrays, explicit or super
    for stages in (1, MAX_STAGES):
        before, after = stepper.step(u, _stretch(stages) * cfl_time_step(EUCLID, g), stages)
        assert before.size == after.size == 0
    assert np.array_equal(u, g.values)
    assert np.array_equal(reinitialize(u, g.h, frozen), g.values)


def band_mask(stepper, shape):
    mask = np.zeros(shape, dtype=bool)
    mask.ravel()[stepper.stencil[0]] = True
    return mask


def reference_step(metric, grid, dt):
    """One explicit step on every node in the measurement stencil's form:
    u + dt ((H + 4 n) / w^2) |grad u| / w^2."""
    h = grid.h
    up = np.pad(grid.values, ((1, 1), (1, 1)), mode="edge")
    up[0, :] = up[2, :]  # mirror ghost at rho = -h
    rho = grid.rho[:, None]
    geometry, w = _normal_geometry(metric, rho, grid.z[None, :], h)
    h_flat, grad, normal = _curvature_stencil(
        up[1:-1, 1:-1], up[2:, 1:-1], up[:-2, 1:-1], up[1:-1, 2:], up[1:-1, :-2],
        up[2:, 2:], up[2:, :-2], up[:-2, 2:], up[:-2, :-2],
        h, rho, rho > 0, geometry,
    )
    speed = h_flat * grad
    if metric.mass != 0.0:
        speed = (h_flat + 4.0 * normal) / w**2 * grad / w**2
    return grid.values + dt * speed


@pytest.mark.parametrize("metric", [EUCLID, SCHW])
def test_banded_step_matches_the_measurement_stencil(metric):
    # the cancelled speed kernel reorders the arithmetic; it may differ
    # from the stencil's form by round-off only, at full weight, and
    # moves an edge node by its cutoff weight times the stencil's motion
    g = sphere_grid(2.5, 0.05, pad=0.6)
    dt = cfl_time_step(metric, g)
    u = g.values.copy()
    stepper = _BandedStepper(metric, g, u, np.zeros(u.shape, dtype=bool))
    stepper.step(u, dt)
    band = band_mask(stepper, u.shape)
    weight = band_cutoff(g.values[band], g.h, _BandedStepper.WIDTH)
    expected = weight * (reference_step(metric, g, dt)[band] - g.values[band])
    moved = u[band] - g.values[band]
    full = weight == 1.0
    assert full.any() and not full.all()
    assert np.abs(expected[full]).max() > 0.0
    assert np.abs(moved - expected).max() <= 1e-12 * np.abs(expected).max()


def test_banded_step_leaves_frozen_and_far_nodes_untouched():
    g = sphere_grid(2.5, 0.05, pad=0.6)
    frozen = np.zeros(g.values.shape, dtype=bool)
    frozen[:, : g.n_z // 2] = True  # the lower half of the sphere
    u = g.values.copy()
    stepper = _BandedStepper(SCHW, g, u, frozen)
    stepper.step(u, cfl_time_step(SCHW, g))
    moved = u != g.values
    assert moved.any()
    assert not np.any(moved & frozen)
    assert not np.any(moved & (np.abs(g.values) >= _BandedStepper.WIDTH * g.h))


def test_band_refresh_after_freeze_drops_the_frozen_halo():
    # a ball of area 18 and one of area pi; the threshold area 16 freezes
    # only the small one
    def balls(rho, z):
        return np.minimum(np.hypot(rho, z) - 1.2, np.hypot(rho, z - 2.5) - 0.5)

    h = 0.05
    g = AxiGrid.sample(h, 1.6, -1.6, 3.4, balls)
    u = g.values.copy()
    stepper = _BandedStepper(EUCLID, g, u, np.zeros(u.shape, dtype=bool))
    before = stepper.stencil[0].copy()
    assert stepper.near.shape == stepper.work.shape == (9, before.size)
    state = freeze_sweep(initial_state(EUCLID, g), EUCLID, math.sqrt(16.0 / (36.0 * math.pi)))
    assert state.frozen_count == 1
    stepper.refresh(u, state.frozen_mask)
    centre = stepper.stencil[0]
    expected = (np.abs(u) < _BandedStepper.WIDTH * h) & ~state.frozen_mask
    assert np.array_equal(centre, np.flatnonzero(expected))
    assert centre.size < before.size
    assert stepper.stencil.shape == stepper.near.shape == stepper.work.shape == (9, centre.size)
    weight = band_cutoff(u.reshape(-1)[centre], h, _BandedStepper.WIDTH)
    assert np.array_equal(stepper.coef, stepper.grid_coef[:, centre] * weight)
    # off the axis and the edges, row 1 is the rho + h neighbour
    inner = (centre // g.n_z > 0) & (centre // g.n_z < g.n_rho - 1)
    assert np.array_equal(stepper.stencil[1][inner], centre[inner] + g.n_z)


def test_steps_between_refreshes_allocate_no_band_sized_array():
    # the perfbench sphere-freeze grid: a band of 2,933 nodes
    g = AxiGrid.sample(0.088, 4.4, -4.4, 4.4, lambda rho, z: np.hypot(rho, z) - 4.0)
    u = g.values.copy()
    frozen = np.zeros(u.shape, dtype=bool)
    dt = cfl_time_step(SCHW, g)
    stepper = _BandedStepper(SCHW, g, u, frozen)
    # explicit steps and RKL2 super-steps at their bounds
    stages = (1, 6, 1, 2, 3, 1)
    tracemalloc.start()
    try:
        for s in stages:
            stepper.step(u, _stretch(s) * dt, s)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < stepper.stencil.shape[1] * np.dtype(float).itemsize
    assert not np.array_equal(u, g.values)


def test_a_field_the_step_cannot_write_through_is_rejected():
    # a refresh reads any layout, so a stepper is built from a
    # Fortran-ordered field; the step's writes land only in a C-contiguous
    # field, so stepping that same field is rejected
    g = sphere_grid(0.5, 0.02)
    strided = np.asfortranarray(g.values)
    stepper = _BandedStepper(EUCLID, g, strided, np.zeros(strided.shape, dtype=bool))
    with pytest.raises(ValueError, match="C-contiguous"):
        stepper.step(strided, cfl_time_step(EUCLID, g))
    assert np.array_equal(strided, g.values)


def test_a_field_other_than_the_refreshed_one_is_rejected_unless_the_step_can_write_through():
    # the step checks the field it is given, not the one it was refreshed
    # from: a C-contiguous refresh does not let a strided field through
    g = sphere_grid(0.5, 0.02)
    strided = np.asfortranarray(g.values)
    stepper = _BandedStepper(EUCLID, g, g.values.copy(), np.zeros(strided.shape, dtype=bool))
    with pytest.raises(ValueError, match="C-contiguous"):
        stepper.step(strided, cfl_time_step(EUCLID, g))
    assert np.array_equal(strided, g.values)


def test_euclidean_sphere_tracks_exact_radius(euclid_sphere_run):
    R0, h, trace, _ = euclid_sphere_run
    worst = 0.0
    for s in trace.samples:
        R_exact = math.sqrt(max(R0**2 - 4 * s.t, 0.0))
        if R_exact < 10 * h:
            continue
        R_est = math.sqrt(s.area / (4 * math.pi))
        worst = max(worst, abs(R_est - R_exact) / R_exact)
    assert worst < 0.02  # measured 0.0054 at h = R0/50


def test_total_area_non_increasing(euclid_sphere_run):
    _, _, trace, _ = euclid_sphere_run
    areas = np.array([s.area for s in trace.samples])
    assert np.all(np.diff(areas) <= 1e-12 * areas[0])


def test_zero_threshold_never_freezes(euclid_sphere_run):
    _, _, trace, _ = euclid_sphere_run
    assert trace.freeze_all_time is None
    assert trace.incomplete  # ran to t_max with a live component
    assert all(s.n_frozen == 0 for s in trace.samples)


def test_nesting_of_sampled_regions(euclid_sphere_run):
    _, _, trace, masks = euclid_sphere_run
    assert masks is not None and len(masks) == len(trace.samples)
    for earlier, later in zip(masks, masks[1:]):
        allowed = ndimage.binary_dilation(earlier, structure=np.ones((3, 3), dtype=bool))
        assert not np.any(later & ~allowed)


def test_arrival_times_match_shrinking_sphere(euclid_sphere_run):
    R0, h, trace, _ = euclid_sphere_run
    arr = trace.arrival_time
    g = sphere_grid(R0, h)
    rho = g.rho[:, None]
    z = g.z[None, :]
    r = np.hypot(rho, z)
    # nodes outside from the start have arrival zero
    assert np.all(arr[g.values >= 0] == 0.0)
    # swept annulus: arrival of node at radius r is (R0^2 - r^2)/4
    t_end = trace.samples[-1].t
    swept = (g.values < 0) & np.isfinite(arr) & (arr > 0)
    expect = (R0**2 - r**2) / 4.0
    sel = swept & (expect > 0.01) & (expect < t_end - 0.01)
    err = np.abs(arr[sel] - expect[sel])
    assert err.max() < 0.005  # about twice the sample spacing


def test_euclidean_profile_gap_stays_put(euclid_sphere_run):
    # spheres are the equality case: phi_0(A) - V stays near zero
    _, _, trace, _ = euclid_sphere_run
    gaps = np.array([s.profile_gap for s in trace.samples])
    assert abs(gaps[0]) < 1e-3
    assert np.max(gaps) - np.min(gaps) < 1e-3


def test_schwarzschild_flow_tracks_ode(schwarzschild_sphere_run):
    r0, h, trace = schwarzschild_sphere_run
    ode = {
        round(s.t, 6): s
        for s in run_symmetric_flow(SCHW, r0, 5e-5, 0.21, sample_every=1000)
    }
    checked = 0
    for s in trace.samples:
        key = round(s.t, 6)
        if key in ode:
            o = ode[key]
            assert abs(s.area - o.area) / o.area < 0.02
            assert abs(s.volume - o.volume) / o.volume < 0.02
            checked += 1
    assert checked >= 4
    # grid-tier Hawking mass from the live component records
    for s in trace.samples:
        for c in s.components:
            assert abs(c.hawking - SCHW.mass) < 0.05 * SCHW.mass


def test_small_sphere_frozen_at_first_sweep():
    r = radius_from_area(1.0, 30.0 * math.pi)  # area below threshold
    g = sphere_grid(r, 0.05, pad=0.6)
    trace = run_modified_flow(
        FlowRunConfig(metric=SCHW, grid=g, t_max=0.5, sample_interval=0.05)
    )
    assert trace.freeze_all_time == 0.0
    assert len(trace.samples) == 1
    (rec,) = trace.samples[0].components
    assert rec.frozen and rec.freeze_time == 0.0
    assert rec.perimeter < 36.0 * math.pi


def test_run_frozen_at_the_first_sweep_builds_no_stepper(monkeypatch):
    def no_stepper(*args):
        raise AssertionError("stepper built for a run with nothing to step")

    monkeypatch.setattr(flow_levelset_mod, "_BandedStepper", no_stepper)
    r = radius_from_area(1.0, 30.0 * math.pi)  # area below threshold
    g = sphere_grid(r, 0.05, pad=0.6)
    trace = run_modified_flow(
        FlowRunConfig(metric=SCHW, grid=g, t_max=0.5, sample_interval=0.05)
    )
    assert trace.freeze_all_time == 0.0


def test_dumbbell_freezes_only_after_disconnection(dumbbell_run):
    h, m_thr, trace = dumbbell_run
    threshold = 36.0 * math.pi * m_thr**2
    assert trace.freeze_all_time is not None and not trace.incomplete
    saw_split = False
    for s in trace.samples:
        if s.n_components == 1:
            # connected: total is above threshold, nothing frozen
            assert s.n_frozen == 0
            assert s.area > threshold
        else:
            saw_split = True
    assert saw_split
    final = trace.samples[-1]
    assert final.n_components == 2
    assert final.n_frozen == 2
    for c in final.components:
        assert c.frozen
        assert c.perimeter < threshold
        assert c.freeze_time is not None and c.freeze_time > 0.0


def test_frozen_records_stay_constant(dumbbell_run):
    _, _, trace = dumbbell_run
    first_seen = {}
    for s in trace.samples:
        for c in s.components:
            if not c.frozen:
                continue
            if c.id in first_seen:
                prev = first_seen[c.id]
                assert c.perimeter == prev.perimeter
                assert c.volume == prev.volume
                assert c.freeze_time == prev.freeze_time
            else:
                first_seen[c.id] = c


def test_unfrozen_records_at_or_above_threshold(dumbbell_run):
    _, m_thr, trace = dumbbell_run
    threshold = 36.0 * math.pi * m_thr**2
    for s in trace.samples:
        for c in s.components:
            if not c.frozen:
                assert c.perimeter >= threshold


def test_frozen_count_monotone(dumbbell_run):
    _, _, trace = dumbbell_run
    counts = [s.n_frozen for s in trace.samples]
    assert all(b >= a for a, b in zip(counts, counts[1:]))


def test_profile_gap_non_increasing_through_pinch(dumbbell_run):
    h, _, trace = dumbbell_run
    gaps = np.array([s.profile_gap for s in trace.samples])
    # discrete slack: measured max uptick ~1e-3 at h=0.05
    assert np.all(np.diff(gaps) <= 5e-3)


def test_reinitialize_preserves_interface_and_signs():
    R0, h = 0.5, 0.01
    g = sphere_grid(R0, h)
    # a deliberately steep, non-distance field with the same zero set
    steep = g.replace_values(np.sign(g.values) * np.abs(g.values) ** 0.5 * 3.0)
    v = reinitialize(steep.values, h, np.zeros(steep.values.shape, dtype=bool))
    assert np.all((v < 0) == (steep.values < 0))
    # zero set still within half a cell of the true circle
    for chain in interface_contour(steep.replace_values(v)):
        dist = np.abs(np.hypot(chain[:, 0], chain[:, 1]) - R0)
        assert dist.max() < h / 2
    # gradient close to one away from the interface
    gi, gj = np.gradient(v, h)
    gn = np.hypot(gi, gj)
    band = (np.abs(v) > 2 * h) & (np.abs(v) < 0.3)
    ok = (gn[band] > 0.8) & (gn[band] < 1.2)
    assert np.mean(ok) >= 0.99


def test_reinitialize_is_stable_on_distance_fields():
    R0, h = 0.5, 0.02
    g = sphere_grid(R0, h)
    moved = np.abs(reinitialize(g.values, h, np.zeros(g.values.shape, dtype=bool)) - g.values)
    band = np.abs(g.values) < 3 * h
    assert moved[band].max() < h / 2


def test_final_sample_is_not_read_off_a_rebuilt_field():
    # a time-limited run whose last step is on the rebuild cadence ends
    # with the same sample as a run without rebuilds: the loop rebuilds
    # only when another step follows
    g = sphere_grid(1.0, 0.05, pad=0.5)
    dt = cfl_time_step(EUCLID, g)
    finals = [
        run_modified_flow(
            FlowRunConfig(
                metric=EUCLID, grid=g, t_max=40 * dt, sample_interval=80 * dt, dt=dt, reinit_cadence=cadence
            )
        ).samples[-1]
        for cadence in (40, 0)
    ]
    assert finals[0].t == 40 * dt
    assert finals[0] == finals[1]


def test_freeze_sweep_idempotent_and_threshold_exact():
    r = radius_from_area(1.0, 30.0 * math.pi)
    g = sphere_grid(r, 0.05, pad=0.6)
    state = freeze_sweep(initial_state(SCHW, g), SCHW)
    assert state.frozen_count == 1
    again = freeze_sweep(state, SCHW)
    assert again.frozen_count == 1
    assert again.components[0].freeze_time == state.components[0].freeze_time
    assert np.array_equal(again.frozen_mask, state.frozen_mask)


def test_bigger_sphere_not_frozen():
    r = radius_from_area(1.0, 40.0 * math.pi)
    g = sphere_grid(r, 0.05, pad=0.6)
    state = freeze_sweep(initial_state(SCHW, g), SCHW)
    assert state.frozen_count == 0
    assert state.live_count == 1
