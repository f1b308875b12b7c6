"""Weak mean curvature flow on a grid, with component freezing.

The region {values < 0} of an :class:`~isoflow.measure.AxiGrid` evolves
by level-set mean curvature flow in the conformally flat metric.  On top
of the plain flow sits the modification that makes small components
permanent: whenever a connected component's surface area drops below the
profile convexity threshold 36 pi m^2, the component — nodes plus a
one-cell halo — is frozen and never changes again.  Totals reported by
the run are therefore "frozen constants plus live measurements", and the
arrival time of a frozen node is infinite.

The threshold mass defaults to the metric's mass but can be set
independently, which lets a flat-metric scenario exercise the freezing
machinery.  With threshold mass zero nothing ever freezes and the flow
is the ordinary weak flow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy import ndimage

from .measure import (
    AxiGrid,
    ComponentMeasure,
    _conformal_power,
    _curvature_stencil,
    _normal_geometry,
    _stencil_indices,
    curvature_and_gradient,
    measure_components,
)
from .metric import AmbientMetric
from .profile import profile_volume_or_zero

# explicit-step stability margin: dt = CFL_SAFETY * h^2 * min(w^4)
CFL_SAFETY = 0.2

_HALO = np.ones((3, 3), dtype=bool)


@dataclass(frozen=True)
class ComponentRecord:
    """One component's bookkeeping at a sample or sweep time.

    Frozen records keep the measurements taken at freeze time; they are
    never re-measured.
    """

    id: int
    frozen: bool
    freeze_time: float | None
    perimeter: float
    volume: float
    h_sq_integral: float
    hawking: float


@dataclass
class TraceSample:
    t: float
    area: float
    volume: float
    profile_gap: float  # phi_m(total area) - total volume
    ratio: float  # area^(3/2) / volume
    n_components: int
    n_frozen: int
    components: list[ComponentRecord]


@dataclass
class FlowTrace:
    """Sampled history of one modified-flow run."""

    samples: list[TraceSample] = field(default_factory=list)
    freeze_all_time: float | None = None
    incomplete: bool = False
    arrival_time: np.ndarray | None = None
    inside_masks: list[np.ndarray] | None = None

    @property
    def times(self) -> np.ndarray:
        return np.array([s.t for s in self.samples])

    @property
    def areas(self) -> np.ndarray:
        return np.array([s.area for s in self.samples])

    @property
    def volumes(self) -> np.ndarray:
        return np.array([s.volume for s in self.samples])

    @property
    def profile_gaps(self) -> np.ndarray:
        return np.array([s.profile_gap for s in self.samples])


@dataclass
class LevelSetState:
    """Full flow state: field, freeze bookkeeping, and history."""

    grid: AxiGrid
    frozen_mask: np.ndarray
    t: float
    components: list[ComponentRecord]
    trace: FlowTrace
    # node -> component id at the last sweep (0 = outside); used to keep
    # labels stable across sweeps by maximal overlap
    id_map: np.ndarray = None
    next_id: int = 1

    @property
    def live_count(self) -> int:
        return sum(not c.frozen for c in self.components)

    @property
    def frozen_count(self) -> int:
        return sum(c.frozen for c in self.components)


def cfl_time_step(metric: AmbientMetric, grid: AxiGrid, frozen_mask: np.ndarray | None = None) -> float:
    """Largest stable explicit step: CFL_SAFETY * h^2 * min over active
    nodes of w^4 (the effective diffusivity is w^-4)."""
    h = grid.h
    if metric.mass == 0.0:
        return CFL_SAFETY * h * h
    w4 = _conformal_power(metric, grid.rho[:, None], grid.z[None, :], 4, h)
    if frozen_mask is not None and frozen_mask.any():
        w4 = np.where(frozen_mask, np.inf, w4)
    return CFL_SAFETY * h * h * float(w4.min())


def initial_state(metric: AmbientMetric, grid: AxiGrid) -> LevelSetState:
    inside = grid.values < 0
    arrival = np.where(inside, np.inf, 0.0)
    trace = FlowTrace(arrival_time=arrival)
    return LevelSetState(
        grid=grid,
        frozen_mask=np.zeros(grid.values.shape, dtype=bool),
        t=0.0,
        components=[],
        trace=trace,
        id_map=np.zeros(grid.values.shape, dtype=np.int32),
        next_id=1,
    )


def evolve_step(state: LevelSetState, metric: AmbientMetric, dt: float) -> LevelSetState:
    """One explicit step of du/dt = H_g |grad u| / w^2 on unfrozen nodes.

    H_g is the conformal mean curvature of the level sets (shared with
    the measurement stencils), so the zero set moves inward with normal
    speed H_g in the metric.  Raises if dt violates the CFL bound.
    """
    bound = cfl_time_step(metric, state.grid, state.frozen_mask)
    if dt > bound * (1.0 + 1e-9):
        raise ValueError(f"dt={dt} exceeds the stability bound {bound}")
    grid = state.grid
    h_field, grad = curvature_and_gradient(metric, grid)
    speed = h_field * grad
    if metric.mass != 0.0:
        speed = speed / _conformal_power(metric, grid.rho[:, None], grid.z[None, :], 2, grid.h)
    u_new = grid.values + dt * speed
    if state.frozen_mask.any():
        u_new = np.where(state.frozen_mask, grid.values, u_new)
    t_new = state.t + dt
    arrival = state.trace.arrival_time
    if arrival is not None:
        flipped = np.isinf(arrival) & (u_new >= 0.0) & ~state.frozen_mask
        if flipped.any():
            arrival[flipped] = t_new
    return replace(state, grid=grid.replace_values(u_new), t=t_new)


def _match_ids(state: LevelSetState, measures: list[ComponentMeasure]) -> tuple[list[int], np.ndarray, int]:
    """Stable ids for freshly labeled components, by maximal overlap.

    Ties, and brand-new components, are resolved in scan order; a
    previous id is claimed at most once.
    """
    id_map = state.id_map
    next_id = state.next_id
    new_map = np.zeros_like(id_map)
    taken: set[int] = set()
    assigned: list[int] = []
    for m in measures:
        overlap = id_map[m.node_mask]
        overlap = overlap[overlap > 0]
        best = 0
        if overlap.size:
            counts = np.bincount(overlap)
            ranked = np.argsort(counts, kind="stable")[::-1]
            for cand in ranked:
                if counts[cand] == 0:
                    break
                if int(cand) not in taken:
                    best = int(cand)
                    break
        if best == 0:
            best = next_id
            next_id += 1
        taken.add(best)
        assigned.append(best)
        new_map[m.node_mask] = best
    return assigned, new_map, next_id


def _hawking_of(m: ComponentMeasure) -> float:
    if m.perimeter <= 0.0:
        return 0.0
    return math.sqrt(m.perimeter / (16.0 * math.pi)) * (
        1.0 - m.h_sq_integral / (16.0 * math.pi)
    )


def freeze_sweep(
    state: LevelSetState, metric: AmbientMetric, threshold_mass: float | None = None
) -> LevelSetState:
    """Measure components, refresh records, freeze the small ones.

    A live component whose surface area is below 36 pi m^2 (threshold
    mass m) has its nodes and a one-cell halo added to the frozen mask
    and its freeze-time measurements stored for good.  With m = 0 the
    sweep only refreshes measurements.
    """
    m_thr = metric.mass if threshold_mass is None else threshold_mass
    threshold = 36.0 * math.pi * m_thr * m_thr
    measures = measure_components(metric, state.grid)
    assigned, new_map, next_id = _match_ids(state, measures)
    frozen_records = {c.id: c for c in state.components if c.frozen}
    frozen_mask = state.frozen_mask
    records: list[ComponentRecord] = []
    for comp_id, m in zip(assigned, measures):
        if comp_id in frozen_records:
            records.append(frozen_records[comp_id])
            continue
        if m_thr > 0.0 and m.perimeter < threshold:
            frozen_mask = frozen_mask | ndimage.binary_dilation(m.node_mask, structure=_HALO)
            records.append(
                ComponentRecord(
                    id=comp_id,
                    frozen=True,
                    freeze_time=state.t,
                    perimeter=m.perimeter,
                    volume=m.volume,
                    h_sq_integral=m.h_sq_integral,
                    hawking=_hawking_of(m),
                )
            )
        else:
            records.append(
                ComponentRecord(
                    id=comp_id,
                    frozen=False,
                    freeze_time=None,
                    perimeter=m.perimeter,
                    volume=m.volume,
                    h_sq_integral=m.h_sq_integral,
                    hawking=_hawking_of(m),
                )
            )
    return replace(
        state,
        frozen_mask=frozen_mask,
        components=records,
        id_map=new_map,
        next_id=next_id,
    )


def _edge_zero(a: np.ndarray) -> np.ndarray:
    """Zero position (in [0, 1]) along every first-axis edge of ``a``.

    Quadratic interpolation through the endpoints with the averaged
    second difference as curvature; falls back to the linear root where
    the quadratic is degenerate.  Only meaningful on sign-changing
    edges; elsewhere the value is arbitrary but finite.
    """
    lo, hi = a[:-1, :], a[1:, :]
    diff = hi - lo
    safe = np.where(diff != 0.0, diff, 1.0)
    linear = np.clip(-lo / safe, 0.0, 1.0)
    # second differences at the edge endpoints, averaged
    d2 = np.zeros_like(a)
    d2[1:-1, :] = a[2:, :] - 2.0 * a[1:-1, :] + a[:-2, :]
    d2[0, :] = d2[1, :]
    d2[-1, :] = d2[-2, :]
    q = 0.5 * (d2[:-1, :] + d2[1:, :])
    # f(t) = lo + (hi-lo) t + (q/2) t (t-1);  roots of (q/2)t^2 + bt + lo
    b = diff - 0.5 * q
    disc = b * b - 2.0 * q * lo
    usable = (np.abs(q) > 1e-14 * np.maximum(np.abs(b), 1.0)) & (disc >= 0.0)
    sq = np.sqrt(np.where(usable, disc, 0.0))
    denom = b + np.where(b >= 0.0, sq, -sq)
    denom = np.where(np.abs(denom) > 1e-300, denom, 1.0)
    root = -2.0 * lo / denom
    theta = np.where(usable & (root >= 0.0) & (root <= 1.0), root, linear)
    return np.clip(theta, 0.0, 1.0)


def reinitialize(state: LevelSetState) -> LevelSetState:
    """Replace values by an approximate signed flat distance field.

    Sub-cell seeds at sign changes, a far-field estimate from the node
    distance transform, and Godunov relaxation passes in between.  The
    zero set moves by less than half a cell, no node changes sign, and
    frozen nodes are left untouched.
    """
    grid = state.grid
    u = grid.values
    h = grid.h
    inside = u < 0.0
    d = np.full(u.shape, np.inf)

    # sub-cell seeds on every sign-changing edge; the zero is located by
    # a quadratic fit along the edge (linear roots are biased by the
    # field's curvature, and that bias accumulates over many rebuilds)
    for axis in (0, 1):
        a = u if axis == 0 else u.T
        da = d if axis == 0 else d.T  # views: writes land in d
        lo, hi = a[:-1, :], a[1:, :]
        crossing = (lo < 0.0) != (hi < 0.0)
        if crossing.any():
            theta = _edge_zero(a)
            da[:-1, :] = np.minimum(da[:-1, :], np.where(crossing, theta * h, np.inf))
            da[1:, :] = np.minimum(da[1:, :], np.where(crossing, (1.0 - theta) * h, np.inf))

    seeds = np.isfinite(d)
    if not seeds.any():
        return state  # no interface: nothing to rebuild against

    # Godunov eikonal relaxation outward from the seeds: one cell per
    # pass.  Values may only be pulled down from "unknown", never locked
    # to a low first guess, so the band near the interface is clean.
    big = 1e12
    d_band = np.where(seeds, d, big)
    n_pass = 60
    for _ in range(n_pass):
        dp = np.full((d_band.shape[0] + 2, d_band.shape[1] + 2), big)
        dp[1:-1, 1:-1] = d_band
        dp[0, 1:-1] = d_band[1, :]  # mirror across the axis
        a = np.minimum(dp[:-2, 1:-1], dp[2:, 1:-1])
        b = np.minimum(dp[1:-1, :-2], dp[1:-1, 2:])
        lo = np.minimum(a, b)
        quad = 0.5 * (a + b + np.sqrt(np.maximum(2 * h * h - (a - b) ** 2, 0.0)))
        upd = np.where(np.abs(a - b) >= h, lo + h, quad)
        d_band = np.where(seeds, d_band, np.minimum(d_band, upd))

    # past the relaxed band: node distance transform, pulled back half a
    # cell toward the interface (only the gradient matters out there)
    far = np.maximum(
        ndimage.distance_transform_edt(inside), ndimage.distance_transform_edt(~inside)
    )
    far_est = np.maximum(far - 0.5, 0.5) * h
    d = np.where(d_band < 0.9 * big, d_band, far_est)

    # an inside node's distance must stay strictly positive so no node
    # changes sign, even when a crossing sits on top of a node
    signed = np.where(inside, -np.maximum(d, np.finfo(float).tiny), d)
    if state.frozen_mask.any():
        signed = np.where(state.frozen_mask, u, signed)
    return replace(state, grid=grid.replace_values(signed))


class _BandedStepper:
    """Narrow-band form of :func:`evolve_step` for the run loop.

    The same curvature stencil, applied only to nodes within a dozen
    cells of the interface; everything further keeps its value until the
    next distance rebuild.  Far values influence nothing measured — the
    stencils that matter live next to the zero set — and skipping them
    makes long runs an order of magnitude cheaper.

    The band only changes at a refresh, so :meth:`refresh` caches its
    geometry: flat indices into ``u.ravel()`` of each node's nine-point
    stencil, the axis mask, rho and, with mass, the conformal terms.  A
    step is then one gather, the stencil arithmetic and one scatter.
    """

    WIDTH = 12.0  # band half-width in cells
    REBUILD = 8  # steps between band refreshes

    def __init__(self, metric: AmbientMetric, grid: AxiGrid):
        self.metric = metric
        self.h = grid.h
        self.z_min = grid.z_min
        self.shape = grid.values.shape
        # (9, band size) flat stencil indices in _curvature_stencil's
        # argument order; row 0 is the band node itself
        self.stencil: np.ndarray | None = None
        self._age = self.REBUILD

    def refresh(self, u: np.ndarray, frozen_mask: np.ndarray) -> None:
        h = self.h
        band = np.abs(u) < self.WIDTH * h
        if frozen_mask.any():
            band &= ~frozen_mask
        ii, jj = np.nonzero(band)
        self.stencil = _stencil_indices(ii, jj, self.shape)
        self.off_axis = ii > 0
        self.rho = ii * h
        self.geometry = None
        if self.metric.mass != 0.0:
            self.geometry, w = _normal_geometry(self.metric, self.rho, self.z_min + jj * h, h)
            self.w4 = w**4
        self._age = 0

    def step(self, u: np.ndarray, frozen_mask: np.ndarray, dt: float) -> np.ndarray | None:
        """Advance ``u`` in place by one banded explicit step.

        Returns the updated band values (aligned with ``stencil[0]``), or
        None when the band is empty.
        """
        if self._age >= self.REBUILD or self.stencil is None:
            self.refresh(u, frozen_mask)
        self._age += 1
        if self.stencil.shape[1] == 0:
            return None
        near = np.take(u, self.stencil)
        h_flat, grad, normal = _curvature_stencil(*near, self.h, self.rho, self.off_axis, self.geometry)
        speed = h_flat * grad
        if normal is not None:
            speed = (speed + 4.0 * normal * grad) / self.w4
        u_new = near[0] + dt * speed
        np.put(u, self.stencil[0], u_new)
        return u_new


def _axis_run_count(u: np.ndarray) -> int:
    """Number of negative runs along the axis column — a free proxy for
    component count changes (axisymmetric pinches happen on the axis)."""
    inside = u[0, :] < 0
    if not inside.any():
        return 0
    starts = int(inside[0]) + int(np.count_nonzero(inside[1:] & ~inside[:-1]))
    return starts


@dataclass(frozen=True)
class FlowRunConfig:
    """Everything one modified-flow run needs."""

    metric: AmbientMetric
    grid: AxiGrid
    t_max: float
    sample_interval: float
    threshold_mass: float | None = None  # default: the metric's mass
    dt: float | None = None  # default: the CFL bound
    sweep_cadence: int = 5  # freeze sweeps every k steps
    # rebuild the distance field every k steps (0 disables).  The
    # curvature stencils are near-exact on a fresh distance field but
    # pick up a systematic speed bias as the field distorts, so rebuilds
    # must come well before the distortion does; each rebuild moves the
    # interface by only ~1e-7 relative.
    reinit_cadence: int = 100
    record_masks: bool = False  # keep inside masks per sample (tests)


def _totals(records: list[ComponentRecord]) -> tuple[float, float]:
    area = math.fsum(c.perimeter for c in records)
    volume = math.fsum(c.volume for c in records)
    return area, volume


def _sample(state: LevelSetState, m_profile: float, record_masks: bool) -> None:
    area, volume = _totals(state.components)
    gap = profile_volume_or_zero(m_profile, area) - volume
    ratio = area**1.5 / volume if volume > 0.0 else math.inf
    state.trace.samples.append(
        TraceSample(
            t=state.t,
            area=area,
            volume=volume,
            profile_gap=float(gap),
            ratio=ratio,
            n_components=len(state.components),
            n_frozen=state.frozen_count,
            components=list(state.components),
        )
    )
    if record_masks:
        if state.trace.inside_masks is None:
            state.trace.inside_masks = []
        state.trace.inside_masks.append(state.grid.values < 0.0)


def run_modified_flow(config: FlowRunConfig) -> FlowTrace:
    """Run the component-freezing flow and return its sampled trace.

    Steps explicitly at the CFL bound (or the configured dt), sweeps for
    freezable components every few steps and whenever the axis pinch
    count changes, rebuilds the distance field on a fixed cadence, and
    samples totals on the configured interval.
    The run ends when every component is frozen or gone (that time is
    ``freeze_all_time``) or at ``t_max`` (then the trace is flagged
    incomplete).

    Stepping uses the narrow-band stepper; the grid object held by the
    returned samples is only refreshed at sweep and sample times.
    """
    metric = config.metric
    m_thr = metric.mass if config.threshold_mass is None else config.threshold_mass
    state = initial_state(metric, config.grid)
    bound = cfl_time_step(metric, config.grid)
    if config.dt is not None:
        dt = config.dt
        if dt > bound * (1.0 + 1e-9):
            raise ValueError(f"dt={dt} exceeds the stability bound {bound}")
    else:
        # snap the step so the sample interval is an exact multiple of it
        dt = config.sample_interval / math.ceil(config.sample_interval / bound)
    state = freeze_sweep(state, metric, m_thr)
    _sample(state, m_thr, config.record_masks)
    if state.live_count == 0:
        state.trace.freeze_all_time = 0.0
        return state.trace

    u = state.grid.values.copy()  # working field; the input grid is kept intact
    stepper = _BandedStepper(metric, state.grid)
    arrival_flat = state.trace.arrival_time.ravel()
    next_sample = config.sample_interval
    step_idx = 0
    runs_prev = _axis_run_count(u)
    t = 0.0
    t_end = config.t_max - 1e-12 * max(config.t_max, 1.0)
    while t < t_end:
        band_vals = stepper.step(u, state.frozen_mask, dt)
        step_idx += 1
        t = step_idx * dt
        if band_vals is not None:
            flat = stepper.stencil[0]
            flip = np.isinf(arrival_flat[flat]) & (band_vals >= 0.0)
            if flip.any():
                arrival_flat[flat[flip]] = t
        runs = _axis_run_count(u)
        sample_due = t >= next_sample - 0.5 * dt
        if sample_due or step_idx % config.sweep_cadence == 0 or runs != runs_prev:
            state = replace(state, grid=state.grid.replace_values(u), t=t)
            frozen_before = state.frozen_count
            state = freeze_sweep(state, metric, m_thr)
            runs_prev = runs
            if state.frozen_count != frozen_before:
                stepper.refresh(u, state.frozen_mask)
        if sample_due:
            _sample(state, m_thr, config.record_masks)
            next_sample += config.sample_interval
        if state.live_count == 0:
            if state.trace.samples[-1].t < t:
                _sample(state, m_thr, config.record_masks)
            state.trace.freeze_all_time = t
            return state.trace
        # Rebuild runs after any measurement at this step: the fast-swept
        # distance field has clean first derivatives but noisy second ones,
        # so curvature must never be read off a just-rebuilt field.
        if config.reinit_cadence > 0 and step_idx % config.reinit_cadence == 0:
            state = replace(state, grid=state.grid.replace_values(u), t=t)
            state = reinitialize(state)
            u = state.grid.values.copy()
            stepper.refresh(u, state.frozen_mask)
    # time limit: one final refresh + sample if the last one is stale
    state = replace(state, grid=state.grid.replace_values(u), t=t)
    state = freeze_sweep(state, metric, m_thr)
    if state.trace.samples[-1].t < t:
        _sample(state, m_thr, config.record_masks)
    if state.live_count == 0:
        state.trace.freeze_all_time = t
    else:
        state.trace.incomplete = True
    return state.trace
