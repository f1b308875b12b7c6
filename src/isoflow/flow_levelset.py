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

import functools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .config import ConfigError, TimeSpec, _number
from .measure import (
    _CHORD,
    _GRAD_EPS,
    AxiGrid,
    ComponentMeasure,
    _conformal_power,
    _deep_labels,
    _normal_geometry,
    _pieces,
    _stencil_indices,
    measure_components,
)
from .mass import hawking_mass
from .metric import AmbientMetric
from .profile import convexity_threshold, isoperimetric_ratio, profile_volume_or_zero
from .trace import ComponentRecord, FlowTrace, RunFailure, TraceSample

# explicit-step stability margin: dt = CFL_SAFETY * h^2 * min(w^4)
CFL_SAFETY = 0.2

MAX_STAGES = 10  # kernel calls per RKL2 super-step, at most (:func:`_plan`)

# a rebuild's zeros fitted either side, and Newton steps, whose second
# derivative (below 1 + slope^2 only past the centre of curvature) is floored
FIT_SIDE = 4
NEWTON_STEPS = 4
_CURVATURE_FLOOR = 1e-2

# Under the flow a component's area falls at dA/dt = -int H^2 dA
# (Huisken 1984).  A cadence sweep is skipped while every live record's
# area, falling at KAPPA times its last measured int H^2 since that
# sweep, stays above the freeze threshold.
KAPPA = 2.0

_HALO = np.ones((3, 3), dtype=bool)


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
    id_map: np.ndarray
    next_id: int

    @property
    def live_count(self) -> int:
        return sum(not c.frozen for c in self.components)

    @property
    def frozen_count(self) -> int:
        return sum(c.frozen for c in self.components)


def cfl_time_step(metric: AmbientMetric, grid: AxiGrid) -> float:
    """The grid bound on the explicit step: CFL_SAFETY * h^2 * min over the
    grid of w^4 (the effective diffusivity is w^-4).  Without a configured
    dt, :func:`run_modified_flow` scales it to the band the step moves
    (:attr:`_BandedStepper.bound_scale`)."""
    h = grid.h
    w4 = _conformal_power(metric, grid.rho[:, None], grid.z[None, :], 4, h)
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


def _speed_coefficients(metric: AmbientMetric, h: float, z_min: float, shape) -> np.ndarray:
    """(4, nodes) coefficients K, C_a, C_b, C_rr of :func:`_speed` at every
    node, in ``values.ravel()`` order; they depend only on node position."""
    rho = (np.arange(shape[0]) * h)[:, None]
    z = (z_min + np.arange(shape[1]) * h)[None, :]
    # (1/rho) u_r: a / (2 h rho) off the axis; on it a = 0 and the limit u_rr is C_rr's
    c_a = np.where(rho > 0, 1.0 / (2.0 * h * np.where(rho > 0, rho, 1.0)), 0.0)
    # 4 d(ln w)/d(nu) |grad u| = 4 dlnw_dr (rho u_r + z u_z) / r, a zero at m = 0
    (z, r, dlnw_dr), w = _normal_geometry(metric, rho, z, h)
    c_a, c_b, w4 = c_a + 2.0 * dlnw_dr * rho / (h * r), 2.0 * dlnw_dr * z / (h * r), w**4
    k = 1.0 / (h * h * w4)
    fields = (k, c_a / w4, c_b / w4, np.where(rho > 0, 0.0, k))
    return np.stack([np.broadcast_to(f, shape) for f in fields]).reshape(4, -1)


def _speed(near: np.ndarray, coef: np.ndarray, h: float, work: np.ndarray) -> np.ndarray:
    """The flow speed H_g |grad u| / w^2 from nine-point stencil values
    ``near`` (in :func:`~isoflow.measure._curvature_stencil`'s argument
    order) and :func:`_speed_coefficients` gathered at the same nodes.

    With a = rp - rm, b = zp - zm, A_rr = rp + rm - 2c, A_zz = zp + zm - 2c
    and A_rz = pp - pm - mp + mm, the speed is

        K (A_rr b^2 - a b A_rz / 2 + A_zz a^2) / (a^2 + b^2 + 4 h^2 eps^2)
          + C_a a + C_b b + C_rr A_rr,

    algebraically equal to ((H + 4 d(ln w)/d(nu)) / w^2) |grad u| / w^2
    from the measurement stencil: the |grad u| factors of the curvature
    cancel, so no square root and no division by rho runs per step.

    Every intermediate lands in a row of ``work``, a (9, nodes) float
    buffer, and the speed is returned in one of them; nothing is
    allocated.  The operations run in the order of the plain expression
    above (2c once, read twice), so the result has its bits.
    """
    c, rp, rm, zp, zm, pp, pm, mp, mm = near
    k, c_a, c_b, c_rr = coef
    a, b, c2, a_rr, aa, bb, num, t, a_rz = work
    np.subtract(rp, rm, out=a)
    np.subtract(zp, zm, out=b)
    np.multiply(c, 2.0, out=c2)
    np.add(rp, rm, out=a_rr)
    a_rr -= c2
    np.multiply(a, a, out=aa)
    np.multiply(b, b, out=bb)
    # num = A_rr b^2 - ((0.5 a) b) A_rz + A_zz a^2
    np.multiply(a_rr, bb, out=num)
    np.subtract(pp, pm, out=a_rz)
    a_rz -= mp
    a_rz += mm
    np.multiply(a, 0.5, out=t)
    t *= b
    t *= a_rz
    num -= t
    np.add(zp, zm, out=t)
    t -= c2
    t *= aa
    num += t
    # K num / (a^2 + b^2 + 4 h^2 eps^2) + C_a a + C_b b + C_rr A_rr
    num *= k
    np.add(aa, bb, out=t)
    t += 4.0 * h * h * _GRAD_EPS**2
    num /= t
    for c_x, x in ((c_a, a), (c_b, b), (c_rr, a_rr)):
        np.multiply(c_x, x, out=t)
        num += t
    return num


def _stretch(stages: int) -> float:
    """Explicit steps one RKL2 super-step of ``stages`` kernel calls
    covers: the ratio of its stable step to the explicit one; 1 for the
    explicit step itself."""
    return max(1.0, (stages * stages + stages - 2) / 4)


@functools.cache
def _rkl2_coefficients(stages: int) -> tuple[float, tuple[tuple[float, float, float, float], ...]]:
    """RKL2 (Meyer, Balsara & Aslam 2014) with s = ``stages``: the weight
    b_1 w_1 of Y_1 = Y_0 + b_1 w_1 dt L(Y_0), and for j = 2..s the
    (mu_j, nu_j, mu~_j, gamma~_j) of

        Y_j = mu_j Y_{j-1} + nu_j Y_{j-2} + (1 - mu_j - nu_j) Y_0
              + mu~_j dt L(Y_{j-1}) + gamma~_j dt L(Y_0),

    from b_0 = b_1 = b_2 = 1/3, b_j = (j^2 + j - 2) / (2 j (j + 1)) and
    w_1 = 1 / :func:`_stretch`; gamma~_j = -(1 - b_{j-1}) mu~_j.
    """
    b = [1 / 3] * 3 + [(j * j + j - 2) / (2 * j * (j + 1)) for j in range(3, stages + 1)]
    w1 = 1.0 / _stretch(stages)
    later = []
    for j in range(2, stages + 1):
        mu, nu = (2 * j - 1) / j * b[j] / b[j - 1], -(j - 1) / j * b[j] / b[j - 2]
        later.append((mu, nu, mu * w1, -(1.0 - b[j - 1]) * mu * w1))
    return b[1] * w1, tuple(later)


def _match_ids(state: LevelSetState, measures: list[ComponentMeasure]) -> tuple[list[int], np.ndarray, int]:
    """Stable ids for freshly labeled components, by maximal overlap.

    Ties, and brand-new components, are resolved in scan order; a
    previous id is claimed at most once.
    """
    id_map = state.id_map
    next_id = state.next_id
    if not measures:
        return [], np.zeros_like(id_map), next_id
    taken: set[int] = set()
    assigned: list[int] = []
    # label -> assigned id; the slot past the last measured label stays 0
    lookup = np.zeros(measures[-1].id + 2, dtype=id_map.dtype)
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
        lookup[m.id] = best
    # "clip" sends every larger label, none of them measured, to that 0
    return assigned, np.take(lookup, measures[0].labels, mode="clip"), next_id


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
    threshold = convexity_threshold(m_thr)
    measures = measure_components(metric, state.grid)
    assigned, new_map, next_id = _match_ids(state, measures)
    frozen_records = {c.id: c for c in state.components if c.frozen}
    frozen_mask = state.frozen_mask
    records: list[ComponentRecord] = []
    for comp_id, m in zip(assigned, measures):
        if comp_id in frozen_records:
            records.append(frozen_records[comp_id])
            continue
        freeze = m_thr > 0.0 and m.perimeter < threshold
        if freeze:
            from scipy import ndimage  # as in measure.label_regions

            frozen_mask = frozen_mask | ndimage.binary_dilation(m.node_mask, structure=_HALO)
        records.append(
            ComponentRecord(
                id=comp_id,
                frozen=freeze,
                freeze_time=state.t if freeze else None,
                perimeter=m.perimeter,
                volume=m.volume,
                h_sq_integral=m.h_sq_integral,
                hawking=hawking_mass(m.perimeter, m.h_sq_integral) if m.perimeter > 0.0 else 0.0,
            )
        )
    return replace(
        state,
        frozen_mask=frozen_mask,
        components=records,
        id_map=new_map,
        next_id=next_id,
    )


def _edge_zero(flat: np.ndarray, low: np.ndarray, along: np.ndarray, step: int, size: int) -> np.ndarray:
    """Zero positions (in [0, 1]) along edges of a grid held ``flat``: edge
    k runs from flat index ``low[k]`` to ``low[k] + step`` on an axis of
    ``size`` >= 3 nodes, ``along[k]`` being low's index on it.  The
    quadratic through the end values with the second difference along the
    axis, averaged over both ends (a border end takes its inner
    neighbour's), as curvature: a linear root is biased by the field's
    curvature, a bias that accumulates over many rebuilds.  The linear
    root where the quadratic degenerates; arbitrary but finite on an edge
    whose sign does not change.
    """
    lo, hi = flat[low], flat[low + step]
    d2 = [flat[c + step] - 2.0 * flat[c] + flat[c - step]
          for c in (low + (np.clip(e, 1, size - 2) - along) * step for e in (along, along + 1))]
    q = 0.5 * (d2[0] + d2[1])
    diff = hi - lo
    safe = np.where(diff != 0.0, diff, 1.0)
    linear = np.clip(-lo / safe, 0.0, 1.0)
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


def reinitialize(u: np.ndarray, h: float, frozen_mask: np.ndarray) -> np.ndarray:
    """A signed flat distance field with the zero set and signs (``u < 0``)
    of the level-set values ``u`` (spacing ``h``), as a new array, from
    closest points on local interpolants (Chopp 2001); ``frozen_mask``
    nodes keep their values.

    Each sign-changing edge's zero (:func:`_edge_zero`) gets a
    least-squares parabola in the principal-axis frame of itself and
    ``FIT_SIDE`` zeros either side along the contour: chained through the
    marching-squares pieces (:func:`~isoflow.measure._pieces`, whose saddle
    rule keeps a thin neck's sides apart), on across the axis mirrored.  A
    node within ``WIDTH + 4`` cells of a seed (an end of a crossing edge)
    takes its closest point, by ``NEWTON_STEPS`` Newton steps, on the
    parabola of the zero its nearest seed took, or within two cells the
    nearest of its own and its four neighbours' (the nearest seed may lie
    across a thin neck); further out, its distance to that zero.
    """
    inside = u < 0.0
    n, m = u.shape
    flat = u.reshape(-1)
    # zero ids by their edge's low end (row 0 rho edges, row 1 z edges), and each seed's zero
    ids, zero = np.full((2, u.size), -1), np.full(u.size, -1)
    at, count = [], 0
    for axis, (ia, step, size) in enumerate(((inside, m, n), (inside.T, 1, m))):
        ei, ej = np.nonzero(ia[:-1, :] != ia[1:, :])
        low = ei * m + ej if axis == 0 else ej * m + ei
        ids[axis, low] = zero[low] = zero[low + step] = count + np.arange(ei.size)
        count += ei.size
        theta, (i, j) = _edge_zero(flat, low, ei, step, size), np.divmod(low, m)
        at.append((i + theta, j) if axis == 0 else (i, j + theta))
    if not count:
        return u.copy()  # no interface: nothing to rebuild against
    px, py = (np.concatenate(c).astype(float) for c in zip(*at))  # (rho, z), cells

    # Contour neighbours: a piece's chord joins the zeros on two sides of
    # its cell (S, E, N, W: walk positions 1, 3, 5, 7, edges from corners
    # 00, 10, 01, 00), row 0 across the cell a zero is the S or W side of.
    # An axis z edge, in one cell only, goes on in row 1 to the mirror image
    # (zeros count .. 2 count - 1; an axis zero is its own) of its row 0.
    _, (_, _, corner, _), (cell, slot, entry) = _pieces(u)
    side = _CHORD[entry, slot] // 2
    joined = ids[np.array([0, 1, 0, 1])[side], corner[np.array([0, 1, 2, 0])[side], cell[:, None]]]
    chain = np.full((2, count), -1)
    for end in (0, 1):
        chain[np.array([0, 1, 1, 0])[side[:, end]], joined[:, end]] = joined[:, 1 - end]
    image = np.concatenate([np.arange(count, 2 * count), np.arange(count)])
    axis = np.flatnonzero(chain[1] < 0)
    image[axis] = axis
    chain[1, axis] = image[chain[0, axis]]
    chain = np.concatenate([chain, image[chain]], axis=1)
    # FIT_SIDE zeros each way: a walk leaves a zero x by link
    # row * 2 count + x, and the zero it reaches by its other link
    reached = chain.ravel()
    onward = reached + 2 * count * (chain[0, reached] == np.tile(np.arange(2 * count), 2))
    link, walk = np.concatenate([np.arange(count), 2 * count + np.arange(count)]), [np.arange(count)]
    for _ in range(FIT_SIDE):
        walk += np.split(reached[link], 2)
        link = onward[link]
    dx, dy = np.concatenate([px, -px])[walk] - px, np.concatenate([py, py])[walk] - py
    # (s, r) along and across the points' principal axis, from the zero;
    # r = c0 + c1 s + c2 s^2 by least squares (a line where they coincide)
    ex, ey = dx - dx.mean(axis=0), dy - dy.mean(axis=0)
    angle = 0.5 * np.arctan2(2.0 * (ex * ey).sum(axis=0), (ex * ex - ey * ey).sum(axis=0))
    cos, sin = np.cos(angle), np.sin(angle)
    s, r = cos * dx + sin * dy, cos * dy - sin * dx
    powers = np.stack([np.ones_like(s), s, s * s, s * s * s, (s * s) ** 2]).sum(axis=1)
    normal = powers.T[:, np.add.outer(np.arange(3), np.arange(3))] + 1e-12 * np.eye(3)
    fit = np.linalg.solve(normal, np.stack([r, r * s, r * s * s]).sum(axis=1).T[..., None])
    # a closest point may lie in the points' span, or as far again either side
    s_lo, s_hi = s.min(axis=0), s.max(axis=0)
    zeros = np.stack([px, py, cos, sin, *fit[..., 0].T, 2.0 * s_lo - s_hi, 2.0 * s_hi - s_lo])

    def parabola(k, i, j):
        """Nodes (i, j) as (s, r) in zeros k's frames, and their fits and spans."""
        x, y, cos, sin, c0, c1, c2, lo, hi = np.take(zeros, k, axis=1)
        return cos * (i - x) + sin * (j - y), cos * (j - y) - sin * (i - x), (c0, c1, c2), (lo, hi)

    from scipy import ndimage  # as in measure.label_regions

    si, sj = ndimage.distance_transform_edt((zero < 0).reshape(u.shape), return_distances=False, return_indices=True)
    k = zero[si * m + sj]  # the zero each node's nearest seed took
    rows, cols = np.arange(n)[:, None], np.arange(m)
    di, dj = rows - px[k], cols - py[k]
    dist = np.sqrt(di * di + dj * dj).reshape(-1)  # past the reach; np.hypot costs tenfold
    seed_sq = ((rows - si) ** 2 + (cols - sj) ** 2).reshape(-1)
    k = k.reshape(-1)
    close = np.flatnonzero(seed_sq <= 4)  # these take the nearest of five parabolas
    ci, cj = np.divmod(close, m)
    around = k[np.stack([close, np.maximum(ci - 1, 0) * m + cj, np.minimum(ci + 1, n - 1) * m + cj,
                         ci * m + np.maximum(cj - 1, 0), ci * m + np.minimum(cj + 1, m - 1)])]
    s, r, (c0, c1, c2), _ = parabola(around, ci, cj)
    gap, slope = c0 + (c1 + c2 * s) * s - r, c1 + 2.0 * c2 * s
    k[close] = around[(gap * gap / (1.0 + slope * slope)).argmin(axis=0), np.arange(close.size)]
    reach = np.flatnonzero(seed_sq <= (_BandedStepper.WIDTH + 4) ** 2)  # these, Newton steps
    s_node, r_node, (c0, c1, c2), (lo, hi) = parabola(k[reach], *np.divmod(reach, m))
    s = np.minimum(np.maximum(s_node, lo), hi)
    for _ in range(NEWTON_STEPS):
        # half the squared distance's first and (floored) second derivatives
        gap, slope = c0 + (c1 + c2 * s) * s - r_node, c1 + 2.0 * c2 * s
        curv = np.maximum(1.0 + slope * slope + 2.0 * c2 * gap, _CURVATURE_FLOOR)
        s = np.minimum(np.maximum(s - (s - s_node + gap * slope) / curv, lo), hi)
    gap = c0 + (c1 + c2 * s) * s - r_node
    dist[reach] = np.sqrt((s - s_node) ** 2 + gap * gap)
    dist = dist.reshape(u.shape) * h
    # an inside distance stays positive even where a crossing is on a node
    np.maximum(dist, np.finfo(float).tiny, out=dist, where=inside)
    np.negative(dist, out=dist, where=inside)
    np.copyto(dist, u, where=frozen_mask)
    return dist


class _BandedStepper:
    """The run loop's explicit step of du/dt = H_g |grad u| / w^2, on a
    narrow band (Adalsteinsson & Sethian 1995).

    H_g is the conformal mean curvature of the level sets (the
    measurement's, in the cancelled form of :func:`_speed`), so the zero
    set moves inward with normal speed H_g in the metric.  The kernel runs
    only on unfrozen nodes within a dozen cells of the interface;
    everything further keeps its value until the next distance rebuild
    (:func:`reinitialize`), and influences nothing measured.

    The flat indices into ``u.ravel()`` of each node's nine-point stencil
    and the speed coefficients depend only on node position, so the
    stepper builds them for the whole grid once, then takes its first band
    from the ``u`` and ``frozen_mask`` it is built on.  The band only
    changes at a refresh (:meth:`refresh`), which gathers both for the
    band's nodes and allocates the step's two (9, band size) buffers: the
    gathered stencil values and :func:`_speed`'s work rows.  A step is
    then one gather into the first, the kernel's arithmetic in the second
    and one scatter, and allocates no array.  Only the run loop refreshes
    the band, at the events that change it (:func:`run_modified_flow`).

    The band's edge is soft (Peng, Merriman, Osher, Zhao & Kang 1999): the
    band's coefficient rows, so the speed, are weighted by a cutoff of |u|
    at its refresh, 1 within half the width and falling smoothly to 0 at
    its edge.  At a hard edge, band nodes move while their neighbours
    outside stay put, and there super-steps of 10 stages grow a
    checkerboard.  The slowed level sets bend the field away from a
    distance until the next rebuild, and near the zero set that bend moves
    it: criterion 05's worst area error, at a sphere of 14 cells, reads
    1.55% (0.39% with a hard edge at 6 stages), and 0.13% with rebuilds
    twice as often.  The error is not monotone in the cutoff's start (from
    5 to 10 cells: 3.3, 1.55, 0.14, 0.21, 0.04, 0.30%), since the bend can
    speed the zero set up or slow it down.

    A refresh also takes the band's CFL scale, :attr:`bound_scale`: the
    step's diffusivity is w^-4, so the band's bound is the grid's
    (:func:`cfl_time_step`) times grid max K / band max K, with K =
    1/(h^2 w^4) the unweighted first coefficient row.  At m = 0 every K is
    equal and the scale is exactly 1.

    A step of ``stages`` s >= 2 is one RKL2 super-step (Meyer, Balsara &
    Aslam 2014; :func:`_rkl2_coefficients`): s kernel calls, each on the
    last stage's values, which it writes into u's band nodes, stable up
    to :func:`_stretch`(s) = (s^2 + s - 2)/4 times the explicit bound.
    Its four extra (band size) rows, Y_0, dt L(Y_0) and two stages, are
    allocated with the step buffers.
    """

    WIDTH = 12.0  # band half-width in cells

    def __init__(self, metric: AmbientMetric, grid: AxiGrid, u: np.ndarray, frozen_mask: np.ndarray):
        self.h = grid.h
        shape = grid.values.shape
        # (9, nodes) flat stencil indices in _speed's argument order and
        # (4, nodes) speed coefficients, for every node of the grid
        self.grid_stencil = _stencil_indices(*np.divmod(np.arange(grid.values.size), shape[1]), shape)
        self.grid_coef = _speed_coefficients(metric, grid.h, grid.z_min, shape)
        self._grid_k_max = float(self.grid_coef[0].max())  # K at the grid bound's node
        self.refresh(u, frozen_mask)

    def refresh(self, u: np.ndarray, frozen_mask: np.ndarray) -> None:
        """Take the band anew from ``u`` and ``frozen_mask`` alone: the
        unfrozen nodes with |u| below ``WIDTH`` cells, their tables
        gathered from the whole grid's and weighted by the cutoff of this
        ``u``, and new step buffers.  The band holds until the next refresh.
        """
        width = self.WIDTH * self.h
        # not |u| >= width: a NaN stays in the band, where the run loop's
        # finite check (_checked_grid) sees it
        centre = np.flatnonzero(~((u >= width) | (u <= -width) | frozen_mask))
        # (9, band size) flat stencil indices; row 0 is the band node itself
        self.stencil = np.take(self.grid_stencil, centre, axis=1)
        self.coef = np.take(self.grid_coef, centre, axis=1)  # (4, band size)
        # the band's CFL bound over the grid's
        self.bound_scale = self._grid_k_max / float(self.coef[0].max()) if centre.size else 1.0
        # Peng et al. 1999's cutoff of x = |u| / h: 1 up to beta = W / 2,
        # (x - W)^2 (2x + W - 3 beta) / (W - beta)^3 on to 0 at W = WIDTH;
        # exactly 1 at x <= beta, where the step keeps its bits
        w, beta = self.WIDTH, 0.5 * self.WIDTH
        x = np.maximum(np.abs(np.take(u, centre)) / self.h, beta)
        self.coef *= (x - w) * (x - w) * (2.0 * x + (w - 3.0 * beta)) / (w - beta) ** 3
        self.near = np.empty(self.stencil.shape)  # (9, band size) stencil values
        self.work = np.empty(self.stencil.shape)  # (9, band size) _speed's rows
        self.rows = np.empty((4, centre.size))  # (4, band size) a super-step's stages

    def step(self, u: np.ndarray, dt: float, stages: int = 1) -> tuple[np.ndarray, np.ndarray]:
        """Advance ``u`` in place by one banded step of ``dt``: explicit
        with ``stages`` = 1, else one RKL2 super-step of ``stages`` kernel
        calls.  Only band nodes change; ``u`` must be C-contiguous.

        Returns the band values before and after the step (aligned with
        ``stencil[0]``; empty for an empty band).  Both are views of the
        stepper's buffers, valid until the next step.
        """
        if not u.flags.c_contiguous:
            raise ValueError("the stepped field must be a C-contiguous array")
        # u is C-contiguous, so reshape is a view and writes land in u
        flat, band = u.reshape(-1), self.stencil[0]
        # the indices are in range, so "wrap" only skips take's buffered copy
        near = np.take(u, self.stencil, out=self.near, mode="wrap")
        u_new = _speed(near, self.coef, self.h, self.work)
        if stages == 1:
            u_new *= dt
            u_new += near[0]
            flat[band] = u_new
            return near[0], u_new
        first, later = _rkl2_coefficients(stages)
        y0, dt_l0, y, y_prev = self.rows  # Y_0, dt L(Y_0), Y_j, Y_{j-1}
        np.copyto(y0, near[0])
        np.multiply(u_new, dt, out=dt_l0)
        np.copyto(y_prev, y0)  # Y_{j-2} of stage 2
        np.multiply(dt_l0, first, out=y)
        y += y0
        for mu, nu, mu_w, gamma_w in later:
            flat[band] = y
            y, y_prev = y_prev, y  # y holds Y_{j-2} until overwritten by Y_j
            near = np.take(u, self.stencil, out=self.near, mode="wrap")
            speed = _speed(near, self.coef, self.h, self.work)
            speed *= mu_w * dt
            y *= nu
            y += speed
            for c, row in ((mu, y_prev), (1.0 - mu - nu, y0), (gamma_w, dt_l0)):
                np.multiply(row, c, out=speed)
                y += speed
        flat[band] = y
        return y0, y


def _sweep_can_change(state: LevelSetState, grid: AxiGrid, m_thr: float, t: float, rebuilt_at: float) -> bool:
    """Whether a freeze sweep of ``grid`` at time ``t`` could freeze a
    component or change the component count (else the loop leaves the
    state as the last sweep left it): with ``m_thr`` > 0, when the field
    was rebuilt since the last sweep (the last rebuild's time
    ``rebuilt_at`` is at or past the sweep's ``state.t``; a sweep at a
    rebuild's t runs before it) or some live record's perimeter P and
    int H^2 from the last sweep give P - KAPPA int H^2 (t - state.t) at or
    below 36 pi m_thr^2, or when one labelling of ``grid`` counts another
    number of measured components than the state holds.

    A rebuild moves the zero set a little, which the area-rate bound does
    not cover: next to the origin of a massive metric, where w^4 is huge,
    one rebuild halved a component's measured area.
    """
    if m_thr > 0.0:
        if rebuilt_at >= state.t:
            return True
        threshold = convexity_threshold(m_thr)
        elapsed = t - state.t
        for c in state.components:
            if not c.frozen and c.perimeter - KAPPA * c.h_sq_integral * elapsed <= threshold:
                return True
    _, deep = _deep_labels(grid)
    return np.count_nonzero(deep) != len(state.components)


def _checked_grid(state: LevelSetState, u: np.ndarray, stepper: _BandedStepper) -> AxiGrid:
    """The state's grid holding the field ``u``.  A band node of ``u`` that
    is not finite, or a region that reaches the grid's outer edge, ends the
    run: :class:`RunFailure`, with the samples taken so far.  Only band
    nodes change in a step, and a refresh, the stepper's first included,
    keeps a NaN in the band, so a value a step spoiled is still there."""
    if not np.isfinite(np.take(u, stepper.stencil[0])).all():
        raise RunFailure("non-finite field", state.trace.samples)
    try:
        return state.grid.replace_values(u)
    except ValueError as e:  # the region touches the outer domain boundary
        raise RunFailure(str(e), state.trace.samples) from e


def _axis_run_count(u: np.ndarray) -> int:
    """Number of negative runs along the axis column — a free proxy for
    component count changes (axisymmetric pinches happen on the axis)."""
    inside = u[0, :] < 0
    return int(inside[0]) + int(np.count_nonzero(inside[1:] & ~inside[:-1]))


@dataclass(frozen=True, kw_only=True)
class FlowRunConfig(TimeSpec):
    """Everything one modified-flow run needs: its time settings, and the
    metric, the initial field and the threshold mass.  Building it makes
    every check a run needs, dt's against the grid's stability bound too."""

    metric: AmbientMetric
    grid: AxiGrid
    threshold_mass: float | None = None  # default: the metric's mass
    bound: float = field(init=False)  # the grid's stability bound, cfl_time_step

    def __post_init__(self):
        super().__post_init__()
        m_thr = self.metric.mass if self.threshold_mass is None else self.threshold_mass
        object.__setattr__(self, "threshold_mass", _number(m_thr, "threshold_mass", minimum=0.0))
        bound = cfl_time_step(self.metric, self.grid)
        object.__setattr__(self, "bound", bound)
        if self.dt is None and not (bound > 0.0 and math.isfinite(self.sample_interval / bound)):
            raise ConfigError(f"sample_interval: too long for steps of the stability bound {bound}")
        if self.dt is not None and self.dt > bound * (1.0 + 1e-9):
            raise ConfigError(f"dt={self.dt} exceeds the stability bound {bound}")


def _plan(span: float, limit: float, cap: float, dt: float) -> tuple[int, float]:
    """Steps for ``span``, the rest of a sample interval, as (stages, dt).

    The explicit plan keeps ``dt`` while it is within ``limit`` and
    ``cap``; else it takes the largest step within both that covers the
    span in whole steps.  RKL2 super-steps replace it where they make
    fewer kernel calls than its round(span / dt) steps (a kept dt need not
    divide the span to the last bit): the fewest steps of at most
    MAX_STAGES stages, each within ``_stretch(stages) * limit`` and
    ``cap``, that cover the span, with the fewest stages that do.
    """
    if dt > min(limit, cap):
        dt = span / math.ceil(span / min(limit, cap))
    k = math.ceil(span / min(_stretch(MAX_STAGES) * limit, cap))
    # round-off may put span / k past the MAX_STAGES bound: no super-step then
    stages = next((s for s in range(2, MAX_STAGES + 1) if _stretch(s) * limit >= span / k), None)
    return (stages, span / k) if stages and k * stages < round(span / dt) else (1, dt)


def _sample(state: LevelSetState, m_profile: float) -> None:
    area = math.fsum(c.perimeter for c in state.components)
    volume = math.fsum(c.volume for c in state.components)
    gap = profile_volume_or_zero(m_profile, area) - volume
    state.trace.samples.append(
        TraceSample(
            t=state.t,
            area=area,
            volume=volume,
            profile_gap=float(gap),
            ratio=isoperimetric_ratio(area, volume),
            n_components=len(state.components),
            n_frozen=state.frozen_count,
            components=list(state.components),
        )
    )


def run_modified_flow(config: FlowRunConfig) -> FlowTrace:
    """Run the component-freezing flow and return its sampled trace.

    A configured dt pins the steps: every step is explicit, at that dt.
    Without one, :func:`_plan` plans the rest of the sample interval at
    each sample, and whenever a rebuild's or a freeze's refresh takes the
    band's bound below the step: explicit steps, or RKL2 super-steps
    where they make fewer kernel calls.  A step of s stages keeps within
    :func:`_stretch`(s) times the CFL bound of the band it moves
    (:func:`cfl_time_step`'s grid bound times
    :attr:`_BandedStepper.bound_scale`) and one period of the shorter
    cadence (below).  While the band's bound is the grid's, explicit steps
    keep the grid's dt.  Time is ``t_anchor + steps * dt``, the anchor
    moving only with dt.  The stepper takes the band before the first
    step and refreshes it after each rebuild and after a sweep that froze
    a component, from the field and the frozen nodes alone.  Between those
    only band nodes move, so none enters the band, and one leaves it only
    by crossing |u| = ``WIDTH`` cells, where the cutoff reaches 0.

    Sweeps for freezable components at every sample and whenever the
    axis pinch count changes, and samples totals on the configured
    interval.  ``reinit_cadence`` and ``sweep_cadence`` count grid-bound
    steps, dt_grid: the configured dt, or the grid's bound snapped to the
    sample interval.  Their periods are times on t, so they keep their
    model time when dt grows, and no step spans more than one period of
    either, so each period has its rebuild or check, at the first step
    that reaches it.  The distance field is rebuilt every
    ``reinit_cadence`` of them; every ``sweep_cadence`` of them a freeze
    check (:func:`_sweep_can_change`, which also holds the rule for the
    first check after a rebuild) runs the sweep only when it could freeze
    a component or change the component count, so a run's trace is the
    one a sweep at every such step would give.  The run ends when every
    component is frozen or gone (that time is ``freeze_all_time``) or at
    ``t_max`` (then the trace is flagged incomplete).

    The config made every check when it was built, so what a run raises
    is a fault of the run, never :class:`~isoflow.config.ConfigError`: a
    band value that turns non-finite, or a region that reaches the grid's
    outer edge, raises :class:`RunFailure` at the next check, sweep or
    rebuild (:func:`_checked_grid`).  The loop steps the working array
    ``u`` in place and wraps it in the state's grid only for a sweep; a
    sample always follows a sweep at the same step, so the state's grid
    is the current field at every sample.
    """
    metric, m_thr = config.metric, config.threshold_mass
    state = initial_state(metric, config.grid)
    bound = config.bound
    # the step the cadences count in: the configured dt, or the grid's bound
    # snapped to the sample interval
    dt = dt_grid = config.dt or config.sample_interval / math.ceil(config.sample_interval / bound)
    state = freeze_sweep(state, metric, m_thr)
    _sample(state, m_thr)

    u = config.grid.values.copy()  # working field; the input grid is kept intact
    stepper = None  # its whole-grid tables are wasted on a run the first sweep ends
    if state.live_count:
        stepper = _BandedStepper(metric, config.grid, u, state.frozen_mask)
    arrival_flat = state.trace.arrival_time.ravel()
    next_sample = config.sample_interval
    t_anchor, steps, t = 0.0, 0, 0.0  # t = t_anchor + steps * dt
    # rebuilds and sweep checks fall due on t, one period apart: cadence *
    # dt_grid less a slack for t's round-off; reinit_cadence 0 never falls due
    slack = 1e-9 * dt_grid
    rebuild_period = (config.reinit_cadence or math.inf) * dt_grid - slack
    check_period = config.sweep_cadence * dt_grid - slack
    next_rebuild, next_check = rebuild_period, check_period
    # no step spans more than one period of either cadence
    cap = min(config.sweep_cadence, config.reinit_cadence or math.inf) * dt_grid
    stages = 1  # kernel calls per step
    rebuilt_at = -math.inf  # the last rebuild's t
    # a change of the axis-run count sweeps at once, so at the top of each
    # iteration runs is its value at the last sweep
    runs = _axis_run_count(u)
    t_end = config.t_max - 1e-12 * max(config.t_max, 1.0)
    while t < t_end and state.live_count:
        # rebuild only before a step, never between a step and its sweep,
        # so no sample is read off a just-rebuilt field
        if t >= next_rebuild:
            next_rebuild += rebuild_period
            _checked_grid(state, u, stepper)  # fail before a rebuild reads a bad field
            u = reinitialize(u, config.grid.h, state.frozen_mask)
            stepper.refresh(u, state.frozen_mask)
            rebuilt_at = t
        if config.dt is None:
            limit = bound * stepper.bound_scale
            # plan at a sample, or when a refresh took the bound below the step
            if t == state.trace.samples[-1].t or dt > min(_stretch(stages) * limit, cap):
                # keep the grid's dt while the band's bound is the grid's
                kept = dt if limit == bound and dt == dt_grid else math.inf
                stages, planned = _plan(next_sample - t, limit, cap, kept)
                if stages > 1 or planned != dt:
                    t_anchor, steps, dt = t, 0, planned
        band_prev, band_vals = stepper.step(u, dt, stages)
        steps += 1
        t = t_anchor + steps * dt
        # Only band nodes move in a step, and a rebuild keeps every node's
        # sign, so arrivals and the axis runs can change only when some
        # band node's "< 0" did; otherwise runs stays put.
        pinched = False
        if ((band_prev < 0.0) != (band_vals < 0.0)).any():
            # a node can only reach 0 in the step that takes it from
            # negative; the gather below runs only when one did
            flip = (band_vals >= 0.0) & (band_prev < 0.0)
            if flip.any():
                flat = stepper.stencil[0][flip]
                arrival_flat[flat[np.isinf(arrival_flat[flat])]] = t
            count = _axis_run_count(u)
            pinched, runs = count != runs, count
        check_due = t >= next_check
        if check_due:
            next_check += check_period
        sample_due = t >= next_sample - 0.5 * dt
        sweep_due = sample_due or pinched
        if sweep_due or check_due:
            grid = _checked_grid(state, u, stepper)
            if sweep_due or _sweep_can_change(state, grid, m_thr, t, rebuilt_at):
                frozen_before = state.frozen_count
                state = freeze_sweep(replace(state, grid=grid, t=t), metric, m_thr)
                if state.frozen_count != frozen_before:
                    stepper.refresh(u, state.frozen_mask)
        if sample_due:
            _sample(state, m_thr)
            next_sample += config.sample_interval
    if state.live_count:
        # time limit: a final sweep (one may already have run at this
        # step; a repeated sweep changes nothing)
        state = freeze_sweep(replace(state, grid=_checked_grid(state, u, stepper), t=t), metric, m_thr)
    if state.trace.samples[-1].t < t:
        _sample(state, m_thr)
    if not state.live_count:
        state.trace.freeze_all_time = t
    return state.trace
