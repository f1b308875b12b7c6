"""Test oracles for :func:`isoflow.measure.measure_components`: the zero
contour as (rho, z) polylines, area and H^2 integrals over a polyline,
one component's volume, and the labeled node sets; and the banded
step's edge weights.

The ``reference_*`` functions are the measurement pass as it was before
the sweep gathered corners by flat index and added its shoelace terms as
rows, the curvature found its corner nodes without ``np.unique``, the
owner sums shared one sort and the id map was built in one lookup.  Only
``test_measure_pass_properties`` reads them: the shipped pass must
reproduce them bit for bit.  The other oracles here run on the shipped
labelling, sweep and curvature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from isoflow import measure
from isoflow.measure import (
    AxiGrid,
    _area_element,
    _cell_geometry,
    _conformal_power,
    _curvature_in_cells,
    _curvature_stencil,
    _normal_geometry,
    _stencil_indices,
    _sweep,
    label_regions,
)
from isoflow.metric import AmbientMetric


# ---------------------------------------------------------------------------
# the whole-grid measurement pass


def reference_label_regions(grid: AxiGrid) -> tuple[np.ndarray, int]:
    """4-connected labels of {values < 0} over the whole grid."""
    return ndimage.label(grid.values < 0, structure=measure._FOUR_CONNECTED)


def _reference_full_cell_volumes(contrib, labels, n_comp, full) -> np.ndarray:
    if not np.any(full):
        return np.zeros(n_comp + 1)
    owner = np.where(full, labels[:-1, :-1], 0)
    return np.bincount(owner.ravel(), weights=(contrib * full).ravel(), minlength=n_comp + 1)


def reference_sweep(metric: AmbientMetric, grid: AxiGrid, labels: np.ndarray, n_comp: int) -> measure._Sweep:
    """The marching-squares pass over every cell of the grid."""
    u = grid.values
    h = grid.h
    inside = u < 0
    case = inside[:-1, :-1] + 2 * inside[1:, :-1] + 4 * inside[:-1, 1:] + 8 * inside[1:, 1:]
    horizon, contrib = _cell_geometry(metric, h, grid.z_min, u.shape)
    full_volume = _reference_full_cell_volumes(contrib, labels, n_comp, case == 15)
    ii, jj = np.nonzero((case > 0) & (case < 15))
    v00, v10, v01, v11 = u[ii, jj], u[ii + 1, jj], u[ii, jj + 1], u[ii + 1, jj + 1]
    case = case[ii, jj]
    saddle = (case == 6) | (case == 9)
    case = np.where(saddle & (0.25 * (v00 + v10 + v01 + v11) < 0.0), case + measure._CONNECTED, case)

    pts = np.zeros((ii.size, 8, 2))
    pts[:, 2:5, 0] = 1.0
    pts[:, 4:7, 1] = 1.0
    with np.errstate(divide="ignore", invalid="ignore"):
        pts[:, 1, 0] = v00 / (v00 - v10)
        pts[:, 3, 1] = v10 / (v10 - v11)
        pts[:, 5, 0] = v01 / (v01 - v11)
        pts[:, 7, 1] = v00 / (v00 - v01)
    corner_labels = np.stack(
        [labels[ii, jj], labels[ii + 1, jj], labels[ii, jj + 1], labels[ii + 1, jj + 1]], axis=1
    )

    cell = np.repeat(np.arange(ii.size), measure._SLOTS[case])
    slot = np.zeros(cell.size, dtype=np.intp)
    slot[1:] = cell[1:] == cell[:-1]
    entry = case[cell]
    ends = measure._CHORD[entry, slot]
    ci, cj = ii[cell], jj[cell]

    vertices = pts[cell[:, None], measure._POLYGON[entry, slot]]
    x, y = vertices[..., 0], vertices[..., 1]
    area2 = moment6 = cy6 = 0.0
    for k in range(6):
        x0, y0, x1, y1 = x[:, k], y[:, k], x[:, (k + 1) % 6], y[:, (k + 1) % 6]
        cross = x0 * y1 - x1 * y0
        area2 = area2 + cross
        moment6 = moment6 + (x0 + x1) * cross
        cy6 = cy6 + (y0 + y1) * cross
    area = 0.5 * area2
    moment = np.where(area < 0, -moment6 / 6.0, moment6 / 6.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        cx = moment6 / (6.0 * area)
        cy = cy6 / (6.0 * area)
    w6 = _conformal_power(metric, (ci + cx) * h, grid.z_min + (cj + cy) * h, 6, h)
    rho_moment = h**3 * (ci * np.abs(area) + moment)
    volume = measure._WEIGHT[entry, slot] * 2.0 * math.pi * rho_moment * w6
    volume = np.where((area != 0.0) & ~horizon[ci, cj], volume, 0.0)

    return measure._Sweep(
        i=ci,
        j=cj,
        a=pts[cell, ends[:, 0]],
        b=pts[cell, ends[:, 1]],
        owner=corner_labels[cell, measure._OWNER[entry, slot]],
        volume=volume,
        full_volume=full_volume,
    )


def _reference_curvature_at(metric: AmbientMetric, grid: AxiGrid, ni, nj) -> np.ndarray:
    h = grid.h
    rho = ni * h
    geometry, w = _normal_geometry(metric, rho, grid.z_min + nj * h, h)
    near = np.take(grid.values, _stencil_indices(ni, nj, grid.values.shape))
    h_flat, _, normal = _curvature_stencil(*near, h, rho, ni > 0, geometry)
    return (h_flat + 4.0 * normal) / w**2


def reference_curvature_in_cells(metric: AmbientMetric, grid: AxiGrid, i, j, fx, fy) -> np.ndarray:
    """Bilinear mean curvature in cells, the corner nodes found by ``np.unique``."""
    n_z = grid.n_z
    base = i * n_z + j
    nodes, inverse = np.unique(
        np.stack([base, base + n_z, base + 1, base + n_z + 1]), return_inverse=True
    )
    field = _reference_curvature_at(metric, grid, *np.divmod(nodes, n_z))
    f00, f10, f01, f11 = field[inverse.reshape(4, -1)]
    return f00 * (1 - fx) * (1 - fy) + f10 * fx * (1 - fy) + f01 * (1 - fx) * fy + f11 * fx * fy


def _reference_owner_fsums(owner: np.ndarray, values: np.ndarray, n_comp: int) -> list[float]:
    order = np.argsort(owner, kind="stable")
    bounds = np.searchsorted(owner[order], np.arange(n_comp + 2)).tolist()
    grouped = values[order].tolist()
    return [math.fsum(grouped[lo:hi]) for lo, hi in zip(bounds[:-1], bounds[1:])]


@dataclass(frozen=True, eq=False)
class ReferenceMeasure:
    id: int
    perimeter: float
    volume: float
    h_sq_integral: float
    node_mask: np.ndarray


def reference_measure_components(metric: AmbientMetric, grid: AxiGrid) -> list[ReferenceMeasure]:
    """Every component with a node one cell deep, measured by the
    whole-grid pass."""
    labels, n = reference_label_regions(grid)
    deep = np.zeros(n + 1, dtype=bool)
    deep[labels[grid.values <= -grid.h]] = True
    if n == 0:
        return []
    h = grid.h
    sweep = reference_sweep(metric, grid, labels, n)
    xm = 0.5 * (sweep.a[:, 0] + sweep.b[:, 0])
    ym = 0.5 * (sweep.a[:, 1] + sweep.b[:, 1])
    d = (sweep.b - sweep.a).T.tolist()
    length = np.fromiter(map(math.hypot, *d), dtype=float, count=len(d[0])) * h
    rho_mid = (sweep.i + xm) * h
    area = _area_element(metric, rho_mid, grid.z_min + (sweep.j + ym) * h, length, h)
    h_mid = reference_curvature_in_cells(metric, grid, sweep.i, sweep.j, xm, ym)
    h_sq = np.where(area != 0.0, h_mid * h_mid * area, 0.0)
    perimeter = _reference_owner_fsums(sweep.owner, area, n)
    h_sq_integral = _reference_owner_fsums(sweep.owner, h_sq, n)
    volume = _reference_owner_fsums(sweep.owner, sweep.volume, n)
    return [
        ReferenceMeasure(
            id=k,
            perimeter=perimeter[k],
            volume=float(sweep.full_volume[k]) + volume[k],
            h_sq_integral=h_sq_integral[k],
            node_mask=labels == k,
        )
        for k in range(1, n + 1)
        if deep[k]
    ]


def reference_match_ids(id_map: np.ndarray, next_id: int, measures) -> tuple[list[int], np.ndarray, int]:
    """Ids by maximal overlap with ``id_map``, the new map written one
    component mask at a time."""
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


# ---------------------------------------------------------------------------
# contours, polyline integrals and volumes


@dataclass(frozen=True, eq=False)
class Component:
    """Geometry-free component: a label and its set of nodes."""

    id: int
    node_mask: np.ndarray

    @property
    def node_count(self) -> int:
        return int(np.count_nonzero(self.node_mask))


def extract_components(grid: AxiGrid) -> list[Component]:
    labels, n = label_regions(grid)
    return [Component(id=k, node_mask=labels == k) for k in range(1, n + 1)]


def _edge_keys(sweep, grid: AxiGrid) -> tuple[np.ndarray, np.ndarray]:
    """Grid edges crossed by each chord's two ends, looked up in the case
    table from each cell's signs and centre mean (a saddle's two chords
    come in slot order).  Keys number the rho-edges (i, j) -> i n_z + j
    first, then the z-edges, offset by the node count.
    """
    u, n_z = grid.values, grid.n_z
    i, j = sweep.i, sweep.j
    v00, v10, v01, v11 = u[i, j], u[i + 1, j], u[i, j + 1], u[i + 1, j + 1]
    case = (v00 < 0) + 2 * (v10 < 0) + 4 * (v01 < 0) + 8 * (v11 < 0)
    saddle = (case == 6) | (case == 9)
    case = np.where(saddle & (0.25 * (v00 + v10 + v01 + v11) < 0.0), case + measure._CONNECTED, case)
    slot = np.zeros(i.size, dtype=np.intp)
    slot[1:] = (i[1:] == i[:-1]) & (j[1:] == j[:-1])
    assert np.all(slot < measure._SLOTS[case])

    def key(pos):  # walk positions S = 1 and N = 5 are rho-edges, E = 3 and W = 7 z-edges
        return np.where(pos % 4 == 1, i * n_z + j + (pos == 5), u.size + (i + (pos == 3)) * n_z + j)

    ends = measure._CHORD[case, slot]
    return key(ends[:, 0]), key(ends[:, 1])


def interface_contour(grid: AxiGrid, component: Component | None = None) -> list[np.ndarray]:
    """Zero-contour polylines, optionally restricted to one component.

    Each polyline is an (n, 2) array of (rho, z) points; closed curves
    repeat their first point, open ones start and end on the axis (the
    only edges one chord ends on).  Open chains come first, sorted by
    their end key, then the remaining loops in chord order.
    """
    labels, n = label_regions(grid)
    if n == 0:
        return []
    sweep = _sweep(AmbientMetric.euclidean(), grid, labels, n)
    keep = np.ones(sweep.owner.size, dtype=bool) if component is None else sweep.owner == component.id
    indices = np.flatnonzero(keep).tolist()
    h, z0 = grid.h, grid.z_min

    def global_points(p):
        return np.column_stack([(sweep.i + p[:, 0]) * h, z0 + (sweep.j + p[:, 1]) * h]).tolist()

    start, end = global_points(sweep.a), global_points(sweep.b)
    key_a, key_b = (k.tolist() for k in _edge_keys(sweep, grid))
    by_key: dict[int, list[int]] = {}
    for k in indices:
        for key in (key_a[k], key_b[k]):
            by_key.setdefault(key, []).append(k)
    used = set()
    chains = []

    def walk(k, key):
        pts = []
        while True:
            used.add(k)
            if key == key_a[k]:
                enter, exit_pt, exit_key = start[k], end[k], key_b[k]
            else:
                enter, exit_pt, exit_key = end[k], start[k], key_a[k]
            if not pts:
                pts.append(enter)
            pts.append(exit_pt)
            nxt = [s for s in by_key.get(exit_key, ()) if s not in used]
            if not nxt:
                return pts
            k, key = nxt[0], exit_key

    for key in sorted(k for k, members in by_key.items() if len(members) == 1):
        if by_key[key][0] not in used:
            chains.append(np.array(walk(by_key[key][0], key)))
    for k in indices:
        if k not in used:
            pts = walk(k, key_a[k])
            pts.append(pts[0])  # closed loop
            chains.append(np.array(pts))
    return chains


def _segments(polyline: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Midpoints and lengths of a polyline's nonzero segments."""
    pts = np.asarray(polyline, dtype=float).reshape(-1, 2)
    d = np.diff(pts, axis=0)
    length = np.hypot(d[:, 0], d[:, 1])
    return (0.5 * (pts[:-1] + pts[1:]))[length > 0.0], length[length > 0.0]


def g_perimeter(metric: AmbientMetric, polyline: np.ndarray, h: float | None = None) -> float:
    """Area of the surface swept by revolving a polyline about the axis.

    Sum over segments of 2 pi rho_mid * length * w^4 at the midpoint.
    ``h`` only sets the radius floor for the conformal factor; it
    defaults to the shortest nonzero segment length.
    """
    mid, length = _segments(polyline)
    if h is None:
        h = float(length.min()) if length.size else 1.0
    return math.fsum(_area_element(metric, mid[:, 0], mid[:, 1], length, h))


def interface_H_sq(metric: AmbientMetric, grid: AxiGrid, polyline: np.ndarray) -> float:
    """Integral of H^2 over the revolved polyline interface.

    H is the node mean-curvature field sampled bilinearly at segment
    midpoints; the area element matches :func:`g_perimeter`.
    """
    mid, length = _segments(polyline)
    x = mid[:, 0] / grid.h
    y = (mid[:, 1] - grid.z_min) / grid.h
    i = np.clip(np.floor(x).astype(np.int64), 0, grid.n_rho - 2)
    j = np.clip(np.floor(y).astype(np.int64), 0, grid.n_z - 2)
    h_mid = _curvature_in_cells(metric, grid, i, j, x - i, y - j)
    return math.fsum(h_mid * h_mid * _area_element(metric, mid[:, 0], mid[:, 1], length, grid.h))


def g_volume(metric: AmbientMetric, grid: AxiGrid, component: Component) -> float:
    """Metric volume of one component's region."""
    sweep = _sweep(metric, grid, *label_regions(grid))
    pieces = sweep.volume[sweep.owner == component.id]
    return float(sweep.full_volume[component.id]) + math.fsum(pieces.tolist())


# ---------------------------------------------------------------------------
# the banded step's soft edge


def band_cutoff(u: np.ndarray, h: float, width: float) -> np.ndarray:
    """Peng et al. 1999's cutoff of x = |u| / h for a band of half-width
    ``width`` cells: 1 up to beta = width / 2, then (x - width)^2 (2x +
    width - 3 beta) / (width - beta)^3, 0 at the band's edge."""
    x, beta = np.abs(u) / h, 0.5 * width
    return np.where(x <= beta, 1.0, (x - width) ** 2 * (2 * x + (width - 3 * beta)) / (width - beta) ** 3)
