"""Test oracles for :func:`isoflow.measure.measure_components`: the zero
contour as (rho, z) polylines, area and H^2 integrals over a polyline,
one component's volume, and the labeled node sets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from isoflow import measure
from isoflow.measure import AxiGrid, _area_element, _curvature_in_cells, _sweep, label_regions
from isoflow.metric import AmbientMetric


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
