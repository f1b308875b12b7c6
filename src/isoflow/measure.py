"""Geometric measurement of axisymmetric regions sampled on a grid.

A region of the 3-d model space is represented by level-set samples on
a uniform (rho, z) half-plane lattice (negative inside).  This module
extracts its connected components, traces the zero contour by marching
squares, and evaluates metric-weighted surface area ("perimeter" of the
revolved interface), enclosed volume, and the interface integral of the
squared mean curvature.

Conventions that matter:

- components are 4-connected sets of negative nodes, labeled in scan
  order of their first node;
- saddle cells are disambiguated by the sign of the cell-center mean:
  negative connects the two inside corners, otherwise they stay
  separate;
- the axis is handled by mirror symmetry (interfaces may terminate on
  it; revolution closes them);
- with positive mass, cells whose center lies inside the horizon
  radius contribute no volume (they are outside the manifold proper);
- every interface segment and sub-cell polygon is attributed to exactly
  one component, so component sums reproduce region totals exactly;
- all interface geometry is computed in cell-local coordinates, so
  translating the region along z by whole cells changes nothing, bit
  for bit, whenever the metric weight permits (zero mass).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .metric import AmbientMetric

_FOUR_CONNECTED = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]], dtype=int)

# gradient-magnitude regularizer for curvature stencils
_GRAD_EPS = 1e-8

# radii are clamped to this fraction of a cell before evaluating the
# conformal factor, so the coordinate origin cannot produce infinities
_RADIUS_FLOOR = 0.25


@dataclass(frozen=True, eq=False)
class AxiGrid:
    """Uniform node lattice on the (rho, z) half-plane, axis included.

    ``values[i, j]`` samples the level-set function at rho = i h,
    z = z_min + j h; the first column is the axis.  The region
    {values < 0} must stay clear of the three outer boundary edges.
    """

    h: float
    z_min: float
    values: np.ndarray

    def __post_init__(self):
        if not (math.isfinite(self.h) and self.h > 0):
            raise ValueError("grid spacing must be positive")
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 2 or v.shape[0] < 4 or v.shape[1] < 4:
            raise ValueError("need at least 4 nodes in each direction")
        object.__setattr__(self, "values", v)
        edge = np.concatenate([v[-1, :], v[:, 0], v[:, -1]])
        if np.any(edge < 0):
            raise ValueError("region touches the outer domain boundary")

    @property
    def n_rho(self) -> int:
        return self.values.shape[0]

    @property
    def n_z(self) -> int:
        return self.values.shape[1]

    @property
    def rho_max(self) -> float:
        return (self.n_rho - 1) * self.h

    @property
    def z_max(self) -> float:
        return self.z_min + (self.n_z - 1) * self.h

    @property
    def rho(self) -> np.ndarray:
        return np.arange(self.n_rho) * self.h

    @property
    def z(self) -> np.ndarray:
        return self.z_min + np.arange(self.n_z) * self.h

    @classmethod
    def sample(cls, h: float, rho_max: float, z_min: float, z_max: float, fn) -> "AxiGrid":
        """Sample ``fn(rho, z)`` (vectorized) on the lattice."""
        n_rho = int(round(rho_max / h)) + 1
        n_z = int(round((z_max - z_min) / h)) + 1
        rho = np.arange(n_rho) * h
        z = z_min + np.arange(n_z) * h
        return cls(h=h, z_min=z_min, values=fn(rho[:, None], z[None, :]))

    def replace_values(self, values: np.ndarray) -> "AxiGrid":
        return AxiGrid(h=self.h, z_min=self.z_min, values=values)


@dataclass(frozen=True, eq=False)
class Component:
    """Geometry-free component: a label and its set of nodes."""

    id: int
    node_mask: np.ndarray

    @property
    def node_count(self) -> int:
        return int(np.count_nonzero(self.node_mask))


@dataclass(frozen=True, eq=False)
class ComponentMeasure:
    """Metric measurements of one component."""

    id: int
    perimeter: float
    volume: float
    h_sq_integral: float
    node_mask: np.ndarray

    @property
    def node_count(self) -> int:
        return int(np.count_nonzero(self.node_mask))


def label_regions(grid: AxiGrid) -> tuple[np.ndarray, int]:
    """4-connected labels of {values < 0}, numbered in scan order.

    Returns (labels, count); labels[i, j] == 0 marks outside nodes.
    """
    inside = grid.values < 0
    raw, n = ndimage.label(inside, structure=_FOUR_CONNECTED)
    if n == 0:
        return raw, 0
    # renumber so that label order follows the first (scan-order) node
    flat = raw.ravel()
    first = np.full(n + 1, flat.size, dtype=np.int64)
    idx = np.nonzero(flat)[0]
    np.minimum.at(first, flat[idx], idx)
    order = np.argsort(first[1:], kind="stable")
    remap = np.zeros(n + 1, dtype=raw.dtype)
    remap[1 + order] = np.arange(1, n + 1)
    return remap[raw], n


def extract_components(grid: AxiGrid) -> list[Component]:
    labels, n = label_regions(grid)
    return [Component(id=k, node_mask=labels == k) for k in range(1, n + 1)]


# ---------------------------------------------------------------------------
# conformal weights


def _floored_radius(rho, z, h: float):
    """Distance from the origin, floored at a fraction of a cell."""
    return np.maximum(np.hypot(rho, z), _RADIUS_FLOOR * h)


def _conformal_power(metric: AmbientMetric, rho, z, power: int, h: float):
    """w^power at points, radius floored at a fraction of a cell."""
    if metric.mass == 0.0:
        return np.ones_like(np.asarray(rho, dtype=float))
    return (1.0 + metric.mass / (2.0 * _floored_radius(rho, z, h))) ** power


def _normal_geometry(metric: AmbientMetric, rho, z, h: float):
    """What the stencil's conformal normal term reads at points with mass
    m > 0: ((z, floored r, d ln w / dr), w)."""
    r = _floored_radius(rho, z, h)
    w = _conformal_power(metric, rho, z, 1, h)
    return (z, r, -metric.mass / (2.0 * r**2 * w)), w


# ---------------------------------------------------------------------------
# marching squares (cell-local geometry)


@dataclass(frozen=True, eq=False)
class _Segment:
    """One interface chord inside cell (i, j), endpoints in cell units."""

    i: int
    j: int
    a: tuple[float, float]  # local (xi, eta) in [0, 1]^2
    b: tuple[float, float]
    key_a: tuple
    key_b: tuple
    owner: int

    @property
    def local_length(self) -> float:
        return math.hypot(self.b[0] - self.a[0], self.b[1] - self.a[1])

    @property
    def local_mid(self) -> tuple[float, float]:
        return (0.5 * (self.a[0] + self.b[0]), 0.5 * (self.a[1] + self.b[1]))

    def global_points(self, grid: AxiGrid) -> tuple[tuple[float, float], tuple[float, float]]:
        h, z0 = grid.h, grid.z_min
        return (
            ((self.i + self.a[0]) * h, z0 + (self.j + self.a[1]) * h),
            ((self.i + self.b[0]) * h, z0 + (self.j + self.b[1]) * h),
        )


def _local_polygon_moments(points) -> tuple[float, float, float, float]:
    """(area, int xi dA, centroid xi, centroid eta) in cell units."""
    area2 = 0.0
    moment6 = 0.0
    cy6 = 0.0
    n = len(points)
    for k in range(n):
        x0, y0 = points[k]
        x1, y1 = points[(k + 1) % n]
        cross = x0 * y1 - x1 * y0
        area2 += cross
        moment6 += (x0 + x1) * cross
        cy6 += (y0 + y1) * cross
    area = 0.5 * area2
    moment = moment6 / 6.0
    if area == 0.0:
        return 0.0, 0.0, points[0][0], points[0][1]
    cx = moment6 / (6.0 * area)
    cy = cy6 / (6.0 * area)
    if area < 0:
        area, moment = -area, -moment
    return area, moment, cx, cy


class _CellSweep:
    """One pass over interface cells: segments plus sub-cell volumes.

    Geometry is accumulated in cell-local units so that results are
    exactly invariant under whole-cell z translation when the metric
    weight is (no weights present at zero mass).
    """

    def __init__(self, metric: AmbientMetric, grid: AxiGrid, labels: np.ndarray, n_comp: int):
        self.metric = metric
        self.grid = grid
        self.labels = labels
        self.segments: list[_Segment] = []
        # per-component partial-cell volume contributions (for fsum)
        self.vol_pieces: list[list[float]] = [[] for _ in range(n_comp + 1)]
        self._sweep()

    # -- helpers ------------------------------------------------------

    def _add_piece(self, owner: int, i: int, j: int, polygon, weight: float, masked: bool):
        if masked or len(polygon) < 3:
            return
        area, moment, cx, cy = _local_polygon_moments(polygon)
        if area <= 0.0:
            return
        h = self.grid.h
        # int rho dA over the piece = h^3 (i * area + moment)
        rho_moment = h**3 * (i * area + moment)
        if self.metric.mass == 0.0:
            w6 = 1.0
        else:
            w6 = float(
                _conformal_power(
                    self.metric,
                    np.float64((i + cx) * h),
                    np.float64(self.grid.z_min + (j + cy) * h),
                    6,
                    h,
                )
            )
        self.vol_pieces[owner].append(weight * 2.0 * math.pi * rho_moment * w6)

    def _crossings(self, i: int, j: int, flags) -> dict:
        """Local crossing coordinates and edge keys for one cell."""
        u = self.grid.values
        b00, b10, b01, b11 = flags
        out = {}
        if b00 != b10:
            ua, ub = u[i, j], u[i + 1, j]
            out["S"] = ((ua / (ua - ub), 0.0), ("r", i, j))
        if b01 != b11:
            ua, ub = u[i, j + 1], u[i + 1, j + 1]
            out["N"] = ((ua / (ua - ub), 1.0), ("r", i, j + 1))
        if b00 != b01:
            ua, ub = u[i, j], u[i, j + 1]
            out["W"] = ((0.0, ua / (ua - ub)), ("z", i, j))
        if b10 != b11:
            ua, ub = u[i + 1, j], u[i + 1, j + 1]
            out["E"] = ((1.0, ua / (ua - ub)), ("z", i + 1, j))
        return out

    @staticmethod
    def _walk_polygon(flags, cross):
        """Inside polygon from the counterclockwise cell boundary walk."""
        b00, b10, b01, b11 = flags
        corner_xy = {"00": (0.0, 0.0), "10": (1.0, 0.0), "11": (1.0, 1.0), "01": (0.0, 1.0)}
        cycle = (
            ("c", "00", b00),
            ("e", "S", None),
            ("c", "10", b10),
            ("e", "E", None),
            ("c", "11", b11),
            ("e", "N", None),
            ("c", "01", b01),
            ("e", "W", None),
        )
        pts = []
        for kind, name, flag in cycle:
            if kind == "c":
                if flag:
                    pts.append(corner_xy[name])
            elif name in cross:
                pts.append(cross[name][0])
        return pts

    # -- the sweep ----------------------------------------------------

    def _sweep(self):
        grid, labels = self.grid, self.labels
        u = grid.values
        h, z_min = grid.h, grid.z_min
        m = self.metric.mass
        inside = u < 0
        s00 = inside[:-1, :-1]
        s10 = inside[1:, :-1]
        s01 = inside[:-1, 1:]
        s11 = inside[1:, 1:]
        count = (
            s00.astype(np.int8) + s10.astype(np.int8) + s01.astype(np.int8) + s11.astype(np.int8)
        )
        mixed = (count > 0) & (count < 4)
        horizon = m / 2.0
        corner_xy = {"00": (0.0, 0.0), "10": (1.0, 0.0), "11": (1.0, 1.0), "01": (0.0, 1.0)}
        for i, j in np.argwhere(mixed):
            i, j = int(i), int(j)
            masked = False
            if m > 0.0:
                rho_c = (i + 0.5) * h
                z_c = z_min + (j + 0.5) * h
                masked = math.hypot(rho_c, z_c) < horizon
            flags = (bool(s00[i, j]), bool(s10[i, j]), bool(s01[i, j]), bool(s11[i, j]))
            b00, b10, b01, b11 = flags
            cross = self._crossings(i, j, flags)
            lab = {
                "00": int(labels[i, j]),
                "10": int(labels[i + 1, j]),
                "01": int(labels[i, j + 1]),
                "11": int(labels[i + 1, j + 1]),
            }

            def add_segment(side_a, side_b, owner):
                (pa, ka), (pb, kb) = cross[side_a], cross[side_b]
                self.segments.append(
                    _Segment(i=i, j=j, a=pa, b=pb, key_a=ka, key_b=kb, owner=owner)
                )

            saddle = (b10 and b01 and not b00 and not b11) or (
                b00 and b11 and not b10 and not b01
            )
            if saddle:
                center_mean = 0.25 * (u[i, j] + u[i + 1, j] + u[i, j + 1] + u[i + 1, j + 1])
                if b10 and b01:
                    corners = ("10", "01")
                    arcs = {"10": ("S", "E"), "01": ("N", "W")}
                    walls = {"01": ("W", "S"), "10": ("N", "E")}
                else:
                    corners = ("00", "11")
                    arcs = {"00": ("W", "S"), "11": ("E", "N")}
                    walls = {"00": ("N", "W"), "11": ("S", "E")}
                if center_mean >= 0.0:
                    # inside corners stay separate: one triangle each
                    for c in corners:
                        sa, sb = arcs[c]
                        add_segment(sa, sb, lab[c])
                        tri = [cross[sa][0], corner_xy[c], cross[sb][0]]
                        self._add_piece(lab[c], i, j, tri, 1.0, masked)
                else:
                    # the inside connects through the cell: hexagonal band;
                    # each wall goes with one inside corner, and the band's
                    # volume is shared half-and-half
                    band = self._walk_polygon(flags, cross)
                    for c in corners:
                        sa, sb = walls[c]
                        add_segment(sa, sb, lab[c])
                        self._add_piece(lab[c], i, j, band, 0.5, masked)
                continue

            polygon = self._walk_polygon(flags, cross)
            flag_of = {"00": b00, "01": b01, "10": b10, "11": b11}
            owner = lab[next(c for c in ("00", "01", "10", "11") if flag_of[c])]
            sides = [s for s in ("S", "E", "N", "W") if s in cross]
            add_segment(sides[0], sides[1], owner)
            self._add_piece(owner, i, j, polygon, 1.0, masked)

    # -- per-segment integrands ---------------------------------------

    def segment_area_element(self, seg: _Segment) -> float:
        """g-area swept by revolving one chord: 2 pi rho_mid len w^4."""
        h = self.grid.h
        xm, ym = seg.local_mid
        rho_mid = (seg.i + xm) * h
        length = seg.local_length * h
        if self.metric.mass == 0.0:
            w4 = 1.0
        else:
            w4 = float(
                _conformal_power(
                    self.metric,
                    np.float64(rho_mid),
                    np.float64(self.grid.z_min + (seg.j + ym) * h),
                    4,
                    h,
                )
            )
        return 2.0 * math.pi * rho_mid * length * w4

    def segment_h_interp(self, seg: _Segment, field: np.ndarray) -> float:
        """Bilinear sample of a node field at the chord midpoint."""
        fx, fy = seg.local_mid
        i, j = seg.i, seg.j
        return float(
            field[i, j] * (1 - fx) * (1 - fy)
            + field[i + 1, j] * fx * (1 - fy)
            + field[i, j + 1] * (1 - fx) * fy
            + field[i + 1, j + 1] * fx * fy
        )


def _chain_segments(sweep: _CellSweep, indices) -> list[np.ndarray]:
    """Join segments into polylines; closed loops repeat the first point.

    Chains terminate only at axis edges (degree-1 keys).  Walk order is
    deterministic: open chains first (sorted by their end key), then
    remaining loops in segment order.
    """
    grid = sweep.grid
    segs = sweep.segments
    by_key: dict[tuple, list[int]] = {}
    for k in indices:
        for key in (segs[k].key_a, segs[k].key_b):
            by_key.setdefault(key, []).append(k)
    used = set()
    chains = []

    def walk(start_seg, start_key):
        pts = []
        seg_idx, key = start_seg, start_key
        while True:
            used.add(seg_idx)
            seg = segs[seg_idx]
            pa, pb = seg.global_points(grid)
            if key == seg.key_a:
                enter, exit_pt, exit_key = pa, pb, seg.key_b
            else:
                enter, exit_pt, exit_key = pb, pa, seg.key_a
            if not pts:
                pts.append(enter)
            pts.append(exit_pt)
            nxt = [s for s in by_key.get(exit_key, ()) if s not in used]
            if not nxt:
                return pts, exit_key
            seg_idx, key = nxt[0], exit_key

    open_keys = sorted(k for k, members in by_key.items() if len(members) == 1)
    for key in open_keys:
        seg_idx = by_key[key][0]
        if seg_idx in used:
            continue
        pts, _ = walk(seg_idx, key)
        chains.append(np.array(pts))
    for k in indices:
        if k in used:
            continue
        pts, _ = walk(k, segs[k].key_a)
        pts.append(pts[0])  # closed loop
        chains.append(np.array(pts))
    return chains


def interface_contour(grid: AxiGrid, component: Component | None = None) -> list[np.ndarray]:
    """Zero-contour polylines, optionally restricted to one component.

    Each polyline is an (n, 2) array of (rho, z) points; closed curves
    repeat their first point, open ones start and end on the axis.
    """
    labels, n = label_regions(grid)
    if n == 0:
        return []
    sweep = _CellSweep(AmbientMetric.euclidean(), grid, labels, n)
    if component is None:
        indices = list(range(len(sweep.segments)))
    else:
        indices = [k for k, s in enumerate(sweep.segments) if s.owner == component.id]
    return _chain_segments(sweep, indices)


def g_perimeter(metric: AmbientMetric, polyline: np.ndarray, h: float | None = None) -> float:
    """Area of the surface swept by revolving a polyline about the axis.

    Sum over consecutive point pairs of 2 pi rho_mid * length * w^4 at
    the midpoint.  ``h`` only sets the radius floor for the conformal
    factor; it defaults to the shortest nonzero segment length.
    """
    pts = np.asarray(polyline, dtype=float)
    if pts.ndim != 2 or pts.shape[0] < 2:
        return 0.0
    d = np.diff(pts, axis=0)
    seg_len = np.hypot(d[:, 0], d[:, 1])
    mid = 0.5 * (pts[:-1] + pts[1:])
    if h is None:
        positive = seg_len[seg_len > 0]
        h = float(positive.min()) if positive.size else 1.0
    w4 = _conformal_power(metric, mid[:, 0], mid[:, 1], 4, h)
    return math.fsum(2.0 * math.pi * mid[:, 0] * seg_len * w4)


def mean_curvature_field(metric: AmbientMetric, grid: AxiGrid) -> np.ndarray:
    """Mean curvature of the level sets of ``values``, at every node.

    Computed from centered differences with a mirror ghost column across
    the axis, as the flat axisymmetric curvature plus the conformal
    correction 4 d(ln w)/d(nu), all divided by w^2.  Values far from the
    zero set are as meaningful as the level-set function there.
    """
    return curvature_and_gradient(metric, grid)[0]


def _curvature_stencil(c, rp, rm, zp, zm, pp, pm, mp, mm, h, rho, off_axis, normal_geometry):
    """Centered-difference curvature from a node's nine-point neighbourhood.

    The arguments are the centre value, its rho+/rho-/z+/z- neighbours and
    the four diagonal ones ((rho+, z+), (rho+, z-), (rho-, z+), (rho-, z-)),
    any shape.  Returns (flat axisymmetric curvature, regularized gradient
    norm, conformal normal term d(ln w)/d(nu)); the last is None when
    ``normal_geometry`` (from :func:`_normal_geometry`) is None.
    """
    u_r = (rp - rm) / (2 * h)
    u_z = (zp - zm) / (2 * h)
    u_rr = (rp - 2 * c + rm) / (h * h)
    u_zz = (zp - 2 * c + zm) / (h * h)
    u_rz = (pp - pm - mp + mm) / (4 * h * h)
    grad = np.sqrt(u_r**2 + u_z**2 + _GRAD_EPS**2)
    kappa = (u_rr * u_z**2 - 2 * u_r * u_z * u_rz + u_zz * u_r**2) / grad**3
    # on the axis (1/rho) u_r / |grad u| takes its limit u_rr / |grad u|
    axi = np.where(off_axis, u_r / np.where(off_axis, rho * grad, 1.0), u_rr / grad)
    if normal_geometry is None:
        return kappa + axi, grad, None
    z, r, dlnw_dr = normal_geometry
    return kappa + axi, grad, dlnw_dr * (rho * u_r + z * u_z) / (r * grad)


def curvature_and_gradient(metric: AmbientMetric, grid: AxiGrid) -> tuple[np.ndarray, np.ndarray]:
    """(mean curvature, regularized flat gradient norm) at every node.

    Same stencils as :func:`mean_curvature_field`; the gradient norm is
    what level-set stepping needs alongside the curvature.
    """
    h = grid.h
    # pad: mirror across the axis, replicate at the three outer edges
    up = np.pad(grid.values, ((1, 1), (1, 1)), mode="edge")
    up[0, :] = up[2, :]  # mirror ghost at rho = -h
    rho = grid.rho[:, None]
    geometry = w = None
    if metric.mass != 0.0:
        geometry, w = _normal_geometry(metric, rho, grid.z[None, :], h)
    h_flat, grad, normal = _curvature_stencil(
        up[1:-1, 1:-1], up[2:, 1:-1], up[:-2, 1:-1], up[1:-1, 2:], up[1:-1, :-2],
        up[2:, 2:], up[2:, :-2], up[:-2, 2:], up[:-2, :-2],
        h, rho, rho > 0, geometry,
    )
    if normal is None:
        return h_flat, grad
    return (h_flat + 4.0 * normal) / w**2, grad


def _bilinear(field: np.ndarray, grid: AxiGrid, rho: float, z: float) -> float:
    h = grid.h
    x = rho / h
    y = (z - grid.z_min) / h
    i = min(max(int(math.floor(x)), 0), grid.n_rho - 2)
    j = min(max(int(math.floor(y)), 0), grid.n_z - 2)
    fx, fy = x - i, y - j
    return float(
        field[i, j] * (1 - fx) * (1 - fy)
        + field[i + 1, j] * fx * (1 - fy)
        + field[i, j + 1] * (1 - fx) * fy
        + field[i + 1, j + 1] * fx * fy
    )


def interface_H_sq(metric: AmbientMetric, grid: AxiGrid, polyline: np.ndarray) -> float:
    """Integral of H^2 over the revolved polyline interface.

    H is the node mean-curvature field sampled bilinearly at segment
    midpoints; the area element matches :func:`g_perimeter`.
    """
    pts = np.asarray(polyline, dtype=float)
    if pts.ndim != 2 or pts.shape[0] < 2:
        return 0.0
    field = mean_curvature_field(metric, grid)
    total = []
    for k in range(pts.shape[0] - 1):
        (r0, z0), (r1, z1) = pts[k], pts[k + 1]
        length = math.hypot(r1 - r0, z1 - z0)
        if length == 0.0:
            continue
        rm, zm = 0.5 * (r0 + r1), 0.5 * (z0 + z1)
        w4 = float(_conformal_power(metric, np.float64(rm), np.float64(zm), 4, grid.h))
        h_mid = _bilinear(field, grid, rm, zm)
        total.append(h_mid * h_mid * 2.0 * math.pi * rm * length * w4)
    return math.fsum(total)


def _full_cell_volumes(metric, grid, labels, n_comp) -> np.ndarray:
    """Volume of fully inside cells, accumulated per component label."""
    u = grid.values
    h = grid.h
    inside = u < 0
    full = inside[:-1, :-1] & inside[1:, :-1] & inside[:-1, 1:] & inside[1:, 1:]
    if not np.any(full):
        return np.zeros(n_comp + 1)
    rho_c = (np.arange(grid.n_rho - 1) + 0.5)[:, None] * h
    contrib = 2.0 * math.pi * rho_c * h * h * np.ones((1, grid.n_z - 1))
    if metric.mass > 0.0:
        z_c = (grid.z_min + (np.arange(grid.n_z - 1) + 0.5) * h)[None, :]
        w6 = _conformal_power(metric, rho_c, z_c, 6, h)
        contrib = np.where(np.hypot(rho_c, z_c) < metric.mass / 2.0, 0.0, contrib * w6)
    owner = np.where(full, labels[:-1, :-1], 0)
    return np.bincount(owner.ravel(), weights=(contrib * full).ravel(), minlength=n_comp + 1)


def g_volume(metric: AmbientMetric, grid: AxiGrid, component: Component) -> float:
    """Metric volume of one component's region."""
    labels, n = label_regions(grid)
    if n == 0:
        return 0.0
    sweep = _CellSweep(metric, grid, labels, n)
    full = _full_cell_volumes(metric, grid, labels, n)
    return float(full[component.id]) + math.fsum(sweep.vol_pieces[component.id])


def measure_components(metric: AmbientMetric, grid: AxiGrid) -> list[ComponentMeasure]:
    """Perimeter, volume, and H^2 integral of every component.

    One sweep serves all components; totals over the returned list equal
    whole-region measurements exactly, because every segment and every
    sub-cell piece belongs to exactly one component.
    """
    labels, n = label_regions(grid)
    if n == 0:
        return []
    # Regions with no node even one cell deep are below measurement
    # resolution (e.g. the sliver a collapsing neck leaves behind for a
    # step or two).  Reporting them would hand a zero-perimeter
    # "component" to the freezing logic, which would then pin a phantom
    # region forever; left alone, the flow evaporates them immediately.
    depth = ndimage.minimum(grid.values, labels, index=range(1, n + 1))
    out = []
    sweep = _CellSweep(metric, grid, labels, n)
    full = _full_cell_volumes(metric, grid, labels, n)
    field = mean_curvature_field(metric, grid)
    per_seg_area = [sweep.segment_area_element(s) for s in sweep.segments]
    for k in range(1, n + 1):
        if depth[k - 1] > -grid.h:
            continue
        perim_terms = []
        h_sq_terms = []
        for s_idx, seg in enumerate(sweep.segments):
            if seg.owner != k:
                continue
            da = per_seg_area[s_idx]
            perim_terms.append(da)
            if da != 0.0:
                h_mid = sweep.segment_h_interp(seg, field)
                h_sq_terms.append(h_mid * h_mid * da)
        out.append(
            ComponentMeasure(
                id=k,
                perimeter=math.fsum(perim_terms),
                volume=float(full[k]) + math.fsum(sweep.vol_pieces[k]),
                h_sq_integral=math.fsum(h_sq_terms),
                node_mask=labels == k,
            )
        )
    return out
