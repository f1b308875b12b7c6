"""Geometric measurement of axisymmetric regions sampled on a grid.

A region of the 3-d model space is represented by level-set samples on
a uniform (rho, z) half-plane lattice (negative inside).  This module
labels its connected components and gives each its metric-weighted
surface area ("perimeter" of the revolved interface), enclosed volume,
and the interface integral of the squared mean curvature.

:func:`measure_components` reads one marching-squares pass
(:func:`_sweep`) over the cells whose corners change sign.  A cell's
case number has one bit per inside corner: 00 -> 1, 10 -> 2, 01 -> 4,
11 -> 8 (corner names are the cell-local (rho, z) offsets).  A case
table, built from the counterclockwise boundary walk 00, S, 10, E, 11,
N, 01, W, gives each case its pieces: one chord of the zero contour, the
corner whose component owns it, and the inside polygon (walk positions,
in walk order) whose volume goes with it.  The 14 ordinary cases have
one piece; the two saddles, 6 (10 and 01 inside) and 9 (00 and 11
inside), have two, chosen by the centre-mean rule below.  The pass runs
on whole arrays of cells and returns flat per-chord arrays;
per-component totals are exactly rounded sums (``math.fsum``) over each
owner's chords.

Conventions that matter:

- components are 4-connected sets of negative nodes, labeled in scan
  order of their first node (``ndimage.label`` keeps the smaller
  provisional label at every merge);
- saddle cells are disambiguated by the sign of the cell-center mean:
  negative connects the two inside corners (each takes the wall chord on
  its side and half the hexagonal band's volume), otherwise they stay
  separate (one corner triangle each);
- the axis is handled by mirror symmetry (interfaces may terminate on
  it; revolution closes them);
- with positive mass, cells whose center lies inside the horizon
  radius contribute no volume (they are outside the manifold proper);
- every interface chord and sub-cell polygon is attributed to exactly
  one component, so component sums reproduce region totals exactly;
- all interface geometry is computed in cell-local coordinates, so
  translating the region along z by whole cells changes nothing, bit
  for bit, whenever the metric weight permits (zero mass).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .metric import AmbientMetric

_FOUR_CONNECTED = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]], dtype=bool)

# gradient-magnitude regularizer for curvature stencils
_GRAD_EPS = 1e-8

# the most nodes a grid may have: the flow's stepper keeps about 100
# bytes of tables per node, so this is about 1 GB
MAX_NODES = 10_000_000

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
    def rho(self) -> np.ndarray:
        return np.arange(self.n_rho) * self.h

    @property
    def z(self) -> np.ndarray:
        return self.z_min + np.arange(self.n_z) * self.h

    @staticmethod
    def lattice_shape(h: float, rho_max: float, z_min: float, z_max: float) -> tuple[int, int]:
        """(n_rho, n_z) of :meth:`sample`'s lattice, computed without
        allocating it; ValueError when a count is not finite or the
        lattice has more than ``MAX_NODES`` nodes."""
        n_rho, n_z = rho_max / h, (z_max - z_min) / h
        if not (math.isfinite(n_rho) and math.isfinite(n_z)):
            raise ValueError("node count rho_max / h or (z_max - z_min) / h is not finite")
        n_rho, n_z = int(round(n_rho)) + 1, int(round(n_z)) + 1
        if n_rho * n_z > MAX_NODES:
            raise ValueError(f"{n_rho} x {n_z} nodes exceed the {MAX_NODES:,} node cap")
        return n_rho, n_z

    @classmethod
    def sample(cls, h: float, rho_max: float, z_min: float, z_max: float, fn) -> "AxiGrid":
        """Sample ``fn(rho, z)`` (vectorized) on the lattice."""
        n_rho, n_z = cls.lattice_shape(h, rho_max, z_min, z_max)
        rho = np.arange(n_rho) * h
        z = z_min + np.arange(n_z) * h
        return cls(h=h, z_min=z_min, values=fn(rho[:, None], z[None, :]))

    def replace_values(self, values: np.ndarray) -> "AxiGrid":
        return AxiGrid(h=self.h, z_min=self.z_min, values=values)


@dataclass(frozen=True, eq=False)
class ComponentMeasure:
    """Metric measurements of one component.

    ``labels`` is the measured grid's :func:`label_regions` array, one
    object shared by every component of a measurement.
    """

    id: int
    perimeter: float
    volume: float
    h_sq_integral: float
    labels: np.ndarray

    @property
    def node_mask(self) -> np.ndarray:
        return self.labels == self.id


def label_regions(grid: AxiGrid) -> tuple[np.ndarray, int]:
    """4-connected labels of {values < 0}, in scan order of first nodes.

    Returns (labels, count); labels is int32 and labels[i, j] == 0 marks
    outside nodes.
    """
    from scipy import ndimage  # here, so the radial modes never load scipy

    labels = np.zeros(grid.values.shape, dtype=np.int32)
    n = ndimage.label(grid.values < 0, structure=_FOUR_CONNECTED, output=labels)
    return labels, n


def _deep_labels(grid: AxiGrid) -> tuple[np.ndarray, np.ndarray]:
    """:func:`label_regions`' labels, and ``deep[k]``: whether label k has
    a node at least one cell deep, which makes it a measured component.

    Regions with no node even one cell deep are below measurement
    resolution (e.g. the sliver a collapsing neck leaves behind for a
    step or two).  Reporting them would hand a zero-perimeter
    "component" to the freezing logic, which would then pin a phantom
    region forever; left alone, the flow evaporates them immediately.
    ``deep[0]`` (outside) is False.
    """
    labels, n = label_regions(grid)
    deep = np.zeros(n + 1, dtype=bool)
    deep[labels[grid.values <= -grid.h]] = True
    return labels, deep


# ---------------------------------------------------------------------------
# conformal weights


def _floored_radius(rho, z, h: float):
    """Distance from the origin, floored at a fraction of a cell."""
    return np.maximum(np.hypot(rho, z), _RADIUS_FLOOR * h)


def _conformal_power(metric: AmbientMetric, rho, z, power: int, h: float):
    """w^power at points, radius floored at a fraction of a cell.  At m = 0
    these are exact ones, so every metric takes the same weighted path."""
    return metric.conformal_factor(_floored_radius(rho, z, h)) ** power


def _normal_geometry(metric: AmbientMetric, rho, z, h: float):
    """What the stencil's conformal normal term reads at points, for every
    m: ((z, floored r, d ln w / dr), w); at m = 0 d ln w / dr is a zero."""
    r = _floored_radius(rho, z, h)
    w = _conformal_power(metric, rho, z, 1, h)
    return (z, r, -metric.mass / (2.0 * r**2 * w)), w


def _area_element(metric: AmbientMetric, rho_mid, z_mid, length, h: float):
    """g-area swept by revolving chords about the axis: 2 pi rho_mid len w^4."""
    return 2.0 * math.pi * rho_mid * length * _conformal_power(metric, rho_mid, z_mid, 4, h)


@functools.lru_cache(maxsize=8)
def _cell_geometry(metric: AmbientMetric, h: float, z_min: float, shape: tuple[int, int]):
    """(horizon mask, full-cell volume) of every cell.

    A cell is inside the horizon when its centre is (never at zero mass);
    such a cell holds no volume.  Both depend only on the metric and the
    grid geometry, which a run never changes, so they are cached and
    returned read-only.
    """
    n_rho, n_z = shape
    rho_c = (np.arange(n_rho - 1) + 0.5)[:, None] * h
    z_c = (z_min + (np.arange(n_z - 1) + 0.5) * h)[None, :]
    contrib = 2.0 * math.pi * rho_c * h * h * np.ones((1, n_z - 1))
    horizon = np.hypot(rho_c, z_c) < metric.horizon_radius
    contrib = np.where(horizon, 0.0, contrib * _conformal_power(metric, rho_c, z_c, 6, h))
    horizon.flags.writeable = False
    contrib.flags.writeable = False
    return horizon, contrib


# ---------------------------------------------------------------------------
# marching squares: one pass over the mixed cells, driven by a case table

# the cell boundary walked counterclockwise; polygons and chords are
# positions on this walk
_WALK = ("00", "S", "10", "E", "11", "N", "01", "W")
_CORNER_BIT = {"00": 0, "10": 1, "01": 2, "11": 3}
_EDGE_ENDS = {"S": ("00", "10"), "E": ("10", "11"), "N": ("01", "11"), "W": ("00", "01")}
# saddle case -> (inside corner, arc around it, wall on its side of the band)
_SADDLES = {
    6: (("10", "SE", "NE"), ("01", "NW", "WS")),
    9: (("00", "WS", "NW"), ("11", "EN", "SE")),
}
# added to a saddle's case number when its centre mean is negative
_CONNECTED = 16


def _case_table():
    """Pieces of each case as arrays indexed [case, slot]: chord ends,
    owner corner bit, polygon (6 walk positions, then the first again,
    closing it) and volume weight, plus the number of slots each case
    fills."""
    chord = np.zeros((32, 2, 2), dtype=np.intp)
    owner = np.zeros((32, 2), dtype=np.intp)
    polygon = np.zeros((32, 2, 7), dtype=np.intp)
    weight = np.zeros((32, 2))
    slots = np.zeros(32, dtype=np.intp)
    pos = {name: k for k, name in enumerate(_WALK)}

    def put(case, slot, ends, corner, vertices, w):
        chord[case, slot] = [pos[e] for e in ends]
        owner[case, slot] = _CORNER_BIT[corner]
        # repeating the last vertex adds zero-length edges, whose shoelace
        # terms are exact zeros: the sums keep their value and order
        verts = [pos[v] for v in vertices]
        polygon[case, slot] = verts + verts[-1:] * (6 - len(verts)) + verts[:1]
        weight[case, slot] = w
        slots[case] = slot + 1

    for case in range(1, 15):
        inside = {c: bool(case >> bit & 1) for c, bit in _CORNER_BIT.items()}
        crossed = [e for e, (p, q) in _EDGE_ENDS.items() if inside[p] != inside[q]]
        walk = [v for v in _WALK if (inside[v] if v in inside else v in crossed)]
        if case in _SADDLES:
            for slot, (corner, arc, wall) in enumerate(_SADDLES[case]):
                put(case, slot, arc, corner, (arc[0], corner, arc[1]), 1.0)
                put(case + _CONNECTED, slot, wall, corner, walk, 0.5)
        else:
            first = next(c for c in ("00", "01", "10", "11") if inside[c])
            put(case, 0, crossed, first, walk, 1.0)
    return chord, owner, polygon, weight, slots


_CHORD, _OWNER, _POLYGON, _WEIGHT, _SLOTS = _case_table()


@dataclass(frozen=True, eq=False)
class _Sweep:
    """Flat arrays from one marching-squares pass, one entry per chord.

    Chord k lies in cell (i[k], j[k]) from local point a[k] to b[k] (cell
    units, (xi, eta) in [0, 1]^2) and belongs to component owner[k]
    together with the metric volume[k] of the sub-cell piece on its
    inside.  full_volume[k] is the volume of component k's fully inside
    cells.
    """

    i: np.ndarray
    j: np.ndarray
    a: np.ndarray
    b: np.ndarray
    owner: np.ndarray
    volume: np.ndarray
    full_volume: np.ndarray


def _pieces(u: np.ndarray):
    """Every cell's case; the mixed cells' (i, j) in scan order, with their
    corners' (00, 10, 01, 11) flat indices and values; and a (cell, slot,
    entry) row per piece, a saddle's two in the table's order, entry being
    the case plus ``_CONNECTED`` where a saddle's centre mean is negative."""
    inside = (u < 0).view(np.uint8)
    case = inside[:-1, :-1] | inside[1:, :-1] << 1 | inside[:-1, 1:] << 2 | inside[1:, 1:] << 3
    ii, jj = np.nonzero((case > 0) & (case < 15))
    mixed = case[ii, jj]
    n_z = u.shape[1]
    corner = ii * n_z + jj + np.array([[0], [n_z], [1], [n_z + 1]])
    v00, v10, v01, v11 = values = np.take(u, corner)
    saddle = (mixed == 6) | (mixed == 9)
    mixed = np.where(saddle & (0.25 * (v00 + v10 + v01 + v11) < 0.0), mixed + _CONNECTED, mixed)
    cell = np.repeat(np.arange(ii.size), _SLOTS[mixed])
    slot = np.zeros(cell.size, dtype=np.intp)
    slot[1:] = cell[1:] == cell[:-1]
    return case, (ii, jj, corner, values), (cell, slot, mixed[cell])


def _sweep(metric: AmbientMetric, grid: AxiGrid, labels: np.ndarray, n_comp: int) -> _Sweep:
    """The one marching-squares pass: chords and sub-cell volumes of every
    mixed cell in scan order (a saddle's two in the table's corner order),
    and the full-cell volume of each label."""
    u, h = grid.values, grid.h
    case, (ii, jj, corner, (v00, v10, v01, v11)), (cell, slot, entry) = _pieces(u)
    horizon, contrib = _cell_geometry(metric, h, grid.z_min, u.shape)
    # each label's full cells in scan order
    full = case == 15
    full_volume = np.bincount(labels[:-1, :-1][full], weights=contrib[full], minlength=n_comp + 1)

    # local (xi, eta) of the eight walk positions, [coordinate, position,
    # cell]; edges the contour does not cross are never read
    pts = np.zeros((2, 8, ii.size))
    pts[0, 2:5] = 1.0  # 10, E, 11
    pts[1, 4:7] = 1.0  # 11, N, 01
    with np.errstate(divide="ignore", invalid="ignore"):
        pts[0, 1] = v00 / (v00 - v10)  # S
        pts[1, 3] = v10 / (v10 - v11)  # E
        pts[0, 5] = v01 / (v01 - v11)  # N
        pts[1, 7] = v00 / (v00 - v01)  # W

    ends = _CHORD[entry, slot]
    ci, cj = ii[cell], jj[cell]

    # shoelace sums over the piece polygon: edge k runs from vertex k to
    # k + 1, and each sum adds its six terms in walk order, from zero
    at = pts.reshape(2, -1)  # [coordinate, position * cells + cell]
    x, y = np.take(at, _POLYGON[entry, slot].T * ii.size + cell, axis=1)
    terms = np.empty((3, 6, cell.size))
    cross = np.subtract(x[:-1] * y[1:], x[1:] * y[:-1], out=terms[0])
    np.multiply(x[:-1] + x[1:], cross, out=terms[1])
    np.multiply(y[:-1] + y[1:], cross, out=terms[2])
    sums = 0.0 + terms[:, 0]
    for k in range(1, 6):
        sums += terms[:, k]
    area2, moment6, cy6 = sums
    area = 0.5 * area2
    moment = np.where(area < 0, -moment6 / 6.0, moment6 / 6.0)  # int xi dA, cell units
    with np.errstate(divide="ignore", invalid="ignore"):  # empty pieces are dropped
        cx = moment6 / (6.0 * area)
        cy = cy6 / (6.0 * area)
    w6 = _conformal_power(metric, (ci + cx) * h, grid.z_min + (cj + cy) * h, 6, h)
    # int rho dA over the piece = h^3 (i * area + moment)
    rho_moment = h**3 * (ci * np.abs(area) + moment)
    volume = _WEIGHT[entry, slot] * 2.0 * math.pi * rho_moment * w6
    volume = np.where((area != 0.0) & ~horizon[ci, cj], volume, 0.0)

    a, b = np.take(at, ends.T * ii.size + cell, axis=1).transpose(1, 2, 0)
    return _Sweep(
        i=ci,
        j=cj,
        a=a,
        b=b,
        owner=np.take(labels, corner[_OWNER[entry, slot], cell]),
        volume=volume,
        full_volume=full_volume,
    )


def _owner_fsums(owner: np.ndarray, columns, n_comp: int) -> list[list[float]]:
    """Exactly rounded sums of each of ``columns`` per owner label
    0..n_comp; one stable sort of the owners serves every column."""
    order = np.argsort(owner, kind="stable")
    bounds = np.searchsorted(owner[order], np.arange(n_comp + 2)).tolist()
    spans = list(zip(bounds[:-1], bounds[1:]))
    grouped = [values[order].tolist() for values in columns]
    return [[math.fsum(g[lo:hi]) for lo, hi in spans] for g in grouped]


# ---------------------------------------------------------------------------
# mean curvature


def mean_curvature_field(metric: AmbientMetric, grid: AxiGrid) -> np.ndarray:
    """Mean curvature of the level sets of ``values``, at every node.

    Computed from centered differences with a mirror ghost column across
    the axis, as the flat axisymmetric curvature plus the conformal
    correction 4 d(ln w)/d(nu), all divided by w^2.  Values far from the
    zero set are as meaningful as the level-set function there.
    """
    nodes = np.divmod(np.arange(grid.values.size), grid.n_z)
    return _curvature_at(metric, grid, *nodes).reshape(grid.values.shape)


def _curvature_stencil(c, rp, rm, zp, zm, pp, pm, mp, mm, h, rho, off_axis, normal_geometry):
    """Centered-difference curvature from a node's nine-point neighbourhood.

    The arguments are the centre value, its rho+/rho-/z+/z- neighbours and
    the four diagonal ones ((rho+, z+), (rho+, z-), (rho-, z+), (rho-, z-)),
    any shape; ``normal_geometry`` is :func:`_normal_geometry`'s first
    item.  Returns (flat axisymmetric curvature, regularized gradient norm,
    conformal normal term d(ln w)/d(nu)).
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
    z, r, dlnw_dr = normal_geometry
    return kappa + axi, grad, dlnw_dr * (rho * u_r + z * u_z) / (r * grad)


def _stencil_indices(ii: np.ndarray, jj: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """(9, k) flat indices into ``values.ravel()`` of the nine-point
    stencils of nodes (ii, jj), in :func:`_curvature_stencil`'s argument
    order: mirrored across the axis, replicated at the outer edges."""
    n, m = shape
    row = ii * m
    row_m = np.where(ii > 0, ii - 1, 1) * m  # mirror ghost across the axis
    row_p = np.minimum(ii + 1, n - 1) * m  # replicate at outer edges
    jm = np.maximum(jj - 1, 0)
    jp = np.minimum(jj + 1, m - 1)
    return np.stack(
        [row + jj, row_p + jj, row_m + jj, row + jp, row + jm,
         row_p + jp, row_p + jm, row_m + jp, row_m + jm]
    )


def _curvature_at(metric: AmbientMetric, grid: AxiGrid, ni, nj) -> np.ndarray:
    """Mean curvature at nodes (ni, nj), as :func:`mean_curvature_field`."""
    h = grid.h
    rho = ni * h
    geometry, w = _normal_geometry(metric, rho, grid.z_min + nj * h, h)
    near = np.take(grid.values, _stencil_indices(ni, nj, grid.values.shape))
    h_flat, _, normal = _curvature_stencil(*near, h, rho, ni > 0, geometry)
    return (h_flat + 4.0 * normal) / w**2


def _curvature_in_cells(metric: AmbientMetric, grid: AxiGrid, i, j, fx, fy) -> np.ndarray:
    """Mean curvature sampled bilinearly at local points (fx, fy) of cells
    (i, j); the stencil runs only at those cells' corner nodes."""
    n_z = grid.n_z
    base = i * n_z + j
    lo = base.min()
    corners = base - lo + np.array([[0], [n_z], [1], [n_z + 1]])
    # the corner nodes, sorted and each once, and each corner's place among them
    used = np.zeros(corners[3].max() + 1, dtype=bool)
    used[corners] = True
    nodes = np.flatnonzero(used)
    place = np.empty(used.size, dtype=np.intp)
    place[nodes] = np.arange(nodes.size)
    field = _curvature_at(metric, grid, *np.divmod(nodes + lo, n_z))
    f00, f10, f01, f11 = field[place[corners]]
    return f00 * (1 - fx) * (1 - fy) + f10 * fx * (1 - fy) + f01 * (1 - fx) * fy + f11 * fx * fy


# ---------------------------------------------------------------------------
# the one reader of the sweep


def measure_components(metric: AmbientMetric, grid: AxiGrid) -> list[ComponentMeasure]:
    """Perimeter, volume, and H^2 integral of every component that
    :func:`_deep_labels` counts.

    One sweep serves all components; totals over the returned list equal
    whole-region measurements exactly, because every chord and every
    sub-cell piece belongs to exactly one component.
    """
    labels, deep = _deep_labels(grid)
    n = deep.size - 1
    if n == 0:
        return []
    h = grid.h
    sweep = _sweep(metric, grid, labels, n)
    xm = 0.5 * (sweep.a[:, 0] + sweep.b[:, 0])
    ym = 0.5 * (sweep.a[:, 1] + sweep.b[:, 1])
    # math.hypot is Python's own correctly rounded algorithm; np.hypot
    # defers to the C library, whose last bit varies between platforms
    d = (sweep.b - sweep.a).T.tolist()
    length = np.fromiter(map(math.hypot, *d), dtype=float, count=len(d[0])) * h
    rho_mid = (sweep.i + xm) * h
    area = _area_element(metric, rho_mid, grid.z_min + (sweep.j + ym) * h, length, h)
    h_mid = _curvature_in_cells(metric, grid, sweep.i, sweep.j, xm, ym)
    h_sq = np.where(area != 0.0, h_mid * h_mid * area, 0.0)
    perimeter, h_sq_integral, volume = _owner_fsums(sweep.owner, (area, h_sq, sweep.volume), n)
    return [
        ComponentMeasure(
            id=k,
            perimeter=perimeter[k],
            volume=float(sweep.full_volume[k]) + volume[k],
            h_sq_integral=h_sq_integral[k],
            labels=labels,
        )
        for k in range(1, n + 1)
        if deep[k]
    ]
