"""Scenario configuration: JSON file -> validated scenario objects.

A config file holds one object with a "scenarios" array.  Every entry
names a run mode and the physical setup it needs.  :data:`MODE_FIELDS`
lists the fields each mode reads, besides the "name", "mode" and
"metric" every mode reads, and :data:`SHAPE_FIELDS` the fields each
shape kind reads.  Any other field is rejected by name, so typos and
misplaced fields fail loudly instead of silently running defaults.
Parse problems raise :class:`ConfigError` carrying the best available
position information: line/column for syntax errors, a dotted field
path for semantic ones.
"""

from __future__ import annotations

import json
import math
import os
import sys
from dataclasses import dataclass, fields

import numpy as np

from .metric import AmbientMetric, enclosed_volume, sphere_area

# scenario fields each mode reads, besides name, mode and metric
MODE_FIELDS = {
    "lemma-suite": (),
    "ode-flow": ("r0", "time"),
    "levelset-flow": ("shape", "grid", "time", "threshold_mass", "q_slack"),
    "mass-table": ("r_values",),
}
# fields each shape kind reads, besides kind
SHAPE_FIELDS = {
    "sphere": ("r0",),
    "dumbbell": ("ball_radius", "separation", "neck_radius"),
    "oval": ("a", "b"),
}
MODES = tuple(MODE_FIELDS)
METRIC_KINDS = ("euclidean", "schwarzschild")
SHAPE_KINDS = tuple(SHAPE_FIELDS)
_COMMON_FIELDS = ("name", "mode", "metric")
# past this area A, A^(3/2), the scale of the volumes and isoperimetric
# ratios the radial modes form, leaves the float range
_AREA_LIMIT = sys.float_info.max ** (2 / 3)
# Below 2^-1022 a float is subnormal and steps by 5e-324, so a verdict
# read there is decided by that step.  Each floor puts 1e4 steps inside a
# verdict's tolerance: prop36 reads an ode-flow's drift to 1e-8 of its
# first volume, lemma53 the suite's margin to 5% of m^3.
_ODE_VOLUME_FLOOR = 1e4 * 5e-324 / 1e-8
_LEMMA_M3_FLOOR = 1e4 * 5e-324 / 0.05


class ConfigError(ValueError):
    """Malformed configuration; message includes line or field path."""


@dataclass(frozen=True)
class ShapeSpec:
    """Initial region for level-set runs, as a signed distance recipe."""

    kind: str  # sphere | dumbbell | oval
    r0: float = 0.0  # sphere radius
    ball_radius: float = 0.0  # dumbbell ball radius
    separation: float = 0.0  # dumbbell center-to-center distance
    neck_radius: float = 0.0  # dumbbell connecting cylinder radius
    a: float = 0.0  # oval equatorial semi-axis (rho)
    b: float = 0.0  # oval polar semi-axis (z)

    def signed_distance(self, rho, z):
        """Vectorized level-set seed; negative inside the region."""
        if self.kind == "sphere":
            return np.hypot(rho, z) - self.r0
        if self.kind == "dumbbell":
            half = 0.5 * self.separation
            top = np.hypot(rho, z - half) - self.ball_radius
            bottom = np.hypot(rho, z + half) - self.ball_radius
            neck = np.maximum(rho - self.neck_radius, np.abs(z) - half)
            return np.minimum(np.minimum(top, bottom), neck)
        # oval: scaled ellipse level function (exact sign, near-distance)
        scaled = np.sqrt((rho / self.a) ** 2 + (z / self.b) ** 2)
        return (scaled - 1.0) * min(self.a, self.b)

    def extents(self) -> tuple[float, float]:
        """(largest rho, largest |z|) over the region."""
        if self.kind == "sphere":
            return self.r0, self.r0
        if self.kind == "dumbbell":
            return max(self.ball_radius, self.neck_radius), 0.5 * self.separation + self.ball_radius
        return self.a, self.b


@dataclass(frozen=True)
class GridSpec:
    h: float
    rho_max: float
    z_min: float
    z_max: float


@dataclass(frozen=True)
class TimeSpec:
    """A flow's time settings.  Construction checks every field by the
    rules a config file's ``time`` object keeps, raising ConfigError
    under the bare field name, and stores the numbers as floats."""

    t_max: float
    sample_interval: float
    dt: float | None = None  # default: the band's CFL bound, or ode_sampling's step
    # Both cadences count grid-bound steps of a level-set run (of the
    # configured dt, or of the grid's CFL bound snapped to the sample
    # interval), so each keeps its model time when the band lets dt grow.
    sweep_cadence: int = 5  # a freeze check every k grid-bound steps
    # a distance rebuild every k (0: none), well before the field distorts
    # enough to bias the curvature stencils; back to back, rebuilds grow a
    # 20-cell sphere's area 0.04-0.08% in 100
    reinit_cadence: int = 100

    def __post_init__(self):
        object.__setattr__(self, "t_max", _number(self.t_max, "t_max", positive=True))
        interval = _number(self.sample_interval, "sample_interval", positive=True)
        object.__setattr__(self, "sample_interval", interval)
        if self.dt is not None:
            object.__setattr__(self, "dt", _number(self.dt, "dt", positive=True))
        _integer(self.sweep_cadence, "sweep_cadence", minimum=1)
        _integer(self.reinit_cadence, "reinit_cadence", minimum=0)

    def ode_sampling(self, mass: float, path: str) -> tuple[float, int]:
        """An ode-flow's RK4 step and steps per sample at ``mass``;
        ConfigError under ``path``, the time object's, unless the interval
        is a finite whole number of at least one step.  Without a dt the
        step is at most 1e-3 max(1, m^2), flow time scaling as m^2: fine
        enough that RK4 error sits far below every reported tolerance."""
        interval, dt = self.sample_interval, self.dt
        if dt is None:
            longest = 1e-3 * max(1.0, mass * mass)
            try:
                dt = interval / max(200, math.ceil(interval / longest))
            except OverflowError:  # interval / longest is inf
                raise ConfigError(f"{path}.sample_interval: too long for steps of at most {longest}") from None
        steps = interval / dt if dt > 0 else math.inf
        every = round(steps) if math.isfinite(steps) else 0
        if every < 1 or abs(every * dt - interval) > 1e-9 * interval:
            raise ConfigError(f"{path}.dt: sample_interval must be a multiple of dt")
        return dt, every


# time fields; the radial oracle has no sweeps or rebuilds, so ode-flow
# reads only the first three
TIME_FIELDS = tuple(f.name for f in fields(TimeSpec))


@dataclass(frozen=True)
class Scenario:
    name: str
    mode: str
    mass: float
    shape: ShapeSpec | None = None
    grid: GridSpec | None = None
    time: TimeSpec | None = None  # the flow modes' time settings
    threshold_mass: float | None = None
    # ode-flow initial radius (levelset runs take it from the shape)
    r0: float = 0.0
    # verdict slack for the monotone-Q check in levelset runs
    q_slack: float | None = None
    # mass-table radius grid
    r_values: tuple[float, ...] = ()


@dataclass(frozen=True)
class RunPlan:
    scenarios: tuple[Scenario, ...]


def _require(obj: dict, key: str, path: str):
    if key not in obj:
        raise ConfigError(f"{path}: missing required field '{key}'")
    return obj[key]


def _number(value, path: str, *, minimum=None, positive=False) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}: expected a number, got {value!r}")
    try:
        x = float(value)
    except OverflowError:  # an integer beyond the float range
        x = math.inf
    if not math.isfinite(x):
        raise ConfigError(f"{path}: must be finite")
    if positive and x <= 0:
        raise ConfigError(f"{path}: must be positive")
    if minimum is not None and x < minimum:
        raise ConfigError(f"{path}: must be at least {minimum}")
    return x


def _integer(value, path: str, *, minimum=0) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path}: expected an integer, got {value!r}")
    if value < minimum:
        raise ConfigError(f"{path}: must be at least {minimum}")
    return value


def _reject_unknown(obj, allowed, path: str) -> None:
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: expected an object")
    extra = set(obj) - set(allowed)
    if extra:
        raise ConfigError(f"{path}: unknown field(s) {sorted(extra)}")


def _reject_unread(obj: dict, read, path: str, mode: str) -> None:
    for key in obj:
        if key not in read:
            raise ConfigError(f"{path}.{key}: not used by {mode}")


def _area(mass: float, radii) -> np.ndarray:
    with np.errstate(over="ignore"):  # centred spheres' areas, inf past the float range
        return sphere_area(AmbientMetric(mass), np.asarray(radii, dtype=float))


def _parse_metric(obj, path: str) -> float:
    _reject_unknown(obj, {"kind", "mass"}, path)
    kind = obj.get("kind", "schwarzschild")
    if kind not in METRIC_KINDS:
        raise ConfigError(f"{path}.kind: expected one of {METRIC_KINDS}, got {kind!r}")
    mass = _number(obj.get("mass", 0.0), f"{path}.mass", minimum=0.0)
    if kind == "euclidean" and mass != 0.0:
        raise ConfigError(f"{path}: euclidean metric cannot carry mass {mass}")
    if kind == "schwarzschild" and mass == 0.0:
        raise ConfigError(f"{path}: schwarzschild metric needs a positive mass")
    return mass


def _parse_shape(obj, path: str) -> ShapeSpec:
    kind = obj.get("kind") if isinstance(obj, dict) else None
    # a missing or unknown kind is reported before any other field
    allowed = ("kind", *SHAPE_FIELDS[kind]) if kind in SHAPE_KINDS else obj
    _reject_unknown(obj, allowed, path)
    kind = _require(obj, "kind", path)
    if kind not in SHAPE_KINDS:
        raise ConfigError(f"{path}.kind: expected one of {SHAPE_KINDS}, got {kind!r}")
    sizes = {
        key: _number(_require(obj, key, path), f"{path}.{key}", positive=True)
        for key in SHAPE_FIELDS[kind]
    }
    if kind == "dumbbell" and sizes["neck_radius"] >= sizes["ball_radius"]:
        raise ConfigError(f"{path}.neck_radius: must be thinner than the balls")
    return ShapeSpec(kind=kind, **sizes)


def _parse_grid(obj, path: str) -> GridSpec:
    _reject_unknown(obj, {"h", "rho_max", "z_min", "z_max"}, path)
    h = _number(_require(obj, "h", path), f"{path}.h", positive=True)
    rho_max = _number(_require(obj, "rho_max", path), f"{path}.rho_max", positive=True)
    z_min = _number(_require(obj, "z_min", path), f"{path}.z_min")
    z_max = _number(_require(obj, "z_max", path), f"{path}.z_max")
    if z_max <= z_min:
        raise ConfigError(f"{path}.z_max: must exceed z_min")
    grid = GridSpec(h=h, rho_max=rho_max, z_min=z_min, z_max=z_max)
    check_grid_size(grid, f"{path}.h")
    return grid


def check_grid_size(grid: GridSpec, path: str) -> None:
    """Raise ConfigError at ``path`` when the grid's node count is not
    finite or above :data:`~isoflow.measure.MAX_NODES`; nothing is
    allocated."""
    from .measure import AxiGrid  # as in runner._flow_config

    try:
        AxiGrid.lattice_shape(grid.h, grid.rho_max, grid.z_min, grid.z_max)
    except ValueError as e:
        raise ConfigError(f"{path}: {e}") from e


def _parse_time(obj, path: str, mode: str, mass: float) -> TimeSpec:
    _reject_unknown(obj, TIME_FIELDS, path)
    if mode == "ode-flow":
        _reject_unread(obj, TIME_FIELDS[:3], path, mode)
    _require(obj, "t_max", path)
    _require(obj, "sample_interval", path)
    try:
        time = TimeSpec(**obj)
    except ConfigError as e:
        raise ConfigError(f"{path}.{e}") from e
    if mode == "ode-flow":
        time.ode_sampling(mass, path)
    return time


def _parse_scenario(obj, path: str, seen_names: set) -> Scenario:
    _reject_unknown(obj, set(_COMMON_FIELDS).union(*MODE_FIELDS.values()), path)
    name = _require(obj, "name", path)
    if not isinstance(name, str) or not name:
        raise ConfigError(f"{path}.name: expected a nonempty string")
    try:
        encoded = os.fsencode(name)
    except UnicodeEncodeError:  # a lone surrogate
        encoded = b"\0"
    if any(c in name for c in "/\\") or name in (".", "..") or b"\0" in encoded or len(encoded) > 255:
        raise ConfigError(f"{path}.name: must be usable as a directory name")
    if name in seen_names:
        raise ConfigError(f"{path}.name: duplicate scenario name {name!r}")
    seen_names.add(name)
    mode = _require(obj, "mode", path)
    if mode not in MODES:
        raise ConfigError(f"{path}.mode: expected one of {MODES}, got {mode!r}")
    mass = _parse_metric(_require(obj, "metric", path), f"{path}.metric")
    _reject_unread(obj, _COMMON_FIELDS + MODE_FIELDS[mode], path, mode)

    read: dict = {}
    if mode == "levelset-flow":
        threshold = obj.get("threshold_mass")
        if threshold is not None:
            threshold = _number(threshold, f"{path}.threshold_mass", minimum=0.0)
        q_slack = obj.get("q_slack")
        if q_slack is not None:
            q_slack = _number(q_slack, f"{path}.q_slack", positive=True)
        shape = _parse_shape(_require(obj, "shape", path), f"{path}.shape")
        # the zero set's distance from the origin (for the dumbbell, a lower bound)
        if mass > 0.0 and abs(shape.signed_distance(0.0, 0.0)) <= 0.5 * mass:
            raise ConfigError(f"{path}.shape: comes within the horizon radius m/2 = {0.5 * mass}")
        grid = _parse_grid(_require(obj, "grid", path), f"{path}.grid")
        time = _parse_time(_require(obj, "time", path), f"{path}.time", mode, mass)
        rho_extent, z_extent = shape.extents()
        for key, room, extent in (
            ("rho_max", grid.rho_max, rho_extent),
            ("z_min", -grid.z_min, z_extent),
            ("z_max", grid.z_max, z_extent),
        ):
            if extent >= room:
                raise ConfigError(f"{path}.grid.{key}: shape does not fit inside the grid")
        read = dict(shape=shape, grid=grid, time=time, threshold_mass=threshold, q_slack=q_slack)
    elif mode == "ode-flow":
        r0 = _number(_require(obj, "r0", path), f"{path}.r0", positive=True)
        if r0 <= 0.5 * mass:
            raise ConfigError(f"{path}.r0: must exceed the horizon radius m/2 = {0.5 * mass}")
        if _area(mass, r0) >= _AREA_LIMIT:
            raise ConfigError(f"{path}.r0: the sphere's volume passes the float range")
        if enclosed_volume(AmbientMetric(mass), r0) < _ODE_VOLUME_FLOOR:
            raise ConfigError(f"{path}.r0: the sphere's volume underflows")
        read = dict(r0=r0, time=_parse_time(_require(obj, "time", path), f"{path}.time", mode, mass))
    elif mode == "mass-table":
        raw = _require(obj, "r_values", path)
        if not isinstance(raw, list) or not raw:
            raise ConfigError(f"{path}.r_values: expected a nonempty array")
        # the closed forms take radii from the horizon m/2 outward
        vals = tuple(
            _number(v, f"{path}.r_values[{i}]", positive=True, minimum=0.5 * mass) for i, v in enumerate(raw)
        )
        if any(b <= a for a, b in zip(vals, vals[1:])):
            raise ConfigError(f"{path}.r_values: must be strictly increasing")
        past = np.flatnonzero(_area(mass, vals) >= _AREA_LIMIT)
        if past.size:
            raise ConfigError(f"{path}.r_values[{past[0]}]: the sphere's volume passes the float range")
        read = dict(r_values=vals)
    elif mass == 0.0:  # lemma-suite: only the metric matters
        raise ConfigError(f"{path}.metric: the lemma suite needs a positive mass")
    elif 1e7 * mass * mass >= _AREA_LIMIT:  # the suite's largest area
        raise ConfigError(f"{path}.metric.mass: the lemma suite's volumes pass the float range")
    elif mass**3 < _LEMMA_M3_FLOOR:
        raise ConfigError(f"{path}.metric.mass: the lemma suite's volumes underflow")
    return Scenario(name=name, mode=mode, mass=mass, **read)


def parse_plan(text: str) -> RunPlan:
    """Parse and validate a config document; raises ConfigError."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError(f"line {e.lineno}, column {e.colno}: {e.msg}") from e
    except (ValueError, RecursionError) as e:  # an over-long integer, or nesting too deep
        raise ConfigError(f"unreadable document: {e}") from e
    _reject_unknown(doc, {"scenarios"}, "top level")
    raw = _require(doc, "scenarios", "top level")
    if not isinstance(raw, list):
        raise ConfigError("scenarios: expected an array")
    seen: set = set()
    scenarios = tuple(
        _parse_scenario(entry, f"scenarios[{i}]", seen) for i, entry in enumerate(raw)
    )
    return RunPlan(scenarios=scenarios)


def load_plan(path: str) -> RunPlan:
    try:
        with open(path, "r", encoding="utf-8") as f:
            text = f.read()
    except OSError as e:
        raise ConfigError(f"cannot read config file: {e}") from e
    return parse_plan(text)
