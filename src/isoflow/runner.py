"""Scenario execution and artifact writing for the command line.

Each scenario gets its own directory under the output root.  Flow modes
write ``trace.csv`` (totals per sample) and ``components.csv`` (one row
per component per sample); the closed-form table mode writes
``mass_table.csv``; every mode writes ``verdicts.txt`` with one
``PASS|FAIL <anchor> slack=<value>`` line per checked invariant, where
the slack is the margin left under the tolerance (negative = failed).
All floats are written with 17 significant digits, so identical
configurations produce byte-identical artifacts.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

import numpy as np

from .config import ConfigError, RunPlan, Scenario, _number, check_grid_size
from .flow_ode import run_symmetric_flow
from .mass import ISO_ADM_FIT_C
from .metric import AmbientMetric, enclosed_volume, sphere_area, sphere_hawking_mass, sphere_qlm_overshoot
from .profile import (
    convexity_threshold,
    convexity_threshold_radius,
    isoperimetric_ratio,
    locate_convexity_threshold,
    mass_from_region,
    profile_ratio_margin,
    profile_volume,
    profile_volume_or_zero,
)
from .trace import ComponentRecord, RunFailure, TraceSample

if TYPE_CHECKING:
    from .flow_levelset import FlowRunConfig

# each header with its row format: one %-format a row, each float as fmt writes it
TRACE_HEADER = "t,A_total,V_total,Q,ratio,n_components,n_frozen"
TRACE_ROW = "%.17g,%.17g,%.17g,%.17g,%.17g,%d,%d"
COMPONENTS_HEADER = "t,id,frozen,freeze_time,perimeter,volume,hawking"
COMPONENTS_ROW = "%.17g,%d,%d,%.17g,%.17g,%.17g,%.17g"
MASS_TABLE_HEADER = "r,area,volume,qlm,hawking,qlm_gap_scaled"
MASS_TABLE_ROW = "%.17g,%.17g,%.17g,%.17g,%.17g,%.17g"

# prop36's round-off scale for an ode-flow's profile gap, relative to the
# first volume; cor75 reads the same scale
_PROP36_ROUNDOFF = 1e-8


def fmt(x: float) -> str:
    """Float -> text, 17 significant digits (round-trips binary64)."""
    return f"{float(x):.17g}"


@dataclass(frozen=True)
class Verdict:
    anchor: str
    slack: float

    @property
    def passed(self) -> bool:
        return self.slack >= 0.0

    def line(self) -> str:
        word = "PASS" if self.passed else "FAIL"
        return f"{word} {self.anchor} slack={fmt(self.slack)}"


@dataclass(frozen=True)
class ScenarioResult:
    name: str
    verdicts: tuple[Verdict, ...]
    # the run's failure (a non-finite field or sample, or a region at the
    # outer edge), which carries the last finite sample's time, else None
    failure: RunFailure | None = None

    @property
    def ok(self) -> bool:
        return self.failure is None and all(v.passed for v in self.verdicts)


def _write_lines(path: str, lines: list[str]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write("".join([line + "\n" for line in lines]))


def _write_flow(out_dir: str, samples: list[TraceSample]) -> None:
    trace_rows = [TRACE_HEADER]
    comp_rows = [COMPONENTS_HEADER]
    for s in samples:
        trace_rows.append(TRACE_ROW % (s.t, s.area, s.volume, s.profile_gap, s.ratio, s.n_components, s.n_frozen))
        for c in s.components:
            ft = math.nan if c.freeze_time is None else c.freeze_time
            comp_rows.append(COMPONENTS_ROW % (s.t, c.id, c.frozen, ft, c.perimeter, c.volume, c.hawking))
    _write_lines(os.path.join(out_dir, "trace.csv"), trace_rows)
    _write_lines(os.path.join(out_dir, "components.csv"), comp_rows)


def _cor75(samples: list[TraceSample], mass: float) -> list[Verdict]:
    """Ratio control binds only when the run starts at or below the profile
    of ``mass`` and at or above its convexity threshold area 36 pi m^2: the
    isoperimetric ratio must not climb above its first finite value beyond
    the stated slack.  "At" allows a first gap of prop36's round-off scale
    times the first volume: an ode-flow starts on the profile, so its
    first gap is round-off of either sign."""
    first = samples[0]
    if first.area < convexity_threshold(mass) or first.profile_gap > _PROP36_ROUNDOFF * first.volume:
        return []
    ratios = [s.ratio for s in samples if math.isfinite(s.ratio)]
    if not ratios or ratios[0] <= 0:
        return []
    return [Verdict("cor75", 0.03 - (max(ratios) / ratios[0] - 1.0))]


def _def34(haw: np.ndarray, mass: float) -> Verdict:
    """Each Hawking mass in ``haw`` is ``mass``, to a round-off that scales with it."""
    return Verdict("def34-hawking", 1e-10 * max(1.0, mass) - float(np.max(np.abs(haw - mass))))


def _run_lemma_suite(sc: Scenario, out_dir: str, _built: None = None) -> list[Verdict]:
    """Closed-form profile checks at a given mass (scales from m = 1)."""
    mass = sc.mass
    m3 = mass**3
    margin = profile_ratio_margin(mass, convexity_threshold(mass))
    verdicts = [Verdict("lemma53@36pi", 0.05 * m3 - abs(margin - 19.6 * m3))]

    radius, area = locate_convexity_threshold(mass)
    verdicts.append(
        Verdict("lemma51-threshold", 1e-6 - abs(area / convexity_threshold(mass) - 1.0))
    )
    verdicts.append(
        Verdict("lemma51-radius", 1e-9 * max(1.0, mass) - abs(radius - convexity_threshold_radius(mass)))
    )

    # O(A^{-1/2}) mass recovery: the scaled error is nearly flat in A; numpy's
    # max and min keep a NaN, so a non-finite error fails (Python's skip one)
    scaled = np.array([
        abs(mass_from_region(a, profile_volume(mass, a)) - mass) * math.sqrt(a)
        for a in (1e3 * mass**2, 1e5 * mass**2, 1e7 * mass**2)
    ])
    verdicts.append(Verdict("lemma31-decay", 2.0 - float(scaled.max() / scaled.min())))

    # every radius lies outside the horizon m/2
    radii = np.geomspace(0.6 * mass, 50.0 * max(mass, 1.0), 17)
    verdicts.append(_def34(sphere_hawking_mass(AmbientMetric(mass), radii), mass))
    return verdicts


def _run_ode_flow(sc: Scenario, out_dir: str, sampling: tuple[float, int]) -> list[Verdict]:
    metric = AmbientMetric(mass=sc.mass)
    dt, every = sampling
    states = run_symmetric_flow(metric, sc.r0, dt, sc.time.t_max, sample_every=every)
    # one array call per closed form; the sphere's volume is the swept one, its gap the defect
    r, swept = np.array([s.r for s in states]), np.array([s.swept_volume for s in states])
    area, haw = sphere_area(metric, r), sphere_hawking_mass(metric, r)
    defect = profile_volume_or_zero(sc.mass, area) - swept
    samples = [
        TraceSample(
            s.t, a, v, q, isoperimetric_ratio(a, v), 1, 0,
            [ComponentRecord(1, False, None, a, v, math.nan, hm)],
        )
        for s, a, v, q, hm in zip(states, area.tolist(), swept.tolist(), defect.tolist(), haw.tolist())
    ]
    _write_flow(out_dir, samples)

    drift = max(abs(s.profile_gap - samples[0].profile_gap) for s in samples)
    return [
        Verdict("prop36", _PROP36_ROUNDOFF - drift / samples[0].volume),
        _def34(haw, sc.mass),
        *_cor75(samples, sc.mass),
    ]


def _flow_config(sc: Scenario) -> FlowRunConfig:
    """A level-set scenario's grid and run config.  An --h override can leave
    too few nodes or a bound below dt: ConfigError names the scenario and h."""
    from .flow_levelset import FlowRunConfig  # here, so the radial modes never load the grid code
    from .measure import AxiGrid

    g, metric = sc.grid, AmbientMetric(mass=sc.mass)
    try:
        grid = AxiGrid.sample(g.h, g.rho_max, g.z_min, g.z_max, sc.shape.signed_distance)
        return FlowRunConfig(metric=metric, grid=grid, threshold_mass=sc.threshold_mass, **vars(sc.time))
    except ValueError as e:
        raise ConfigError(f"{sc.name}: {e} at h = {g.h}") from e


def _run_levelset_flow(sc: Scenario, out_dir: str, cfg: FlowRunConfig) -> list[Verdict]:
    from .flow_levelset import run_modified_flow  # as in _flow_config

    try:
        trace = run_modified_flow(cfg)
    except RunFailure as e:
        _write_flow(out_dir, e.samples)  # the record up to the failure
        raise
    samples = trace.samples
    _write_flow(out_dir, samples)
    if not all(s.finite for s in samples):
        raise RunFailure("non-finite sample", samples)

    # monotone decrease of the profile-gap up to a grid-resolution slack
    q = np.array([s.profile_gap for s in samples])
    q_slack = sc.q_slack if sc.q_slack is not None else sc.grid.h
    worst_rise = float(np.max(np.diff(q))) if len(q) > 1 else 0.0
    m_thr = cfg.threshold_mass
    verdicts = [Verdict("prop74", q_slack - max(worst_rise, 0.0)), *_cor75(samples, m_thr)]

    if m_thr > 0.0:
        frozen = {c.id: c for s in samples for c in s.components if c.frozen}
        worst_p = max((c.perimeter for c in frozen.values()), default=0.0)
        verdicts.append(Verdict("lemma82-perimeter", 1.05 - worst_p / convexity_threshold(m_thr)))
        done = trace.freeze_all_time
        verdicts.append(
            Verdict("lemma72-termination", -math.inf if done is None else cfg.t_max - done)
        )
    return verdicts


def _run_mass_table(sc: Scenario, out_dir: str, _built: None = None) -> list[Verdict]:
    metric = AmbientMetric(mass=sc.mass)
    r = np.array(sc.r_values, dtype=float)  # one array call per closed form
    area, volume = sphere_area(metric, r), enclosed_volume(metric, r)
    gap_scaled = sphere_qlm_overshoot(metric, r)  # qlm's two cancellations done by hand
    qlm = sc.mass + gap_scaled / np.sqrt(area)
    haw = sphere_hawking_mass(metric, r)
    rows = [MASS_TABLE_HEADER]
    cols = (x.tolist() for x in (r, area, volume, qlm, haw, gap_scaled))  # plain floats, one format a row
    rows += [MASS_TABLE_ROW % row for row in zip(*cols)]
    _write_lines(os.path.join(out_dir, "mass_table.csv"), rows)

    verdicts = []
    above = area >= convexity_threshold(sc.mass)
    if above.any():
        # the fitted constant is frozen at unit mass and scales exactly as m^2
        slack = ISO_ADM_FIT_C * sc.mass**2 - gap_scaled
        verdicts.append(Verdict("thm14", float(slack[above].min())))
    verdicts.append(_def34(haw, sc.mass))
    return verdicts


_MODE_RUNNERS = {
    "lemma-suite": _run_lemma_suite,
    "ode-flow": _run_ode_flow,
    "levelset-flow": _run_levelset_flow,
    "mass-table": _run_mass_table,
}


def run_plan(plan: RunPlan, out_root: str, *, h: float | None = None, dt: float | None = None) -> list[ScenarioResult]:
    """Run every scenario into ``out_root/<name>/``.

    ``h`` and ``dt`` (--h and --dt) must be positive and finite; they
    replace every grid's spacing and every flow's time step, and a
    ConfigError they cause names the flag.  One pass in plan order applies
    them and checks each scenario: the node count before its grid is
    sampled, a level set's grid and :class:`FlowRunConfig`, an ode-flow's
    sampling.  So a ConfigError, like an empty plan, creates nothing, not
    even the root directory.  With several mistakes the first scenario's
    is reported.  Each run is handed what the pass built, its config or
    its (dt, every), so every level-set grid is held until its own run.
    """
    if h is not None:
        h = _number(h, "--h", positive=True)
    if dt is not None:
        dt = _number(dt, "--dt", positive=True)
    ready = []
    for i, sc in enumerate(plan.scenarios):
        if h is not None and sc.grid is not None:
            sc = replace(sc, grid=replace(sc.grid, h=h))
            check_grid_size(sc.grid, f"--h: scenarios[{i}].grid.h ({sc.name})")
        if dt is not None and sc.time is not None:
            sc = replace(sc, time=replace(sc.time, dt=dt))
        built = None
        if sc.mode == "levelset-flow":
            built = _flow_config(sc)
        elif sc.mode == "ode-flow":
            path = f"--dt: scenarios[{i}].time" if dt is not None else f"{sc.name}: time"
            built = sc.time.ode_sampling(sc.mass, path)
        ready.append((sc, built))
    results = []
    while ready:  # popped, so a grid is dropped once its run is done
        sc, built = ready.pop(0)
        out_dir = os.path.join(out_root, sc.name)
        os.makedirs(out_dir, exist_ok=True)
        failure = None
        try:
            verdicts = _MODE_RUNNERS[sc.mode](sc, out_dir, built)
        except RunFailure as e:
            verdicts, failure = [Verdict("blow-up", -math.inf)], e
        _write_lines(os.path.join(out_dir, "verdicts.txt"), [v.line() for v in verdicts])
        results.append(ScenarioResult(sc.name, tuple(verdicts), failure))
    return results
