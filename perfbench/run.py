#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of isoflow.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sphere-freeze --seed 1 --seconds 35 --trace 0

Each invocation runs one workload (see ``workloads.py``) in this single
process, in a closed loop: after one untimed warm-up run,
``isoflow.runner.run_plan`` runs again as soon as the previous run has
finished, until ``--seconds`` would be exceeded (at least once).  That is
the path ``isoflow run`` takes: plan -> flow -> artifacts -> verdicts.
The package is imported from ``src/`` of the checkout; nothing needs
building.

``--trace 0`` measures the end-to-end metrics with tracing off, scaled
to the speed of a fixed reference pass (see ``reference.py``).
``--trace 1`` runs once untraced and twice traced, and reports the
per-layer metrics of the traced run, the tracing overhead, and whether
the exact work counts repeat.  Every run's artifacts are checked; a run
that raises or misses a check counts as failed.

Human-readable lines go to stdout first; the last line is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  A run record (versions, load, grid shapes, step sizes,
artifact digests, counts) and the spans of the last traced run are
written under ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

import reference

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")

SETUP_PROBES = 7  # fresh processes timed for setup_s over the window
REF_PASSES = 8  # reference passes timed before each run and each probe

# name -> unit; BENCHMARK.json lists the same names with their bounds
END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "levelset.steps": "count",
    "levelset.dt": "model_t",
    "levelset.step_self_s": "s",
    "levelset.step_us": "us",
    "freeze_sweep.calls": "count",
    "freeze_sweep.self_s": "s",
    "freeze_sweep.useful_frac": "ratio",
    "reinitialize.calls": "count",
    "reinitialize.total_s": "s",
    "reinitialize.ms_per_call": "ms",
    "measure_components.calls": "count",
    "measure_components.total_s": "s",
    "measure_components.ms_per_call": "ms",
    "measure_components.self_s": "s",
    "label_regions.total_s": "s",
    "mean_curvature_field.total_s": "s",
    "measure.mixed_cells": "count/call",
    "measure.components": "count/call",
    "flow_ode.steps": "count",
    "flow_ode.step_us": "us",
    "metric.calls": "count",
    "metric.total_s": "s",
    "profile.calls": "count",
    "profile.total_s": "s",
    "mass.total_s": "s",
    "runner.self_s": "s",
    "runner.bytes_written": "B",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}


def use_checkout_source() -> None:
    """Import isoflow from this checkout's ``src/``, or exit non-zero."""
    if not os.path.isfile(os.path.join(SRC, "isoflow", "__init__.py")):
        raise SystemExit(f"perfbench: no isoflow package under {SRC}")
    sys.path.insert(0, SRC)
    import isoflow

    if not os.path.abspath(isoflow.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"perfbench: imported isoflow from {isoflow.__file__}, not {SRC}")


def probe_setup(workload: str, seed: int) -> None:
    """Child process: time importing isoflow and building the plan."""
    t0 = time.perf_counter()
    use_checkout_source()
    import isoflow.runner  # noqa: F401  (the import is what is timed)
    import workloads

    workloads.build_plan(workload, seed)
    print(repr(time.perf_counter() - t0))


def measure_setup_once(workload: str, seed: int) -> float:
    cmd = [sys.executable, os.path.abspath(__file__), "--probe-setup", "--workload", workload, "--seed", str(seed)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=60, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def artifact_digests(out_root: str) -> dict[str, str]:
    """sha256 of every artifact, keyed by path relative to ``out_root``."""
    digests = {}
    for dirpath, _dirs, files in os.walk(out_root):
        for fname in files:
            path = os.path.join(dirpath, fname)
            with open(path, "rb") as f:
                digests[os.path.relpath(path, out_root)] = hashlib.sha256(f.read()).hexdigest()
    return dict(sorted(digests.items()))


def combined_digest(digests: dict[str, str]) -> str:
    return hashlib.sha256("".join(f"{k} {v}\n" for k, v in digests.items()).encode()).hexdigest()


def bytes_written(out_root: str) -> int:
    return sum(
        os.path.getsize(os.path.join(d, f)) for d, _dirs, files in os.walk(out_root) for f in files
    )


def plan_record(plan) -> list[dict]:
    """Per scenario: its inputs, and for flows the grid shape and step."""
    import isoflow.flow_levelset as fl
    from isoflow.measure import AxiGrid
    from isoflow.metric import AmbientMetric
    from layers import levelset_dt

    rows = []
    for sc in plan.scenarios:
        row = {"name": sc.name, "mode": sc.mode, "mass": sc.mass}
        if sc.mode == "levelset-flow":
            g, t = sc.grid, sc.time
            grid = AxiGrid.sample(g.h, g.rho_max, g.z_min, g.z_max, sc.shape.signed_distance)
            bound = fl.cfl_time_step(AmbientMetric(mass=sc.mass), grid)
            dt = levelset_dt(t.dt, t.sample_interval, bound)
            row.update(
                shape={k: v for k, v in vars(sc.shape).items() if v},
                h=g.h,
                grid_shape=list(grid.values.shape),
                dt=dt,
                t_max=t.t_max,
                sweep_cadence=t.sweep_cadence,
                reinit_cadence=t.reinit_cadence,
            )
        elif sc.mode == "ode-flow":
            row.update(r0=sc.r0, dt=sc.time.dt, t_max=sc.time.t_max)
        elif sc.mode == "mass-table":
            row.update(radii=len(sc.r_values), r_first=sc.r_values[0], r_last=sc.r_values[-1])
        rows.append(row)
    return rows


class Runs:
    """Runs one plan repeatedly, checks each run, and keeps the tallies."""

    def __init__(self, workload: str, seed: int, plan):
        import isoflow.runner
        import workloads

        self.runner = isoflow.runner
        self.workloads = workloads
        self.plan = plan
        self.out_root = os.path.join(OUT, f"{workload}-seed{seed}", "artifacts")
        self.attempted = 0
        self.failures: list[tuple[int, str]] = []  # (run index, reason)
        self.walls: list[float] = []
        self.digests: dict[str, str] | None = None
        self.figures: dict[str, float] = {}
        self.bytes = 0

    def run_once(self, tracer=None) -> float:
        """One timed ``run_plan`` call, then its checks (untimed).

        A tracer's wrappers go in before the clock starts and come out
        after it stops.
        """
        shutil.rmtree(self.out_root, ignore_errors=True)
        self.attempted += 1
        results = None
        with tracer if tracer is not None else contextlib.nullcontext():
            t0 = time.perf_counter()
            try:
                results = self.runner.run_plan(self.plan, self.out_root)
            except Exception:
                self.failures.append((self.attempted, traceback.format_exc(limit=3)))
            wall = time.perf_counter() - t0
        self.walls.append(wall)
        if results is not None:
            try:
                self._check(results)
            except self.workloads.CheckFailed as e:
                self.failures.append((self.attempted, f"check: {e}"))
        return wall

    def _check(self, results) -> None:
        bad = [r.name for r in results if not r.ok]
        if bad:
            raise self.workloads.CheckFailed(f"verdicts not all PASS in {bad}")
        digests = artifact_digests(self.out_root)
        if self.digests is None:
            self.figures = self.workloads.check_outputs(self.plan, self.out_root)
            self.digests = digests
            self.bytes = bytes_written(self.out_root)
        elif digests != self.digests:
            raise self.workloads.CheckFailed("artifacts differ from the first run's")


def measure_window(runs: Runs, workload: str, seed: int, seconds: float) -> dict[str, list[float]]:
    """Time ``run_plan`` in a closed loop for about ``seconds``, after one
    untimed warm-up run.  Probe the set-up time in fresh processes spread
    evenly over the same window, and time reference passes before each
    run and each probe.

    The processor's speed drifts in bursts and in phases (see
    ``reference.py``), so the window is made of many short runs, and the
    probes are spread out rather than taken together.  Returns the run
    times, the set-up times and the reference pass times, in seconds.
    """
    runs.run_once()
    walls: list[float] = []
    setup: list[float] = []
    refs: list[float] = []
    t0 = time.perf_counter()
    while True:
        refs += reference.time_passes(REF_PASSES)
        elapsed = time.perf_counter() - t0
        if len(setup) < SETUP_PROBES and elapsed >= len(setup) * seconds / SETUP_PROBES:
            setup.append(measure_setup_once(workload, seed))
            continue
        if len(setup) == SETUP_PROBES and walls and elapsed + statistics.median(walls) > seconds:
            return {"wall_s": walls, "setup_s": setup, "reference_s": refs}
        walls.append(runs.run_once())


def layer_metrics(tracer, bytes_out: int) -> tuple[dict[str, float], dict[str, int]]:
    """Per-layer metrics from one traced run, and its exact work counts."""
    summary = tracer.summary()
    c = tracer.counters

    def get(name: str, key: str):
        return summary.get(name, {}).get(key, 0)

    def per(total: float, calls: int, scale: float) -> float:
        return total / calls * scale if calls else 0.0

    steps = c.levelset_steps
    step_self = get("flow_levelset.run_modified_flow", "self_s")
    sweeps = get("flow_levelset.freeze_sweep", "calls")
    reinit = get("flow_levelset.reinitialize", "calls")
    mc_calls = get("measure.measure_components", "calls")
    mc_total = get("measure.measure_components", "total_s")
    ode_steps = get("flow_ode.step", "calls")
    metrics = {
        "levelset.steps": steps,
        "levelset.dt": c.levelset_dt,
        "levelset.step_self_s": step_self,
        "levelset.step_us": per(step_self, steps, 1e6),
        "freeze_sweep.calls": sweeps,
        "freeze_sweep.self_s": get("flow_levelset.freeze_sweep", "self_s"),
        "freeze_sweep.useful_frac": per(c.sweeps_useful, sweeps, 1.0),
        "reinitialize.calls": reinit,
        "reinitialize.total_s": get("flow_levelset.reinitialize", "total_s"),
        "reinitialize.ms_per_call": per(get("flow_levelset.reinitialize", "total_s"), reinit, 1e3),
        "measure_components.calls": mc_calls,
        "measure_components.total_s": mc_total,
        "measure_components.ms_per_call": per(mc_total, mc_calls, 1e3),
        "measure_components.self_s": get("measure.measure_components", "self_s"),
        "label_regions.total_s": get("measure.label_regions", "total_s"),
        "mean_curvature_field.total_s": get("measure.mean_curvature_field", "total_s"),
        "measure.mixed_cells": per(c.mixed_cells, mc_calls, 1.0),
        "measure.components": per(c.components, mc_calls, 1.0),
        "flow_ode.steps": ode_steps,
        "flow_ode.step_us": per(get("flow_ode.step", "total_s"), ode_steps, 1e6),
        "metric.calls": get("layer:metric", "calls"),
        "metric.total_s": get("layer:metric", "total_s"),
        "profile.calls": get("layer:profile", "calls"),
        "profile.total_s": get("layer:profile", "total_s"),
        "mass.total_s": get("layer:mass", "total_s"),
        "runner.self_s": get("runner.run_plan", "self_s"),
        "runner.bytes_written": bytes_out,
    }
    counts = {
        "levelset.steps": steps,
        "freeze_sweep.calls": sweeps,
        "freeze_sweep.useful": c.sweeps_useful,
        "reinitialize.calls": reinit,
        "measure_components.calls": mc_calls,
        "measure.mixed_cells": c.mixed_cells,
        "measure.components": c.components,
        "flow_ode.steps": ode_steps,
        "metric.calls": metrics["metric.calls"],
        "profile.calls": metrics["profile.calls"],
        "mass.calls": get("layer:mass", "calls"),
        "spans": tracer.span_count(),
    }
    return metrics, counts


def machine_record() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.probe_setup:
        probe_setup(args.workload, args.seed)
        return 0

    use_checkout_source()
    import workloads

    if args.workload not in workloads.NAMES:
        parser.error(f"--workload must be one of {', '.join(workloads.NAMES)}")
    load_before = os.getloadavg()
    plan = workloads.build_plan(args.workload, args.seed)
    runs = Runs(args.workload, args.seed, plan)
    run_dir = os.path.dirname(runs.out_root)
    os.makedirs(run_dir, exist_ok=True)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "why": workloads.WHY[args.workload],
        "machine": machine_record(),
        "scenarios": plan_record(plan),
    }

    if args.trace:
        from layers import Tracer

        untraced = runs.run_once()
        traced_walls, counts = [], []
        for _ in range(2):
            tracer = Tracer()
            traced_walls.append(runs.run_once(tracer))
            metrics, count = layer_metrics(tracer, runs.bytes)
            counts.append(count)
        metrics["trace.overhead_s"] = statistics.median(traced_walls) - untraced
        metrics["trace.spans"] = tracer.span_count()
        if counts[0] != counts[1]:
            runs.failures.append((runs.attempted, f"work counts differ between traced runs: {counts}"))
        spans_path = os.path.join(run_dir, "spans.csv")
        tracer.write_spans(spans_path, tracer.start[0] if tracer.span_count() else 0.0)
        record.update(counts=counts[-1], untraced_wall_s=untraced, traced_wall_s=traced_walls, spans_csv=spans_path)
        units = PER_LAYER
    else:
        samples = measure_window(runs, args.workload, args.seed, args.seconds)
        # means, at the reference speed (see reference.py)
        scale = reference.REF_S / statistics.mean(samples["reference_s"])
        metrics = {
            "wall_s": statistics.mean(samples["wall_s"]) * scale,
            "setup_s": statistics.mean(samples["setup_s"]) * scale,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        record.update(samples_s=samples, reference_scale=scale)
        units = END_TO_END

    failed = len({rep for rep, _ in runs.failures})
    record.update(
        load_before=load_before,
        load_after=os.getloadavg(),
        walls=runs.walls,
        attempted=runs.attempted,
        failed=failed,
        fail_frac=failed / runs.attempted,
        failures=runs.failures,
        figures=runs.figures,
        artifact_sha256=runs.digests,
        artifacts_combined_sha256=combined_digest(runs.digests or {}),
        metrics=metrics,
    )
    record_path = os.path.join(run_dir, f"record-trace{args.trace}.json")
    with open(record_path, "w", encoding="utf-8") as f:
        json.dump(record, f, indent=2)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  runs {runs.attempted}")
    print(f"  load {load_before[0]:.2f} -> {record['load_after'][0]:.2f}  nproc {record['machine']['nproc']}")
    for sc in record["scenarios"]:
        if "grid_shape" in sc:
            print(f"  {sc['name']}: grid {sc['grid_shape'][0]}x{sc['grid_shape'][1]}  dt {sc['dt']:.6g}")
    print(f"  walls_s {' '.join(f'{w:.3f}' for w in runs.walls)}")
    if not args.trace:
        raw = record["samples_s"]
        print(
            f"  unscaled means: run {statistics.mean(raw['wall_s']):.4f} s, set-up {statistics.mean(raw['setup_s']):.4f} s,"
            f" reference pass {statistics.mean(raw['reference_s']) * 1e3:.3f} ms (scale {record['reference_scale']:.4f})"
        )
    for name, value in metrics.items():
        print(f"  {name:32s} {value:.6g} {units[name]}")
    print(f"  {'fail_frac':32s} {failed / runs.attempted:.6g} ratio")
    for name, value in runs.figures.items():
        print(f"  {name:32s} {value:.6g}")
    print(f"  artifacts sha256 {record['artifacts_combined_sha256']}")
    if args.trace:
        print(f"  counts {json.dumps(record['counts'])}")
    for rep, reason in runs.failures:
        print(f"  FAILED run {rep}: {reason.strip()}")
    print(f"  record {os.path.relpath(record_path, ROOT)}")

    result = {
        "correct": failed == 0,
        "attempted": runs.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
