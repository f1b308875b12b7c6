"""Command-line entry point.

``isoflow run <config.json>`` executes the scenarios in a config file;
``isoflow suite`` runs the built-in closed-form check suite at masses
0.5, 1, and 2.  Artifacts land in per-scenario directories under
``--out`` (or $ISOFLOW_OUT, or ./isoflow-out).

Exit status: 0 when every checked invariant passes, 1 when any verdict
fails, 2 on a malformed configuration, 3 when a run failed: its values
went non-finite or its region reached the grid's outer edge (the message
carries the reason and the last good sample time; the plan's other
scenarios still run and print their lines), 4 on a fault of the program
itself (its traceback goes to stderr).
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import traceback

from .config import ConfigError, RunPlan, Scenario, load_plan
from .runner import run_plan


def _built_in_suite() -> RunPlan:
    scenarios = tuple(
        Scenario(name=name, mode="lemma-suite", mass=mass)
        for name, mass in (
            ("lemma-suite-m05", 0.5),
            ("lemma-suite-m1", 1.0),
            ("lemma-suite-m2", 2.0),
        )
    )
    return RunPlan(scenarios=scenarios)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="isoflow",
        description="Isoperimetric-profile and freezing-flow scenario runner.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run the scenarios in a config file")
    p_run.add_argument("config", help="path to a JSON scenario file")
    p_run.add_argument("--out", help="output root directory")
    p_run.add_argument("--h", type=float, help="override grid spacing in all scenarios")
    p_run.add_argument("--dt", type=float, help="override time step in all flow scenarios")

    p_suite = sub.add_parser("suite", help="run the built-in closed-form checks")
    p_suite.add_argument("--out", help="output root directory")

    args = parser.parse_args(argv)

    out_root = args.out or os.environ.get("ISOFLOW_OUT") or "isoflow-out"
    try:
        if args.command == "suite":
            results = run_plan(_built_in_suite(), out_root)
        else:
            results = run_plan(load_plan(args.config), out_root, h=args.h, dt=args.dt)
    except ConfigError as e:
        # the parser's checks, then run_plan's one pass that applies --h
        # and --dt and checks every scenario, all before any scenario
        # writes; any other error is a fault of the run
        print(f"isoflow: bad config: {e}", file=sys.stderr)
        return 2
    except Exception:  # neither the config nor a run's values: a fault of the program
        traceback.print_exc()
        return 4

    # every scenario's lines are printed; a blow-up (3) outranks a failed verdict (1)
    status = 0
    for res in results:
        if res.failure is not None:
            status, t = 3, res.failure.last_good
            shown = "none" if math.isnan(t) else f"{t:.17g}"
            print(
                f"isoflow: {res.name}: numerical blow-up ({res.failure}); last good sample t={shown}",
                file=sys.stderr,
            )
        for v in res.verdicts:
            print(f"{res.name}: {v.line()}")
            if not v.passed:
                status = max(status, 1)
    return status


if __name__ == "__main__":
    sys.exit(main())
