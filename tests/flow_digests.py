"""Print digests of the radial and level-set runs, to compare two trees.

    python tests/flow_digests.py

The radial lines come first: sha256 of the radial-oracle marches
(``run_symmetric_flow`` at m = 0.5, 1 and 2 from r0 = 4m, dt = 0.01 m²,
to t = 9.5 m², every 10th step), then sha256 of each file that
``run_plan`` writes for the same three ode-flows and a 400-radius mass
table at m = 1 (``trace.csv``, ``components.csv``, ``mass_table.csv``,
``verdicts.txt``).  Then sha256 of each file that ``run_plan`` writes for
the benchmark's sphere-freeze and dumbbell-pinch plans at seeds 3 and 11
(``perfbench/workloads.py``'s ``build_plan``).  Then it runs criteria 05,
06 and 07 (the dumbbell at all three h) with the configs of
``test_acceptance.py``'s fixtures, four small runs, one for each way a
run can end: frozen at its first sweep, a region that vanishes between
samples (at a check, and at a sample) and a time limit that is not a
whole number of sample intervals, and ``test_band_refresh.py``'s
two-ball run, where a freeze and a rebuild share a pass.  It prints one
line a level-set run: sha256 of repr(samples) (exact for floats), sha256
of the arrival-time bytes, and ``freeze_all_time``.  A change meant to keep the outputs to
the bit prints the same lines before and after it; run it on both trees
and diff.  pytest does not collect this file.
"""

import hashlib
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE, os.path.join(ROOT, "perfbench")]

import numpy as np  # noqa: E402
import test_acceptance  # noqa: E402
import test_band_refresh  # noqa: E402
from workloads import build_plan  # noqa: E402
from isoflow.config import RunPlan, Scenario, TimeSpec  # noqa: E402
from isoflow.flow_levelset import FlowRunConfig, run_modified_flow  # noqa: E402
from isoflow.flow_ode import run_symmetric_flow  # noqa: E402
from isoflow.measure import AxiGrid  # noqa: E402
from isoflow.metric import AmbientMetric  # noqa: E402
from isoflow.profile import radius_from_area  # noqa: E402
from isoflow.runner import run_plan  # noqa: E402

RADIAL_MASSES = (("m05", 0.5), ("m1", 1.0), ("m2", 2.0))
BENCHMARK_RUNS = ("sphere-freeze", "dumbbell-pinch")
BENCHMARK_SEEDS = (3, 11)


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digest_line(name, trace) -> str:
    samples = sha(repr(trace.samples).encode())
    arrival = sha(trace.arrival_time.tobytes())
    return f"{name} samples={samples} arrival={arrival} freeze_all_time={trace.freeze_all_time!r}"


def radial_lines() -> list[str]:
    lines, scenarios = [], []
    for tag, m in RADIAL_MASSES:
        states = run_symmetric_flow(AmbientMetric(m), 4.0 * m, 0.01 * m * m, 9.5 * m * m, sample_every=10)
        march = repr([(s.t, s.r, s.swept_volume) for s in states]).encode()
        lines.append(f"radial-march-{tag} samples={len(states)} sha256={sha(march)}")
        time = TimeSpec(t_max=9.5 * m * m, sample_interval=0.1 * m * m, dt=0.01 * m * m)
        scenarios.append(Scenario(name=f"ode-flow-{tag}", mode="ode-flow", mass=m, r0=4.0 * m, time=time))
    r_values = tuple(0.6 * 100.0 ** (k / 399) for k in range(400))
    scenarios.append(Scenario(name="mass-table-m1", mode="mass-table", mass=1.0, r_values=r_values))
    return lines + artifact_lines(RunPlan(scenarios=tuple(scenarios)))


def artifact_lines(plan: RunPlan, tag: str = "") -> list[str]:
    """sha256 of each file ``run_plan`` writes for ``plan``, one line a file."""
    lines = []
    with tempfile.TemporaryDirectory() as out:
        run_plan(plan, out)
        for sc in plan.scenarios:
            for fn in sorted(os.listdir(os.path.join(out, sc.name))):
                with open(os.path.join(out, sc.name, fn), "rb") as f:
                    lines.append(f"{sc.name}{tag}/{fn} sha256={sha(f.read())}")
    return lines


def benchmark_lines() -> list[str]:
    return [
        line
        for name in BENCHMARK_RUNS
        for seed in BENCHMARK_SEEDS
        for line in artifact_lines(build_plan(name, seed), f"-seed{seed}")
    ]


def sphere_grid(r0: float, h: float, pad: float) -> AxiGrid:
    ext = r0 + pad
    return AxiGrid.sample(h, ext, -ext, ext, lambda rho, z: np.hypot(rho, z) - r0)


def end_path_lines() -> list[str]:
    """One line for each way a run ends: every component frozen at the
    first sweep (an m = 1 sphere of area 30 pi), an m = 0 sphere that
    vanishes between samples, found gone at a sweep check and at a
    sample, and an m = 1 sphere stopped at a ``t_max`` that is not a
    whole number of sample intervals."""
    schw, flat = AmbientMetric(1.0), AmbientMetric.euclidean()
    small, vanishing = sphere_grid(radius_from_area(1.0, 30.0 * np.pi), 0.05, 0.6), sphere_grid(0.5, 0.05, 0.5)
    runs = {
        "end-frozen-at-first-sweep": dict(metric=schw, grid=small, t_max=0.5, sample_interval=0.05),
        "end-vanished-at-a-check": dict(metric=flat, grid=vanishing, t_max=0.2, sample_interval=0.007, sweep_cadence=3),
        "end-vanished-at-a-sample": dict(metric=flat, grid=vanishing, t_max=0.2, sample_interval=0.01),
        "end-time-limit": dict(
            metric=schw, grid=sphere_grid(2.5, 0.05, 0.6), t_max=0.101, sample_interval=0.1, sweep_cadence=50
        ),
    }
    return [digest_line(name, run_modified_flow(FlowRunConfig(**config))) for name, config in runs.items()]


def main() -> None:
    for line in radial_lines() + benchmark_lines():
        print(line, flush=True)
    # the fixtures' own functions, called outside pytest
    trace, _, _ = test_acceptance.euclid_sphere_run.__wrapped__()
    print(digest_line("05-euclid-sphere", trace), flush=True)
    trace, _ = test_acceptance.schwarzschild_sphere_run.__wrapped__()
    print(digest_line("06-schwarzschild-sphere", trace), flush=True)
    runs, _ = test_acceptance.dumbbell_runs.__wrapped__()
    for h, trace in runs.items():
        print(digest_line(f"07-dumbbell-h{h}", trace), flush=True)
    for line in end_path_lines():
        print(line, flush=True)
    print(digest_line("freeze-and-rebuild-one-pass", run_modified_flow(test_band_refresh.two_ball_config())))


if __name__ == "__main__":
    main()
