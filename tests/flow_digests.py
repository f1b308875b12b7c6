"""Print digests of the radial and level-set runs, to compare two trees.

    python tests/flow_digests.py

The radial lines come first: sha256 of the radial-oracle marches
(``run_symmetric_flow`` at m = 0.5, 1 and 2 from r0 = 4m, dt = 0.01 m²,
to t = 9.5 m², every 10th step), then sha256 of each file that
``run_plan`` writes for the same three ode-flows and a 400-radius mass
table at m = 1 (``trace.csv``, ``components.csv``, ``mass_table.csv``,
``verdicts.txt``).  Then it runs criteria 05, 06 and 07 (the dumbbell at
all three h) with the configs of ``test_acceptance.py``'s fixtures, and
prints one line a run: sha256 of repr(samples) (exact for floats), sha256
of the arrival-time bytes, and ``freeze_all_time``.  A change meant to
keep the outputs to the bit prints the same lines before and after it;
run it on both trees and diff.  pytest does not collect this file.
"""

import hashlib
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import test_acceptance  # noqa: E402
from isoflow.config import RunPlan, Scenario, TimeSpec  # noqa: E402
from isoflow.flow_ode import run_symmetric_flow  # noqa: E402
from isoflow.metric import AmbientMetric  # noqa: E402
from isoflow.runner import run_plan  # noqa: E402

RADIAL_MASSES = (("m05", 0.5), ("m1", 1.0), ("m2", 2.0))


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
    with tempfile.TemporaryDirectory() as out:
        run_plan(RunPlan(scenarios=tuple(scenarios)), out)
        for sc in scenarios:
            for fn in sorted(os.listdir(os.path.join(out, sc.name))):
                with open(os.path.join(out, sc.name, fn), "rb") as f:
                    lines.append(f"{sc.name}/{fn} sha256={sha(f.read())}")
    return lines


def main() -> None:
    for line in radial_lines():
        print(line, flush=True)
    # the fixtures' own functions, called outside pytest
    trace, _, _ = test_acceptance.euclid_sphere_run.__wrapped__()
    print(digest_line("05-euclid-sphere", trace), flush=True)
    trace, _ = test_acceptance.schwarzschild_sphere_run.__wrapped__()
    print(digest_line("06-schwarzschild-sphere", trace), flush=True)
    runs, _ = test_acceptance.dumbbell_runs.__wrapped__()
    for h, trace in runs.items():
        print(digest_line(f"07-dumbbell-h{h}", trace), flush=True)


if __name__ == "__main__":
    main()
