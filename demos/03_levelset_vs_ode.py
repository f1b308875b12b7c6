"""Grid flow against the radial oracle for a shrinking sphere.

Runs the axisymmetric level-set flow for a centered sphere in the
positive-mass metric and compares sampled area/volume against the same
flow reduced to a one-variable ODE.  With --h small enough the grid
curves land on the oracle to a fraction of a percent; the default is
sized to finish in a few seconds.
"""

import argparse
import time

import numpy as np

from isoflow.flow_levelset import FlowRunConfig, run_modified_flow
from isoflow.flow_ode import run_symmetric_flow
from isoflow.measure import AxiGrid
from isoflow.metric import AmbientMetric


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--mass", type=float, default=1.0)
    ap.add_argument("--r0", type=float, default=2.2)
    ap.add_argument("--h", type=float, default=1.0 / 30)
    ap.add_argument("--t-max", type=float, default=1.2, dest="t_max")
    ap.add_argument("--freeze", action="store_true",
                    help="enable the perimeter threshold at the chosen mass")
    args = ap.parse_args()

    metric = AmbientMetric(mass=args.mass)
    ext = args.r0 + 0.4
    grid = AxiGrid.sample(args.h, ext, -ext, ext,
                          lambda rho, z: np.hypot(rho, z) - args.r0)
    cfg = FlowRunConfig(
        metric=metric,
        grid=grid,
        t_max=args.t_max,
        sample_interval=0.1,
        sweep_cadence=50,
        threshold_mass=args.mass if args.freeze else 0.0,
    )
    t0 = time.time()
    trace = run_modified_flow(cfg)
    wall = time.time() - t0

    oracle = run_symmetric_flow(metric, args.r0, 1e-3, args.t_max)
    ot = np.array([s.t for s in oracle])
    oa = np.array([s.area for s in oracle])
    ov = np.array([s.volume for s in oracle])

    print(f"h={args.h:.4f} grid {grid.values.shape}, wall {wall:.1f}s")
    print(f"{'t':>5} {'A_grid':>10} {'A_ode':>10} {'rel':>9} {'V rel':>9} {'frozen':>7}")
    for s in trace.samples:
        a_ref = float(np.interp(s.t, ot, oa))
        v_ref = float(np.interp(s.t, ot, ov))
        frozen = any(c.frozen for c in s.components)
        print(f"{s.t:5.2f} {s.area:10.4f} {a_ref:10.4f} "
              f"{s.area/a_ref-1:+9.2e} {s.volume/v_ref-1:+9.2e} {str(frozen):>7}")
    if trace.freeze_all_time is not None:
        print(f"all components frozen at t = {trace.freeze_all_time}")


if __name__ == "__main__":
    main()
