"""Criterion 05's sphere under centre shifts and step sizes.

The acceptance gate runs criterion 05 (the unit sphere at m = 0, h =
0.01, followed down to R = 10 h) once, centred, at the band's bound.  Its
worst area error must stay under the same 2% when the centre moves along
z by a fraction of a cell and when a configured dt sits just under the
stability bound: a distance rebuild that jumps with the field's values,
or drifts, shows there first.  A relaxation rebuild read 0.52, 2.15,
0.78, 8.01 and 11.0% at the five shifts below, and 10.6 and 11.5% at the
two dts; the closest-point rebuild read 0.39% at every shift and 0.019
and 0.027% at the two dts with a hard band edge, and reads 1.55% and
0.92 and 1.09% with the soft edge (see the last test).  Each run takes
2-5 s.
"""

import math

import numpy as np
import pytest

from isoflow.flow_levelset import FlowRunConfig, cfl_time_step, run_modified_flow
from isoflow.measure import AxiGrid
from isoflow.metric import AmbientMetric

H = 0.01
EUCLID = AmbientMetric.euclidean()


def worst_area_error(shift: float, dt_fraction: float | None = None, h: float = H) -> float:
    """Criterion 05's worst relative area error against R^2 = 1 - 4t, with
    the sphere's centre at z = ``shift``, dt, when given, that fraction of
    the stability bound, and cells of ``h``."""
    grid = AxiGrid.sample(h, 1.3, -1.3, 1.3, lambda rho, z: np.hypot(rho, z - shift) - 1.0)
    dt = None if dt_fraction is None else dt_fraction * cfl_time_step(EUCLID, grid)
    config = FlowRunConfig(
        metric=EUCLID,
        grid=grid,
        t_max=(1.0 - (10 * h) ** 2) / 4.0,
        sample_interval=0.005,
        sweep_cadence=50,
        dt=dt,
    )
    worst = 0.0
    for s in run_modified_flow(config).samples:
        radius = math.sqrt(max(1.0 - 4.0 * s.t, 0.0))
        if radius >= 10 * h:
            worst = max(worst, abs(s.area / (4 * math.pi * radius * radius) - 1.0))
    return worst


@pytest.mark.parametrize("shift", [0.0, 1e-7, 1e-5, 1e-3, 3.3e-3])
def test_criterion_05_holds_at_every_centre_shift(shift):
    assert worst_area_error(shift) < 0.02


@pytest.mark.parametrize("fraction", [0.95, 0.995])
def test_criterion_05_holds_at_a_dt_just_under_the_bound(fraction):
    assert worst_area_error(0.0, fraction) < 0.02


def test_the_soft_band_edge_keeps_criterion_05_clear_at_twice_the_cell():
    # Slowing the band's outer level sets bends the field the zero set
    # moves through until the next rebuild.  At h = 0.02 the worst area
    # error reads 0.29% with a hard edge, 0.70% with the cutoff from half
    # the band's width and 1.35% from 5 of its 12 cells: a narrower band
    # or an earlier cutoff shows here before it nears the gate's 2%
    assert worst_area_error(0.0, h=2 * H) < 0.01
