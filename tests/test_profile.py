"""Isoperimetric profile of the centered-sphere family.

Checks: the closed-form area->radius inversion against a brentq oracle,
the Euclidean profile A^{3/2}/(6 sqrt(pi)), the slope against finite
differences of the profile itself, convexity sign changes across the
threshold area, the superadditivity gap above threshold, the frozen
ratio margin at the threshold, the large-area behaviour of the mass
read off from (area, volume) pairs, and that `isoflow suite` and the
radial modes load no scipy and no grid module while a level-set run
loads scipy.ndimage and both grid modules.
"""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.optimize import brentq

from isoflow.metric import AmbientMetric, enclosed_volume, sphere_area
from isoflow.profile import (
    SIX_SQRT_PI,
    convexity_threshold,
    convexity_threshold_radius,
    horizon_area,
    locate_convexity_threshold,
    locate_profile_inflection,
    mass_from_region,
    profile_convexity_sign,
    profile_point,
    profile_ratio_margin,
    profile_slope,
    profile_superadditivity_gap,
    profile_volume,
    profile_volume_or_zero,
    radius_from_area,
)

PI = math.pi


def _radius_oracle(m, area):
    g = AmbientMetric(m)
    return brentq(
        lambda r: float(sphere_area(g, r)) - area,
        m / 2,
        m / 2 + math.sqrt(area / (4 * PI)) + m,
        xtol=1e-15,
        rtol=8.9e-16,
    )


def test_radius_from_area_matches_root_finding():
    rng = np.random.default_rng(5)
    for _ in range(200):
        m = float(10.0 ** rng.uniform(-1, 1))
        area = float(horizon_area(m) * 10.0 ** rng.uniform(0, 6))
        closed = float(radius_from_area(m, area))
        oracle = _radius_oracle(m, area)
        assert closed == pytest.approx(oracle, rel=1e-12), f"m={m} A={area}"


def test_radius_from_area_round_trip():
    g = AmbientMetric(1.0)
    r = np.geomspace(0.5, 1e6, 400)
    back = radius_from_area(1.0, sphere_area(g, r))
    assert np.allclose(back, r, rtol=1e-12)


def test_radius_from_area_euclidean():
    assert float(radius_from_area(0.0, 16 * PI)) == pytest.approx(2.0, rel=1e-15)


def test_radius_from_area_at_horizon():
    assert float(radius_from_area(1.0, 16 * PI)) == pytest.approx(0.5, rel=1e-12)
    with pytest.raises(ValueError):
        radius_from_area(1.0, 15 * PI)


def test_profile_volume_euclidean_closed_form():
    a = np.array([1.0, 4 * PI, 100.0])
    assert np.allclose(profile_volume(0.0, a), a**1.5 / SIX_SQRT_PI, rtol=1e-15)


def test_profile_volume_consistent_with_enclosed_volume():
    g = AmbientMetric(2.0)
    for r in (1.1, 2.0, 7.0, 300.0):
        a = float(sphere_area(g, r))
        assert float(profile_volume(2.0, a)) == pytest.approx(
            float(enclosed_volume(g, r)), rel=1e-12
        )


def test_profile_volume_or_zero_below_horizon():
    assert profile_volume_or_zero(1.0, 0.5 * horizon_area(1.0)) == 0.0
    a = 2.0 * horizon_area(1.0)
    assert profile_volume_or_zero(1.0, a) == pytest.approx(float(profile_volume(1.0, a)))


def test_profile_slope_matches_finite_differences():
    rng = np.random.default_rng(13)
    for _ in range(100):
        m = float(10.0 ** rng.uniform(-1, 0.7))
        area = float(horizon_area(m) * 10.0 ** rng.uniform(0.05, 5))
        da = 1e-6 * area
        fd = (float(profile_volume(m, area + da)) - float(profile_volume(m, area - da))) / (2 * da)
        assert float(profile_slope(m, area)) == pytest.approx(fd, rel=2e-7)


def test_profile_slope_euclidean():
    # dV/dA = sqrt(A / 16 pi) = r/2
    assert float(profile_slope(0.0, 16 * PI)) == pytest.approx(1.0, rel=1e-14)


def test_convexity_threshold_location():
    for m in (0.5, 1.0, 2.0):
        assert convexity_threshold(m) == pytest.approx(36 * PI * m * m, rel=1e-15)
        assert convexity_threshold_radius(m) == pytest.approx((1 + math.sqrt(3) / 2) * m, rel=1e-15)
        # the threshold radius really is where the sphere of that area sits
        g = AmbientMetric(m)
        assert float(sphere_area(g, convexity_threshold_radius(m))) == pytest.approx(
            convexity_threshold(m), rel=1e-13
        )
        r_root, a_root = locate_convexity_threshold(m)
        assert r_root == pytest.approx(convexity_threshold_radius(m), rel=1e-12)
        assert a_root == pytest.approx(convexity_threshold(m), rel=1e-12)


def test_convexity_sign():
    m = 1.0
    thr = convexity_threshold(m)
    assert profile_convexity_sign(m, 0.5 * thr) == -1
    assert profile_convexity_sign(m, 2.0 * thr) == 1
    assert profile_convexity_sign(m, thr) == 0
    assert profile_convexity_sign(0.0, 1.0) == 1


def test_convexity_sign_matches_second_differences():
    m = 1.0
    for factor in (0.5, 0.6, 0.9, 1.2, 3.0, 20.0):
        area = factor * convexity_threshold(m)
        da = 1e-4 * area
        second = (
            float(profile_volume(m, area + da))
            - 2 * float(profile_volume(m, area))
            + float(profile_volume(m, area - da))
        )
        expect = profile_convexity_sign(m, area)
        assert math.copysign(1.0, second) == expect, f"factor={factor}: d2={second}"


def test_locate_profile_inflection_near_threshold():
    for m in (0.5, 1.0, 2.0):
        a_star = locate_profile_inflection(m)
        assert a_star == pytest.approx(convexity_threshold(m), rel=1e-3)


def test_superadditivity_gap_above_threshold():
    # V(gamma + a + b) - V(a) - V(b) grows as the pieces grow, once all
    # areas sit above the convexity threshold
    m = 1.0
    thr = convexity_threshold(m)
    rng = np.random.default_rng(23)
    for _ in range(50):
        gamma = float(rng.uniform(0.0, 5 * thr))
        lower = thr * rng.uniform(1.0, 4.0, size=3)
        upper = lower * rng.uniform(1.0, 3.0, size=3)
        gap = profile_superadditivity_gap(m, gamma, upper, lower)
        assert gap >= -1e-9 * float(profile_volume(m, float(np.sum(upper)) + gamma))


def test_superadditivity_gap_rejects_below_threshold():
    m = 1.0
    thr = convexity_threshold(m)
    with pytest.raises(ValueError):
        profile_superadditivity_gap(m, 0.0, np.array([2 * thr]), np.array([0.5 * thr]))
    with pytest.raises(ValueError):
        profile_superadditivity_gap(m, 0.0, np.array([1.5 * thr]), np.array([2 * thr]))


def test_ratio_margin_frozen_value():
    # V - (2/3) A dV/dA at the threshold area, unit mass
    got = profile_ratio_margin(1.0, convexity_threshold(1.0))
    assert got == pytest.approx(19.607860169850028, rel=1e-12)
    assert got == pytest.approx(19.6, abs=0.05)


def test_ratio_margin_scaling():
    # margin scales like volume: lam^3
    for lam in (0.5, 2.0, 7.0):
        base = profile_ratio_margin(1.0, convexity_threshold(1.0))
        scaled = profile_ratio_margin(lam, convexity_threshold(lam))
        assert scaled == pytest.approx(lam**3 * base, rel=1e-12)


def test_ratio_margin_positive_means_ratio_increasing():
    # d/dA [A^{3/2} / V] > 0 iff (3/2) V - A dV/dA > 0; the margin is
    # (2/3) of that combination, so positivity must match a finite
    # difference of the ratio itself
    m = 1.0
    area = convexity_threshold(m)
    da = 1e-5 * area
    ratio = lambda a: a**1.5 / float(profile_volume(m, a))
    fd = (ratio(area + da) - ratio(area - da)) / (2 * da)
    assert profile_ratio_margin(m, area) > 0
    assert fd > 0


def test_mass_from_region_recovers_m_asymptotically():
    m = 1.0
    g = AmbientMetric(m)
    prev_gap = None
    for r in (1e2, 1e3, 1e4):
        a = float(sphere_area(g, r))
        v = float(enclosed_volume(g, r))
        est = mass_from_region(a, v)
        gap = abs(est - m)
        if prev_gap is not None:
            assert gap < prev_gap
        prev_gap = gap
    assert prev_gap < 0.02


def test_mass_from_region_euclidean_zero():
    a = 16 * PI
    v = a**1.5 / SIX_SQRT_PI
    assert mass_from_region(a, v) == pytest.approx(0.0, abs=1e-14)


def test_mass_from_region_rescaled_error_is_bounded():
    # (est - m) * sqrt(A) stays bounded by a constant times m^2; the
    # limiting constant is 6 sqrt(pi) m^2
    m = 1.0
    g = AmbientMetric(m)
    scaled = []
    for r in np.geomspace(10.0, 1e6, 40):
        a = float(sphere_area(g, r))
        v = float(enclosed_volume(g, r))
        scaled.append((mass_from_region(a, v) - m) * math.sqrt(a))
    scaled = np.array(scaled)
    assert np.all(scaled > 0)
    assert np.all(scaled < 1.5 * SIX_SQRT_PI * m**2 + 0.1)
    assert scaled[-1] == pytest.approx(SIX_SQRT_PI * m**2, rel=2e-3)


def test_profile_point_bundle():
    p = profile_point(1.0, convexity_threshold(1.0))
    assert p.convex == 0
    assert p.r == pytest.approx(convexity_threshold_radius(1.0), rel=1e-12)
    assert p.volume == pytest.approx(float(profile_volume(1.0, p.area)), rel=1e-14)


RADIAL_PLAN = [
    {"name": "ode", "mode": "ode-flow", "metric": {"mass": 1.0}, "r0": 10.0,
     "time": {"t_max": 2.0, "sample_interval": 0.5}},
    {"name": "table", "mode": "mass-table", "metric": {"mass": 1.0}, "r_values": [0.6, 1.5, 4.0, 10.0, 40.0]},
]
LEVELSET_PLAN = [
    {"name": "ball", "mode": "levelset-flow", "metric": {"kind": "euclidean"},
     "shape": {"kind": "sphere", "r0": 1.0}, "grid": {"h": 0.05, "rho_max": 1.3, "z_min": -1.3, "z_max": 1.3},
     "time": {"t_max": 0.1, "sample_interval": 0.05}},
]


def _last_stdout_line(tmp_path, code, *args):
    """Run ``code`` with ``args`` in a fresh interpreter in ``tmp_path``; its last stdout line."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    done = subprocess.run(
        [sys.executable, "-c", code, *args],
        env=dict(os.environ, PYTHONPATH=src),
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    return done.stdout.splitlines()[-1]


def _plan_file(tmp_path, name, scenarios):
    path = tmp_path / name
    path.write_text(json.dumps({"scenarios": scenarios}), encoding="utf-8")
    return str(path)


def test_importing_the_runner_leaves_the_root_finder_unloaded(tmp_path):
    # the radial modes need only numpy: scipy.ndimage and scipy.optimize
    # would add about 50 MB and 0.4 s to each of their runs
    code = "import sys, isoflow.runner; print('scipy.optimize' in sys.modules)"
    assert _last_stdout_line(tmp_path, code) == "False"
    radial = (
        "import sys\n"
        "from isoflow.cli import main\n"
        "assert main(['suite', '--out', 'suite']) == 0\n"
        "assert main(['run', sys.argv[1], '--out', 'radial']) == 0\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
    )
    assert _last_stdout_line(tmp_path, radial, _plan_file(tmp_path, "radial.json", RADIAL_PLAN)) == "[]"
    levelset = (
        "import sys\n"
        "from isoflow.cli import main\n"
        "assert main(['run', sys.argv[1], '--out', 'levelset']) == 0\n"
        "print('scipy.ndimage' in sys.modules)\n"
    )
    assert _last_stdout_line(tmp_path, levelset, _plan_file(tmp_path, "levelset.json", LEVELSET_PLAN)) == "True"


def test_the_radial_modes_load_no_grid_code(tmp_path):
    # measure and flow_levelset are almost half of src/, and a fresh process
    # without cached bytecode compiles every module it imports; the package
    # root resolves their names on first use
    radial = (
        "import json, sys\n"
        "def grid(): return [m for m in ('isoflow.measure', 'isoflow.flow_levelset') if m in sys.modules]\n"
        "seen = {}\n"
        "import isoflow\n"
        "seen['import isoflow'] = grid()\n"
        "import isoflow.runner\n"
        "seen['import isoflow.runner'] = grid()\n"
        "from isoflow.cli import main\n"
        "assert main(['suite', '--out', 'suite']) == 0\n"
        "seen['suite'] = grid()\n"
        "assert main(['run', sys.argv[1], '--out', 'radial']) == 0\n"
        "seen['radial plan'] = grid()\n"
        "seen['isoflow.measure'] = isoflow.measure.__name__\n"
        "from isoflow import (AmbientMetric, AxiGrid, FlowRunConfig,\n"
        "                     run_modified_flow, run_symmetric_flow)\n"
        "import isoflow.flow_levelset as fl, isoflow.flow_ode as fo, isoflow.measure as me, isoflow.metric as mt\n"
        "seen['same objects'] = [AmbientMetric is mt.AmbientMetric, AxiGrid is me.AxiGrid,\n"
        "    FlowRunConfig is fl.FlowRunConfig, run_modified_flow is fl.run_modified_flow,\n"
        "    run_symmetric_flow is fo.run_symmetric_flow]\n"
        "seen['every grid name'] = all(getattr(isoflow, n) is getattr(sys.modules[f'isoflow.{m}'], n)\n"
        "    for m, names in isoflow._GRID_NAMES.items() for n in names)\n"
        "try:\n"
        "    isoflow.no_such_name\n"
        "except AttributeError as e:\n"
        "    seen['unknown'] = str(e)\n"
        "print(json.dumps(seen))\n"
    )
    seen = json.loads(_last_stdout_line(tmp_path, radial, _plan_file(tmp_path, "radial.json", RADIAL_PLAN)))
    assert seen == {
        "import isoflow": [],
        "import isoflow.runner": [],
        "suite": [],
        "radial plan": [],
        "isoflow.measure": "isoflow.measure",
        "same objects": [True] * 5,
        "every grid name": True,
        "unknown": "module 'isoflow' has no attribute 'no_such_name'",
    }
    levelset = (
        "import sys\n"
        "from isoflow.cli import main\n"
        "assert main(['run', sys.argv[1], '--out', 'levelset']) == 0\n"
        "print(sorted(m for m in ('isoflow.measure', 'isoflow.flow_levelset') if m in sys.modules))\n"
    )
    loaded = _last_stdout_line(tmp_path, levelset, _plan_file(tmp_path, "levelset.json", LEVELSET_PLAN))
    assert loaded == "['isoflow.flow_levelset', 'isoflow.measure']"
