"""Mass functionals: direct values, exhaustion convergence, bound fitting.

Tests verify:
- quasilocal mass vanishes on Euclidean balls, equals -4m/3 on horizons
- the coordinate-ball exhaustion overshoots and converges to the mass
  parameter at the O(P^{-1/2}) rate
- monotone dependence on perimeter and volume
- the fitted upper-bound constant covers a held-out radius grid
- the small-component volume bound and its equality case
- union-gap diagnostics stay bounded along closed-form families
- Hawking mass special values and consistency with the sphere identity
"""

import math

import numpy as np
import pytest

from isoflow.mass import (
    ISO_ADM_FIT_C,
    RegionSummary,
    appendix_union_gap,
    check_iso_adm_bound,
    exhaustion_mass,
    fit_iso_adm_constant,
    hawking_mass,
    quasilocal_mass,
    small_component_volume_bound,
)
from isoflow.metric import (
    AmbientMetric,
    sphere_area,
    sphere_hawking_mass,
    sphere_mean_curvature,
)
from isoflow.profile import SIX_SQRT_PI, radius_from_area

PI = math.pi
EUCLID = AmbientMetric.euclidean()


def euclid_ball(r):
    return 4 * PI * r * r, 4 * PI * r**3 / 3


def test_quasilocal_mass_euclidean_balls_zero():
    for r in (0.1, 1.0, 7.0, 1e3):
        p, v = euclid_ball(r)
        assert quasilocal_mass(p, v) == pytest.approx(0.0, abs=1e-11 * r)


def test_quasilocal_mass_horizon_value():
    # V = 0 at the horizon: qlm = -(2/P) P^{3/2}/(6 sqrt pi) = -4m/3
    for m in (0.5, 1.0, 3.0):
        p = 16 * PI * m * m
        assert quasilocal_mass(p, 0.0) == pytest.approx(-4 * m / 3, rel=1e-13)


def test_quasilocal_mass_large_ball_near_m():
    s = RegionSummary.coordinate_ball(AmbientMetric(1.0), 1e4)
    assert s.qlm == pytest.approx(1.0, abs=0.02)


def test_quasilocal_mass_rejects_bad_perimeter():
    with pytest.raises(ValueError):
        quasilocal_mass(0.0, 1.0)
    with pytest.raises(ValueError):
        quasilocal_mass(-1.0, 1.0)


def test_quasilocal_mass_monotone_in_inputs():
    rng = np.random.default_rng(41)
    for _ in range(200):
        p = float(rng.uniform(0.5, 50.0))
        v = float(rng.uniform(0.1, 50.0))
        dv = float(rng.uniform(0.01, 1.0))
        dp = float(rng.uniform(0.01, 1.0))
        # fixed perimeter: more volume, more mass
        assert quasilocal_mass(p, v + dv) > quasilocal_mass(p, v)
        # fixed volume: more perimeter, less mass
        assert quasilocal_mass(p + dp, v) < quasilocal_mass(p, v)


def test_exhaustion_mass_euclidean_zero():
    out = exhaustion_mass(EUCLID, [1.0, 2.0, 4.0, 8.0])
    assert np.allclose(out, 0.0, atol=1e-12)


def test_exhaustion_mass_overshoots_and_converges():
    # qlm(B_r) = m + 3 m^2/r + ...: above m for every finite ball, with
    # error falling like 1/sqrt(perimeter) -- about sqrt(10) per decade
    g = AmbientMetric(1.0)
    radii = np.array([1e2, 1e3, 1e4])
    est = exhaustion_mass(g, radii)
    errors = est - 1.0
    assert np.all(errors > 0)
    for k in range(2):
        decay = errors[k] / errors[k + 1]
        assert decay == pytest.approx(math.sqrt(10) ** 2, rel=0.2), f"step {k}: {decay}"
    # closed-form rate: error * sqrt(P) tends to 6 sqrt(pi) m^2
    p_last = float(sphere_area(g, radii[-1]))
    assert errors[-1] * math.sqrt(p_last) == pytest.approx(SIX_SQRT_PI, rel=0.01)


def test_exhaustion_mass_reads_m_far_out():
    # the overshoot falls below m's last bit from r ~ 1e17; qlm as the
    # cancellation V - P^{3/2} / (6 sqrt pi) read -1.1e4 at r = 1e20 and
    # 8.4e78 at r = 1e95
    est = exhaustion_mass(AmbientMetric(1.0), 10.0 ** np.arange(20, 100, 5))
    assert est.tolist() == [1.0] * est.size


def test_exhaustion_mass_scaling_to_other_masses():
    r1 = np.array([5.0, 50.0, 500.0])
    one = exhaustion_mass(AmbientMetric(1.0), r1)
    two = exhaustion_mass(AmbientMetric(2.0), 2.0 * r1)
    assert np.allclose(two, 2.0 * one, rtol=1e-12)
    assert two[-1] == pytest.approx(2.0, abs=0.05)


def test_exhaustion_mass_requires_increasing_radii():
    with pytest.raises(ValueError):
        exhaustion_mass(EUCLID, [2.0, 1.0])
    with pytest.raises(ValueError):
        exhaustion_mass(EUCLID, [])


def test_iso_adm_bound_euclidean_exact_zero():
    p, v = euclid_ball(3.0)
    slack = check_iso_adm_bound(RegionSummary(p, v), m_adm=0.0, fit_constant=0.0)
    assert slack == pytest.approx(0.0, abs=1e-12)


def test_iso_adm_bound_rejects_small_perimeter():
    s = RegionSummary.coordinate_ball(AmbientMetric(1.0), 1.4)
    assert s.perimeter < 36 * PI
    with pytest.raises(ValueError):
        check_iso_adm_bound(s, m_adm=1.0, fit_constant=ISO_ADM_FIT_C)


def test_fitted_constant_covers_held_out_radii():
    # the frozen constant was calibrated on a dense area grid; a shifted
    # held-out grid must stay under it, i.e. slack >= 0 everywhere
    g = AmbientMetric(1.0)
    for area in np.geomspace(36 * PI * 1.0001, 3e7, 997):
        r = float(radius_from_area(1.0, area))
        s = RegionSummary.coordinate_ball(g, r)
        slack = check_iso_adm_bound(s, m_adm=1.0, fit_constant=ISO_ADM_FIT_C)
        assert slack >= 0.0, f"area={area}: slack {slack}"


def test_fit_constant_matches_frozen_value():
    g = AmbientMetric(1.0)
    areas = np.geomspace(36 * PI, 1e8, 4001)
    fam = [RegionSummary.coordinate_ball(g, float(radius_from_area(1.0, a))) for a in areas]
    fitted = fit_iso_adm_constant(fam, m_adm=1.0)
    assert fitted <= ISO_ADM_FIT_C
    assert fitted == pytest.approx(ISO_ADM_FIT_C, abs=2e-3)


def test_fit_constant_floors_at_zero():
    # Euclidean balls sit exactly on the bound, dumbbells below it
    fam = [RegionSummary(*euclid_ball(r)) for r in (1.0, 2.0, 5.0)]
    assert fit_iso_adm_constant(fam, m_adm=0.0) == 0.0


def test_small_component_volume_bound_equality_case():
    alpha = 4 * PI * 2.0**2
    vol = alpha**1.5 / SIX_SQRT_PI
    assert small_component_volume_bound(SIX_SQRT_PI, alpha, SIX_SQRT_PI, vol)
    assert not small_component_volume_bound(SIX_SQRT_PI, alpha, SIX_SQRT_PI, 2 * vol)


def test_small_component_volume_bound_two_balls_strict():
    p1, v1 = euclid_ball(1.0)
    assert small_component_volume_bound(SIX_SQRT_PI, 2 * p1, SIX_SQRT_PI, 2 * v1)
    # and with room to spare: the combined region is not a ball
    bound = (2 * p1) ** 1.5 * SIX_SQRT_PI**2 / SIX_SQRT_PI**3
    assert 2 * v1 < bound * 0.95


def test_small_component_volume_bound_rejects_bad_constants():
    with pytest.raises(ValueError):
        small_component_volume_bound(0.0, 1.0, 1.0, 1.0)


def test_union_gap_empty_fixed_region():
    far = RegionSummary.coordinate_ball(AmbientMetric(1.0), 100.0)
    out = appendix_union_gap(RegionSummary.empty(), far)
    assert out.gap == pytest.approx(0.0, abs=1e-15)
    assert out.far_mass_positive


def test_union_gap_bounded_deficit_schwarzschild():
    g = AmbientMetric(1.0)
    fixed = RegionSummary.coordinate_ball(g, 2.0)
    deficits = []
    for r in (1e2, 1e3, 1e4):
        far = RegionSummary.coordinate_ball(g, r)
        out = appendix_union_gap(fixed, far)
        assert out.far_mass_positive
        assert out.gap < 0  # gluing a fixed lump always costs a little
        deficits.append(out.rescaled_deficit)
    assert all(0 < d < 50 for d in deficits), deficits
    # the rescaled deficit saturates rather than growing
    assert abs(deficits[-1] - deficits[-2]) < 0.5


def test_union_gap_euclidean_vanishing():
    fixed = RegionSummary(*euclid_ball(1.0))
    far = RegionSummary(*euclid_ball(1e3))
    out = appendix_union_gap(fixed, far)
    assert out.gap == pytest.approx(0.0, abs=2e-3)
    assert 0 < out.rescaled_deficit < 10


def test_hawking_mass_special_values():
    assert hawking_mass(16 * PI * 4.0, 0.0) == pytest.approx(2.0, rel=1e-14)
    assert hawking_mass(4 * PI * 9.0, 16 * PI) == pytest.approx(0.0, abs=1e-14)


def test_hawking_mass_matches_sphere_identity():
    g = AmbientMetric(1.5)
    for r in (0.75, 1.0, 3.0, 40.0):
        area = float(sphere_area(g, r))
        h = float(sphere_mean_curvature(g, r))
        got = hawking_mass(area, h * h * area)
        assert got == pytest.approx(float(sphere_hawking_mass(g, r)), rel=1e-12)
        assert got == pytest.approx(1.5, rel=1e-10)


def test_region_summary_validation_and_ratio():
    with pytest.raises(ValueError):
        RegionSummary(-1.0, 0.0)
    s = RegionSummary(16 * PI, 0.0)
    assert s.ratio == math.inf
    ball = RegionSummary(*euclid_ball(2.0))
    assert ball.ratio == pytest.approx(SIX_SQRT_PI, rel=1e-13)
