"""Closed-form sphere geometry against independent oracles.

Checks: direct evaluations of area/volume/curvature, quadrature oracle for
the enclosed volume, a finite-difference first-variation oracle for the
mean curvature (dA/dr = H w^2 A), the Hawking-mass identity, scaling
covariance under (m, r) -> (lam m, lam r), and the large-sphere flatness
ratios.
"""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from isoflow.metric import (
    AmbientMetric,
    asymptotic_flatness_checks,
    enclosed_volume,
    sphere_area,
    sphere_area_derivative,
    sphere_geometry,
    sphere_hawking_mass,
    sphere_mean_curvature,
)

PI = math.pi


def test_horizon_area_is_16_pi_m_sq():
    for m in (0.5, 1.0, 2.0, 7.3):
        a = sphere_area(AmbientMetric(m), m / 2)
        assert a == pytest.approx(16 * PI * m * m, rel=1e-14)


def test_euclidean_sphere_area():
    g = AmbientMetric.euclidean()
    assert sphere_area(g, 2.0) == pytest.approx(16 * PI, rel=1e-15)
    assert float(sphere_area_derivative(g, 3.0)) == pytest.approx(24 * PI, rel=1e-15)


def test_area_direct_value():
    # 4 pi 100 (1 + 1/20)^4
    a = sphere_area(AmbientMetric(1.0), 10.0)
    assert a == pytest.approx(4 * PI * 100 * 1.05**4, rel=1e-14)


def test_radius_inside_horizon_rejected():
    g = AmbientMetric(1.0)
    with pytest.raises(ValueError):
        sphere_area(g, 0.49)
    with pytest.raises(ValueError):
        enclosed_volume(g, 0.25)


def test_area_derivative_matches_finite_differences():
    rng = np.random.default_rng(7)
    for _ in range(50):
        m = float(rng.uniform(0.0, 3.0))
        r = float(rng.uniform(m / 2 + 0.2 * (m + 0.1), 8.0 * (m + 1.0)))
        g = AmbientMetric(m)
        dr = 1e-6 * r
        fd = (sphere_area(g, r + dr) - sphere_area(g, r - dr)) / (2 * dr)
        assert float(sphere_area_derivative(g, r)) == pytest.approx(fd, rel=1e-7)


def test_area_derivative_zero_at_horizon():
    assert float(sphere_area_derivative(AmbientMetric(2.0), 1.0)) == 0.0


def test_enclosed_volume_euclidean_and_horizon():
    assert enclosed_volume(AmbientMetric.euclidean(), 3.0) == pytest.approx(36 * PI, rel=1e-15)
    assert float(enclosed_volume(AmbientMetric(1.0), 0.5)) == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("m", [1e-104, 1e-155])
def test_enclosed_volume_stays_finite_for_a_tiny_mass(m):
    # (m/2)**-3 overflows a float here; the volume is the Euclidean one
    want = 4.0 / 3.0 * PI * 125.0
    got = float(enclosed_volume(AmbientMetric(m), 5.0))
    assert abs(got - want) <= 4 * np.spacing(want)


def test_enclosed_volume_at_the_smallest_subnormal_mass_is_the_euclidean_one():
    # m / 2 rounds to 0; the mass terms lie below one ulp of the volume
    tiny, flat = AmbientMetric(5e-324), AmbientMetric(0.0)
    assert enclosed_volume(tiny, 5.0) == enclosed_volume(flat, 5.0)
    r = np.array([0.3, 1.0, 5.0, 40.0])
    assert np.array_equal(enclosed_volume(tiny, r), enclosed_volume(flat, r))


@pytest.mark.parametrize("m", [1e-308, 1e-310, 1e-320])
def test_enclosed_volume_stays_finite_when_r_over_half_the_mass_overflows(m):
    # (m/2)**3 underflows to 0 and r / (m/2) overflows to inf here
    r = np.array([0.3, 1.0, 5.0, 40.0])
    want = 4.0 / 3.0 * PI * r**3
    got = enclosed_volume(AmbientMetric(m), r)
    assert np.all(np.abs(got - want) <= 4 * np.spacing(want))
    assert abs(float(enclosed_volume(AmbientMetric(m), 5.0)) - want[2]) <= 4 * np.spacing(want[2])


@pytest.mark.parametrize("log_m", [-100, -60, -53.5, -20, 20, 51.7, 60, 100])
def test_enclosed_volume_scales_as_the_mass_cubed(log_m):
    # one form at every scale: V(x m/2) / m^3 is that of m = 1, to round-off;
    # near the horizon log r - log a leaves about ulp(log r) a^3 (measured
    # below 1e-12 m^3), and from x = 1.1 on below 4e-15 relative
    m = 10.0**log_m
    x = np.array([1.0, 1.0 + 1e-6, 1.001, 1.1, 3.732, 20.0, 100.0])
    want = enclosed_volume(AmbientMetric(1.0), 0.5 * x)
    got = enclosed_volume(AmbientMetric(m), 0.5 * m * x) / m**3
    assert np.all(np.abs(got - want) <= 1e-14 * want + 1e-11)


def test_enclosed_volume_matches_quadrature():
    for m, r in [(1.0, 2.0), (1.0, 1.866), (2.0, 3.0), (0.5, 10.0), (3.0, 1.6)]:
        g = AmbientMetric(m)
        oracle, err = quad(
            lambda rho: 4 * PI * rho**2 * (1 + m / (2 * rho)) ** 6,
            m / 2,
            r,
            epsabs=1e-13,
            epsrel=1e-13,
        )
        got = float(enclosed_volume(g, r))
        assert got == pytest.approx(oracle, rel=1e-10), f"m={m} r={r}: {got} vs {oracle}"


def test_mean_curvature_special_values():
    assert float(sphere_mean_curvature(AmbientMetric.euclidean(), 2.0)) == pytest.approx(1.0)
    assert float(sphere_mean_curvature(AmbientMetric(1.0), 0.5)) == 0.0
    # 2 (1 - 1/4) / (2 (1 + 1/4)^3)
    got = float(sphere_mean_curvature(AmbientMetric(1.0), 2.0))
    assert got == pytest.approx(2 * 0.75 / (2 * 1.25**3), rel=1e-14)


def test_mean_curvature_first_variation_oracle():
    # the defining property of H: moving the sphere out by dr (a g-speed
    # w^2 dr) changes the area by H * w^2 * A * dr
    rng = np.random.default_rng(11)
    for _ in range(100):
        m = float(rng.uniform(0.0, 2.5))
        r = float(rng.uniform(m / 2 + 0.1 * (m + 0.1), 20.0 * (m + 0.5)))
        g = AmbientMetric(m)
        dr = 1e-6 * r
        dA = (sphere_area(g, r + dr) - sphere_area(g, r - dr)) / (2 * dr)
        w = 1 + m / (2 * r)
        h_from_variation = dA / (w**2 * sphere_area(g, r))
        assert float(sphere_mean_curvature(g, r)) == pytest.approx(
            h_from_variation, rel=1e-7, abs=1e-12
        )


def test_hawking_mass_recovers_m():
    assert float(sphere_hawking_mass(AmbientMetric.euclidean(), 5.0)) == pytest.approx(0.0, abs=1e-14)
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(1000):
        m = float(10.0 ** rng.uniform(-2, 2))
        r = float(m / 2 * (1 + 10.0 ** rng.uniform(-6, 4)))
        got = float(sphere_hawking_mass(AmbientMetric(m), r))
        worst = max(worst, abs(got - m) / m)
    assert worst < 1e-10, f"worst relative Hawking error {worst}"


def test_geometry_scaling_covariance():
    # (m, r) -> (lam m, lam r): A ~ lam^2, V ~ lam^3, H ~ 1/lam, m_H ~ lam
    for lam in (2.0, 10.0, 0.5):
        for m, r in [(1.0, 3.0), (0.5, 0.9), (2.0, 50.0)]:
            g, gl = AmbientMetric(m), AmbientMetric(lam * m)
            assert float(sphere_area(gl, lam * r)) == pytest.approx(
                lam**2 * float(sphere_area(g, r)), rel=1e-13
            )
            assert float(enclosed_volume(gl, lam * r)) == pytest.approx(
                lam**3 * float(enclosed_volume(g, r)), rel=1e-12
            )
            assert float(sphere_mean_curvature(gl, lam * r)) == pytest.approx(
                float(sphere_mean_curvature(g, r)) / lam, rel=1e-13
            )
            assert float(sphere_hawking_mass(gl, lam * r)) == pytest.approx(
                lam * float(sphere_hawking_mass(g, r)), rel=1e-12, abs=1e-14
            )


def test_monotonicity_in_radius():
    g = AmbientMetric(1.3)
    r = np.geomspace(0.66, 1e4, 200)
    a = sphere_area(g, r)
    v = enclosed_volume(g, r)
    assert np.all(np.diff(a) > 0)
    assert np.all(np.diff(v) > 0)


def test_asymptotic_flatness_ratios():
    g = AmbientMetric(1.0)
    table = asymptotic_flatness_checks(g, [1e2, 1e3, 1e4, 1e5])
    area_ratio = table[:, 1]
    iso_ratio = table[:, 2]
    assert area_ratio[0] == pytest.approx((1 + 1 / 200) ** 4, rel=1e-12)
    # both ratios approach their flat-space limits monotonically
    assert np.all(np.diff(np.abs(area_ratio - 1.0)) < 0)
    assert np.all(np.diff(np.abs(iso_ratio - 6 * math.sqrt(PI))) < 0)
    assert abs(iso_ratio[-1] - 6 * math.sqrt(PI)) < 2e-3


def test_sphere_geometry_bundle():
    geo = sphere_geometry(AmbientMetric(1.0), 3.0)
    assert geo.hawking_mass == pytest.approx(1.0, rel=1e-12)
    assert geo.area == pytest.approx(float(sphere_area(AmbientMetric(1.0), 3.0)))
