"""Closed-form geometry of the conformally flat model spaces.

The ambient manifold is R^3 carrying the metric g = w^4 * delta with
conformal factor w = 1 + m/(2r) in isotropic coordinates.  For m = 0 this
is Euclidean space.  For m > 0 the centered sphere r = m/2 is minimal (the
horizon) and is treated as the inner boundary of the manifold: radii below
m/2 are rejected rather than continued inward.

Conformal densities relative to the flat metric: w^2 for lengths, w^4 for
areas, w^6 for volumes.  Centered coordinate spheres have closed-form area,
enclosed volume, mean curvature and Hawking mass, collected here.  Enclosed
volume is measured from the horizon outward; the region behind the horizon
contributes nothing.  Each formula lives once; w is a private function of
(m, r), the area and the mean curvature private functions of (r, w).

Every radius-taking form accepts a scalar or an array.  A scalar (Python
``float`` or ``int``, or ``np.float64``) comes out as an ``np.float64``; an
array comes out as an array of the same shape.  One radius check serves
both: a scalar is compared as a plain float, an array elementwise, and the
formula bodies are shared.  Scalars are computed as ``np.float64`` rather
than ``float`` so division keeps numpy's semantics (under ``np.errstate``,
2/r is inf at r = 0 instead of raising; the private forms on plain floats,
as the radial ODE calls them, raise), and each power takes the same routine
for both kinds, so a scalar and a one-element array agree to the bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "AmbientMetric",
    "SphereGeometry",
    "sphere_area",
    "sphere_area_derivative",
    "enclosed_volume",
    "sphere_mean_curvature",
    "sphere_hawking_mass",
    "sphere_qlm_overshoot",
    "sphere_geometry",
    "asymptotic_flatness_checks",
]

_BINOM6 = (1, 6, 15, 20, 15, 6, 1)


def _as_float(x):
    """One scalar (np.float64 subclasses float) as np.float64, else a float array."""
    return np.float64(x) if isinstance(x, (float, int)) else np.asarray(x, dtype=float)


def _pow(x, p):
    """x**p by the C library's pow, for a scalar and an array alike.

    ``**`` on an np.float64 calls the C pow, but on an array it may take
    numpy's SIMD power, which differs in the last bit, and a cancellation
    (the Hawking mass far out) magnifies that bit.  np.float_power calls the
    C pow per element, so both kinds agree exactly.  Powers of w use it;
    powers of a radius or an area use np.power, numpy's own, for both kinds.
    Each route gives the values that tests/test_closed_forms.py and the
    oracle samples in tests/data record.
    """
    return x**p if isinstance(x, float) else np.float_power(x, p)


@dataclass(frozen=True)
class AmbientMetric:
    """Conformally flat model metric of mass ``m >= 0``."""

    mass: float = 0.0

    def __post_init__(self):
        if not (self.mass >= 0.0) or not math.isfinite(self.mass):
            raise ValueError(f"metric mass must be finite and >= 0, got {self.mass}")

    @property
    def horizon_radius(self) -> float:
        return 0.5 * self.mass

    def conformal_factor(self, r):
        """w = 1 + m/(2r); the flat-to-g length density is w^2."""
        r = _as_float(r)
        if self.mass == 0.0:
            return np.float64(1.0) if r.ndim == 0 else np.ones_like(r)
        return _conformal_weight(self.mass, r)

    @classmethod
    def euclidean(cls) -> "AmbientMetric":
        return cls(0.0)


def _radius_ok(hr: float, r):
    # the one radius rule, per element: finite and outside the horizon hr,
    # allowing r == hr up to roundoff (so no negative radius)
    return (hr * (1.0 - 4e-16) <= r) & (r < math.inf)


def _check_radius(metric: AmbientMetric, r):
    # a scalar is compared as given, cheapest as a float
    hr, x = metric.horizon_radius, _as_float(r)
    if not (_radius_ok(hr, r) if isinstance(x, float) else np.all(_radius_ok(hr, x))):
        raise ValueError(f"radius must be finite and >= horizon radius {hr}")
    return x


# the one conformal-weight formula, of (m, r), and area and mean-curvature ones, of (r, w)
# (flow_ode._stage repeats the last two on a float, for speed)
def _conformal_weight(m, r):
    return 1.0 + m / (2.0 * r)


def _area(r, w):
    return 4.0 * math.pi * r * r * _pow(w, 4)


def _mean_curvature(r, w):
    return 2.0 * (2.0 - w) / (r * _pow(w, 3))


def sphere_area(metric: AmbientMetric, r):
    """g-area of the centered coordinate sphere of isotropic radius r.

    A(r) = 4 pi r^2 (1 + m/2r)^4; equals 16 pi m^2 at the horizon.
    """
    r = _check_radius(metric, r)
    return _area(r, metric.conformal_factor(r))


def sphere_area_derivative(metric: AmbientMetric, r):
    """dA/dr = 8 pi r w^3 (2 - w); vanishes at the horizon (w = 2)."""
    r = _check_radius(metric, r)
    w = metric.conformal_factor(r)
    return 8.0 * math.pi * r * _pow(w, 3) * (2.0 - w)


def enclosed_volume(metric: AmbientMetric, r):
    """g-volume between the horizon and the coordinate sphere of radius r.

    Closed form of int_a^r 4 pi rho^2 (1 + a/rho)^6 drho, a = m/2, in y =
    a/r <= 1, so no power overflows at any mass: the monomial c a^k
    rho^(2-k) gives r^3 c (y^k - y^3)/(3-k) for k < 3, a^3 c (y^(k-3) -
    1)/(3-k) for k > 3, and 20 a^3 (log r - log a) for k = 3 (r/a may
    overflow at a subnormal a).
    """
    r = _check_radius(metric, r)
    # np.power, not _pow: see _pow; the radial flow's swept volume starts here
    a = 0.5 * metric.mass
    if a == 0.0:  # m = 0, or a subnormal m halved to 0
        return (4.0 / 3.0) * math.pi * np.power(r, 3)
    y = a / r
    y3 = np.power(y, 3)
    outer = sum(c * (np.power(y, k) - y3) / (3 - k) for k, c in enumerate(_BINOM6[:3]))
    inner = sum(c * (np.power(y, k - 3) - 1.0) / (3 - k) for k, c in enumerate(_BINOM6[4:], 4))
    return 4.0 * math.pi * (np.power(r, 3) * outer + a * a * a * (20.0 * (np.log(r) - np.log(a)) + inner))


def sphere_mean_curvature(metric: AmbientMetric, r):
    """Mean curvature (outward normal) of the coordinate sphere of radius r.

    H(r) = 2 (2 - w) / (r w^3): positive outside the horizon, zero on it,
    and 2/r in the Euclidean case.  Consistent with the first variation of
    area, dA/dr = H * w^2 * A.
    """
    r = _check_radius(metric, r)
    return _mean_curvature(r, metric.conformal_factor(r))


def sphere_hawking_mass(metric: AmbientMetric, r):
    """Hawking mass sqrt(A/16pi) (1 - A H^2 / 16pi) of a coordinate sphere.

    Identically equal to the metric mass m, for every r >= m/2.  On the
    sphere 1 - A H^2 / 16pi is 4 (w - 1) / w^2, with w - 1 = m/(2r) taken
    from m and r: formed as a difference, it cancels to nothing as r/m
    grows.
    """
    r = _check_radius(metric, r)
    w = metric.conformal_factor(r)
    return np.sqrt(_area(r, w) / (16.0 * math.pi)) * (4.0 * (metric.mass / (2.0 * r)) / (w * w))


def sphere_qlm_overshoot(metric: AmbientMetric, r):
    """Rescaled overshoot (qlm - m) sqrt(A) of the coordinate ball of
    radius r, qlm = (2/A)(V - A^{3/2}/(6 sqrt pi)) (:mod:`isoflow.mass`).

    In y = a/r <= 1, a = m/2, L = log r - log a, the y^0 terms of V -
    A^{3/2}/(6 sqrt pi) cancel by hand, leaving 4 pi r^3 (y + 10 y^2 + (20 L
    - 20/3) y^3 - 20 y^4 - 5 y^5 - 2 y^6/3), which leads with 4 pi a r^2;
    its m A / 2 part cancels too, so the overshoot is 2 sqrt(4 pi) a^2 E /
    w^2 with E = 6 + (20 L - 38/3) y - 24 y^2 - 6 y^3 - 2 y^4/3.  Formed
    without a cancellation, it tends to 3 sqrt(4 pi) m^2 at every r.
    """
    r = _check_radius(metric, r)
    a = 0.5 * metric.mass
    if a == 0.0:  # a Euclidean ball: qlm is exactly 0
        return 0.0 * r
    y = a / r
    e = 6.0 + y * (20.0 * (np.log(r) - np.log(a)) - 38.0 / 3.0 - y * (24.0 + y * (6.0 + y * (2.0 / 3.0))))
    return 2.0 * math.sqrt(4.0 * math.pi) * a * a * e / ((1.0 + y) * (1.0 + y))


@dataclass(frozen=True)
class SphereGeometry:
    """All closed-form quantities of one centered coordinate sphere."""

    r: float
    area: float
    enclosed_volume: float
    mean_curvature: float
    hawking_mass: float


def sphere_geometry(metric: AmbientMetric, r: float) -> SphereGeometry:
    return SphereGeometry(
        r=float(r),
        area=float(sphere_area(metric, r)),
        enclosed_volume=float(enclosed_volume(metric, r)),
        mean_curvature=float(sphere_mean_curvature(metric, r)),
        hawking_mass=float(sphere_hawking_mass(metric, r)),
    )


def asymptotic_flatness_checks(metric: AmbientMetric, radii) -> np.ndarray:
    """Large-sphere diagnostics as a table with one row per radius.

    Columns: r, |S_r| / (4 pi r^2), |S_r|^(3/2) / |B_r|.  The first ratio
    tends to 1 and the second to 6 sqrt(pi) as r grows, which is the
    asymptotic-flatness signature the rest of the package leans on.
    """
    radii = np.atleast_1d(np.asarray(radii, dtype=float))
    areas = sphere_area(metric, radii)
    vols = enclosed_volume(metric, radii)
    area_ratio = areas / (4.0 * math.pi * radii**2)
    iso_ratio = areas**1.5 / vols
    return np.column_stack([radii, area_ratio, iso_ratio])
