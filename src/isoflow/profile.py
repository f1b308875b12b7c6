"""Isoperimetric profile of the model space and its inequality margins.

The profile assigns to a sphere area A the volume of the centered
coordinate ball with that boundary area.  It is the comparison object for
every mass bound in this package: regions are graded by how their enclosed
volume falls short of the profile at equal boundary area.

The profile is strictly increasing and changes convexity exactly once, at
A = 36 pi m^2 (coordinate radius (1 + sqrt(3)/2) m).  The helpers below
expose that threshold, the slope dV/dA, the superadditivity gap used when
several boundary components are merged, and the margin that makes
A^(3/2) / (a + profile(A)) increasing above the threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .metric import AmbientMetric, _as_float, _pow, enclosed_volume, sphere_area

__all__ = [
    "SIX_SQRT_PI",
    "ProfilePoint",
    "horizon_area",
    "convexity_threshold",
    "convexity_threshold_radius",
    "radius_from_area",
    "profile_volume",
    "profile_volume_or_zero",
    "profile_slope",
    "profile_convexity_sign",
    "locate_convexity_threshold",
    "locate_profile_inflection",
    "profile_superadditivity_gap",
    "profile_ratio_margin",
    "mass_from_region",
    "isoperimetric_ratio",
    "profile_point",
]

SIX_SQRT_PI = 6.0 * math.sqrt(math.pi)


def horizon_area(m: float) -> float:
    return 16.0 * math.pi * m * m


def convexity_threshold(m: float) -> float:
    """Area above which the profile is convex: 36 pi m^2."""
    return 36.0 * math.pi * m * m


def convexity_threshold_radius(m: float) -> float:
    """Coordinate radius of the convexity threshold: (1 + sqrt(3)/2) m."""
    return (1.0 + math.sqrt(3.0) / 2.0) * m


def _check_area(m: float, area, *, strict: bool = False):
    # one scalar is checked as a float and returned as np.float64, as the
    # radius check in metric does
    area = _as_float(area)
    amin = horizon_area(m)
    slack = 4e-16 * amin  # relative, as metric's radius check
    low = area <= amin + slack if strict else area < amin - slack
    if (low if isinstance(area, float) else np.any(low)):
        raise ValueError(
            f"area must exceed the horizon area {amin}" if strict
            else f"area below the horizon area {amin}"
        )
    return area


def radius_from_area(m: float, area):
    """Invert A(r) = 4 pi r^2 (1 + m/2r)^4 on r >= m/2.

    With s = sqrt(A / 4 pi) the defining relation reads r + m + m^2/(4r) = s,
    a quadratic in r whose outer root is r = ((s - m) + sqrt(s (s - 2m))) / 2.
    Exact at the horizon (A = 16 pi m^2 gives r = m/2) and reduces to
    sqrt(A / 4 pi) for m = 0.
    """
    area = _check_area(m, area)
    s = np.sqrt(area / (4.0 * math.pi))
    if m == 0.0:
        return s
    disc = np.maximum(s * (s - 2.0 * m), 0.0)
    return 0.5 * ((s - m) + np.sqrt(disc))


def profile_volume(m: float, area):
    """Profile value: volume of the centered ball with boundary area A."""
    if m == 0.0:  # np.power for a power of an area, as metric._pow says
        return np.power(_check_area(m, area), 1.5) / SIX_SQRT_PI
    r = radius_from_area(m, area)
    return enclosed_volume(AmbientMetric(m), r)


def profile_volume_or_zero(m: float, area):
    """Profile extended by 0 below the horizon area: a float, or an array.

    Flow diagnostics call this on totals that may drop under 16 pi m^2 once
    everything is frozen; the profile proper rejects such areas.
    """
    low = area < horizon_area(m)
    if np.ndim(low):  # the profile is read at the horizon area where low
        return np.where(low, 0.0, profile_volume(m, np.where(low, horizon_area(m), area)))
    return 0.0 if low else float(profile_volume(m, area))


def profile_slope(m: float, area):
    """dV/dA along the profile: w^3 r / (2 (2 - w)) at the radius r with area A.

    Blows up toward the horizon area and equals sqrt(A) / (4 sqrt(pi)) in
    the Euclidean case.
    """
    area = _check_area(m, area, strict=m > 0.0)
    r = radius_from_area(m, area)
    w = AmbientMetric(m).conformal_factor(r)
    return _pow(w, 3) * r / (2.0 * (2.0 - w))


def profile_convexity_sign(m: float, area) -> int:
    """Sign of the profile's second derivative at area A.

    The slope's r-derivative carries the sign of 1 - 2m/r + m^2/(4 r^2),
    which is negative between the horizon and the threshold radius and
    positive beyond it.  Returns -1, 0 or +1; always +1 for m = 0
    (the Euclidean profile A^(3/2)/(6 sqrt(pi)) is convex).
    """
    _check_area(m, area, strict=m > 0.0)
    if m == 0.0:
        return 1
    r = float(radius_from_area(m, area))
    expr = 1.0 - 2.0 * m / r + m * m / (4.0 * r * r)
    tol = 4e-15
    if expr > tol:
        return 1
    if expr < -tol:
        return -1
    return 0


def locate_convexity_threshold(m: float) -> tuple[float, float]:
    """Numerically locate the convexity change from its sign expression.

    Bisects 1 - 2y + y^2/4, y = m/r, on (m/2, 10m) until the midpoint
    equals an end (at most 56 halvings), and returns the pair (radius,
    area) at the end where the expression is >= 0.  The root is found
    from the sign expression alone, so it stays independent of the
    closed-form threshold radius and the two can be cross-checked.
    """
    if m == 0.0:
        return 0.0, 0.0
    lo, hi = 0.5 * m * (1.0 + 1e-12), 10.0 * m
    mid = 0.5 * (lo + hi)
    while lo < mid < hi:
        y = m / mid
        if 1.0 - 2.0 * y + 0.25 * y * y < 0.0:
            lo = mid
        else:
            hi = mid
        mid = 0.5 * (lo + hi)
    return float(hi), float(sphere_area(AmbientMetric(m), hi))


def locate_profile_inflection(m: float, *, rel_step: float = 3e-4) -> float:
    """Locate the profile's inflection area by bisecting a second difference.

    Uses the centered second difference of the profile with step
    rel_step * A, so the location is independent of the closed-form sign
    expression.  Only defined for m > 0.
    """
    if m <= 0.0:
        raise ValueError("inflection exists only for m > 0")

    def second_difference(area: float) -> float:
        d = rel_step * area
        lo = max(area - d, horizon_area(m) * (1.0 + 1e-9))
        hi = area + d
        mid = 0.5 * (lo + hi)
        dd = 0.5 * (hi - lo)
        f = lambda a: float(profile_volume(m, a))
        return f(mid + dd) - 2.0 * f(mid) + f(mid - dd)

    lo, hi = 20.0 * math.pi * m * m, 100.0 * math.pi * m * m
    flo, fhi = second_difference(lo), second_difference(hi)
    if not (flo < 0.0 < fhi):
        raise RuntimeError("second difference does not bracket a sign change")
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if second_difference(mid) < 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-9 * hi:
            break
    return 0.5 * (lo + hi)


def profile_superadditivity_gap(m: float, gamma: float, upper, lower) -> float:
    """Gap between two merged-profile defects with componentwise ordering.

    For areas a_k >= b_k >= 36 pi m^2 and gamma >= 0 this returns

        [V(gamma + sum a) - sum V(a)] - [V(gamma + sum b) - sum V(b)]

    with V the profile; convexity above the threshold makes it >= 0.
    """
    if gamma < 0.0:
        raise ValueError("gamma must be >= 0")
    a = np.asarray(upper, dtype=float)
    b = np.asarray(lower, dtype=float)
    if a.shape != b.shape or a.ndim != 1 or a.size == 0:
        raise ValueError("upper and lower must be matching non-empty 1-d sequences")
    thr = convexity_threshold(m)
    if np.any(b < thr * (1.0 - 1e-12)) or np.any(a < b * (1.0 - 1e-12)):
        raise ValueError("need a_k >= b_k >= 36 pi m^2 componentwise")

    def defect(areas: np.ndarray) -> float:
        merged = gamma + float(np.sum(areas))
        return float(profile_volume(m, merged)) - float(np.sum(profile_volume(m, areas)))

    return defect(a) - defect(b)


def profile_ratio_margin(m: float, area) -> float:
    """Margin V(A) - (2/3) A dV/dA controlling the isoperimetric ratio.

    Positivity of this quantity for A >= 36 pi m^2 makes
    A^(3/2) / (a + V(A)) increasing in A for every shift a >= 0.  It is
    identically zero in the Euclidean case and about 19.6 at the threshold
    area 36 pi when m = 1.
    """
    v = float(profile_volume(m, area))
    return v - (2.0 / 3.0) * float(area) * float(profile_slope(m, area))


def mass_from_region(area, volume):
    """Mass estimate (2/A) (V - A^(3/2) / (6 sqrt(pi))) of a region.

    Elementwise on arrays.  May be negative; no floor is applied.  For the
    profile itself the estimate converges to m with an O(A^(-1/2)) error.
    """
    area = _as_float(area)
    if (area <= 0.0 if isinstance(area, float) else np.any(area <= 0.0)):
        raise ValueError("area must be positive")
    return (2.0 / area) * (volume - np.power(area, 1.5) / SIX_SQRT_PI)


def isoperimetric_ratio(area: float, volume: float) -> float:
    """A^(3/2) / V of a region; inf when V <= 0."""
    return area**1.5 / volume if volume > 0.0 else math.inf


@dataclass(frozen=True)
class ProfilePoint:
    """Profile data at one area: radius, value, slope, convexity sign."""

    m: float
    area: float
    r: float
    volume: float
    slope: float
    convex: int


def profile_point(m: float, area: float) -> ProfilePoint:
    return ProfilePoint(
        m=float(m),
        area=float(area),
        r=float(radius_from_area(m, area)),
        volume=float(profile_volume(m, area)),
        slope=float(profile_slope(m, area)),
        convex=profile_convexity_sign(m, area),
    )
