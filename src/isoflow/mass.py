"""Mass functionals built from perimeter/volume data.

The quasilocal mass of a region is read off from its boundary area and
enclosed volume as

    qlm(P, V) = (2/P) * (V - P**1.5 / (6 sqrt(pi))),

i.e. (twice) the volume excess over a Euclidean ball of the same
boundary area, per unit area.  It vanishes on Euclidean balls, is
negative on isoperimetrically inefficient regions (it may legitimately
be negative; nothing here floors it), and along the coordinate-ball
exhaustion of the positive-mass model space it converges to the mass
parameter from above, with rescaled overshoot (qlm - m) * sqrt(P)
peaking around 13.5 m^2 and settling at 6 sqrt(pi) m^2.

Also here: the Hawking mass from an area and a curvature integral, the
exhaustion table, a checker for the mass upper bound
qlm <= m + C/sqrt(P), the fitted constant that bound needs, a small
volume bound for components of controlled isoperimetric ratio, and the
union-with-a-far-region gap diagnostics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .metric import AmbientMetric, _as_float, enclosed_volume, sphere_area, sphere_qlm_overshoot
from .profile import convexity_threshold, isoperimetric_ratio, mass_from_region

# Largest rescaled overshoot (qlm(B_r) - m) * sqrt(area) over the
# coordinate-ball family at unit mass, scanned densely over areas in
# [36 pi, 1e8] (max 13.49579881... near area 796) and rounded up.  For
# mass m the constant scales as m**2.
ISO_ADM_FIT_C = 13.496


def quasilocal_mass(perimeter, volume):
    """(2/P)(V - P^{3/2}/(6 sqrt pi)); may be negative.

    Scalars in give an np.float64 out, arrays an array.
    """
    p, v = _as_float(perimeter), _as_float(volume)
    if not (np.isfinite(p).all() and np.isfinite(v).all()):
        raise ValueError("perimeter and volume must be finite")
    return mass_from_region(p, v)  # raises on a perimeter <= 0


def hawking_mass(area, h_sq_integral):
    """sqrt(area/16 pi) * (1 - integral(H^2)/16 pi).

    Scalars in give an np.float64 out, arrays an array.
    """
    a = _as_float(area)
    if (a <= 0.0 if isinstance(a, float) else np.any(a <= 0.0)):
        raise ValueError("area must be positive")
    return np.sqrt(a / (16.0 * math.pi)) * (1.0 - _as_float(h_sq_integral) / (16.0 * math.pi))


@dataclass(frozen=True)
class RegionSummary:
    """Perimeter/volume bookkeeping for one region (possibly empty)."""

    perimeter: float
    volume: float

    def __post_init__(self):
        if not (math.isfinite(self.perimeter) and math.isfinite(self.volume)):
            raise ValueError("perimeter and volume must be finite")
        if self.perimeter < 0 or self.volume < 0:
            raise ValueError("perimeter and volume must be nonnegative")

    @property
    def ratio(self) -> float:
        """Isoperimetric ratio perimeter^{3/2}/volume (inf for zero volume)."""
        return isoperimetric_ratio(self.perimeter, self.volume)

    @property
    def qlm(self) -> float:
        return quasilocal_mass(self.perimeter, self.volume)

    @classmethod
    def coordinate_ball(cls, metric: AmbientMetric, r: float) -> "RegionSummary":
        """The coordinate ball's perimeter and volume.  Its :attr:`qlm` is
        any region's, a cancellation; :func:`exhaustion_mass` has the
        ball's without one."""
        return cls(
            perimeter=float(sphere_area(metric, r)),
            volume=float(enclosed_volume(metric, r)),
        )

    @classmethod
    def empty(cls) -> "RegionSummary":
        return cls(perimeter=0.0, volume=0.0)


def exhaustion_mass(metric: AmbientMetric, radii) -> np.ndarray:
    """Quasilocal masses of the coordinate balls B_{r_i}, r increasing.

    For the positive-mass model this converges to the mass parameter
    with error O(perimeter^{-1/2}); the canonical ball exhaustion
    attains the limit, so its tail *is* the total mass.  Each is m plus
    :func:`~isoflow.metric.sphere_qlm_overshoot` over sqrt(area), the
    coordinate ball's qlm without a cancellation.
    """
    r = np.asarray(radii, dtype=float)
    if r.ndim != 1 or r.size == 0:
        raise ValueError("radii must be a non-empty 1-d sequence")
    if np.any(np.diff(r) <= 0):
        raise ValueError("radii must be strictly increasing")
    return metric.mass + sphere_qlm_overshoot(metric, r) / np.sqrt(sphere_area(metric, r))


def check_iso_adm_bound(summary: RegionSummary, m_adm: float, fit_constant: float) -> float:
    """Slack of qlm <= m_adm + C/sqrt(P): nonnegative means the bound holds.

    Requires perimeter >= 36 pi m_adm^2 (the bound's area hypothesis).
    """
    p = summary.perimeter
    floor = convexity_threshold(m_adm)
    if p < floor * (1 - 1e-12):
        raise ValueError(f"perimeter {p} below the bound's minimum area {floor}")
    return m_adm + fit_constant / math.sqrt(p) - summary.qlm


def fit_iso_adm_constant(summaries, m_adm: float) -> float:
    """Calibrate C = max(0, max (qlm - m_adm) sqrt(P)) over a family.

    Fit once per scenario family, freeze the value, then assert
    check_iso_adm_bound >= 0 on held-out members.
    """
    summaries = list(summaries)
    if not summaries:
        raise ValueError("need at least one region to fit")
    worst = max((s.qlm - m_adm) * math.sqrt(s.perimeter) for s in summaries)
    return max(0.0, worst)


def small_component_volume_bound(c0, perimeter, ratio_bound, volume) -> bool:
    """volume <= perimeter^{3/2} ratio_bound^2 / c0^3.

    Components whose isoperimetric ratio is at least c0, inside an
    ambient space of large-scale ratio at most ratio_bound, cannot hold
    more than this much volume.  Equality: a Euclidean ball with
    c0 = ratio_bound = 6 sqrt(pi); the comparison carries one part in
    1e12 of slack so the equality case is not lost to round-off.
    """
    if c0 <= 0 or ratio_bound <= 0 or perimeter < 0:
        raise ValueError("c0 and ratio_bound must be positive, perimeter nonnegative")
    return bool(volume <= perimeter**1.5 * ratio_bound**2 / c0**3 * (1 + 1e-12))


@dataclass(frozen=True)
class UnionGap:
    """How much a far region's mass drops when a fixed set is glued in."""

    gap: float  # qlm(union) - qlm(far region)
    rescaled_deficit: float  # (qlm(far) - qlm(union)) * sqrt(P(far))
    far_mass_positive: bool  # the deficit estimate only applies when True


def appendix_union_gap(fixed: RegionSummary, far: RegionSummary) -> UnionGap:
    """Gap diagnostics for qlm(fixed ∪ far) vs qlm(far), disjoint pieces.

    Disjointness is the caller's responsibility; perimeter and volume of
    the union are then plain sums.  The rescaled deficit stays bounded
    as P(far) grows along coordinate-ball families, provided the far
    mass is positive; when it is not, the flag records that the
    estimate is not in force.
    """
    if far.perimeter <= 0:
        raise ValueError("far region must have positive perimeter")
    union = RegionSummary(
        perimeter=fixed.perimeter + far.perimeter,
        volume=fixed.volume + far.volume,
    )
    far_qlm = far.qlm
    gap = union.qlm - far_qlm
    return UnionGap(
        gap=gap,
        rescaled_deficit=-gap * math.sqrt(far.perimeter),
        far_mass_positive=far_qlm > 0,
    )
