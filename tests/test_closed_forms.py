"""Closed forms: which radii they take, and their values to the last bit.

Every public radius-taking closed form in :mod:`isoflow.metric` shares one
radius check, so each must reject NaN, +-inf, negative and inside-horizon
radii (as scalars, or as one bad entry in an array) and accept the horizon
radius m/2 itself.  A scalar radius, area, perimeter or volume (float, int,
np.float64 or 0-d array) must give an np.float64 equal to what a one-element
array gives, and must raise exactly where that array raises; on a sorted
array of radii the area, volume, Hawking and quasilocal masses equal their
per-element scalar calls to the bit.  The float.hex table pins the area,
curvature and profile closed forms at a few (m, r) pairs, recorded before
they were rewritten on the one conformal factor w = 1 + m/(2r).  The
convexity threshold radius that bisection locates from the sign expression
lies within one ulp of its closed form at every mass scale.
"""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from isoflow.metric import (
    AmbientMetric,
    enclosed_volume,
    sphere_area,
    sphere_area_derivative,
    sphere_geometry,
    sphere_hawking_mass,
    sphere_mean_curvature,
    sphere_qlm_overshoot,
)
from isoflow.mass import ISO_ADM_FIT_C, hawking_mass, quasilocal_mass
from isoflow.profile import (
    convexity_threshold_radius,
    locate_convexity_threshold,
    profile_slope,
    profile_volume,
    radius_from_area,
)

PROPERTY = settings(max_examples=200, deadline=None)

RADIUS_FORMS = (
    sphere_area,
    sphere_area_derivative,
    enclosed_volume,
    sphere_mean_curvature,
    sphere_hawking_mass,
    sphere_qlm_overshoot,
    sphere_geometry,
)
MASSES = st.sampled_from([0.0, 0.5, 1.0]) | st.floats(1e-6, 1e3)


@st.composite
def bad_radii(draw):
    """(m, r) with r NaN, +-inf, negative or inside the horizon."""
    m = draw(MASSES)
    candidates = [
        st.sampled_from([math.nan, math.inf, -math.inf]),
        st.floats(max_value=-5e-324, allow_nan=False),
    ]
    if m > 0.0:
        candidates.append(st.floats(0.0, 0.5 * m * (1.0 - 1e-15)))
    return m, draw(st.one_of(candidates))


def _accepts(form, metric, r):
    with np.errstate(divide="ignore", invalid="ignore"):  # H = 2/r at r = 0
        form(metric, r)


@PROPERTY
@given(bad_radii(), st.integers(0, 3), st.sampled_from(RADIUS_FORMS))
def test_every_radius_form_rejects_bad_radii(case, slot, form):
    m, bad = case
    metric = AmbientMetric(m)
    with pytest.raises(ValueError):
        form(metric, bad)
    # one bad entry among good ones; sphere_geometry takes one radius
    radii = [0.5 * m, 0.5 * m + 1.0, 3.0 * (m + 1.0), 0.5 * m]
    radii[slot] = bad
    with pytest.raises(ValueError):
        form(metric, np.array(bad if form is sphere_geometry else radii))


@PROPERTY
@given(MASSES, st.sampled_from(RADIUS_FORMS))
def test_every_radius_form_accepts_the_horizon(m, form):
    metric = AmbientMetric(m)
    _accepts(form, metric, 0.5 * m)
    radii = [0.5 * m, 0.5 * m + 1.0, 0.5 * m]
    _accepts(form, metric, np.array(0.5 * m if form is sphere_geometry else radii))


# name -> form(m, *args); sphere_geometry is left out: it takes one radius
# and returns Python floats
SCALAR_FORMS = {
    "sphere_area": lambda m, r: sphere_area(AmbientMetric(m), r),
    "sphere_area_derivative": lambda m, r: sphere_area_derivative(AmbientMetric(m), r),
    "enclosed_volume": lambda m, r: enclosed_volume(AmbientMetric(m), r),
    "sphere_mean_curvature": lambda m, r: sphere_mean_curvature(AmbientMetric(m), r),
    "sphere_hawking_mass": lambda m, r: sphere_hawking_mass(AmbientMetric(m), r),
    "sphere_qlm_overshoot": lambda m, r: sphere_qlm_overshoot(AmbientMetric(m), r),
    "radius_from_area": radius_from_area,
    "profile_volume": profile_volume,
    "profile_slope": profile_slope,
    "quasilocal_mass": lambda m, p, v: quasilocal_mass(p, v),
    "hawking_mass": lambda m, a, q: hawking_mass(a, q),
}
SCALAR_KINDS = (float, int, np.float64, np.asarray)


def scalar_inputs(m):
    """Any float, plus radii and areas at and just outside the horizon.

    Most draws are moderate positive values: there a last-bit difference
    between the two paths is not lost to overflow, and the cancellations
    near the horizon and far out magnify it.
    """
    eps = st.floats(0.0, 1e-3)
    return st.one_of(
        st.floats(),
        st.integers(-3, 10**6).map(float),
        st.floats(0.0, 1e4),
        st.floats(0.0, 1e4),
        eps.map(lambda e: 0.5 * m * (1.0 + e)),
        eps.map(lambda e: 16.0 * math.pi * m * m * (1.0 + e)),
    )


def _outcome(form, m, args):
    with np.errstate(all="ignore"):  # H = 2/r at r = 0, overflow at 1e308
        try:
            return form(m, *args)
        except ValueError:
            return ValueError


@settings(max_examples=1000, deadline=None)
@given(MASSES, st.sampled_from(sorted(SCALAR_FORMS)), st.data())
def test_scalar_input_matches_a_one_element_array(m, name, data):
    form = SCALAR_FORMS[name]
    arity = form.__code__.co_argcount - 1
    args = [data.draw(scalar_inputs(m), label=f"arg{i}") for i in range(arity)]
    want = _outcome(form, m, [np.array([x]) for x in args])
    for kind in SCALAR_KINDS:
        if kind is int and not all(math.isfinite(x) and x == int(x) for x in args):
            continue
        got = _outcome(form, m, [kind(x) for x in args])
        if want is ValueError:
            assert got is ValueError, kind
            continue
        assert type(got) is np.float64, kind
        (expected,) = want
        if not (got == expected or (np.isnan(got) and np.isnan(expected))):
            assert abs(got - expected) <= 2 * np.spacing(abs(expected)), kind


def sorted_radii(m):
    """Sorted radius arrays above the horizon, some near it, some far out."""
    near = st.floats(0.0, 1e-3).map(lambda e: 0.5 * m * (1.0 + e) if m else e + 1e-3)
    far = st.floats(max(0.5 * m, 1e-3), 1e4)
    return st.lists(near | far, min_size=1, max_size=70).map(lambda r: np.sort(np.array(r)))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([0.0, 0.5, 1.0, 2.0]), st.data())
def test_array_closed_forms_match_their_scalar_calls_to_the_bit(m, data):
    # the mass table evaluates each form once on all its radii
    metric = AmbientMetric(m)
    r = data.draw(sorted_radii(m))
    forms = {
        "sphere_area": lambda x: sphere_area(metric, x),
        "enclosed_volume": lambda x: enclosed_volume(metric, x),
        "sphere_hawking_mass": lambda x: sphere_hawking_mass(metric, x),
        "sphere_qlm_overshoot": lambda x: sphere_qlm_overshoot(metric, x),
    }
    for name, form in forms.items():
        assert [v.hex() for v in form(r)] == [float(form(float(x))).hex() for x in r], name
    area, volume = sphere_area(metric, r), enclosed_volume(metric, r)
    want = [float(quasilocal_mass(float(a), float(v))).hex() for a, v in zip(area, volume)]
    assert [v.hex() for v in quasilocal_mass(area, volume)] == want


@pytest.mark.parametrize("m", [0.5, 1.0, 2.0])
def test_the_qlm_overshoot_matches_its_cancelled_form_and_tends_to_its_limit(m):
    # (qlm - m) sqrt(A) from quasilocal_mass cancels V against A^{3/2} /
    # 6 sqrt(pi), which costs about 2e-9 m^2 by r = 1e3 m; far out the
    # closed form keeps reading 3 sqrt(4 pi) m^2 (6 sqrt(pi) m^2)
    metric = AmbientMetric(m)
    r = np.geomspace(0.5 * m, 1e3 * m, 400)
    area = sphere_area(metric, r)
    cancelled = (quasilocal_mass(area, enclosed_volume(metric, r)) - m) * np.sqrt(area)
    overshoot = sphere_qlm_overshoot(metric, r)
    assert np.abs(overshoot - cancelled).max() <= 1e-8 * m * m
    assert overshoot.max() <= ISO_ADM_FIT_C * m * m
    far = sphere_qlm_overshoot(metric, m * 10.0 ** np.arange(20, 100, 5))
    assert far == pytest.approx(6.0 * math.sqrt(math.pi) * m * m, rel=1e-12)
    assert sphere_qlm_overshoot(AmbientMetric(0.0), np.array([1e-100, 1.0, 1e100])).tolist() == [0.0] * 3


# Recorded before the closed forms were rewritten on w: the (1 - m/2r)
# factor is now 2 - w, which rounds differently from 1 - a.  The entries
# in MOVED differ from the recording by 1 ulp; every other value, and
# every value at m = 0, is bit-identical.  Three volumes were re-recorded
# when enclosed_volume took its one form in y = a/r: the volume at (0.5,
# 0.9) and the profile volumes at (1, 1.866) and (2, 25), by 2, 2 and 1 ulp.
PINS = {
    (0.0, 0.3): {
        "sphere_area": "0x1.21877845a0bfdp+0",
        "sphere_area_derivative": "0x1.e28c731eb6950p+2",
        "sphere_mean_curvature": "0x1.aaaaaaaaaaaabp+2",
        "enclosed_volume": "0x1.cf3f26d5cdff9p-4",
        "radius_from_area": "0x1.3333333333333p-2",
        "profile_volume": "0x1.cf3f26d5cdffcp-4",
        "profile_slope": "0x1.3333333333333p-3",
    },
    (0.0, 1.0): {
        "sphere_area": "0x1.921fb54442d18p+3",
        "sphere_area_derivative": "0x1.921fb54442d18p+4",
        "sphere_mean_curvature": "0x1.0000000000000p+1",
        "enclosed_volume": "0x1.0c152382d7365p+2",
        "radius_from_area": "0x1.0000000000000p+0",
        "profile_volume": "0x1.0c152382d7366p+2",
        "profile_slope": "0x1.0000000000000p-1",
    },
    (0.0, 7.25): {
        "sphere_area": "0x1.4a428a9f4fe09p+9",
        "sphere_area_derivative": "0x1.6c6cbc45dc8dep+7",
        "sphere_mean_curvature": "0x1.1a7b9611a7b96p-2",
        "enclosed_volume": "0x1.8f1067808084ap+10",
        "radius_from_area": "0x1.d000000000000p+2",
        "profile_volume": "0x1.8f1067808084bp+10",
        "profile_slope": "0x1.d000000000000p+1",
    },
    (0.5, 0.25): {
        "sphere_area": "0x1.921fb54442d18p+3",
        "sphere_area_derivative": "0x0.0p+0",
        "sphere_mean_curvature": "0x0.0p+0",
        "enclosed_volume": "0x0.0p+0",
        "radius_from_area": "0x1.0000000000000p-2",
        "profile_volume": "0x0.0p+0",
    },
    (0.5, 0.9): {
        "sphere_area": "0x1.b225797dfdff6p+4",
        "sphere_area_derivative": "0x1.10a6fe62e9b7ep+5",
        "sphere_mean_curvature": "0x1.89e0e6f0d46cep-1",
        "enclosed_volume": "0x1.974b012ec8d2cp+4",
        "radius_from_area": "0x1.cccccccccccccp-1",
        "profile_volume": "0x1.974b012ec8d28p+4",
        "profile_slope": "0x1.4cc5cc5cc5cc4p+0",
    },
    (1.0, 0.5): {
        "sphere_area": "0x1.921fb54442d18p+5",
        "sphere_area_derivative": "0x0.0p+0",
        "sphere_mean_curvature": "0x0.0p+0",
        "enclosed_volume": "0x0.0p+0",
        "radius_from_area": "0x1.0000000000000p-1",
        "profile_volume": "0x0.0p+0",
    },
    (1.0, 1.8660254037844386): {
        "sphere_area": "0x1.c463abeccb2bcp+6",
        "sphere_area_derivative": "0x1.17f08303d6645p+6",
        "sphere_mean_curvature": "0x1.8a2345cc04424p-2",
        "enclosed_volume": "0x1.aeff12f50cabap+7",
        "radius_from_area": "0x1.ddb3d742c2658p+0",
        "profile_volume": "0x1.aeff12f50cac0p+7",
        "profile_slope": "0x1.4c8dc2e42397fp+1",
    },
    (1.0, 4.0): {
        "sphere_area": "0x1.420ff52553a3ep+8",
        "sphere_area_derivative": "0x1.f4fc60e4bafeep+6",
        "sphere_mean_curvature": "0x1.3aa50c4a727afp-2",
        "enclosed_volume": "0x1.9a3d46771f77ap+9",
        "radius_from_area": "0x1.0000000000000p+2",
        "profile_volume": "0x1.9a3d46771f77ap+9",
        "profile_slope": "0x1.a092492492492p+1",
    },
    (2.0, 25.0): {
        "sphere_area": "0x1.1f2061937c54cp+13",
        "sphere_area_derivative": "0x1.534040e0ac1bap+9",
        "sphere_mean_curvature": "0x1.17a771605d37dp-4",
        "enclosed_volume": "0x1.713d9278b95d4p+16",
        "radius_from_area": "0x1.9000000000001p+4",
        "profile_volume": "0x1.713d9278b95d6p+16",
        "profile_slope": "0x1.d4b17e4b17e4dp+3",
    },
}
MOVED = {
    ((0.5, 0.9), "sphere_area_derivative"),
    ((0.5, 0.9), "sphere_mean_curvature"),
    ((0.5, 0.9), "profile_slope"),
    ((1.0, 1.8660254037844386), "sphere_area_derivative"),
    ((1.0, 1.8660254037844386), "sphere_mean_curvature"),
}


def _evaluate(m: float, r: float, name: str) -> float:
    metric = AmbientMetric(m)
    area = float.fromhex(PINS[(m, r)]["sphere_area"])
    forms = {
        "sphere_area": lambda: sphere_area(metric, r),
        "sphere_area_derivative": lambda: sphere_area_derivative(metric, r),
        "sphere_mean_curvature": lambda: sphere_mean_curvature(metric, r),
        "enclosed_volume": lambda: enclosed_volume(metric, r),
        "radius_from_area": lambda: radius_from_area(m, area),
        "profile_volume": lambda: profile_volume(m, area),
        "profile_slope": lambda: profile_slope(m, area),
    }
    return float(forms[name]())


@pytest.mark.parametrize("key", list(PINS), ids=[f"m{m}-r{r}" for m, r in PINS])
def test_closed_forms_match_the_recorded_bits(key):
    m, r = key
    for name, recorded in PINS[key].items():
        want = float.fromhex(recorded)
        got = _evaluate(m, r, name)
        if m == 0.0 or (key, name) not in MOVED:
            assert got.hex() == recorded, name
        else:
            assert abs(got - want) <= 4 * np.spacing(want), name


@settings(max_examples=300, deadline=None)
@given(st.floats(-100.0, 99.0))
def test_the_located_threshold_radius_is_within_one_ulp_of_its_closed_form(exponent):
    m = 10.0**exponent
    closed = convexity_threshold_radius(m)
    assert abs(locate_convexity_threshold(m)[0] - closed) <= math.ulp(closed)


@pytest.mark.parametrize("m", [0.5, 1.0, 2.0])
def test_the_located_threshold_radius_is_its_closed_form_at_the_suite_masses(m):
    assert locate_convexity_threshold(m)[0] == convexity_threshold_radius(m)
