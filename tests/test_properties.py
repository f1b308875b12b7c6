"""Property tests of the config parser, the area-to-radius inversion, the
profile above its threshold and the lemma suite, over many mass scales."""

import json
import math

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings
from hypothesis import strategies as st

from isoflow.config import METRIC_KINDS, MODES, SHAPE_KINDS, ConfigError, Scenario, parse_plan
from isoflow.metric import AmbientMetric, sphere_area
from isoflow.profile import convexity_threshold, profile_convexity_sign, profile_slope, radius_from_area
from isoflow.runner import _run_lemma_suite

PROPERTY = settings(max_examples=200, deadline=None)

JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: (
        st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3)
    ),
    max_leaves=8,
)
NUMBER = (
    st.integers(-(10**400), 10**400) | st.floats() | st.sampled_from([0, 1, 0.05, 2.5, 4.0, 10**400])
)
# values a field might plausibly hold, and anything at all
VALUE = NUMBER | st.sampled_from(MODES + METRIC_KINDS + SHAPE_KINDS) | JSON


def objects(keys: tuple[str, ...]):
    """Objects with some of ``keys`` (and sometimes a stray one)."""
    return st.dictionaries(st.sampled_from(keys + ("extra",)), VALUE, max_size=len(keys))


SCENARIO = st.fixed_dictionaries(
    {},
    optional={
        "name": st.text("ab/.", min_size=1, max_size=3) | JSON,
        "mode": st.sampled_from(MODES) | JSON,
        "metric": objects(("kind", "mass")),
        "shape": objects(("kind", "r0", "ball_radius", "separation", "neck_radius", "a", "b")),
        "grid": objects(("h", "rho_max", "z_min", "z_max")),
        "time": objects(("t_max", "sample_interval", "dt", "sweep_cadence", "reinit_cadence")),
        "threshold_mass": VALUE,
        "r0": VALUE,
        "q_slack": VALUE,
        "r_values": st.lists(NUMBER, max_size=4) | VALUE,
    },
)
DOCUMENT = st.fixed_dictionaries({"scenarios": st.lists(SCENARIO, max_size=3)}) | JSON


@PROPERTY
@given(DOCUMENT)
@example(
    {"scenarios": [{"name": "a", "mode": "lemma-suite", "metric": {"kind": "schwarzschild", "mass": 10**400}}]}
)
def test_parse_plan_raises_only_config_errors(doc):
    try:
        parse_plan(json.dumps(doc))
    except ConfigError:
        pass


@PROPERTY
@given(st.text(max_size=40))
@example('{"scenarios": [' + "9" * 5000 + "]}")
@example("[" * 100000)
def test_parse_plan_raises_only_config_errors_on_any_text(text):
    try:
        parse_plan(text)
    except ConfigError:
        pass


@PROPERTY
@given(st.floats(0.0, 10.0), st.floats(1.0, 1e6))
def test_radius_from_area_inverts_sphere_area(m, scale):
    # from r = m outward the inversion is well conditioned (A'(r) r / A
    # stays at least 2/3); at the horizon A'(r) = 0
    r = max(m, 1e-3) * scale
    area = sphere_area(AmbientMetric(m), r)
    assert math.isclose(float(radius_from_area(m, area)), r, rel_tol=16 * 2.0**-52)


@PROPERTY
@given(st.floats(-150.0, 150.0), st.floats(1.001, 100.0))
def test_the_profile_is_increasing_and_convex_above_its_threshold_at_every_mass_scale(log_m, scale):
    # the horizon check's slack is relative to the horizon area, so it
    # rejects no area above the threshold at any mass
    m = 10.0**log_m
    area = scale * convexity_threshold(m)
    slope = float(profile_slope(m, area))
    assert math.isfinite(slope) and slope > 0.0
    assert profile_convexity_sign(m, area) == 1


@PROPERTY
@given(st.floats(-100.0, 99.0))
def test_every_lemma_suite_verdict_passes_at_every_mass_scale(log_m):
    # the suite writes no file, so it needs no output directory; from about
    # m = 10^99.5 the volume at the 1e7 m^2 area overflows, and lemma31 fails
    sc = Scenario(name="suite", mode="lemma-suite", mass=10.0**log_m)
    failed = [v.line() for v in _run_lemma_suite(sc, "") if not v.passed]
    assert not failed
