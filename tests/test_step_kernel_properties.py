"""The step's in-place speed kernel against the allocating expression it replaced."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from isoflow.flow_levelset import _speed, _speed_coefficients
from isoflow.measure import _GRAD_EPS
from isoflow.metric import AmbientMetric

H = 0.088
SHAPE = (51, 101)  # the perfbench sphere-freeze grid: [0, 4.4] x [-4.4, 4.4]
COEF = {
    m: _speed_coefficients(AmbientMetric.euclidean() if m == 0 else AmbientMetric(mass=m), H, -4.4, SHAPE)
    for m in (0.0, 1.0)
}


def allocating_speed(near, coef, h):
    """The speed as one numpy expression, allocating every intermediate."""
    c, rp, rm, zp, zm, pp, pm, mp, mm = near
    k, c_a, c_b, c_rr = coef
    a, b = rp - rm, zp - zm
    a_rr = rp + rm - 2.0 * c
    aa, bb = a * a, b * b
    num = a_rr * bb - 0.5 * a * b * (pp - pm - mp + mm) + (zp + zm - 2.0 * c) * aa
    return k * num / (aa + bb + 4.0 * h * h * _GRAD_EPS**2) + c_a * a + c_b * b + c_rr * a_rr


@st.composite
def stencil_calls(draw):
    """Two sets of nine-point stencil values on the same nodes, and the
    nodes' coefficients from the m = 0 or the m = 1 table."""
    n = draw(st.integers(1, 40))
    # full-mantissa values, so that a reordered operation shows in the bits
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** draw(st.integers(-4, 2))
    nodes = draw(arrays(np.int64, n, elements=st.integers(0, SHAPE[0] * SHAPE[1] - 1)))
    coef = COEF[draw(st.sampled_from(sorted(COEF)))][:, nodes]
    return rng.uniform(-scale, scale, (9, n)), rng.uniform(-scale, scale, (9, n)), coef


@settings(max_examples=300, deadline=None)
@given(stencil_calls())
def test_in_place_speed_has_the_allocating_expressions_bits(case):
    first, second, coef = case
    work = np.full(first.shape, np.nan)  # stale contents must not leak into a result
    for near in (first, second):
        speed = _speed(near, coef, H, work)
        assert np.shares_memory(speed, work)
        assert speed.tobytes() == allocating_speed(near, coef, H).tobytes()
