"""Property test of the freeze sweep: a repeated sweep changes nothing."""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from isoflow.flow_levelset import freeze_sweep, initial_state
from isoflow.measure import AxiGrid, measure_components
from isoflow.metric import AmbientMetric

H = 0.1
EXTENT = 2.5


@st.composite
def ball_unions(draw):
    """Level-set values of a union of one to three balls (possibly
    overlapping; off-axis centres revolve into solid tori)."""
    balls = [
        (draw(st.floats(0.0, 1.2)), draw(st.floats(-1.2, 1.2)), draw(st.floats(0.3, 0.9)))
        for _ in range(draw(st.integers(1, 3)))
    ]

    def union(rho, z):
        return np.min([np.hypot(rho - rc, z - zc) - r for rc, zc, r in balls], axis=0)

    return AxiGrid.sample(H, EXTENT, -EXTENT, EXTENT, union)


@settings(max_examples=25, deadline=None)
@given(
    ball_unions(),
    st.sampled_from([AmbientMetric(mass=0.0), AmbientMetric(mass=1.0)]),
    st.floats(0.5, 2.0),
    st.floats(0.0, 2.0),
)
def test_a_second_sweep_at_the_same_time_changes_nothing(grid, metric, scale, t):
    # the threshold area is a multiple of the largest component's, so that
    # anywhere from none to all of the components freeze
    largest = max(c.perimeter for c in measure_components(metric, grid))
    threshold_mass = math.sqrt(scale * largest / (36.0 * math.pi))
    state = initial_state(metric, grid)
    state.t = t
    once = freeze_sweep(state, metric, threshold_mass)
    twice = freeze_sweep(once, metric, threshold_mass)
    assert twice.components == once.components
    assert np.array_equal(twice.frozen_mask, once.frozen_mask)
    assert np.array_equal(twice.id_map, once.id_map)
    assert twice.next_id == once.next_id
