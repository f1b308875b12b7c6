"""Property tests of the measurement invariants promised in isoflow.measure."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from isoflow.measure import AxiGrid, label_regions, measure_components
from isoflow.metric import AmbientMetric
from measure_oracles import extract_components, g_volume

H = 0.1
# every ball ends this many cells short of the next one, so the corners
# of each ball's interface cells, and their curvature stencils, read that
# ball's distance alone
GAP_CELLS = 6

METRICS = st.sampled_from([AmbientMetric(mass=0.0), AmbientMetric(mass=1.0)])
PROPERTY = settings(max_examples=15, deadline=None)


@st.composite
def ball_stacks(draw):
    """Two or three disjoint balls (rho_c, z_c, radius), stacked along z;
    off-axis centres revolve into solid tori."""
    balls = []
    top = 0.0
    for _ in range(draw(st.integers(2, 3))):
        r = draw(st.floats(0.3, 0.8))
        rho_c = draw(st.floats(0.0, 1.2))
        gap = draw(st.floats(GAP_CELLS * H, 1.0)) if balls else 0.0
        balls.append((rho_c, top + gap + r, r))
        top += gap + 2 * r
    return [(rho_c, z_c - top / 2, r) for rho_c, z_c, r in balls]


def extent(balls):
    """(rho_max, z_min, z_max) holding every ball with half a unit to spare."""
    half = max(abs(z_c) + r for _, z_c, r in balls) + 0.5
    return max(rho_c + r for rho_c, _, r in balls) + 0.5, -half, half


def sample(balls, box):
    def fn(rho, z):
        return np.minimum.reduce([np.hypot(rho - rho_c, z - z_c) - r for rho_c, z_c, r in balls])

    return AxiGrid.sample(H, *box, fn)


def fields(c):
    return (c.perimeter, c.volume, c.h_sq_integral)


@PROPERTY
@given(ball_stacks(), METRICS)
def test_each_component_measures_as_its_ball_alone(balls, metric):
    box = extent(balls)
    union = measure_components(metric, sample(balls, box))
    assert len(union) == len(balls)
    for one in balls:
        (alone,) = measure_components(metric, sample([one], box))
        (match,) = [c for c in union if np.array_equal(c.node_mask, alone.node_mask)]
        assert fields(match) == fields(alone)


@PROPERTY
@given(ball_stacks(), st.integers(-40, 40))
def test_whole_cell_z_roll_changes_nothing_at_zero_mass(balls, shift):
    grid = sample(balls, extent(balls))
    rows = np.nonzero((grid.values < 0).any(axis=0))[0]
    # keep the region at least two cells clear of the z ends
    shift = int(np.clip(shift, 2 - rows[0], grid.n_z - 3 - rows[-1]))
    rolled = grid.replace_values(np.roll(grid.values, shift, axis=1))
    euclid = AmbientMetric.euclidean()
    before = measure_components(euclid, grid)
    after = measure_components(euclid, rolled)
    assert [fields(c) for c in after] == [fields(c) for c in before]


@PROPERTY
@given(ball_stacks())
def test_labels_follow_first_scan_node(balls):
    labels, n = label_regions(sample(balls, extent(balls)))
    flat = labels.ravel()
    firsts = [int(np.argmax(flat == k)) for k in range(1, n + 1)]
    assert firsts == sorted(firsts)
    assert set(np.unique(flat)) == set(range(n + 1))


@PROPERTY
@given(ball_stacks(), METRICS)
def test_g_volume_equals_component_volume(balls, metric):
    grid = sample(balls, extent(balls))
    measures = {c.id: c.volume for c in measure_components(metric, grid)}
    for comp in extract_components(grid):
        assert g_volume(metric, grid, comp) == measures[comp.id]
