"""The measurement pass against the one it replaced.

The sweep gathers by flat index and adds its shoelace terms as rows, the
curvature finds its corner nodes without ``np.unique``, the owner sums
share one sort, labels are int32 and the id map is built in one lookup.
None of that may move a bit: every figure, node mask, label and id must
equal the ``reference_*`` pass in ``measure_oracles``.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from isoflow.flow_levelset import _match_ids, initial_state
from isoflow.measure import AxiGrid, label_regions, measure_components
from isoflow.metric import AmbientMetric
from measure_oracles import (
    reference_label_regions,
    reference_match_ids,
    reference_measure_components,
)

METRICS = st.sampled_from([AmbientMetric(mass=m) for m in (0.0, 0.5, 1.0)])
PROPERTY = settings(max_examples=60, deadline=None)


def outside_edges(values: np.ndarray) -> np.ndarray:
    """``values`` with the three outer edges pushed outside, as a grid needs."""
    values = values.copy()
    for edge in (values[-1, :], values[:, 0], values[:, -1]):
        edge[edge < 0] = 1.0
    return values


@st.composite
def ball_grids(draw):
    """Unions of none to four balls, some centred on the axis, some less
    than a cell deep, on a grid around the origin (where m > 0 puts
    horizon cells)."""
    h = draw(st.sampled_from([0.1, 0.2]))
    balls = [
        (
            draw(st.one_of(st.just(0.0), st.floats(0.0, 1.5))),
            draw(st.floats(-1.5, 1.5)),
            draw(st.one_of(st.floats(0.01, 0.15), st.floats(0.15, 1.0))),
        )
        for _ in range(draw(st.integers(0, 4)))
    ]

    def union(rho, z):
        far = np.ones(np.broadcast(rho, z).shape)
        return np.min([far] + [np.hypot(rho - rc, z - zc) - r for rc, zc, r in balls], axis=0)

    z_min = draw(st.floats(-3.0, -2.6))
    return AxiGrid.sample(h, 2.8, z_min, z_min + 5.6, union)


@st.composite
def noise_grids(draw):
    """Random values on a small grid: saddle cells, one-node and thin
    components, and regions on the axis in every pattern."""
    shape = (draw(st.integers(4, 12)), draw(st.integers(4, 14)))
    scale = draw(st.sampled_from([0.05, 0.3, 1.0]))
    noise = draw(arrays(float, shape, elements=st.floats(-1.0, 1.0)))
    h = draw(st.sampled_from([0.1, 0.25]))
    return AxiGrid(h=h, z_min=draw(st.floats(-2.0, 0.5)), values=outside_edges(scale * noise))


GRIDS = st.one_of(ball_grids(), noise_grids())


def hex_figures(measures):
    return [(c.id, c.perimeter.hex(), c.volume.hex(), c.h_sq_integral.hex()) for c in measures]


@PROPERTY
@given(GRIDS, METRICS)
def test_measurements_equal_the_whole_grid_pass(grid, metric):
    measured = measure_components(metric, grid)
    expected = reference_measure_components(metric, grid)
    assert hex_figures(measured) == hex_figures(expected)
    for got, want in zip(measured, expected):
        assert np.array_equal(got.node_mask, want.node_mask)


@PROPERTY
@given(GRIDS)
def test_labels_equal_whole_grid_labelling(grid):
    labels, n = label_regions(grid)
    expected, n_expected = reference_label_regions(grid)
    assert labels.dtype == np.int32
    assert n == n_expected
    assert np.array_equal(labels, expected)


@PROPERTY
@given(GRIDS, st.integers(0, 2**32 - 1), st.integers(1, 6))
def test_ids_equal_the_mask_by_mask_assignment(grid, seed, n_old):
    # an earlier sweep's ids over arbitrary nodes, so overlaps tie and
    # several components compete for one id
    rng = np.random.default_rng(seed)
    id_map = rng.integers(0, n_old + 1, size=grid.values.shape).astype(np.int32)
    state = initial_state(AmbientMetric.euclidean(), grid)
    state.id_map, state.next_id = id_map, n_old + 1
    assigned, new_map, next_id = _match_ids(state, measure_components(AmbientMetric.euclidean(), grid))
    ref = reference_match_ids(id_map, n_old + 1, reference_measure_components(AmbientMetric.euclidean(), grid))
    assert (assigned, next_id) == (ref[0], ref[2])
    assert new_map.dtype == ref[1].dtype
    assert np.array_equal(new_map, ref[1])


def test_an_empty_grid_measures_nothing():
    grid = AxiGrid(h=0.1, z_min=-1.0, values=np.ones((6, 8)))
    labels, n = label_regions(grid)
    assert n == 0 and labels.dtype == np.int32 and not labels.any()
    assert measure_components(AmbientMetric(mass=1.0), grid) == []
    state = initial_state(AmbientMetric.euclidean(), grid)
    assigned, new_map, next_id = _match_ids(state, [])
    assert assigned == [] and next_id == 1 and not new_map.any()
