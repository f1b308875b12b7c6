"""The band-local distance rebuild against the whole-grid one it replaced."""

import numpy as np
import pytest
from scipy import ndimage

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from isoflow.flow_levelset import _BandedStepper, _edge_curvature, _edge_zero, reinitialize
from isoflow.measure import AxiGrid

H = 0.05
EXTENT = 2.5
# what a band and its stencils read after a rebuild, with a cell to spare
NEAR = (_BandedStepper.WIDTH + 2) * H


def whole_edge_zero(a):
    """Zero position (in [0, 1]) along every first-axis edge of ``a``: the
    quadratic through the endpoints with the averaged second difference as
    curvature, or the linear root where that is degenerate."""
    lo, hi = a[:-1, :], a[1:, :]
    diff = hi - lo
    safe = np.where(diff != 0.0, diff, 1.0)
    linear = np.clip(-lo / safe, 0.0, 1.0)
    d2 = np.zeros_like(a)
    d2[1:-1, :] = a[2:, :] - 2.0 * a[1:-1, :] + a[:-2, :]
    d2[0, :] = d2[1, :]
    d2[-1, :] = d2[-2, :]
    q = 0.5 * (d2[:-1, :] + d2[1:, :])
    b = diff - 0.5 * q
    disc = b * b - 2.0 * q * lo
    usable = (np.abs(q) > 1e-14 * np.maximum(np.abs(b), 1.0)) & (disc >= 0.0)
    sq = np.sqrt(np.where(usable, disc, 0.0))
    denom = b + np.where(b >= 0.0, sq, -sq)
    denom = np.where(np.abs(denom) > 1e-300, denom, 1.0)
    root = -2.0 * lo / denom
    theta = np.where(usable & (root >= 0.0) & (root <= 1.0), root, linear)
    return np.clip(theta, 0.0, 1.0)


def reference_reinitialize(u, h, frozen_mask):
    """The whole-grid rebuild: sub-cell seeds, 60 Godunov passes over every
    node, then the node distance transform past the relaxed values."""
    inside = u < 0.0
    d = np.full(u.shape, np.inf)
    for axis in (0, 1):
        a = u if axis == 0 else u.T
        da = d if axis == 0 else d.T
        crossing = (a[:-1, :] < 0.0) != (a[1:, :] < 0.0)
        if crossing.any():
            theta = whole_edge_zero(a)
            da[:-1, :] = np.minimum(da[:-1, :], np.where(crossing, theta * h, np.inf))
            da[1:, :] = np.minimum(da[1:, :], np.where(crossing, (1.0 - theta) * h, np.inf))
    seeds = np.isfinite(d)
    big = 1e12
    d_band = np.where(seeds, d, big)
    for _ in range(60):
        dp = np.full((d_band.shape[0] + 2, d_band.shape[1] + 2), big)
        dp[1:-1, 1:-1] = d_band
        dp[0, 1:-1] = d_band[1, :]  # mirror across the axis
        a = np.minimum(dp[:-2, 1:-1], dp[2:, 1:-1])
        b = np.minimum(dp[1:-1, :-2], dp[1:-1, 2:])
        lo = np.minimum(a, b)
        quad = 0.5 * (a + b + np.sqrt(np.maximum(2 * h * h - (a - b) ** 2, 0.0)))
        upd = np.where(np.abs(a - b) >= h, lo + h, quad)
        d_band = np.where(seeds, d_band, np.minimum(d_band, upd))
    far = np.maximum(
        ndimage.distance_transform_edt(inside), ndimage.distance_transform_edt(~inside)
    )
    d = np.where(d_band < 0.9 * big, d_band, np.maximum(far - 0.5, 0.5) * h)
    signed = np.where(inside, -np.maximum(d, np.finfo(float).tiny), d)
    return np.where(frozen_mask, u, signed)


@st.composite
def ball_unions(draw):
    """Level-set values of a union of one to three balls (possibly
    overlapping, off-axis centres revolve into tori), scaled so that the
    field is not a distance, and a frozen block of nodes or none."""
    balls = [
        (draw(st.floats(0.0, 1.2)), draw(st.floats(-1.2, 1.2)), draw(st.floats(0.2, 1.0)))
        for _ in range(draw(st.integers(1, 3)))
    ]
    scale = draw(st.floats(0.5, 3.0))

    def union(rho, z):
        return scale * np.min([np.hypot(rho - rc, z - zc) - r for rc, zc, r in balls], axis=0)

    grid = AxiGrid.sample(H, EXTENT, -EXTENT, EXTENT, union)
    frozen = np.zeros(grid.values.shape, dtype=bool)
    if draw(st.booleans()):
        n_rho, n_z = frozen.shape
        i0 = draw(st.integers(0, n_rho - 2))
        j0 = draw(st.integers(0, n_z - 2))
        frozen[i0 : draw(st.integers(i0 + 1, n_rho)), j0 : draw(st.integers(j0 + 1, n_z))] = True
    return grid, frozen


@settings(max_examples=25, deadline=None)
@given(ball_unions())
def test_band_local_rebuild_matches_the_whole_grid_one_near_the_interface(case):
    grid, frozen = case
    u = grid.values
    rebuilt = reinitialize(u, H, frozen)
    expected = reference_reinitialize(u, H, frozen)
    assert np.array_equal(rebuilt < 0.0, u < 0.0)
    assert np.array_equal(rebuilt[frozen], u[frozen])
    near = np.abs(expected) < NEAR
    assert near.any()
    assert np.array_equal(rebuilt[near], expected[near])


@settings(max_examples=50, deadline=None)
@given(ball_unions(), st.integers(3, 6))
def test_crossing_edge_roots_equal_the_whole_edge_ones(case, rows):
    grid, _ = case
    # the full grid, its transpose, and a thin strip whose border nodes
    # take their inner neighbour's second difference
    crossings = 0
    for a in (grid.values, grid.values.T, grid.values[:rows]):
        ei, ej = np.nonzero((a[:-1, :] < 0.0) != (a[1:, :] < 0.0))
        roots = _edge_zero(a[ei, ej], a[ei + 1, ej], _edge_curvature(a, ei, ej))
        assert roots.tobytes() == whole_edge_zero(a)[ei, ej].tobytes()
        crossings += ei.size
    assert crossings > 0


def seed_feet(u, h):
    """Each seed node's (rho + i z) offset, in cells, to the zero of its
    closest crossing edge: the first axis's edges first, low ends before
    high ones, a later edge winning only when strictly closer."""
    dist = np.full(u.shape, np.inf)
    foot = np.zeros(u.shape, dtype=complex)
    for axis, unit in ((0, 1.0), (1, 1j)):
        a = u if axis == 0 else u.T
        ei, ej = np.nonzero((a[:-1, :] < 0.0) != (a[1:, :] < 0.0))
        theta = _edge_zero(a[ei, ej], a[ei + 1, ej], _edge_curvature(a, ei, ej))
        for ends, offsets, dists in ((ei, theta, theta * h), (ei + 1, theta - 1.0, (1.0 - theta) * h)):
            for i, j, offset, d in zip(ends, ej, offsets, dists):
                node = (i, j) if axis == 0 else (j, i)
                if d < dist[node]:
                    dist[node], foot[node] = d, offset * unit
    return np.isfinite(dist), foot


def test_a_frozen_block_on_the_interface_keeps_its_values():
    grid = AxiGrid.sample(H, EXTENT, -EXTENT, EXTENT, lambda rho, z: 2.0 * (np.hypot(rho, z - 0.3) - 1.1))
    frozen = np.zeros(grid.values.shape, dtype=bool)
    frozen[5:30, 60:90] = True  # holds part of the zero set
    u = grid.values
    assert ((u[frozen] < 0.0).any()) and ((u[frozen] > 0.0).any())
    rebuilt = reinitialize(u, H, frozen)
    expected = reference_reinitialize(u, H, frozen)
    assert np.array_equal(rebuilt[frozen], u[frozen])
    near = np.abs(expected) < NEAR
    assert np.array_equal(rebuilt[near], expected[near])


def test_reach_nodes_the_relaxation_leaves_far_take_the_far_formula():
    # at this spacing a few cells of relaxation pass 0.9 of the "unknown"
    # value, so the outer reach must fall back to the far-field formula
    h = 1e11
    i, j = np.ogrid[0:40, 0:60]
    u = (np.hypot(i, j - 30.0) - 6.3) * h
    rebuilt = reinitialize(u, h, np.zeros(u.shape, dtype=bool))
    seeds, foot = seed_feet(u, h)
    near_seed, (si, sj) = ndimage.distance_transform_edt(~seeds, return_indices=True)
    reach = _BandedStepper.WIDTH + 4
    fi, fj = np.nonzero((near_seed >= 12) & (near_seed <= reach) & (u > 0.0))
    assert fi.size
    ni, nj = si[fi, fj], sj[fi, fj]
    expected = h * np.abs(fi - ni + 1j * (fj - nj) - foot[ni, nj])
    assert rebuilt[fi, fj].tobytes() == expected.tobytes()
