"""Properties of the closest-point distance rebuild: signs, frozen nodes,
the distance near the interface, the far field, and its edge roots."""

import os
import subprocess
import sys

import numpy as np
import pytest
from scipy import ndimage

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from isoflow.flow_levelset import _BandedStepper, _edge_zero, reinitialize
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
    return grid, frozen, balls


def union_distance(balls, rho, z):
    """The flat distance to the union of ``balls`` in the half-plane, exact
    outside it, and whether a point's nearest disc is nearer by 6 cells
    than any other, its mirror image across the axis included: away from
    the corners where two discs meet."""
    own = np.array([np.hypot(rho - rc, z - zc) - r for rc, zc, r in balls])
    mirror = np.min([np.hypot(rho + rc, z - zc) - r for rc, zc, r in balls], axis=0)
    nearest = own.min(axis=0)
    second = np.sort(own, axis=0)[1] if len(balls) > 1 else np.inf
    return nearest, (second - nearest > 6 * H) & (mirror - nearest > 6 * H)


@settings(max_examples=25, deadline=None)
@given(ball_unions())
def test_a_rebuild_keeps_signs_frozen_nodes_and_the_distance(case):
    grid, frozen, balls = case
    u = grid.values
    rebuilt = reinitialize(u, H, frozen)
    assert np.isfinite(rebuilt).all()
    assert np.array_equal(rebuilt < 0.0, u < 0.0)
    assert np.array_equal(rebuilt[frozen], u[frozen])
    # within two cells outside the interface, away from corners, the
    # parabolas give the distance to a tenth of a cell (measured: 0.052 in 400 draws)
    exact, smooth = union_distance(balls, grid.rho[:, None], grid.z[None, :])
    near = (exact > 0.0) & (exact < 2 * H) & smooth & ~frozen
    assert (np.abs(rebuilt - exact)[near] < 0.1 * H).all()


@settings(max_examples=50, deadline=None)
@given(ball_unions(), st.integers(3, 6))
def test_crossing_edge_roots_equal_the_whole_edge_ones(case, rows):
    grid, _, _ = case
    # the full grid, its transpose, and a thin strip whose border nodes
    # take their inner neighbour's second difference
    crossings = 0
    for a in (grid.values, grid.values.T, grid.values[:rows]):
        ei, ej = np.nonzero((a[:-1, :] < 0.0) != (a[1:, :] < 0.0))
        flat, step = a.reshape(-1), a.shape[1]
        low = ei * step + ej
        roots = _edge_zero(flat, low, ei, step, a.shape[0])
        assert roots.tobytes() == whole_edge_zero(a)[ei, ej].tobytes()
        crossings += ei.size
    assert crossings > 0


def test_the_two_sides_of_a_thin_shell_keep_their_own_parabolas():
    # a shell 2.4 cells thick: a node's nearest seed may lie on the far
    # side, so a node within two cells of a seed takes, of its own and its
    # neighbours' zeros, the one whose parabola passes nearest (measured:
    # 0.031 cells near the interface; the nearest seed's alone, 0.64)
    def shell(rho, z):
        return np.abs(np.hypot(rho, z) - 1.5) - 0.06

    grid = AxiGrid.sample(H, 2.0, -2.0, 2.0, lambda rho, z: 3.0 * shell(rho, z) * (1.0 + 0.2 * np.sin(2.0 * z)))
    rebuilt = reinitialize(grid.values, H, np.zeros(grid.values.shape, dtype=bool))
    exact = shell(grid.rho[:, None], grid.z[None, :])
    near = np.abs(exact) < 2 * H
    assert np.abs(rebuilt - exact)[near].max() < 0.1 * H


def seed_feet(u):
    """Each seed node's (rho + i z) offset, in cells, to the zero of the
    crossing edge it takes: of the first axis's edges, then the second's,
    low ends before high ones, the last written."""
    seeds = np.zeros(u.shape, dtype=bool)
    foot = np.zeros(u.shape, dtype=complex)
    for axis, unit in ((0, 1.0), (1, 1j)):
        a = u if axis == 0 else u.T
        ei, ej = np.nonzero((a[:-1, :] < 0.0) != (a[1:, :] < 0.0))
        flat, step = a.reshape(-1), a.shape[1]
        low = ei * step + ej
        theta = _edge_zero(flat, low, ei, step, a.shape[0])
        for ends, offsets in ((ei, theta), (ei + 1, theta - 1.0)):
            for i, j, offset in zip(ends, ej, offsets):
                node = (i, j) if axis == 0 else (j, i)
                seeds[node], foot[node] = True, offset * unit
    return seeds, foot


def test_a_frozen_block_on_the_interface_keeps_its_values():
    grid = AxiGrid.sample(H, EXTENT, -EXTENT, EXTENT, lambda rho, z: 2.0 * (np.hypot(rho, z - 0.3) - 1.1))
    frozen = np.zeros(grid.values.shape, dtype=bool)
    frozen[5:30, 60:90] = True  # holds part of the zero set
    u = grid.values
    assert ((u[frozen] < 0.0).any()) and ((u[frozen] > 0.0).any())
    rebuilt = reinitialize(u, H, frozen)
    assert np.array_equal(rebuilt[frozen], u[frozen])
    assert np.array_equal(rebuilt < 0.0, u < 0.0)
    # the rest of the interface takes its distance as without the block
    free = reinitialize(u, H, np.zeros(u.shape, dtype=bool))
    assert np.array_equal(rebuilt[~frozen], free[~frozen])
    exact = u / 2.0
    near = (np.abs(exact) < 2 * H) & ~frozen
    assert (np.abs(rebuilt - exact)[near] < 1e-3 * H).all()


def test_nodes_past_the_reach_take_the_distance_to_their_seeds_zero():
    # at this spacing any absolute slack would be lost: the far field is
    # the distance to the zero the nearest seed took, up to round-off
    h = 1e11
    i, j = np.ogrid[0:40, 0:60]
    u = (np.hypot(i, j - 30.0) - 6.3) * h
    rebuilt = reinitialize(u, h, np.zeros(u.shape, dtype=bool))
    seeds, foot = seed_feet(u)
    near_seed, (si, sj) = ndimage.distance_transform_edt(~seeds, return_indices=True)
    fi, fj = np.nonzero((near_seed > _BandedStepper.WIDTH + 4) & (u > 0.0))
    assert fi.size
    ni, nj = si[fi, fj], sj[fi, fj]
    expected = h * np.abs(fi - ni + 1j * (fj - nj) - foot[ni, nj])
    np.testing.assert_allclose(rebuilt[fi, fj], expected, rtol=1e-12)
    # nearer in, the closest point on a circle of 6.3 cells
    reach = (near_seed <= _BandedStepper.WIDTH + 4) & (u > 0.0)
    np.testing.assert_allclose(rebuilt[reach], u[reach], rtol=0.0, atol=0.01 * h)


def test_a_rebuild_leaves_scipy_spatial_unloaded():
    # scipy.spatial's trees would add about 10 MB to a run's peak memory
    code = (
        "import sys\n"
        "import numpy as np\n"
        "from isoflow.flow_levelset import reinitialize\n"
        "i, j = np.ogrid[0:40, 0:60]\n"
        "reinitialize(np.hypot(i, j - 30.0) - 6.3, 1.0, np.zeros((40, 60), dtype=bool))\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy.spatial')))\n"
    )
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
