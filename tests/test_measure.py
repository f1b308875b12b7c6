"""Grid measurement: labeling, contours, metric area/volume, H^2."""

import hashlib
import math

import numpy as np
import pytest

from isoflow.metric import (
    AmbientMetric,
    enclosed_volume,
    sphere_area,
    sphere_mean_curvature,
)
from isoflow.measure import AxiGrid, label_regions, mean_curvature_field, measure_components
from measure_oracles import extract_components, g_perimeter, g_volume, interface_contour, interface_H_sq

EUCLID = AmbientMetric.euclidean()
SCHW = AmbientMetric(mass=1.0)


def ball(R, zc=0.0):
    return lambda rho, z: np.hypot(rho, z - zc) - R


def two_balls(rho, z):
    return np.minimum(np.hypot(rho, z - 1.3) - 0.7, np.hypot(rho, z + 1.3) - 0.7)


def dumbbell(rho, z):
    d1 = np.hypot(rho, z - 1.5) - 1.0
    d2 = np.hypot(rho, z + 1.5) - 1.0
    neck = np.maximum(rho - 0.35, np.abs(z) - 1.6)
    return np.minimum(np.minimum(d1, d2), neck)


def test_empty_grid_has_no_components():
    g = AxiGrid.sample(0.1, 1.0, -1.0, 1.0, lambda rho, z: rho + z * z + 1.0)
    assert extract_components(g) == []
    assert measure_components(EUCLID, g) == []
    assert interface_contour(g) == []


def test_region_touching_boundary_rejected():
    with pytest.raises(ValueError):
        AxiGrid.sample(0.1, 1.0, -1.0, 1.0, ball(2.0))
    # clears the boundary: fine
    AxiGrid.sample(0.1, 1.0, -1.0, 1.0, ball(0.5))


def test_grid_validation():
    with pytest.raises(ValueError):
        AxiGrid(h=0.0, z_min=0.0, values=np.ones((5, 5)))
    with pytest.raises(ValueError):
        AxiGrid(h=0.1, z_min=0.0, values=np.ones((2, 5)))


def test_ball_is_single_component():
    g = AxiGrid.sample(0.05, 1.6, -1.6, 1.6, ball(1.0))
    comps = extract_components(g)
    assert len(comps) == 1
    assert comps[0].id == 1
    assert comps[0].node_count > 0


def test_two_balls_are_two_components_in_scan_order():
    g = AxiGrid.sample(0.05, 2.4, -2.6, 2.6, two_balls)
    comps = extract_components(g)
    assert len(comps) == 2
    # ids follow the scan order (rho-major) of each component's first node
    firsts = []
    for c in comps:
        ii, jj = np.nonzero(c.node_mask)
        firsts.append(int((ii * g.n_z + jj).min()))
    assert firsts == sorted(firsts)
    # the lower-z ball comes first (both touch the axis row i = 0)
    zc1 = g.z[np.nonzero(comps[0].node_mask)[1]].mean()
    zc2 = g.z[np.nonzero(comps[1].node_mask)[1]].mean()
    assert zc1 < zc2


def test_label_ids_follow_first_scan_node():
    def blobs(rho, z):
        return np.minimum.reduce(
            [
                np.hypot(rho, z - 1.6) - 0.5,
                np.hypot(rho, z + 1.6) - 0.5,
                np.hypot(rho - 1.4, z) - 0.5,
            ]
        )

    g = AxiGrid.sample(0.05, 2.4, -2.4, 2.4, blobs)
    labels, n = label_regions(g)
    assert n == 3
    flat = labels.ravel()
    firsts = [int(np.nonzero(flat == k)[0][0]) for k in (1, 2, 3)]
    assert firsts == sorted(firsts)


def test_u_shape_merged_late_keeps_its_first_label():
    # the scan meets the U's left arm, then the blob, then the right arm,
    # whose provisional label only merges with the left one on row 3
    u_shape = np.zeros((6, 9), dtype=bool)
    u_shape[1:4, 1] = u_shape[1:4, 6] = u_shape[3, 1:7] = True
    blob = np.zeros_like(u_shape)
    blob[1, 3:5] = True
    values = np.where(u_shape | blob, -1.0, 1.0)
    labels, n = label_regions(AxiGrid(h=1.0, z_min=0.0, values=values))
    assert n == 2
    assert np.all(labels[u_shape] == 1)
    assert np.all(labels[blob] == 2)


def test_regions_shallower_than_one_cell_are_dropped():
    # two 2 x 2 blocks of inside nodes: the first's deepest node lies just
    # above -h, the second's sits at exactly -h
    h = 0.1
    values = np.ones((10, 20))
    values[2:4, 3:5] = -0.5 * h
    values[2, 3] = np.nextafter(-h, 0.0)
    values[2:4, 12:14] = -0.5 * h
    values[3, 13] = -h
    g = AxiGrid(h=h, z_min=-1.0, values=values)
    labels, n = label_regions(g)
    assert n == 2
    (kept,) = measure_components(EUCLID, g)
    assert kept.id == labels[3, 13] == 2
    assert np.array_equal(kept.node_mask, labels == 2)


def test_ball_contour_open_chain_on_axis():
    h = 0.05
    g = AxiGrid.sample(h, 1.6, -1.6, 1.6, ball(1.0))
    chains = interface_contour(g)
    assert len(chains) == 1
    pts = chains[0]
    # open chain: both endpoints on the axis
    assert pts[0][0] == 0.0 and pts[-1][0] == 0.0
    # every vertex within one cell of the true circle (measured ~2e-4)
    dist = np.abs(np.hypot(pts[:, 0], pts[:, 1]) - 1.0)
    assert dist.max() < h


def test_torus_contour_closed_chain():
    g = AxiGrid.sample(0.02, 2.0, -1.0, 1.0, lambda rho, z: np.hypot(rho - 1.0, z) - 0.4)
    chains = interface_contour(g)
    assert len(chains) == 1
    pts = chains[0]
    assert np.array_equal(pts[0], pts[-1])  # closed loop repeats first point
    P = measure_components(EUCLID, g)[0].perimeter
    exact = 4.0 * math.pi**2 * 1.0 * 0.4  # revolved circle: 2pi*Rc * 2pi*a
    assert abs(P - exact) / exact < 5e-3


def test_perimeter_and_volume_euclidean_ball():
    R = 1.0
    g = AxiGrid.sample(R / 50, 1.6, -1.6, 1.6, ball(R))
    m = measure_components(EUCLID, g)[0]
    A = 4 * math.pi * R**2
    V = 4 / 3 * math.pi * R**3
    # contract bound is 2%; measured 6.6e-5 / 1.2e-4 at h = R/50
    assert abs(m.perimeter - A) / A < 0.02
    assert abs(m.volume - V) / V < 0.02
    assert abs(m.perimeter - A) / A < 2e-3
    assert abs(m.volume - V) / V < 2e-3


def test_perimeter_and_volume_schwarzschild_ball():
    r0 = 4.0
    g = AxiGrid.sample(0.02, 4.6, -4.6, 4.6, ball(r0))
    m = measure_components(SCHW, g)[0]
    A = sphere_area(SCHW, r0)
    V = enclosed_volume(SCHW, r0)
    # measured 2.6e-6 (perimeter) and 3.9e-4 (volume) at h = 0.02
    assert abs(m.perimeter - A) / A < 0.02
    assert abs(m.volume - V) / V < 0.02
    assert abs(m.perimeter - A) / A < 1e-3
    assert abs(m.volume - V) / V < 2e-3


def test_volume_near_horizon_masked_cells():
    # ball close around the horizon: masked cells must not spoil the volume
    for r0 in (0.8, 1.5):
        g = AxiGrid.sample(0.01, r0 + 0.4, -(r0 + 0.4), r0 + 0.4, ball(r0))
        v = measure_components(SCHW, g)[0].volume
        vt = enclosed_volume(SCHW, r0)
        assert abs(v - vt) / vt < 5e-3  # measured -6.9e-4 at r0 = 0.8


def test_h_sq_integral_euclidean_sphere():
    # integral of H^2 over any round sphere is 16 pi
    g = AxiGrid.sample(0.02, 1.6, -1.6, 1.6, ball(1.0))
    m = measure_components(EUCLID, g)[0]
    assert abs(m.h_sq_integral / (16 * math.pi) - 1.0) < 0.05
    assert abs(m.h_sq_integral / (16 * math.pi) - 1.0) < 1e-2  # measured 8e-5


def test_grid_hawking_mass_schwarzschild():
    r0 = 4.0
    g = AxiGrid.sample(0.02, 4.6, -4.6, 4.6, ball(r0))
    m = measure_components(SCHW, g)[0]
    haw = math.sqrt(m.perimeter / (16 * math.pi)) * (
        1.0 - m.h_sq_integral / (16 * math.pi)
    )
    assert abs(haw - SCHW.mass) < 0.05  # measured 1.4e-6


def test_mean_curvature_field_matches_closed_form():
    # signed-distance sphere: level sets are concentric spheres, so the
    # node field must match the closed-form coordinate-sphere curvature
    h = 0.02
    g = AxiGrid.sample(h, 1.6, -1.6, 1.6, ball(1.0))
    F = mean_curvature_field(EUCLID, g)
    r = np.hypot(g.rho[:, None], g.z[None, :])
    band = (np.abs(g.values) < 2 * h) & (r > 0.2)
    rel = np.abs(F[band] - 2.0 / r[band]) / (2.0 / r[band])
    assert rel.max() < 5e-3  # measured 1.6e-4

    gs = AxiGrid.sample(h, 4.6, -4.6, 4.6, ball(4.0))
    Fs = mean_curvature_field(SCHW, gs)
    rs = np.hypot(gs.rho[:, None], gs.z[None, :])
    bs = np.abs(gs.values) < 2 * h
    exact = sphere_mean_curvature(SCHW, rs[bs])
    rel = np.abs(Fs[bs] - exact) / np.abs(exact)
    assert rel.max() < 5e-3  # measured 1.2e-5


def test_interface_h_sq_polyline_route():
    g = AxiGrid.sample(0.02, 1.6, -1.6, 1.6, ball(1.0))
    chains = interface_contour(g)
    total = sum(interface_H_sq(EUCLID, g, c) for c in chains)
    assert abs(total / (16 * math.pi) - 1.0) < 0.02


def test_g_perimeter_polyline_oracle():
    # revolved exact circle polyline vs sphere area, both metrics
    theta = np.linspace(0.0, math.pi, 4001)
    r0 = 4.0
    poly = np.column_stack([r0 * np.sin(theta), r0 * np.cos(theta)])
    assert abs(g_perimeter(EUCLID, poly) - 4 * math.pi * r0**2) / (4 * math.pi * r0**2) < 1e-5
    A = sphere_area(SCHW, r0)
    assert abs(g_perimeter(SCHW, poly) - A) / A < 1e-5


def test_component_sums_equal_isolated_measures_exactly():
    # disjoint union: each component's measures must equal the measures
    # of the same ball alone on the same grid, bit for bit
    g = AxiGrid.sample(0.05, 2.4, -2.6, 2.6, two_balls)
    both = measure_components(EUCLID, g)
    assert len(both) == 2
    g_lo = AxiGrid.sample(0.05, 2.4, -2.6, 2.6, ball(0.7, -1.3))
    g_hi = AxiGrid.sample(0.05, 2.4, -2.6, 2.6, ball(0.7, +1.3))
    lo = measure_components(EUCLID, g_lo)[0]
    hi = measure_components(EUCLID, g_hi)[0]
    assert both[0].perimeter == lo.perimeter
    assert both[0].volume == lo.volume
    assert both[0].h_sq_integral == lo.h_sq_integral
    assert both[1].perimeter == hi.perimeter
    assert both[1].volume == hi.volume
    assert both[1].h_sq_integral == hi.h_sq_integral


def test_z_translation_by_whole_cells_is_exact():
    h = 0.05
    g1 = AxiGrid.sample(h, 3.0, -3.2, 3.2, dumbbell)
    m1 = measure_components(EUCLID, g1)
    g2 = g1.replace_values(np.roll(g1.values, 13, axis=1))
    m2 = measure_components(EUCLID, g2)
    assert len(m1) == len(m2)
    for a, b in zip(m1, m2):
        assert a.perimeter == b.perimeter
        assert a.volume == b.volume
        assert a.h_sq_integral == b.h_sq_integral


def test_refinement_reduces_error():
    # halving h must cut the error at least by 25%; measured ratio ~0.25
    R = 1.0
    errs = []
    for h in (0.15, 0.075, 0.0375):
        g = AxiGrid.sample(h, 1.8, -1.8, 1.8, ball(R))
        m = measure_components(EUCLID, g)[0]
        errs.append(
            (
                abs(m.perimeter - 4 * math.pi * R**2),
                abs(m.volume - 4 / 3 * math.pi * R**3),
            )
        )
    for k in range(2):
        assert errs[k + 1][0] <= 0.75 * errs[k][0]
        assert errs[k + 1][1] <= 0.75 * errs[k][1]


def _saddle_grid(plateau, case=9):
    # one saddle cell (1, 1): inside corners on its 00-11 diagonal (case 9)
    # or on its 10-01 diagonal (case 6); the other two corners at plateau
    v = np.full((4, 4), 2.0)
    inside, other = ((1, 1), (2, 2)), ((2, 1), (1, 2))
    if case == 6:
        inside, other = other, inside
    for ij in inside:
        v[ij] = -1.0
    for ij in other:
        v[ij] = plateau
    return AxiGrid(h=1.0, z_min=0.0, values=v)


@pytest.mark.parametrize("case", [9, 6], ids=["case9", "case6"])
def test_saddle_center_mean_rule(case):
    # center mean < 0: the inside connects through the cell (wide band);
    # center mean >= 0: corners stay separate (two small triangles)
    band = measure_components(EUCLID, _saddle_grid(0.4, case))
    tri = measure_components(EUCLID, _saddle_grid(1.5, case))
    assert len(band) == 2 and len(tri) == 2
    band_P = sum(c.perimeter for c in band)
    tri_P = sum(c.perimeter for c in tri)
    band_V = sum(c.volume for c in band)
    tri_V = sum(c.volume for c in tri)
    assert band_P > tri_P
    assert band_V > tri_V


@pytest.mark.parametrize(
    "case, plateau",
    [(9, 0.4), (9, 1.5), (6, 0.4), (6, 1.5)],
    ids=["case9-connected", "case9-separate", "case6-connected", "case6-separate"],
)
def test_g_volume_matches_component_measures(case, plateau):
    g = _saddle_grid(plateau, case)
    comps = extract_components(g)
    measures = measure_components(EUCLID, g)
    for c, m in zip(comps, measures):
        assert g_volume(EUCLID, g, c) == m.volume


def test_contour_of_one_component():
    g = AxiGrid.sample(0.05, 2.4, -2.6, 2.6, two_balls)
    per_component = [interface_contour(g, c) for c in extract_components(g)]
    assert len(per_component) == 2
    for chains in per_component:
        # each ball alone: one open chain from axis to axis
        assert len(chains) == 1
        assert chains[0][0][0] == 0.0 and chains[0][-1][0] == 0.0
    whole = interface_contour(g)
    joined = [c for chains in per_component for c in chains]
    assert len(joined) == len(whole)
    assert all(np.array_equal(a, b) for a, b in zip(joined, whole))


# ---------------------------------------------------------------------------
# regression against the per-cell sweep that the case-table pass replaced
# (commit 2e36562): one (perimeter, volume, h_sq_integral) per component as
# float.hex, and a sha256 of the contour chains


REFERENCE_GRIDS = {
    "two-balls": lambda: AxiGrid.sample(0.05, 2.4, -2.6, 2.6, two_balls),
    "dumbbell": lambda: AxiGrid.sample(0.05, 3.0, -3.2, 3.2, dumbbell),
    "torus": lambda: AxiGrid.sample(0.02, 2.0, -1.0, 1.0, lambda rho, z: np.hypot(rho - 1.0, z) - 0.4),
    "near-horizon": lambda: AxiGrid.sample(0.01, 1.2, -1.2, 1.2, ball(0.8)),
    "case9-connected": lambda: _saddle_grid(0.4, 9),
    "case9-separate": lambda: _saddle_grid(1.5, 9),
    "case6-connected": lambda: _saddle_grid(0.4, 6),
    "case6-separate": lambda: _saddle_grid(1.5, 6),
}

REFERENCE = {
    "two-balls": (
        [("0x1.89bfe150e7b68p+2", "0x1.6f3b7a0cfae20p+0", "0x1.92844e6f7ad34p+5"),
         ("0x1.89bfe150e7b68p+2", "0x1.6f3b7a0cfae20p+0", "0x1.92844e6f7ad3ep+5")],
        [("0x1.7f6605cfd510dp+4", "0x1.5fd03447c921ep+3", "0x1.95f01a3649ea9p+5"),
         ("0x1.7f6605cfd510cp+4", "0x1.5fd03447c9221p+3", "0x1.95f01a3649eb1p+5")],
        "c3a3153cb7e8eb9012f1200f34bd01e0be465ea38fde6b1df751904ff928f588",
    ),
    "dumbbell": (
        [("0x1.ac6aaf676fb92p+4", "0x1.19024a72b43a3p+3", "0x1.3598bfadc56f3p+7")],
        [("0x1.028b8e2b68389p+7", "0x1.c63a94335b856p+5", "0x1.0a08c446fdc71p+7")],
        "447860337d667a96500467a2b8fadb6d925682c4110e0e1a2bc4d26801203073",
    ),
    "torus": (
        [("0x1.f93f16aa9a1bfp+3", "0x1.940c0c0006dc9p+1", "0x1.aef7aa5d34355p+6")],
        [("0x1.409ebd1ad0f72p+6", "0x1.28eb882b1e4fcp+5", "0x1.77a5885ce903ap+6")],
        "948a5f46bce4e5d67fbe24b6fa15be22035fcf33eebad430cc1fc994da1a25f6",
    ),
    "near-horizon": (
        [("0x1.015a3bc1828b0p+3", "0x1.1280ba5288feap+1", "0x1.92233ec969051p+5")],
        [("0x1.c0a3a80486903p+5", "0x1.8f8cd34fe9af6p+5", "0x1.569630a89a4d0p+1")],
        "cc919d65782b5b2bde531ab1bd431d937f9162323fea5794bcaf1798fe21a980",
    ),
    "case9-connected": (
        [("0x1.037e674f285bbp+4", "0x1.8ea75e3114726p+2", "0x1.4570fd9a7b237p+55"),
         ("0x1.dffe2cc1c525ap+4", "0x1.fd8b58ce183b3p+2", "0x1.c6185292d3505p+7")],
        [("0x1.88f4ed21c572cp+5", "0x1.a735397c8fac3p+4", "0x1.e87798f62775cp+54"),
         ("0x1.dc9fc413255bbp+5", "0x1.92ae9fde03412p+4", "0x1.9388975b3da0fp+7")],
        "88e1b5f5ef6bfd5199fcf446b9aae36565b84c104c2d791130e357e00d3f0ad2",
    ),
    "case9-separate": (
        [("0x1.ac56baa4a7dccp+3", "0x1.ba1e28a9d0749p+0", "0x1.0050fd6a00454p+55"),
         ("0x1.9cada7ba6dee6p+4", "0x1.abb36faf68443p+1", "0x1.d4a02011579f9p+11")],
        [("0x1.5dd671c821601p+5", "0x1.490399fa2bac6p+3", "0x1.789d432b6ae30p+54"),
         ("0x1.8e6ec65788c98p+5", "0x1.1ec8c2535cba1p+3", "0x1.c7bcc883fb75cp+11")],
        "b8d67a012e1bb2eb8371e2d9eea8f4913883dc08d3d3c063ce6102f08260128a",
    ),
    "case6-connected": (
        [("0x1.037e674f285bbp+4", "0x1.8ea75e3114726p+2", "0x1.4570fd9a7b236p+55"),
         ("0x1.dffe2cc1c525ap+4", "0x1.fd8b58ce183b2p+2", "0x1.c6185292d3504p+7")],
        [("0x1.3374645713de4p+5", "0x1.5d33dd6472630p+4", "0x1.29717fb47481cp+55"),
         ("0x1.0aa006604afb7p+6", "0x1.bbe6b770c1c12p+4", "0x1.b5e0f43476ddep+7")],
        "a73290234fe4725864c2dee91abbb86226bc32964f90d6c2e0d27dc2471ffe45",
    ),
    "case6-separate": (
        [("0x1.ac56baa4a7dccp+3", "0x1.ba1e28a9d0748p+0", "0x1.0050fd6a00455p+55"),
         ("0x1.9cada7ba6dee6p+4", "0x1.abb36faf68443p+1", "0x1.d4a02011579f8p+11")],
        [("0x1.e136efd8764acp+4", "0x1.74aac159eae68p+2", "0x1.e1f6a51560bf4p+54"),
         ("0x1.cfb525a80af01p+5", "0x1.688ae95da7342p+3", "0x1.d2abcdf3e9d30p+11")],
        "b747f2983400314597ad46316167c675dc756db4f8d5bc4ff8f73d69d17babfd",
    ),
}


def contour_digest(chains):
    digest = hashlib.sha256()
    for chain in chains:
        chain = np.ascontiguousarray(chain, dtype="<f8")
        digest.update(repr(chain.shape).encode())
        digest.update(chain.tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("name", list(REFERENCE))
def test_measures_match_per_cell_reference(name):
    g = REFERENCE_GRIDS[name]()
    at_m0, at_m1, contour = REFERENCE[name]
    # zero mass keeps every operation of the per-cell sweep: bit for bit;
    # with mass, w^4 and w^6 come from array powers, which may round the
    # last bit differently from the scalar ones
    for metric, expected, rtol in ((EUCLID, at_m0, 0.0), (SCHW, at_m1, 1e-14)):
        got = measure_components(metric, g)
        assert len(got) == len(expected)
        for c, row in zip(got, expected):
            want = [float.fromhex(x) for x in row]
            for value, ref in zip((c.perimeter, c.volume, c.h_sq_integral), want):
                assert abs(value - ref) <= rtol * abs(ref)
    assert contour_digest(interface_contour(g)) == contour
