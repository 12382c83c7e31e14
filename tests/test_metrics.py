"""Morphometric observable tests.

max_radius is verified against a vectorized O(n^3) oracle that enumerates all
pair (diameter) and triple (circumcircle) candidates and keeps the smallest
circle containing every point.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import ConvexHull

from gbmsim import (
    EmptyRegionError,
    SimulationError,
    SimulationState,
    ThresholdedRegion,
    build_mesh,
    compute_sample,
    lumped_integral,
    max_radius,
    ring_quotient,
    surface_quotient,
    threshold_indicator,
    tumor_area,
)
from gbmsim.metrics import _circumcircle, _hull, _row_end_points


def state_on(mesh, t=0.0, n=0.0, phi=0.0):
    nv = mesh.num_vertices
    return SimulationState(
        time=0.0,
        t_field=np.broadcast_to(np.asarray(t, float), (nv,)).copy(),
        n_field=np.broadcast_to(np.asarray(n, float), (nv,)).copy(),
        phi_field=np.broadcast_to(np.asarray(phi, float), (nv,)).copy(),
    )


def region_of(points):
    points = np.asarray(points, dtype=float)
    return ThresholdedRegion(
        indices=np.arange(len(points)), coordinates=points
    )


def brute_force_radius(points):
    """All pairs and triples, smallest valid enclosing circle."""
    pts = np.asarray(points, dtype=float)
    n = len(pts)
    if n == 1:
        return 0.0
    slack = 1.0 + 1e-12
    best = math.inf

    ii, jj = np.triu_indices(n, k=1)
    centers = (pts[ii] + pts[jj]) / 2.0
    radii = np.linalg.norm(pts[ii] - pts[jj], axis=1) / 2.0
    dists = np.linalg.norm(pts[None, :, :] - centers[:, None, :], axis=2)
    valid = (dists <= radii[:, None] * slack + 1e-12).all(axis=1)
    if valid.any():
        best = radii[valid].min()

    if n >= 3:
        ii, jj, kk = np.array(
            [(i, j, k) for i in range(n) for j in range(i + 1, n)
             for k in range(j + 1, n)]
        ).T
        a, b, c = pts[ii], pts[jj], pts[kk]
        d = 2.0 * (
            a[:, 0] * (b[:, 1] - c[:, 1])
            + b[:, 0] * (c[:, 1] - a[:, 1])
            + c[:, 0] * (a[:, 1] - b[:, 1])
        )
        ok = np.abs(d) > 1e-12
        a, b, c, d = a[ok], b[ok], c[ok], d[ok]
        a2 = (a**2).sum(axis=1)
        b2 = (b**2).sum(axis=1)
        c2 = (c**2).sum(axis=1)
        ux = (a2 * (b[:, 1] - c[:, 1]) + b2 * (c[:, 1] - a[:, 1])
              + c2 * (a[:, 1] - b[:, 1])) / d
        uy = (a2 * (c[:, 0] - b[:, 0]) + b2 * (a[:, 0] - c[:, 0])
              + c2 * (b[:, 0] - a[:, 0])) / d
        centers = np.column_stack([ux, uy])
        radii = np.linalg.norm(a - centers, axis=1)
        dists = np.linalg.norm(pts[None, :, :] - centers[:, None, :], axis=2)
        valid = (dists <= radii[:, None] * slack + 1e-12).all(axis=1)
        if valid.any():
            best = min(best, radii[valid].min())

    return best


# --- ring quotient ---------------------------------------------------------

def test_rq_all_proliferative():
    mesh = build_mesh((-9, 9, -9, 9), 6)
    state = state_on(mesh, t=0.3, n=0.0)
    assert ring_quotient(state, mesh) == 1.0


def test_rq_all_necrotic():
    mesh = build_mesh((-9, 9, -9, 9), 6)
    state = state_on(mesh, t=0.0, n=0.4)
    assert ring_quotient(state, mesh) == 0.0


def test_rq_constant_mixture():
    mesh = build_mesh((-9, 9, -9, 9), 6)
    state = state_on(mesh, t=0.2, n=0.3)
    assert ring_quotient(state, mesh) == pytest.approx(0.4, abs=1e-14)


def test_rq_empty_tumor_defined_as_one():
    mesh = build_mesh((-9, 9, -9, 9), 6)
    state = state_on(mesh, t=0.0, n=0.0)
    assert ring_quotient(state, mesh) == 1.0


def test_rq_tiny_domain_is_not_taken_for_an_empty_tumor():
    # The integrals are 2.5e-17 and 1e-16: small, but no tumor is missing.
    mesh = build_mesh((0, 1e-8, 0, 1e-8), 4)
    state = state_on(mesh, t=0.25, n=0.75)
    assert ring_quotient(state, mesh) == pytest.approx(0.25, rel=1e-14)


@settings(max_examples=100, deadline=None)
@given(scale=st.floats(1e-6, 1e6))
def test_rq_scale_invariant(scale):
    mesh = build_mesh((0, 1, 0, 1), 4)
    rng = np.random.default_rng(42)
    t = rng.random(mesh.num_vertices)
    n = rng.random(mesh.num_vertices)
    base = ring_quotient(SimulationState(0.0, t, n, 0 * t), mesh)
    scaled = ring_quotient(SimulationState(0.0, scale * t, scale * n, 0 * t), mesh)
    assert scaled == pytest.approx(base, abs=1e-12)


def test_rq_in_unit_interval_for_nonnegative_fields():
    mesh = build_mesh((0, 1, 0, 1), 5)
    rng = np.random.default_rng(1)
    for _ in range(50):
        t = rng.random(mesh.num_vertices)
        n = rng.random(mesh.num_vertices)
        rq = ring_quotient(SimulationState(0.0, t, n, 0 * t), mesh)
        assert 0.0 <= rq <= 1.0


# --- threshold indicator and area -----------------------------------------

def test_threshold_empty_and_full():
    mesh = build_mesh((-9, 9, -9, 9), 5)
    assert len(threshold_indicator(state_on(mesh), mesh)) == 0
    full = threshold_indicator(state_on(mesh, t=0.5), mesh)
    assert len(full) == mesh.num_vertices


def test_threshold_is_inclusive():
    mesh = build_mesh((0, 1, 0, 1), 1)
    state = state_on(mesh)
    state.t_field[2] = 0.001
    region = threshold_indicator(state, mesh)
    assert list(region.indices) == [2]


def test_threshold_monotone_in_theta():
    mesh = build_mesh((-9, 9, -9, 9), 15)
    rng = np.random.default_rng(2)
    state = state_on(mesh)
    state.t_field[:] = rng.random(mesh.num_vertices) * 0.01
    areas = [
        tumor_area(threshold_indicator(state, mesh, theta), mesh)
        for theta in (0.008, 0.004, 0.002, 0.001)
    ]
    assert all(a <= b + 1e-15 for a, b in zip(areas, areas[1:]))


def test_area_empty_and_full():
    mesh = build_mesh((-9, 9, -9, 9), 5)
    assert tumor_area(threshold_indicator(state_on(mesh), mesh), mesh) == 0.0
    full = threshold_indicator(state_on(mesh, t=1.0), mesh)
    assert tumor_area(full, mesh) == pytest.approx(324.0, abs=1e-12)


def test_area_single_interior_vertex():
    mesh = build_mesh((-9, 9, -9, 9), 45)
    state = state_on(mesh)
    state.t_field[mesh.vertex_index(20, 20)] = 0.001
    region = threshold_indicator(state, mesh)
    assert tumor_area(region, mesh) == pytest.approx(0.16, abs=1e-12)


# --- smallest enclosing circle ---------------------------------------------

def test_max_radius_single_point():
    assert max_radius(region_of([(0.0, 0.0)])) == 0.0


def test_max_radius_diameter_pair():
    assert max_radius(region_of([(0.0, 0.0), (1.0, 0.0)])) == pytest.approx(0.5)


def test_max_radius_equilateral_triangle():
    pts = [(0.0, 0.0), (1.0, 0.0), (0.5, math.sqrt(3) / 2)]
    expected = brute_force_radius(pts)
    assert expected == pytest.approx(1 / math.sqrt(3), abs=1e-12)
    assert max_radius(region_of(pts)) == pytest.approx(expected, abs=1e-12)


def test_max_radius_empty_region_errors():
    with pytest.raises(EmptyRegionError):
        max_radius(region_of(np.empty((0, 2))))


def test_max_radius_matches_brute_force_small_sets():
    rng = np.random.default_rng(9)
    for _ in range(40):
        n = rng.integers(1, 25)
        pts = rng.uniform(-5, 5, size=(n, 2))
        assert max_radius(region_of(pts)) == pytest.approx(
            brute_force_radius(pts), abs=1e-10
        )


def test_max_radius_collinear_points():
    pts = [(i * 1.0, 2.0) for i in range(7)]
    assert max_radius(region_of(pts)) == pytest.approx(3.0, abs=1e-12)


@pytest.mark.parametrize("pts", [
    [(0.0, 0.0), (1.0, 1e-300), (2.0, 0.0), (1.0, -1e-300)],
    [(0.0, 0.0), (1.0, 1e-320), (2.0, 0.0)],
    [(1.0, 1.0), (1.0, 1.0), (3.0, 1.0), (3.0, 1.0), (2.0, 4.0), (2.0, 4.0)],
    [(0.5, -2.0)] * 5,
    [(0.5, -2.0)],
    [(x, 0.25) for x in (3.0, -1.0, 0.5, 2.0, -1.0)],
    [(-1.0, -1.0), (1.0, 1.0), (0.0, 0.0), (0.5, 0.5), (-1.0, -1.0)],
])
def test_max_radius_nearly_collinear_and_repeated_points(pts):
    assert max_radius(region_of(pts)) == pytest.approx(
        brute_force_radius(pts), abs=1e-12
    )


@pytest.mark.parametrize("pts, radius", [
    # Cross products of these vertices underflow at the input's scale.
    ([(0.0, 0.0), (1e-170, 1e-170), (2e-170, 0.0)], 1e-170),
    ([(0.0, 0.0), (1e-10, 1e-320), (2e-10, 0.0)], 1e-10),
    ([(-0.25, 5e-324), (0.0, 0.0), (1e-4, 0.0), (0.0, 1e-310)], 0.12505),
    # ... or overflow.
    ([(0.0, 0.0), (1e300, 1e300), (2e300, 0.0)], 1e300),
    # A tiny acute triangle enclosed before the far point: its circumcircle's
    # products underflow at the input's scale.
    ([(1e-200, 0.0), (-1e-200, 0.0), (0.0, 1.5e-200), (0.0, -1.0)], 0.5),
    ([(-1e-200, 0.0), (1e-200, 0.0), (0.0, -1.5e-200), (0.0, 1.0)], 0.5),
])
def test_max_radius_at_extreme_scales(pts, radius):
    assert max_radius(region_of(pts)) == pytest.approx(radius, rel=1e-12)
    assert max_radius(region_of(np.asarray(pts)[:, ::-1])) == pytest.approx(
        radius, rel=1e-12
    )


def test_circumcircle_of_collinear_points_raises():
    # Unreachable from max_radius: no three hull vertices are collinear.
    with pytest.raises(SimulationError, match="collinear"):
        _circumcircle((0.0, 0.0), (1.0, 1.0), (3.0, 3.0))


@pytest.mark.parametrize("pts, hull", [
    ([(2.0, 1.0)], [(2.0, 1.0)]),
    ([(0.0, 0.0), (1.0, 0.0)], [(0.0, 0.0), (1.0, 0.0)]),
    ([(0.0, 0.0), (1.0, 0.0), (2.0, 0.0), (3.0, 0.0)], [(0.0, 0.0), (3.0, 0.0)]),
    ([(0.0, 0.0), (2.0, 0.0), (1.0, 1.0), (0.0, 2.0), (2.0, 2.0)],
     [(0.0, 0.0), (2.0, 0.0), (2.0, 2.0), (0.0, 2.0)]),
])
def test_hull_is_counterclockwise_without_collinear_vertices(pts, hull):
    assert [tuple(p) for p in _hull(_row_end_points(pts).tolist())] == hull


@st.composite
def grid_regions(draw):
    """A random vertex subset of a small grid with non-square cells, or one
    whole grid row, one whole column, or a single vertex of it."""
    n_sub = draw(st.integers(1, 5))
    x0, y0 = draw(st.floats(-9, 9)), draw(st.floats(-9, 9))
    width, height = draw(st.floats(0.5, 9)), draw(st.floats(0.5, 9))
    mesh = build_mesh((x0, x0 + width, y0, y0 + height), n_sub)
    iy, ix = np.divmod(np.arange(mesh.num_vertices), n_sub + 1)
    shape = draw(st.sampled_from(["random", "row", "column", "vertex"]))
    if shape == "random":
        mask = np.array(draw(st.lists(
            st.booleans(), min_size=mesh.num_vertices,
            max_size=mesh.num_vertices,
        ).filter(any)))
    elif shape == "row":
        mask = iy == draw(st.integers(0, n_sub))
    elif shape == "column":
        mask = ix == draw(st.integers(0, n_sub))
    else:
        mask = np.arange(mesh.num_vertices) == draw(
            st.integers(0, mesh.num_vertices - 1)
        )
    return mesh.vertices[mask], ix[mask], iy[mask]


@settings(max_examples=150, deadline=None)
@given(grid_regions())
def test_row_end_filter_keeps_the_circle_and_the_hull(region):
    pts, ix, iy = region
    assert max_radius(region_of(pts)) == pytest.approx(
        brute_force_radius(pts), abs=1e-12
    )
    kept = {tuple(p) for p in _row_end_points(pts).tolist()}
    assert len(kept) <= 2 * len(np.unique(iy))
    # Collinearity is decided on the integer grid indices, where it is exact.
    di, dj = ix - ix[0], iy - iy[0]
    if np.any(np.outer(di, dj) != np.outer(dj, di)):
        expected = {tuple(p) for p in pts[ConvexHull(pts).vertices].tolist()}
        assert expected <= kept
        # On the grid indices the chain's arithmetic is exact: it keeps
        # exactly the hull vertices, each once.
        grid = np.column_stack((ix, iy))
        hull = _hull(_row_end_points(grid).tolist())
        assert sorted(map(tuple, hull)) == sorted(
            map(tuple, grid[ConvexHull(grid).vertices].tolist())
        )
        # On the coordinates, rounding may keep a vertex that lies on a hull
        # edge of the grid, but it drops no hull vertex.
        assert expected <= {tuple(p) for p in _hull(_row_end_points(pts).tolist())}


# --- surface quotient -------------------------------------------------------

def test_sq_two_distant_blobs():
    # two single-vertex blobs 8 apart on a 0.4-cell grid
    mesh = build_mesh((-8, 8, -8, 8), 40)
    state = state_on(mesh)
    state.t_field[mesh.vertex_index(10, 20)] = 0.5   # (-4, 0)
    state.t_field[mesh.vertex_index(30, 20)] = 0.5   # (+4, 0)
    expected = (2 * 0.16) / (math.pi * 16.0)
    assert surface_quotient(state, mesh) == pytest.approx(expected, abs=1e-12)


def test_sq_sub_resolution_blob_is_regular():
    mesh = build_mesh((-9, 9, -9, 9), 45)
    state = state_on(mesh)
    state.t_field[mesh.vertex_index(7, 31)] = 0.7
    assert surface_quotient(state, mesh) == 1.0


def test_sq_empty_region_errors():
    mesh = build_mesh((-9, 9, -9, 9), 5)
    with pytest.raises(EmptyRegionError):
        surface_quotient(state_on(mesh), mesh)


def test_sq_disc_approaches_one_under_refinement():
    values = []
    for n_sub in (30, 60, 120):
        mesh = build_mesh((-9, 9, -9, 9), n_sub)
        state = state_on(mesh)
        dist = np.linalg.norm(mesh.vertices, axis=1)
        state.t_field[dist <= 4.0] = 1.0
        values.append(surface_quotient(state, mesh))
    assert abs(values[-1] - 1.0) <= abs(values[0] - 1.0) + 1e-12
    assert values[-1] == pytest.approx(1.0, abs=0.05)


# --- density integrals -------------------------------------------------------

def test_sample_densities_are_lumped_integrals():
    mesh = build_mesh((-9, 9, -9, 9), 6)
    state = state_on(mesh, t=1.0, n=0.25, phi=0.5)
    sample = compute_sample(state, mesh)
    total = state.t_field + state.n_field
    assert sample.tumor_density == lumped_integral(mesh, state.t_field)
    assert sample.total_tn_density == lumped_integral(mesh, total)
    assert sample.phi_density == lumped_integral(mesh, state.phi_field)
    assert sample.tumor_density == pytest.approx(324.0, abs=1e-12)
    assert sample.total_tn_density == pytest.approx(
        sample.tumor_density + lumped_integral(mesh, state.n_field), abs=1e-12
    )
    assert sample.phi_density == pytest.approx(162.0, abs=1e-12)
    assert sample.rq == ring_quotient(state, mesh)


def test_total_density_zero_state():
    mesh = build_mesh((-9, 9, -9, 9), 4)
    state = state_on(mesh)
    sample = compute_sample(state, mesh)
    assert sample.tumor_density == sample.total_tn_density == 0.0
    assert sample.rq == ring_quotient(state, mesh) == 1.0


# --- composed sample ---------------------------------------------------------

def test_compute_sample_empty_region_uses_nan():
    mesh = build_mesh((-9, 9, -9, 9), 5)
    sample = compute_sample(state_on(mesh), mesh)
    assert sample.rq == 1.0
    assert sample.area == 0.0
    assert math.isnan(sample.sq) and math.isnan(sample.r_max)


def test_compute_sample_round_blob():
    mesh = build_mesh((-9, 9, -9, 9), 45)
    state = state_on(mesh)
    dist = np.linalg.norm(mesh.vertices, axis=1)
    state.t_field[dist <= 3.0] = 0.5
    sample = compute_sample(state, mesh)
    assert sample.rq == 1.0
    assert 0.8 <= sample.sq <= 1.1
    assert sample.r_max == pytest.approx(dist[dist <= 3.0].max(), abs=1e-12)
