"""Morphometric observable tests.

max_radius is verified against the vectorized O(n^3) oracle of
``circle_oracle``, which criterion 10 shares.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import ConvexHull

from gbmsim import (
    DEFAULT_THRESHOLD,
    EmptyRegionError,
    InvalidParameterError,
    SimulationError,
    SimulationState,
    build_mesh,
    compute_sample,
    lumped_integral,
    max_radius,
    scenario_ring_width,
)
from gbmsim.metrics import _circumcircle, _hull, _row_end_points, check_threshold

from circle_oracle import brute_force_radius


def state_on(mesh, t=0.0, n=0.0, phi=0.0):
    nv = mesh.num_vertices
    return SimulationState(
        time=0.0,
        t_field=np.broadcast_to(np.asarray(t, float), (nv,)).copy(),
        n_field=np.broadcast_to(np.asarray(n, float), (nv,)).copy(),
        phi_field=np.broadcast_to(np.asarray(phi, float), (nv,)).copy(),
    )


def region_of(points):
    return np.asarray(points, dtype=float).reshape(-1, 2)


def definition_rq(state, mesh):
    """RQ from its definition: the integral of T over that of T + N, or 1
    when the latter is exactly 0."""
    total = lumped_integral(mesh, state.t_field + state.n_field)
    return lumped_integral(mesh, state.t_field) / total if total != 0.0 else 1.0


# --- ring quotient ---------------------------------------------------------

def test_rq_all_proliferative():
    mesh = build_mesh((-9, 9, -9, 9), 6)
    state = state_on(mesh, t=0.3, n=0.0)
    assert compute_sample(state, mesh).rq == 1.0


def test_rq_all_necrotic():
    mesh = build_mesh((-9, 9, -9, 9), 6)
    state = state_on(mesh, t=0.0, n=0.4)
    assert compute_sample(state, mesh).rq == 0.0


def test_rq_constant_mixture():
    mesh = build_mesh((-9, 9, -9, 9), 6)
    state = state_on(mesh, t=0.2, n=0.3)
    assert compute_sample(state, mesh).rq == pytest.approx(0.4, abs=1e-14)


def test_rq_empty_tumor_defined_as_one():
    mesh = build_mesh((-9, 9, -9, 9), 6)
    state = state_on(mesh, t=0.0, n=0.0)
    assert compute_sample(state, mesh).rq == 1.0


def test_rq_tiny_domain_is_not_taken_for_an_empty_tumor():
    # The integrals are 2.5e-17 and 1e-16: small, but no tumor is missing.
    mesh = build_mesh((0, 1e-8, 0, 1e-8), 4)
    state = state_on(mesh, t=0.25, n=0.75)
    assert compute_sample(state, mesh).rq == pytest.approx(0.25, rel=1e-14)


@settings(max_examples=100, deadline=None)
@given(scale=st.floats(1e-6, 1e6))
def test_rq_scale_invariant(scale):
    mesh = build_mesh((0, 1, 0, 1), 4)
    rng = np.random.default_rng(42)
    t = rng.random(mesh.num_vertices)
    n = rng.random(mesh.num_vertices)
    base = compute_sample(SimulationState(0.0, t, n, 0 * t), mesh).rq
    scaled = compute_sample(
        SimulationState(0.0, scale * t, scale * n, 0 * t), mesh
    ).rq
    assert scaled == pytest.approx(base, abs=1e-12)


def test_rq_in_unit_interval_for_nonnegative_fields():
    mesh = build_mesh((0, 1, 0, 1), 5)
    rng = np.random.default_rng(1)
    for _ in range(50):
        t = rng.random(mesh.num_vertices)
        n = rng.random(mesh.num_vertices)
        rq = compute_sample(SimulationState(0.0, t, n, 0 * t), mesh).rq
        assert 0.0 <= rq <= 1.0


# --- thresholded region and area -------------------------------------------

def test_threshold_empty_and_full():
    mesh = build_mesh((-9, 9, -9, 9), 5)
    assert compute_sample(state_on(mesh), mesh).area == 0.0
    full = compute_sample(state_on(mesh, t=0.5), mesh)
    assert full.area == mesh.lumped_weights.sum()


def test_threshold_is_inclusive():
    mesh = build_mesh((0, 1, 0, 1), 1)
    state = state_on(mesh)
    state.t_field[2] = 0.001
    sample = compute_sample(state, mesh)
    assert sample.area == mesh.lumped_weights[2]
    assert sample.r_max == 0.0


def test_threshold_monotone_in_theta():
    mesh = build_mesh((-9, 9, -9, 9), 15)
    rng = np.random.default_rng(2)
    state = state_on(mesh)
    state.t_field[:] = rng.random(mesh.num_vertices) * 0.01
    areas = [
        compute_sample(state, mesh, theta).area
        for theta in (0.008, 0.004, 0.002, 0.001)
    ]
    assert all(a <= b + 1e-15 for a, b in zip(areas, areas[1:]))


def test_area_empty_and_full():
    mesh = build_mesh((-9, 9, -9, 9), 5)
    assert compute_sample(state_on(mesh), mesh).area == 0.0
    full = compute_sample(state_on(mesh, t=1.0), mesh)
    assert full.area == pytest.approx(324.0, abs=1e-12)


def test_area_single_interior_vertex():
    mesh = build_mesh((-9, 9, -9, 9), 45)
    state = state_on(mesh)
    state.t_field[mesh.vertex_index(20, 20)] = 0.001
    assert compute_sample(state, mesh).area == pytest.approx(0.16, abs=1e-12)


@pytest.mark.parametrize("theta", [-1.0, 0.0, math.nan, math.inf])
@pytest.mark.parametrize("observable", [
    compute_sample,
    lambda state, mesh, theta: replace(scenario_ring_width(), theta=theta),
], ids=["compute_sample", "scenario"])
def test_metrics_reject_theta_like_the_config(observable, theta):
    scenario = scenario_ring_width()
    mesh = scenario.build_mesh()
    with pytest.raises(InvalidParameterError) as expected:
        check_threshold(theta)
    with pytest.raises(InvalidParameterError) as info:
        observable(scenario.initial_state(mesh), mesh, theta)
    assert str(info.value) == str(expected.value)


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


@pytest.mark.parametrize("points, message", [
    ([[math.nan, 0.0]], "points must be finite"),
    ([[math.inf, 0.0], [0.0, 0.0]], "points must be finite"),
    ([[0.0, 0.0, 5.0], [2.0, 0.0, 5.0], [0.0, 2.0, 5.0]],
     r"points has shape \(3, 3\), not \(n, 2\)"),
    ([[0.0], [1.0]], r"points has shape \(2, 1\), not \(n, 2\)"),
    ([0.0, 1.0], r"points has shape \(2,\), not \(n, 2\)"),
])
def test_max_radius_rejects_anything_but_finite_points_in_the_plane(
    points, message
):
    with pytest.raises(InvalidParameterError, match=message):
        max_radius(points)


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
    assert compute_sample(state, mesh).sq == pytest.approx(expected, abs=1e-12)


def test_sq_sub_resolution_blob_is_regular():
    mesh = build_mesh((-9, 9, -9, 9), 45)
    state = state_on(mesh)
    state.t_field[mesh.vertex_index(7, 31)] = 0.7
    assert compute_sample(state, mesh).sq == 1.0


def test_sq_disc_approaches_one_under_refinement():
    values = []
    for n_sub in (30, 60, 120):
        mesh = build_mesh((-9, 9, -9, 9), n_sub)
        state = state_on(mesh)
        dist = np.linalg.norm(mesh.vertices, axis=1)
        state.t_field[dist <= 4.0] = 1.0
        values.append(compute_sample(state, mesh).sq)
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
    assert sample.rq == definition_rq(state, mesh)


def test_total_density_zero_state():
    mesh = build_mesh((-9, 9, -9, 9), 4)
    state = state_on(mesh)
    sample = compute_sample(state, mesh)
    assert sample.tumor_density == sample.total_tn_density == 0.0
    assert sample.rq == definition_rq(state, mesh) == 1.0


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


def test_sample_matches_the_definitions():
    # Every field of the sample against the formulas written out here, on
    # random states with vertices set exactly to theta and just below it; a
    # theta down to 1e-300 makes the integral of T + N tiny but not 0.
    rng = np.random.default_rng(2020)
    preset_bounds = scenario_ring_width().bounds
    cases = []
    for k in range(40):
        if k % 4 == 0:
            bounds = preset_bounds
        else:
            x0, y0 = rng.uniform(-9, 9, size=2)
            w, h = rng.uniform(0.5, 9, size=2)
            bounds = (x0, x0 + w, y0, y0 + h)
        mesh = build_mesh(bounds, int(rng.integers(1, 9)))
        theta = float(rng.choice(
            [0.001, rng.uniform(0.001, 0.3), 10.0 ** rng.uniform(-300, -3)]
        ))
        nv = mesh.num_vertices
        t = rng.uniform(0.0, 1.2 * theta, nv)
        n = rng.uniform(0.0, 0.6 * theta, nv)
        on, below = rng.choice(nv, size=(2, max(1, nv // 5)), replace=True)
        t[on], n[on] = theta, 0.0
        t[below], n[below] = np.nextafter(theta, 0.0), 0.0
        phi = rng.random(nv)
        cases.append((mesh, SimulationState(0.0, t, n, phi), theta))
    mesh = build_mesh(preset_bounds, 8)
    cases.append((mesh, state_on(mesh), DEFAULT_THRESHOLD))
    single = state_on(mesh, phi=0.5)
    single.n_field[mesh.vertex_index(3, 5)] = DEFAULT_THRESHOLD
    cases.append((mesh, single, DEFAULT_THRESHOLD))
    # Neighbours along the short and the long cell edge: enclosing radii
    # below and at half the longest cell edge.
    mesh = build_mesh((0, 1, 0, 0.8), 4)
    for neighbour in (mesh.vertex_index(2, 3), mesh.vertex_index(3, 2)):
        pair = state_on(mesh)
        pair.t_field[[mesh.vertex_index(2, 2), neighbour]] = 0.5
        cases.append((mesh, pair, DEFAULT_THRESHOLD))

    for mesh, state, theta in cases:
        sample = compute_sample(state, mesh, theta)
        total = state.t_field + state.n_field
        inside = [v for v in range(mesh.num_vertices) if total[v] >= theta]
        area = math.fsum(mesh.lumped_weights[v] for v in inside)
        assert sample.area == pytest.approx(area, rel=1e-12, abs=0.0)
        if inside:
            radius = brute_force_radius(mesh.vertices[inside])
            assert sample.r_max == pytest.approx(radius, rel=0.0, abs=1e-12)
            # The rule is applied to the sample's radius, so that a radius
            # within rounding of half a cell edge cannot flip it.
            if sample.r_max < mesh.cell_edge / 2.0:
                assert sample.sq == 1.0
            else:
                assert sample.sq == pytest.approx(
                    area / (math.pi * sample.r_max**2), rel=1e-12
                )
        else:
            assert math.isnan(sample.r_max) and math.isnan(sample.sq)
        assert sample.rq == definition_rq(state, mesh)
        assert sample.tumor_density == lumped_integral(mesh, state.t_field)
        assert sample.total_tn_density == lumped_integral(mesh, total)
        assert sample.phi_density == lumped_integral(mesh, state.phi_field)
