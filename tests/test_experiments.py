"""Scenario presets, initial conditions, and the sweep harness."""

import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gbmsim import (
    BumpSpec,
    InvalidParameterError,
    MeshError,
    PARAMETER_RANGES,
    SolverConfig,
    ZoneSpec,
    ZonedVasculature,
    build_mesh,
    compute_sample,
    default_sweep_values,
    lumped_integral,
    run,
    scenario_ring_width,
    scenario_surface_regularity,
    sweep_runs,
)
from gbmsim import SimulationState
from gbmsim.cli import main
from gbmsim.experiments import DEFAULT_ZONES

PRESET_TABLE = {
    "kappa1": 55.0,
    "alpha": 45.0,
    "beta1": 27.5,
    "beta2": 2.55,
    "gamma": 0.255,
    "delta": 2.55,
}
RANGE_TABLE = {
    "kappa1": (10.0, 100.0),
    "alpha": (10.0, 100.0),
    "beta1": (5.0, 50.0),
    "beta2": (0.1, 5.0),
    "gamma": (0.01, 0.5),
    "delta": (0.1, 5.0),
}


@pytest.mark.parametrize("name,value", sorted(PRESET_TABLE.items()))
def test_preset_fixed_values(name, value):
    ring = scenario_ring_width()
    surface = scenario_surface_regularity()
    assert getattr(ring.params, name) == value
    assert getattr(surface.params, name) == value


@pytest.mark.parametrize("name,bounds", sorted(RANGE_TABLE.items()))
def test_preset_ranges(name, bounds):
    assert PARAMETER_RANGES[name] == bounds
    lo, fixed, hi = default_sweep_values(name)
    assert (lo, hi) == bounds
    assert fixed == PRESET_TABLE[name]


def test_ring_scenario_defaults():
    scenario = scenario_ring_width()
    assert scenario.bounds == (-9.0, 9.0, -9.0, 9.0)
    assert scenario.n_sub == 45
    assert scenario.solver.dt == 1e-3
    assert scenario.necrosis_level == 0.0
    assert scenario.vasculature_ic.base_level == 0.5
    assert scenario.vasculature_ic.zones == ()


def test_ring_scenario_override():
    scenario = scenario_ring_width()
    edited = replace(scenario, params=replace(scenario.params, alpha=100.0))
    assert edited.params.alpha == 100.0
    assert edited.params.kappa1 == 55.0
    assert scenario.params.alpha == 45.0
    for endpoint in PARAMETER_RANGES["kappa1"]:
        replace(scenario, params=replace(scenario.params, kappa1=endpoint))


def test_scenario_construction_is_pure():
    assert scenario_ring_width() == scenario_ring_width()
    assert scenario_surface_regularity() == scenario_surface_regularity()


def test_surface_scenario_zoned_ic():
    scenario = scenario_surface_regularity()
    assert scenario.params.delta == 2.55
    mesh = scenario.build_mesh()
    state = scenario.initial_state(mesh)
    assert len(np.unique(state.phi_field)) >= 2


def test_tumor_ic_bump_shape():
    mesh = build_mesh((-9, 9, -9, 9), 90)  # center is a grid vertex here
    field = BumpSpec((0.0, 0.0), 3.0, 0.5).field(mesh)
    center = mesh.vertex_index(45, 45)
    assert field[center] == pytest.approx(0.5)
    dist = np.linalg.norm(mesh.vertices, axis=1)
    assert np.all(field[dist > 3.0] == 0.0)
    # grid-aligned radial symmetry
    assert field[mesh.vertex_index(50, 45)] == pytest.approx(
        field[mesh.vertex_index(45, 50)], abs=1e-15
    )


def test_tumor_ic_integral_nondegenerate():
    scenario = scenario_ring_width()
    mesh = scenario.build_mesh()
    state = scenario.initial_state(mesh)
    mass = lumped_integral(mesh, state.t_field)
    assert 0.0 < mass < mesh.area


def full_field_bump(mesh, center, radius, peak):
    """The bump evaluated at every vertex: the oracle for the bounding box."""
    dx = mesh.vertices[:, 0] - center[0]
    dy = mesh.vertices[:, 1] - center[1]
    dist_sq = dx * dx + dy * dy
    sigma = radius / 3.0
    values = peak * np.exp(-dist_sq / (2.0 * sigma * sigma))
    return np.where(dist_sq <= radius * radius, values, 0.0)


@pytest.mark.parametrize("diagonal", ["main", "anti"])
@pytest.mark.parametrize("bounds, n_sub", [
    ((-9, 9, -9, 9), 45),
    ((-9, 9, -9, 9), 180),
    ((-3.3, 7.1, 0.2, 9.9), 17),
])
def test_tumor_bump_box_matches_the_full_field(bounds, n_sub, diagonal):
    mesh = build_mesh(bounds, n_sub, diagonal)
    xmin, xmax, ymin, ymax = bounds
    cell = max(xmax - xmin, ymax - ymin) / n_sub
    span = max(xmax - xmin, ymax - ymin)
    centers = [(x, y) for x in (xmin, (xmin + xmax) / 2, xmax)
               for y in (ymin, 0.3 * ymin + 0.7 * ymax, ymax)]
    for center in centers:
        for radius in (0.3 * cell, cell, 3.0, span / 3, 2 * span):
            np.testing.assert_array_equal(
                BumpSpec(center, radius, 0.5).field(mesh),
                full_field_bump(mesh, center, radius, 0.5),
            )


@settings(max_examples=150, deadline=None)
@given(
    x0=st.floats(-50, 50), y0=st.floats(-50, 50),
    width=st.floats(0.01, 40), height=st.floats(0.01, 40),
    n_sub=st.integers(1, 40), u=st.floats(0, 1), v=st.floats(0, 1),
    r=st.floats(1e-3, 2.0), peak=st.floats(0.01, 1.0),
)
def test_tumor_bump_box_matches_the_full_field_on_random_discs(
    x0, y0, width, height, n_sub, u, v, r, peak
):
    mesh = build_mesh((x0, x0 + width, y0, y0 + height), n_sub)
    center = (x0 + u * width, y0 + v * height)
    radius = r * max(width, height)
    np.testing.assert_array_equal(
        BumpSpec(center, radius, peak).field(mesh),
        full_field_bump(mesh, center, radius, peak),
    )


@pytest.mark.parametrize("radius", [1e300, 1e308])
def test_tumor_bump_with_a_huge_radius_is_its_peak_everywhere(radius):
    # At 1e308 both ends of the box are infinite before they are clipped.
    mesh = build_mesh((-9, 9, -9, 9), 45)
    assert np.all(BumpSpec(radius=radius).field(mesh) == 0.5)


def test_tumor_ic_rejects_outside_center():
    # the bump and the scenario give one message for one rule
    mesh = build_mesh((-9, 9, -9, 9), 10)
    message = r"^tumor center \(12.0, 0.0\) outside domain \(-9.0, 9.0, -9.0, 9.0\)$"
    with pytest.raises(InvalidParameterError, match=message):
        BumpSpec((12.0, 0.0), 3.0, 0.5).field(mesh)
    with pytest.raises(InvalidParameterError, match=message):
        replace(scenario_ring_width(), tumor_ic=BumpSpec((12.0, 0.0)))


# The last two are not pairs of real numbers.
@pytest.mark.parametrize(
    "center", [(float("nan"), 0.0), (0.0, float("inf")), np.zeros((2, 2)), ("a", "b")]
)
def test_tumor_ic_rejects_non_finite_center(center):
    with pytest.raises(InvalidParameterError, match="^tumor center must be finite"):
        BumpSpec(center)


@pytest.mark.parametrize("center", [(0.0,), (0.0, 0.0, 0.0), 0.0])
def test_tumor_ic_rejects_center_that_is_not_a_pair(center):
    message = rf"^tumor center must be a pair \(x, y\), got {re.escape(repr(center))}$"
    with pytest.raises(InvalidParameterError, match=message):
        BumpSpec(center)


def test_tumor_ic_rejects_radius_that_is_not_a_real_number():
    with pytest.raises(InvalidParameterError, match="^bump radius must be finite, got '3'$"):
        BumpSpec(radius="3")


def test_scenario_rejects_empty_grid_when_built():
    with pytest.raises(MeshError, match="^n_sub must be >= 1, got 0$"):
        replace(scenario_ring_width(), n_sub=0)


def test_scenario_rejects_non_integer_grid_when_built():
    with pytest.raises(MeshError, match=r"^n_sub must be an integer, got 2\.5$"):
        replace(scenario_ring_width(), n_sub=2.5)
    assert replace(scenario_ring_width(), n_sub=np.int64(5)).build_mesh().n_sub == 5


def test_uniform_vasculature_levels():
    mesh = build_mesh((-9, 9, -9, 9), 9)
    assert np.all(ZonedVasculature(0.5, ()).field(mesh) == 0.5)
    assert np.all(ZonedVasculature(0.0, ()).field(mesh) == 0.0)
    assert lumped_integral(mesh, ZonedVasculature(0.5, ()).field(mesh)) == pytest.approx(
        0.5 * 324.0, abs=1e-12
    )
    with pytest.raises(InvalidParameterError):
        ZonedVasculature(1.5, ())


def test_zoned_vasculature_empty_list_is_uniform():
    mesh = build_mesh((-9, 9, -9, 9), 9)
    assert np.all(ZonedVasculature(0.2, []).field(mesh) == 0.2)


def test_zoned_vasculature_disc_integral():
    mesh = build_mesh((-9, 9, -9, 9), 45)
    zone = ZoneSpec(center=(0.0, 0.0), radius=3.0, level=0.8)
    field = ZonedVasculature(0.2, [zone]).field(mesh)
    # lumped area of the disc vertices, measured independently
    indicator = SimulationState(
        0.0,
        np.where(field == 0.8, 1.0, 0.0),
        np.zeros(mesh.num_vertices),
        np.zeros(mesh.num_vertices),
    )
    disc_area = compute_sample(indicator, mesh, 0.5).area
    expected = 0.2 * 324.0 + 0.6 * disc_area
    assert lumped_integral(mesh, field) == pytest.approx(expected, abs=1e-10)


def test_zoned_vasculature_overlap_precedence():
    mesh = build_mesh((-9, 9, -9, 9), 20)
    zones = [
        ZoneSpec(center=(0.0, 0.0), radius=4.0, level=0.9),
        ZoneSpec(center=(1.0, 0.0), radius=2.0, level=0.1),
    ]
    field = ZonedVasculature(0.3, zones).field(mesh)
    idx = mesh.vertex_index(11, 10)  # (0.9, 0) lies in both discs
    assert field[idx] == 0.1


def full_field_zones(mesh, base_level, zones):
    """Every zone tests every vertex: the oracle for the bounding-box loop."""
    field = np.full(mesh.num_vertices, float(base_level))
    for zone in zones:
        dx = mesh.vertices[:, 0] - zone.center[0]
        dy = mesh.vertices[:, 1] - zone.center[1]
        field[dx * dx + dy * dy <= zone.radius * zone.radius] = zone.level
    return field


def edge_zones(bounds, cell):
    """Discs centered on the corners, the edge midpoints and points beyond
    the edges, with radii from a fraction of a cell to more than the domain."""
    xmin, xmax, ymin, ymax = bounds
    xs = (xmin - 2 * cell, xmin, (xmin + xmax) / 2, xmax, xmax + 0.5 * cell)
    ys = (ymin - 0.5 * cell, ymin, (ymin + ymax) / 2, ymax, ymax + 2 * cell)
    span = max(xmax - xmin, ymax - ymin)
    radii = (0.3 * cell, cell, 2.5 * cell, span / 3, 2 * span)
    return [
        ZoneSpec(center=(x, y), radius=r, level=(k % 10) / 10)
        for k, (x, y, r) in enumerate(
            (x, y, r) for x in xs for y in ys for r in radii
        )
    ]


def vertex_zones(mesh):
    """Discs centered on a vertex that pass exactly through the vertex k cells
    away along its grid row or column."""
    m = mesh.n_sub + 1
    grid = mesh.vertices.reshape(m, m, 2)
    zones = []
    for i in range(0, m, max(1, m // 7)):
        j = (3 * i) % m
        for k in {1, 2, 3, 5, 8, 13, m // 2, m - 1}:
            for di, dj in ((k, 0), (-k, 0), (0, k), (0, -k)):
                if 0 <= i + di < m and 0 <= j + dj < m:
                    center = grid[j, i]
                    radius = float(np.abs(grid[j + dj, i + di] - center).max())
                    zones.append(ZoneSpec(tuple(center), radius, level=0.9))
    return zones


@pytest.mark.parametrize("diagonal", ["main", "anti"])
@pytest.mark.parametrize("bounds, n_sub", [
    ((-9.0, 9.0, -9.0, 9.0), 45),
    ((-9.0, 9.0, -9.0, 9.0), 180),
    ((-3.0, 7.5, 1.0, 2.2), 17),
    ((0.1, 0.4, -50.0, 20.0), 9),
    ((-1.0, 1.0, -1.0, 1.0), 1),
])
def test_zone_boxes_match_the_full_field(bounds, n_sub, diagonal):
    mesh = build_mesh(bounds, n_sub, diagonal)
    cell = max(bounds[1] - bounds[0], bounds[3] - bounds[2]) / n_sub
    single = [[zone] for zone in vertex_zones(mesh)]
    for zones in (DEFAULT_ZONES, edge_zones(bounds, cell), *single):
        expected = full_field_zones(mesh, 0.4, zones)
        np.testing.assert_array_equal(ZonedVasculature(0.4, zones).field(mesh), expected)


@settings(max_examples=150, deadline=None)
@given(
    x0=st.floats(-50, 50), y0=st.floats(-50, 50),
    width=st.floats(0.01, 40), height=st.floats(0.01, 40),
    n_sub=st.integers(1, 40), diagonal=st.sampled_from(["main", "anti"]),
    discs=st.lists(
        st.tuples(st.floats(-1.5, 2.5), st.floats(-1.5, 2.5), st.floats(1e-3, 2.0)),
        min_size=1, max_size=4,
    ),
)
def test_zone_boxes_match_the_full_field_on_random_discs(
    x0, y0, width, height, n_sub, diagonal, discs
):
    """Disc centers and radii are drawn relative to the domain, so discs lie
    inside, across the edges and wholly beyond them."""
    mesh = build_mesh((x0, x0 + width, y0, y0 + height), n_sub, diagonal)
    span = max(width, height)
    zones = [
        ZoneSpec(center=(x0 + u * width, y0 + v * height), radius=r * span, level=0.7)
        for u, v, r in discs
    ]
    np.testing.assert_array_equal(
        ZonedVasculature(0.1, zones).field(mesh), full_field_zones(mesh, 0.1, zones)
    )


@pytest.mark.parametrize("center, radius, message", [
    ((0.0, 0.0), float("inf"), "zone radius must be finite, got inf"),
    ((float("nan"), 0.0), 1.0, "zone center must be finite, got nan"),
    ((0.0, -float("inf")), 1.0, "zone center must be finite, got -inf"),
])
def test_zone_rejects_non_finite_center_and_radius(center, radius, message):
    with pytest.raises(InvalidParameterError, match=message):
        ZoneSpec(center=center, radius=radius, level=0.5)


@pytest.mark.parametrize("center", [(0.0,), (0.0, 0.0, 0.0), 0.0])
def test_zone_rejects_center_that_is_not_a_pair(center):
    message = rf"^zone center must be a pair \(x, y\), got {re.escape(repr(center))}$"
    with pytest.raises(InvalidParameterError, match=message):
        ZoneSpec(center=center, radius=1.0, level=0.5)


def test_zone_rejects_level_outside_unit_interval():
    with pytest.raises(InvalidParameterError, match=r"zone level must lie in \[0, 1\], got 1.5"):
        ZoneSpec(center=(0.0, 0.0), radius=1.0, level=1.5)


LEVEL_HOLDERS = {
    "zone": lambda level: ZoneSpec(center=(0.0, 0.0), radius=1.0, level=level),
    "vasculature": lambda level: ZonedVasculature(level, ()),
    "necrosis": lambda level: replace(scenario_ring_width(), necrosis_level=level),
}


@pytest.mark.parametrize("level", ["0.5", None, np.zeros(2)], ids=["text", "None", "array"])
@pytest.mark.parametrize("kind", list(LEVEL_HOLDERS))
def test_levels_reject_a_level_that_is_not_a_real_number(kind, level):
    message = rf"^{kind} level must be finite, got {re.escape(repr(level))}$"
    with pytest.raises(InvalidParameterError, match=message):
        LEVEL_HOLDERS[kind](level)


@pytest.mark.parametrize(
    "bounds", [(0.0, 1.0, 0.0), (0.0, 1.0, 0.0, 1.0, 2.0)], ids=["three", "five"]
)
def test_bounds_of_the_wrong_length_rejected(bounds):
    message = rf"^bounds must be \(xmin, xmax, ymin, ymax\), got {re.escape(repr(bounds))}$"
    with pytest.raises(MeshError, match=message):
        build_mesh(bounds, 2)
    with pytest.raises(MeshError, match=message):
        replace(scenario_ring_width(), bounds=bounds)
    with pytest.raises(MeshError, match=message):
        BumpSpec().check_within(bounds)


def test_zone_outside_domain_rejected():
    scenario = scenario_surface_regularity()
    bad = ZonedVasculature(
        base_level=0.1,
        zones=(ZoneSpec(center=(8.0, 0.0), radius=3.0, level=0.5),),
    )
    with pytest.raises(InvalidParameterError):
        replace(scenario, vasculature_ic=bad)


@pytest.mark.parametrize("zone", [1, (0.0, 0.0, 1.0, 0.5), None])
def test_zoned_vasculature_rejects_a_zone_that_is_not_a_zone_spec(zone):
    message = rf"^zone must be a ZoneSpec, got {re.escape(repr(zone))}$"
    with pytest.raises(InvalidParameterError, match=message):
        ZonedVasculature(0.5, (DEFAULT_ZONES[0], zone))


def test_sweep_single_value_matches_direct_run():
    scenario = scenario_ring_width()
    scenario = replace(
        scenario, n_sub=8, solver=replace(scenario.solver, t_final=0.02)
    )
    series = {v: r.metrics for v, r in sweep_runs(scenario, "alpha", [45.0])}
    direct = run(scenario).metrics
    assert series[45.0] == direct


def test_run_samples_with_the_scenario_threshold():
    scenario = replace(scenario_ring_width(), n_sub=8, theta=0.3)
    result = run(replace(scenario, solver=SolverConfig(t_final=0.002)))
    # Two steps: the samples and the snapshots are both at t = 0 and the end.
    samples = [compute_sample(s, result.mesh, 0.3) for s in result.snapshots]
    assert result.metrics == samples
    assert samples[0] != compute_sample(result.snapshots[0], result.mesh, 0.001)


def test_sweep_runs_inherit_the_scenario_threshold():
    scenario = replace(
        scenario_ring_width(), n_sub=8, theta=0.3, solver=SolverConfig(t_final=0.002)
    )
    [(value, result)] = sweep_runs(scenario, "alpha", [45.0])
    assert value == 45.0
    assert result.metrics == run(scenario).metrics


def test_sweep_order_independent():
    scenario = scenario_ring_width()
    scenario = replace(
        scenario, n_sub=6, solver=replace(scenario.solver, t_final=0.01)
    )
    forward = {v: r.metrics for v, r in sweep_runs(scenario, "alpha", [10.0, 100.0])}
    backward = {v: r.metrics for v, r in sweep_runs(scenario, "alpha", [100.0, 10.0])}
    assert forward[10.0] == backward[10.0]
    assert forward[100.0] == backward[100.0]


def test_sweep_rq_starts_at_one():
    scenario = scenario_ring_width()
    scenario = replace(
        scenario, n_sub=6, solver=replace(scenario.solver, t_final=0.005)
    )
    runs = sweep_runs(scenario, "alpha", [10.0, 45.0, 100.0])
    series = {v: r.metrics for v, r in runs}
    assert all(s[0].rq == 1.0 for s in series.values())


def test_sweep_runs_checks_arguments_before_running():
    scenario = scenario_ring_width()
    sweep_runs(scenario, "kappa1", PARAMETER_RANGES["kappa1"])  # both ends are rates
    with pytest.raises(InvalidParameterError):
        sweep_runs(scenario, "alpha", [])
    with pytest.raises(InvalidParameterError):
        sweep_runs(scenario, "alpha", [10.0, -1.0])


@pytest.mark.parametrize(
    "value", [10**400, None, "abc", "inf"], ids=["huge_int", "None", "text", "inf_text"]
)
def test_sweep_runs_rejects_a_value_that_is_not_a_finite_number(monkeypatch, value):
    import gbmsim.experiments

    runs = []
    monkeypatch.setattr(
        gbmsim.experiments, "run", lambda *args, **kwargs: runs.append(args)
    )
    message = rf"^alpha must be finite, got {re.escape(repr(value))}$"
    with pytest.raises(InvalidParameterError, match=message):
        sweep_runs(scenario_ring_width(), "alpha", [45.0, value])
    assert runs == []


def test_cli_sweep_names_the_parameter_of_a_value_that_is_not_a_number(
    tmp_path, capsys
):
    out = tmp_path / "sweep"
    argv = ["sweep", "--param", "alpha", "--values", "45,abc", "--out", str(out)]
    assert main(argv) == 1
    assert capsys.readouterr().err == "error: alpha must be finite, got 'abc'\n"
    assert not out.exists()


def test_sweep_runs_rejects_values_equal_as_floats(monkeypatch):
    import gbmsim.experiments

    runs = []
    monkeypatch.setattr(
        gbmsim.experiments, "run", lambda *args, **kwargs: runs.append(args)
    )
    scenario = scenario_ring_width()
    with pytest.raises(InvalidParameterError, match="repeat"):
        sweep_runs(scenario, "alpha", [10, 10.0, 1e1])
    with pytest.raises(InvalidParameterError, match="repeat"):
        sweep_runs(scenario, "alpha", [45.0, 10.0, 45])
    assert runs == []


def test_sweep_unknown_parameter():
    scenario = scenario_ring_width()
    with pytest.raises(InvalidParameterError):
        sweep_runs(scenario, "omega", [1.0])
    with pytest.raises(InvalidParameterError):
        sweep_runs(scenario, "alpha", [])
    with pytest.raises(InvalidParameterError, match="unknown parameter 'nope'"):
        default_sweep_values("nope")
