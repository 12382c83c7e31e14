"""Scenario presets, initial conditions, and the sweep harness."""

from dataclasses import replace

import numpy as np
import pytest

from gbmsim import (
    InvalidParameterError,
    PARAMETER_RANGES,
    ZoneSpec,
    ZonedVasculature,
    build_mesh,
    default_sweep_values,
    ic_tumor_bump,
    ic_vasculature_uniform,
    ic_vasculature_zones,
    lumped_integral,
    scenario_ring_width,
    scenario_surface_regularity,
    sweep,
    threshold_indicator,
    tumor_area,
)
from gbmsim import SimulationState
from gbmsim.experiments import sweep_runs

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
    assert scenario.vasculature_ic.level == 0.5


def test_ring_scenario_override():
    scenario = scenario_ring_width({"alpha": 100.0})
    assert scenario.params.alpha == 100.0
    assert scenario.params.kappa1 == 55.0
    for endpoint in PARAMETER_RANGES["kappa1"]:
        scenario_ring_width({"kappa1": endpoint})


def test_scenario_construction_is_pure():
    assert scenario_ring_width({"alpha": 30.0}) == scenario_ring_width(
        {"alpha": 30.0}
    )


def test_surface_scenario_zoned_ic():
    scenario = scenario_surface_regularity()
    assert scenario.params.delta == 2.55
    scenario_surface_regularity({"gamma": 0.01})
    mesh = scenario.build_mesh()
    state = scenario.initial_state(mesh)
    assert len(np.unique(state.phi_field)) >= 2


def test_unknown_override_rejected():
    with pytest.raises(InvalidParameterError):
        scenario_ring_width({"rho": 2.0})


def test_tumor_ic_bump_shape():
    mesh = build_mesh((-9, 9, -9, 9), 90)  # center is a grid vertex here
    field = ic_tumor_bump(mesh, (0.0, 0.0), 3.0, 0.5)
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


def test_tumor_ic_rejects_outside_center():
    mesh = build_mesh((-9, 9, -9, 9), 10)
    with pytest.raises(InvalidParameterError):
        ic_tumor_bump(mesh, (12.0, 0.0), 3.0, 0.5)


def test_uniform_vasculature_levels():
    mesh = build_mesh((-9, 9, -9, 9), 9)
    assert np.all(ic_vasculature_uniform(mesh, 0.5) == 0.5)
    assert np.all(ic_vasculature_uniform(mesh, 0.0) == 0.0)
    assert lumped_integral(mesh, ic_vasculature_uniform(mesh, 0.5)) == pytest.approx(
        0.5 * 324.0, abs=1e-12
    )
    with pytest.raises(InvalidParameterError):
        ic_vasculature_uniform(mesh, 1.5)


def test_zoned_vasculature_empty_list_is_uniform():
    mesh = build_mesh((-9, 9, -9, 9), 9)
    assert np.all(ic_vasculature_zones(mesh, 0.2, []) == 0.2)


def test_zoned_vasculature_disc_integral():
    mesh = build_mesh((-9, 9, -9, 9), 45)
    zone = ZoneSpec(center=(0.0, 0.0), radius=3.0, level=0.8)
    field = ic_vasculature_zones(mesh, 0.2, [zone])
    # lumped area of the disc vertices, measured independently
    indicator = SimulationState(
        0.0,
        np.where(field == 0.8, 1.0, 0.0),
        np.zeros(mesh.num_vertices),
        np.zeros(mesh.num_vertices),
    )
    disc_area = tumor_area(threshold_indicator(indicator, mesh, 0.5), mesh)
    expected = 0.2 * 324.0 + 0.6 * disc_area
    assert lumped_integral(mesh, field) == pytest.approx(expected, abs=1e-10)


def test_zoned_vasculature_overlap_precedence():
    mesh = build_mesh((-9, 9, -9, 9), 20)
    zones = [
        ZoneSpec(center=(0.0, 0.0), radius=4.0, level=0.9),
        ZoneSpec(center=(1.0, 0.0), radius=2.0, level=0.1),
    ]
    field = ic_vasculature_zones(mesh, 0.3, zones)
    idx = mesh.vertex_index(11, 10)  # (0.9, 0) lies in both discs
    assert field[idx] == 0.1


def test_zone_outside_domain_rejected():
    scenario = scenario_surface_regularity()
    bad = ZonedVasculature(
        base_level=0.1,
        zones=(ZoneSpec(center=(8.0, 0.0), radius=3.0, level=0.5),),
    )
    with pytest.raises(InvalidParameterError):
        replace(scenario, vasculature_ic=bad)


def test_sweep_single_value_matches_direct_run():
    from gbmsim import run

    scenario = scenario_ring_width()
    scenario = replace(
        scenario, n_sub=8, solver=replace(scenario.solver, t_final=0.02)
    )
    series = sweep(scenario, "alpha", [45.0])
    direct = run(scenario).metrics
    assert series[45.0] == direct


def test_sweep_order_independent():
    scenario = scenario_ring_width()
    scenario = replace(
        scenario, n_sub=6, solver=replace(scenario.solver, t_final=0.01)
    )
    forward = sweep(scenario, "alpha", [10.0, 100.0])
    backward = sweep(scenario, "alpha", [100.0, 10.0])
    assert forward[10.0] == backward[10.0]
    assert forward[100.0] == backward[100.0]


def test_sweep_rq_starts_at_one():
    scenario = scenario_ring_width()
    scenario = replace(
        scenario, n_sub=6, solver=replace(scenario.solver, t_final=0.005)
    )
    series = sweep(scenario, "alpha", [10.0, 45.0, 100.0])
    assert all(s[0].rq == 1.0 for s in series.values())


def test_sweep_runs_checks_arguments_before_running():
    scenario = scenario_ring_width()
    with pytest.raises(InvalidParameterError):
        sweep_runs(scenario, "alpha", [])
    with pytest.raises(InvalidParameterError):
        sweep_runs(scenario, "alpha", [10.0, -1.0])


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
        sweep(scenario, "alpha", [45.0, 10.0, 45])
    assert runs == []


def test_sweep_unknown_parameter():
    scenario = scenario_ring_width()
    with pytest.raises(InvalidParameterError):
        sweep(scenario, "omega", [1.0])
    with pytest.raises(InvalidParameterError):
        sweep(scenario, "alpha", [])
