"""RunConfig: the preset Scenario that a config file edits."""

import dataclasses

import pytest

from gbmsim import (
    ConfigError,
    InvalidParameterError,
    RunConfig,
    Scenario,
    ZoneSpec,
    parse_config,
    scenario_ring_width,
    scenario_surface_regularity,
)

SURFACE = "[ic]\nscenario=surface\n"


@pytest.mark.parametrize("text, preset", [
    ("", scenario_ring_width),
    (SURFACE, scenario_surface_regularity),
], ids=["ring", "surface"])
def test_config_is_the_preset_scenario_with_run_settings(text, preset):
    config = parse_config(text)
    assert isinstance(config, RunConfig) and isinstance(config, Scenario)
    assert Scenario(**{name: getattr(config, name) for name in vars(preset())}) == preset()
    assert (config.theta, config.vtk) == (0.001, False)
    with pytest.raises(dataclasses.FrozenInstanceError):
        config.n_sub = 12


def test_config_edits_each_value_once():
    config = parse_config(
        "[mesh]\nxmax=10\n[ic]\ntumor_center_y=1\ntumor_peak=0.25\n"
        "vasculature_level=0.4\n[output]\ntheta=0.01\n"
    )
    assert config.bounds == (-9.0, 10.0, -9.0, 9.0)
    assert config.tumor_ic == dataclasses.replace(
        scenario_ring_width().tumor_ic, center=(0.0, 1.0), peak=0.25
    )
    assert config.vasculature_ic.base_level == 0.4
    assert config.theta == 0.01


def test_file_zones_replace_the_preset_zones():
    config = parse_config(SURFACE + "zone7=4, 1, 2.5, 0.3\nzone2=-4, 0, 2, 0.9\n")
    assert config.vasculature_ic.zones == (
        ZoneSpec((-4.0, 0.0), 2.0, 0.9), ZoneSpec((4.0, 1.0), 2.5, 0.3)
    )
    assert config.vasculature_ic.base_level == 0.0


@pytest.mark.parametrize("text, line, message", [
    ("[ic]\nzone_base_level=2\n", 2, "zone_base_level requires scenario=surface"),
    (SURFACE + "vasculature_level=2\n", 3, "vasculature_level requires scenario=ring"),
    ("[ic]\nvasculature_level=2\nscenario=surface\n", 2,
     "vasculature_level requires scenario=ring"),
], ids=["zone_base_level", "vasculature_level", "scenario_after"])
def test_a_key_of_the_other_scenario_is_reported_before_its_range(text, line, message):
    with pytest.raises(ConfigError) as info:
        parse_config(text)
    assert info.value.line == line
    assert str(info.value) == f"line {line}: {message}"


@pytest.mark.parametrize("name, value, message", [
    ("scenario", "square", "scenario must be 'ring' or 'surface', got 'square'"),
    ("vtk", "no", "vtk must be a bool, got 'no'"),
], ids=["scenario", "vtk"])
def test_a_run_setting_is_checked_without_the_parser(name, value, message):
    # The parser is not the only way in: dataclasses.replace runs the same checks.
    with pytest.raises(InvalidParameterError) as info:
        dataclasses.replace(parse_config(""), **{name: value})
    assert str(info.value) == message
