"""The package's public names."""

import importlib
import pkgutil
import re
import types
from dataclasses import replace
from pathlib import Path

import pytest

import gbmsim

README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_name_in_each_modules_all_exists():
    # A stale name in __all__ still imports cleanly; only a star import of its
    # module fails.  __main__ is skipped because importing it runs the CLI.
    names = [m.name for m in pkgutil.iter_modules(gbmsim.__path__) if m.name != "__main__"]
    missing = {}
    for name in names:
        module = importlib.import_module(f"gbmsim.{name}")
        absent = [item for item in getattr(module, "__all__", ()) if not hasattr(module, item)]
        if absent:
            missing[name] = absent
    assert "kinetics" in names and missing == {}


def test_the_public_names_are_the_union_of_the_modules_all():
    # gbmsim republishes each module's __all__ and nothing else; the command
    # line (cli, and __main__, whose import runs it) stays out.
    names = [
        m.name for m in pkgutil.iter_modules(gbmsim.__path__)
        if m.name not in ("cli", "__main__")
    ]
    declared = set()
    for name in names:
        declared.update(importlib.import_module(f"gbmsim.{name}").__all__)
    public = {
        name for name, value in vars(gbmsim).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert "errors" in names and public == declared


def test_every_name_in_the_readme_python_api_exists():
    # The README's example calls the package as ``g.<name>``; a name removed
    # from the package would leave the example broken without any other test
    # noticing.
    section = README.read_text().split("## Python API", 1)[1]
    block = section.split("```python", 1)[1].split("```", 1)[0]
    names = set(re.findall(r"\bg\.([A-Za-z_]\w*)", block))
    assert "run" in names
    assert sorted(name for name in names if not hasattr(gbmsim, name)) == []


HUGE = 10**400  # an int beyond the float range


def _ode_from(tumor):
    start = gbmsim.FieldTriple(tumor, 0.0, 0.5)
    config = gbmsim.SolverConfig(t_final=0.001)
    gbmsim.run_homogeneous(start, gbmsim.DEFAULT_PARAMETERS, config)


def _sample_at(theta):
    scenario = replace(gbmsim.scenario_ring_width(), n_sub=4)
    mesh = scenario.build_mesh()
    gbmsim.compute_sample(scenario.initial_state(mesh), mesh, theta)


@pytest.mark.parametrize("name, value, call, error", [
    ("kappa1", HUGE, lambda v: gbmsim.DimensionlessParameters(v, 45, 27.5, 2.55, 0.255, 2.55),
     gbmsim.InvalidParameterError),
    ("t_final", HUGE, lambda v: gbmsim.SolverConfig(t_final=v), gbmsim.InvalidParameterError),
    ("xmax", HUGE, lambda v: gbmsim.StructuredTriMesh(0, v, 0, 1, 2), gbmsim.MeshError),
    ("bump radius", HUGE, lambda v: gbmsim.BumpSpec(radius=v), gbmsim.InvalidParameterError),
    ("tumor center", HUGE, lambda v: gbmsim.BumpSpec(center=(v, 0)),
     gbmsim.InvalidParameterError),
    ("zone radius", HUGE, lambda v: gbmsim.ZoneSpec((0, 0), v, 0.5),
     gbmsim.InvalidParameterError),
    ("zone center", HUGE, lambda v: gbmsim.ZoneSpec((0, v), 1, 0.5),
     gbmsim.InvalidParameterError),
    ("n_sub", HUGE, lambda v: gbmsim.build_mesh((0, 1, 0, 1), v), gbmsim.MeshError),
    ("initial t_density", HUGE, _ode_from, gbmsim.InvalidParameterError),
    ("bump peak", "a", lambda v: gbmsim.BumpSpec(peak=v), gbmsim.InvalidParameterError),
    ("theta", "a", _sample_at, gbmsim.InvalidParameterError),
    ("theta", "a", lambda v: replace(gbmsim.scenario_ring_width(), theta=v),
     gbmsim.InvalidParameterError),
    ("initial t_density", "a", _ode_from, gbmsim.InvalidParameterError),
    ("alpha", "45", lambda v: gbmsim.sweep_runs(gbmsim.scenario_ring_width(), "alpha", [v]),
     gbmsim.InvalidParameterError),
], ids=[
    "rate-huge", "t_final-huge", "bound-huge", "bump_radius-huge", "bump_center-huge",
    "zone_radius-huge", "zone_center-huge", "n_sub-huge", "ode_start-huge",
    "bump_peak-text", "theta-text", "scenario_theta-text", "ode_start-text",
    "sweep_value-text",
])
def test_a_number_that_is_not_a_finite_real_gets_the_one_rule(name, value, call, error):
    # One rule (errors.check_range) rejects a value that is not a real number,
    # or that is beyond the float range, with the package's own error.
    with pytest.raises(error) as info:
        call(value)
    assert str(info.value) == f"{name} must be finite, got {value!r}"


def _preset_with(**changes):
    replace(gbmsim.scenario_ring_width(), **changes)


def _config_with(**changes):
    replace(gbmsim.parse_config(""), **changes)


def _ode_start(start):
    gbmsim.run_homogeneous(
        start, gbmsim.DEFAULT_PARAMETERS, gbmsim.SolverConfig(t_final=0.001)
    )


@pytest.mark.parametrize("name, kind, value, call", [
    ("params", "DimensionlessParameters", {"alpha": 1},
     lambda v: _preset_with(params=v)),
    ("tumor_ic", "BumpSpec", (0.0, 0.0), lambda v: _preset_with(tumor_ic=v)),
    ("vasculature_ic", "ZonedVasculature", 0.5,
     lambda v: _preset_with(vasculature_ic=v)),
    ("solver", "SolverConfig", None, lambda v: _preset_with(solver=v)),
    ("initial", "FieldTriple", (0.1, 0.0, 0.5), lambda v: _config_with(ode_initial=v)),
    ("initial", "FieldTriple", (0.1, 0.0, 0.5), _ode_start),
], ids=["params-dict", "tumor_ic-tuple", "vasculature_ic-float", "solver-None",
        "config_ode_initial-tuple", "run_homogeneous_start-tuple"])
def test_a_spec_of_the_wrong_type_gets_the_one_type_rule(name, kind, value, call):
    # One rule (errors.check_type) rejects a spec of the wrong type where it
    # enters, before any attribute of it is read.
    with pytest.raises(gbmsim.InvalidParameterError) as info:
        call(value)
    assert str(info.value) == f"{name} must be a {kind}, got {value!r}"
