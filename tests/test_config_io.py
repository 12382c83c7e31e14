"""Config parsing, CSV/VTK writers, and the CLI surface."""

import dataclasses
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gbmsim import (
    ConfigError,
    InvalidParameterError,
    METRICS_HEADER,
    MetricsSample,
    SimulationState,
    build_mesh,
    parse_config,
    scenario_ring_width,
    scenario_surface_regularity,
    write_metrics_csv,
    write_snapshot,
)
import gbmsim
from gbmsim.cli import main
from gbmsim.config import _KEYS


# --- config parsing -----------------------------------------------------------

def test_empty_config_is_ring_defaults():
    config = parse_config("")
    assert config.vasculature_ic == scenario_ring_width().vasculature_ic
    assert config.params.alpha == 45.0
    assert config.n_sub == 45
    assert config.solver.dt == 1e-3
    assert config.theta == 0.001
    assert config.vasculature_ic.base_level == 0.5
    assert config.vasculature_ic.zones == ()


@pytest.mark.parametrize(
    "text, preset",
    [
        ("", scenario_ring_width),
        ("[ic]\nscenario=surface\n", scenario_surface_regularity),
    ],
    ids=["ring", "surface"],
)
def test_default_config_is_the_preset(text, preset):
    scenario = parse_config(text).to_scenario()
    assert scenario == preset()
    mesh = scenario.build_mesh()
    from_config = scenario.initial_state(mesh)
    from_preset = preset().initial_state(mesh)
    for name in ("t_field", "n_field", "phi_field"):
        assert np.array_equal(getattr(from_config, name), getattr(from_preset, name))


def test_param_override():
    config = parse_config("[params]\nalpha=100\n")
    assert config.params.alpha == 100.0
    assert config.params.beta1 == 27.5


def test_unknown_key_with_line_number():
    with pytest.raises(ConfigError) as info:
        parse_config("[params]\nalhpa=100\n")
    assert info.value.line == 2
    assert "alhpa" in str(info.value)


def test_unknown_section_rejected():
    with pytest.raises(ConfigError) as info:
        parse_config("[parms]\nalpha=1\n")
    assert info.value.line == 1


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError):
        parse_config("[params]\nalpha=10\nalpha=20\n")


def test_malformed_line_rejected():
    with pytest.raises(ConfigError) as info:
        parse_config("[params]\nalpha\n")
    assert info.value.line == 2


def test_key_before_section_rejected():
    with pytest.raises(ConfigError):
        parse_config("alpha=10\n")


def test_bad_number_rejected():
    with pytest.raises(ConfigError) as info:
        parse_config("[solver]\ndt=fast\n")
    assert info.value.line == 2


def test_out_of_range_value_rejected():
    with pytest.raises(ConfigError):
        parse_config("[ic]\ntumor_peak=1.5\n")
    with pytest.raises(ConfigError):
        parse_config("[params]\nalpha=-3\n")
    with pytest.raises(ConfigError):
        parse_config("[solver]\ndt=0\n")


SURFACE = "[ic]\nscenario=surface\n"


@pytest.mark.parametrize("text, line, message", [
    ("[mesh\n", 1, "malformed section header '[mesh'"),
    ("[parms]\nalpha=1\n", 1, "unknown section [parms]"),
    ("[params]\nalpha\n", 2, "expected key=value, got 'alpha'"),
    ("alpha=10\n", 1, "key=value before any [section]"),
    ("[params]\nalhpa=100\n", 2, "unknown key 'alhpa' in [params]"),
    ("[mesh]\nzone1=1\n", 2, "unknown key 'zone1' in [mesh]"),
    ("[params]\nalpha=10\nalpha=20\n", 3, "duplicate key 'alpha' in [params]"),
    ("[solver]\ndt=fast\n", 2, "expected a number, got 'fast'"),
    ("[mesh]\nn_sub=many\n", 2, "expected an integer, got 'many'"),
    ("[solver]\nmetrics_every=1.5\n", 2, "expected an integer, got '1.5'"),
    ("[mesh]\nn_sub=0\n", 2, "n_sub must be >= 1, got 0"),
    ("[ic]\nscenario=square\n", 2,
     "scenario must be 'ring' or 'surface', got 'square'"),
    ("[output]\nvtk=maybe\n", 2, "expected a boolean, got 'maybe'"),
    ("[output]\ntheta=0\n", 2, "theta must be positive, got 0.0"),
    ("[output]\ntheta=nan\n", 2, "theta must be positive, got nan"),
    ("[output]\ntheta=inf\n", 2, "theta must be finite, got inf"),
    (SURFACE + "zone1=1, 2, 3\n", 3,
     "zone needs 'cx, cy, radius, level', got '1, 2, 3'"),
    (SURFACE + "zone1=0, x, 1, 0.5\n", 3, "expected a number, got 'x'"),
    (SURFACE + "zone1=0, 0, -1, 0.5\n", 3, "zone radius must be positive, got -1.0"),
    (SURFACE + "zone1=0, 0, inf, 0.5\n", 3, "zone radius must be finite, got inf"),
    (SURFACE + "zone1=nan, 0, 1, 0.5\n", 3, "zone center must be finite, got nan"),
    (SURFACE + "zone1=0, 0, 1, 0.5\nzone01=0, 0, 1, 0.5\n", 4,
     "duplicate key 'zone1'"),
    ("[ic]\nzone1=0, 0, 2, 0.5\n", 2, "zone keys require scenario=surface"),
    (SURFACE + "vasculature_level=0.9\n", 3,
     "vasculature_level requires scenario=ring"),
    ("[ic]\nzone_base_level=0.9\n", 2, "zone_base_level requires scenario=surface"),
    # Range errors on one key carry that key's line.
    ("[params]\nalpha=-3\n", 2, "alpha must be nonnegative, got -3.0"),
    ("[params]\nkappa1=nan\n", 2, "kappa1 must be nonnegative, got nan"),
    ("[params]\nbeta1=-1\nalpha=-3\n", 3, "alpha must be nonnegative, got -3.0"),
    ("[solver]\ndt=0\n", 2, "dt must be positive, got 0.0"),
    ("[solver]\ndt=1e-320\n", 2, "t_final / dt must be finite, got inf"),
    ("[solver]\nt_final=-1\n", 2, "t_final must be nonnegative, got -1.0"),
    ("[solver]\ncg_tolerance=1\n", 2, "cg_tolerance must lie in (0, 1), got 1.0"),
    ("[solver]\ncg_max_iterations=0\n", 2, "cg_max_iterations must be >= 1, got 0"),
    ("[solver]\nsnapshot_every=0\n", 2, "snapshot_every must be >= 1, got 0"),
    ("[solver]\nmetrics_every=0\n", 2, "metrics_every must be >= 1, got 0"),
    ("[ic]\ntumor_peak=1.5\n", 2, "bump peak must lie in (0, 1], got 1.5"),
    ("[ic]\ntumor_radius=0\n", 2, "bump radius must be positive, got 0.0"),
    ("[ic]\ntumor_radius=inf\n", 2, "bump radius must be finite, got inf"),
    ("[ic]\ntumor_radius=nan\n", 2, "bump radius must be positive, got nan"),
    ("[ic]\nnecrosis_level=2\n", 2, "necrosis level must lie in [0, 1], got 2.0"),
    ("[ic]\nvasculature_level=2\n", 2,
     "vasculature level must lie in [0, 1], got 2.0"),
    (SURFACE + "zone_base_level=2\n", 3,
     "vasculature level must lie in [0, 1], got 2.0"),
    ("[ic]\nzone_base_level=2\nscenario=surface\n", 2,
     "vasculature level must lie in [0, 1], got 2.0"),
    # Range errors across keys carry no line.
    ("[ic]\ntumor_center_x=20\n", None,
     "tumor center (20.0, 0.0) outside domain (-9.0, 9.0, -9.0, 9.0)"),
    ("[mesh]\nxmin=1\n", None,
     "tumor center (0.0, 0.0) outside domain (1.0, 9.0, -9.0, 9.0)"),
    ("[mesh]\nxmin=inf\n", None, "xmin must be finite, got inf"),
    ("[ic]\ntumor_center_x=nan\n", None, "tumor center must be finite, got nan"),
    ("[mesh]\nxmax=-10\n", None, "degenerate bounds (-9.0, -10.0, -9.0, 9.0)"),
    (SURFACE + "zone1=8, 0, 2, 0.5\n", None,
     "zone ZoneSpec(center=(8.0, 0.0), radius=2.0, level=0.5) does not lie "
     "within domain (-9.0, 9.0, -9.0, 9.0)"),
])
def test_config_error_message_and_line(text, line, message):
    with pytest.raises(ConfigError) as info:
        parse_config(text)
    assert info.value.line == line
    assert str(info.value) == (message if line is None else f"line {line}: {message}")


@pytest.mark.parametrize("key", ["dt", "t_final"])
def test_non_finite_solver_value_rejected(key):
    with pytest.raises(ConfigError) as info:
        parse_config(f"[solver]\n{key} = inf\n")
    assert info.value.line == 2
    assert str(info.value) == f"line 2: {key} must be finite, got inf"


@pytest.mark.parametrize("key", ["alpha", "kappa1"])
def test_non_finite_rate_rejected(key):
    with pytest.raises(ConfigError) as info:
        parse_config(f"[params]\nbeta1 = 5\n{key} = inf\n")
    assert info.value.line == 3
    assert str(info.value) == f"line 3: {key} must be finite, got inf"


def _bump_with_infinite_radius():
    gbmsim.BumpSpec(radius=math.inf)


def _run_with_infinite_theta():
    scenario = scenario_ring_width()
    config = gbmsim.SolverConfig(t_final=0.002)
    gbmsim.run(dataclasses.replace(scenario, n_sub=4, theta=math.inf, solver=config))


def _ode_with_nan_tumor():
    start = gbmsim.FieldTriple(math.nan, 0.0, 0.5)
    config = gbmsim.SolverConfig(t_final=0.001)
    gbmsim.run_homogeneous(start, gbmsim.DEFAULT_PARAMETERS, config)


@pytest.mark.parametrize("text, call", [
    ("[ic]\ntumor_radius=inf\n", _bump_with_infinite_radius),
    ("[output]\ntheta=inf\n", _run_with_infinite_theta),
    ("[ic]\node_tumor=nan\n", _ode_with_nan_tumor),
])
def test_api_rejects_non_finite_values_like_the_config(text, call):
    with pytest.raises(ConfigError) as config_info:
        parse_config(text)
    with pytest.raises(InvalidParameterError) as api_info:
        call()
    assert str(config_info.value) == f"line 2: {api_info.value}"


def test_readme_config_block_resolves_to_the_defaults():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("All keys and defaults:\n\n```\n", 1)[1].split("```", 1)[0]
    assert parse_config(block) == parse_config("")
    for section, keys in _KEYS.items():
        assert f"\n[{section}]" in "\n" + block
        for key in keys:
            name = key.pattern.rstrip("$") if isinstance(key, re.Pattern) else key
            assert re.search(rf"^#? *{name} +=", block, re.M), key


def test_comments_and_blanks_ignored():
    text = "# leading comment\n\n[params]\nalpha = 60  # inline\n"
    assert parse_config(text).params.alpha == 60.0


def test_surface_scenario_with_zones():
    text = (
        "[ic]\nscenario=surface\nzone1=-4, 0, 2, 0.9\nzone2=4, 1, 2.5, 0.3\n"
        "[output]\nvtk=true\n"
    )
    config = parse_config(text)
    assert config.vtk is True
    assert config.vasculature_ic.base_level == (
        scenario_surface_regularity().vasculature_ic.base_level
    )
    assert len(config.vasculature_ic.zones) == 2
    assert config.vasculature_ic.zones[0].level == 0.9


def test_zones_require_surface_scenario():
    with pytest.raises(ConfigError):
        parse_config("[ic]\nzone1=0, 0, 2, 0.5\n")


def test_surface_defaults_three_corridors():
    config = parse_config("[ic]\nscenario=surface\n")
    zones = config.vasculature_ic.zones
    assert len(zones) == 9  # three corridors of three discs each
    assert sorted({z.level for z in zones}) == [0.2, 0.25, 0.3]
    assert config.vasculature_ic.base_level == 0.0


def test_solver_and_mesh_settings():
    text = "[mesh]\nn_sub=12\n[solver]\ndt=0.002\nt_final=1.5\nmetrics_every=7\n"
    config = parse_config(text)
    assert config.n_sub == 12
    assert config.solver.dt == 0.002
    assert config.solver.t_final == 1.5
    assert config.solver.metrics_every == 7


def test_ode_initial_values():
    config = parse_config("[ic]\node_tumor=0.2\node_vasculature=0.9\n")
    assert config.ode_initial.t_density == 0.2
    assert config.ode_initial.n_density == 0.0
    assert config.ode_initial.phi_density == 0.9


# --- metrics CSV ----------------------------------------------------------------

def sample(time=0.0, rq=1.0, sq=1.0, area=2.0, r_max=1.0):
    return MetricsSample(
        time=time, rq=rq, sq=sq, area=area, r_max=r_max,
        tumor_density=0.5, total_tn_density=0.5, phi_density=0.1,
    )


def test_metrics_csv_layout(tmp_path):
    path = tmp_path / "metrics.csv"
    write_metrics_csv([sample()], path)
    lines = path.read_bytes().split(b"\n")
    assert lines[0].decode() == METRICS_HEADER
    assert len(lines) == 3 and lines[2] == b""
    row = lines[1].decode().split(",")
    assert row[1] == "1.0"


def test_metrics_csv_columns_follow_the_header(tmp_path):
    path = tmp_path / "metrics.csv"
    write_metrics_csv([MetricsSample(1.0, 0.25, 0.5, 3.0, 4.0, 5.0, 6.0, 7.0)], path)
    header, row = path.read_text().splitlines()
    assert row.split(",") == ["1.0", "0.25", "0.5", "3.0", "4.0", "5.0", "6.0", "7.0"]
    assert header.split(",") == [
        "t", "rq", "sq", "area", "r_max", "int_T", "int_TN", "int_phi"
    ]
    assert [f.name for f in dataclasses.fields(MetricsSample)] == [
        "time", "rq", "sq", "area", "r_max",
        "tumor_density", "total_tn_density", "phi_density",
    ]


def test_metrics_csv_round_trip(tmp_path):
    path = tmp_path / "metrics.csv"
    values = sample(time=0.123456789123456789, rq=1 / 3, area=math.pi)
    write_metrics_csv([values], path)
    row = path.read_text().splitlines()[1].split(",")
    assert float(row[0]) == values.time
    assert float(row[1]) == values.rq
    assert float(row[3]) == values.area


def test_metrics_csv_rerun_identical(tmp_path):
    series = [sample(time=0.1 * k, rq=1.0 / (k + 1)) for k in range(5)]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_metrics_csv(series, a)
    write_metrics_csv(series, b)
    assert a.read_bytes() == b.read_bytes()


def test_metrics_csv_rejects_empty_series(tmp_path):
    with pytest.raises(InvalidParameterError):
        write_metrics_csv([], tmp_path / "metrics.csv")


def test_metrics_csv_revalidates_rows(tmp_path):
    with pytest.raises(InvalidParameterError):
        write_metrics_csv([sample(rq=1.5)], tmp_path / "bad.csv")
    with pytest.raises(InvalidParameterError):
        write_metrics_csv([sample(area=-1.0)], tmp_path / "bad.csv")


def test_metrics_csv_nan_sq_round_trips(tmp_path):
    path = tmp_path / "metrics.csv"
    write_metrics_csv([sample(sq=float("nan"), r_max=float("nan"))], path)
    row = path.read_text().splitlines()[1].split(",")
    assert math.isnan(float(row[2])) and math.isnan(float(row[4]))
    assert path.read_bytes().endswith(b"\n0.0,1.0,nan,2.0,nan,0.5,0.5,0.1\n")


# --- snapshots --------------------------------------------------------------------

def snapshot_state(mesh):
    rng = np.random.default_rng(33)
    return SimulationState(
        time=0.25,
        t_field=rng.random(mesh.num_vertices),
        n_field=rng.random(mesh.num_vertices),
        phi_field=rng.random(mesh.num_vertices),
    )


def test_snapshot_csv_layout(tmp_path):
    mesh = build_mesh((0, 1, 0, 1), 1)
    state = snapshot_state(mesh)
    path = tmp_path / "snap.csv"
    write_snapshot(state, mesh, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "x,y,T,N,Phi"
    assert len(lines) == 5


def test_snapshot_round_trip(tmp_path):
    mesh = build_mesh((-2, 2, -1, 3), 4)
    state = snapshot_state(mesh)
    path = tmp_path / "snap.csv"
    write_snapshot(state, mesh, path)
    rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
    parsed = np.array([[float(v) for v in row] for row in rows])
    assert np.array_equal(parsed[:, 0], mesh.vertices[:, 0])
    assert np.array_equal(parsed[:, 2], state.t_field)
    assert np.array_equal(parsed[:, 4], state.phi_field)


def test_snapshot_vtk_sibling(tmp_path):
    mesh = build_mesh((0, 1, 0, 1), 2)
    state = snapshot_state(mesh)
    path = tmp_path / "snap.csv"
    write_snapshot(state, mesh, path, vtk=True)
    vtk = (tmp_path / "snap.vtk").read_text().splitlines()
    assert vtk[0] == "# vtk DataFile Version 3.0"
    assert "DATASET UNSTRUCTURED_GRID" in vtk
    assert f"POINTS {mesh.num_vertices} double" in vtk
    assert f"CELLS {mesh.num_triangles} {4 * mesh.num_triangles}" in vtk
    for name in ("T", "N", "Phi"):
        assert f"SCALARS {name} double 1" in vtk


def reference_snapshot_files(state, mesh):
    """CSV and VTK text of a snapshot, one ``repr(float(v))`` per value."""
    def fmt(v):
        return repr(float(v))

    csv = ["x,y,T,N,Phi"]
    for i in range(mesh.num_vertices):
        csv.append(",".join(fmt(v) for v in (
            mesh.vertices[i, 0], mesh.vertices[i, 1],
            state.t_field[i], state.n_field[i], state.phi_field[i],
        )))
    nv, nt = mesh.num_vertices, mesh.num_triangles
    vtk = [
        "# vtk DataFile Version 3.0",
        f"gbmsim fields at t={fmt(state.time)}",
        "ASCII",
        "DATASET UNSTRUCTURED_GRID",
        f"POINTS {nv} double",
    ]
    for i in range(nv):
        vtk.append(f"{fmt(mesh.vertices[i, 0])} {fmt(mesh.vertices[i, 1])} 0.0")
    vtk.append(f"CELLS {nt} {4 * nt}")
    for a, b, c in mesh.triangles:
        vtk.append(f"3 {int(a)} {int(b)} {int(c)}")
    vtk.append(f"CELL_TYPES {nt}")
    vtk.extend(["5"] * nt)
    vtk.append(f"POINT_DATA {nv}")
    for name, values in (
        ("T", state.t_field), ("N", state.n_field), ("Phi", state.phi_field)
    ):
        vtk.append(f"SCALARS {name} double 1")
        vtk.append("LOOKUP_TABLE default")
        vtk.extend(fmt(v) for v in values)
    return ("\n".join(csv) + "\n").encode(), ("\n".join(vtk) + "\n").encode()


def test_snapshot_bytes_match_reference_writer(tmp_path):
    mesh = build_mesh((-2.0, 2.5, -1.0, 3.0), 3)
    base = snapshot_state(mesh)
    state = SimulationState(
        time=0.1 + 0.2,
        t_field=base.t_field,
        n_field=-base.n_field,
        phi_field=base.phi_field,
    )
    state.t_field[:5] = [5e-324, -0.0, 1e-164, 0.1 + 0.2, 1.0]
    state.phi_field[-5:] = [1.0, 0.1 + 0.2, 1e-164, -0.0, 5e-324]
    path = tmp_path / "snap.csv"
    write_snapshot(state, mesh, path, vtk=True)
    csv, vtk = reference_snapshot_files(state, mesh)
    assert path.read_bytes() == csv
    assert (tmp_path / "snap.vtk").read_bytes() == vtk
    for text in ("5e-324", "-0.0", "1e-164", "0.30000000000000004"):
        assert text.encode() in csv and text.encode() in vtk


# --- CLI ---------------------------------------------------------------------------

SMALL_RUN = (
    "[mesh]\nn_sub=6\n[solver]\nt_final=0.01\nmetrics_every=5\n"
    "snapshot_every=5\n"
)


def test_cli_presets_output(capsys):
    assert main(["presets"]) == 0
    out = capsys.readouterr().out
    assert "gamma=0.255" in out
    assert "kappa1=55.0" in out
    assert "ring preset: uniform vasculature 0.5," in out
    assert "3 vasculature corridors (0.3/0.25/0.2) on base 0.0" in out


def test_cli_presets_prints_the_growth_threshold_below_the_ranges(capsys):
    # alpha* = max over Phi of 2 Phi sqrt((1 - Phi) / (1 + 3 Phi)), at Phi = 1/sqrt(3).
    assert main(["presets"]) == 0
    lines = capsys.readouterr().out.splitlines()
    [line] = [line for line in lines if "alpha*" in line]
    assert line == "growth threshold alpha* = 0.4542; every sweep point lies above it"
    phi = np.linspace(0.0, 1.0, 100_001)
    alpha_star = float(np.max(2.0 * phi * np.sqrt((1.0 - phi) / (1.0 + 3.0 * phi))))
    assert alpha_star == pytest.approx(0.4542, abs=5e-5)
    assert gbmsim.PARAMETER_RANGES["alpha"][0] > alpha_star


def test_cli_unknown_subcommand():
    assert main(["frobnicate"]) == 2


def test_cli_missing_required_flag():
    assert main(["run"]) == 2


def test_cli_run_writes_outputs(tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text(SMALL_RUN)
    out = tmp_path / "out"
    assert main(["run", "--config", str(config), "--out", str(out)]) == 0
    assert (out / "metrics.csv").exists()
    snapshots = sorted(out.glob("snapshot_*.csv"))
    assert len(snapshots) == 3  # steps 0, 5, 10


def test_cli_run_names_each_snapshot_by_its_exact_time(tmp_path):
    # The six times agree to six decimals, so no coarser format tells them apart.
    config = tmp_path / "run.cfg"
    config.write_text(
        "[mesh]\nn_sub = 4\n[solver]\ndt = 1e-7\nt_final = 5e-7\n"
        "snapshot_every = 1\nmetrics_every = 1\n"
    )
    out = tmp_path / "out"
    assert main(["run", "--config", str(config), "--out", str(out)]) == 0
    names = sorted(
        path.name.removeprefix("snapshot_t").removesuffix(".csv")
        for path in out.glob("snapshot_t*.csv")
    )
    assert sorted(map(float, names)) == [k * 1e-7 for k in range(6)]
    # each name is the text of its row's t column in metrics.csv
    rows = (out / "metrics.csv").read_text().splitlines()[1:]
    assert sorted(row.split(",")[0] for row in rows) == names


def test_cli_run_with_a_huge_tumor_radius_seeds_every_vertex(tmp_path):
    # radius / cell edge = 2e308 overflows to inf before the box is clipped
    config = tmp_path / "run.cfg"
    config.write_text(
        "[mesh]\nn_sub = 4\nxmin = -1\nxmax = 1\nymin = -1\nymax = 1\n"
        "[solver]\nt_final = 0.002\n[ic]\ntumor_radius = 1e308\n"
    )
    out = tmp_path / "out"
    assert main(["run", "--config", str(config), "--out", str(out)]) == 0
    rows = (out / "snapshot_t0.0.csv").read_text().splitlines()[1:]
    assert len(rows) == 25
    assert all(float(row.split(",")[2]) == 0.5 for row in rows)


def test_cli_run_deterministic(tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text(SMALL_RUN)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", str(config), "--out", str(out_a)]) == 0
    assert main(["run", "--config", str(config), "--out", str(out_b)]) == 0
    assert (out_a / "metrics.csv").read_bytes() == (out_b / "metrics.csv").read_bytes()


def test_cli_run_missing_config_file(tmp_path, capsys):
    code = main(
        ["run", "--config", str(tmp_path / "nope.cfg"), "--out", str(tmp_path)]
    )
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_cli_run_bad_config(tmp_path, capsys):
    config = tmp_path / "bad.cfg"
    config.write_text("[params]\nalhpa=3\n")
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "o")]) == 1
    assert "line 2" in capsys.readouterr().err


def test_cli_sweep_creates_one_directory_per_value(tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text(SMALL_RUN)
    out = tmp_path / "sweep"
    code = main(
        ["sweep", "--config", str(config), "--param", "alpha",
         "--values", "10,45,100", "--out", str(out)]
    )
    assert code == 0
    dirs = sorted(d.name for d in out.iterdir())
    assert dirs == ["alpha=10", "alpha=100", "alpha=45"]
    for d in out.iterdir():
        assert (d / "metrics.csv").exists()


def test_cli_sweep_without_values_fails_before_running(tmp_path):
    out = tmp_path / "sweep"
    code = main(["sweep", "--param", "alpha", "--values", " , ", "--out", str(out)])
    assert code == 1
    assert not out.exists()


def test_cli_sweep_rejects_repeated_values(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text(SMALL_RUN)
    out = tmp_path / "sweep"
    code = main(
        ["sweep", "--config", str(config), "--param", "alpha",
         "--values", "10,10.0", "--out", str(out)]
    )
    assert code == 1
    assert "repeat" in capsys.readouterr().err
    assert not out.exists()


def _python_m(module, *argv):
    src = str(Path(gbmsim.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")])
    )
    return subprocess.run(
        [sys.executable, "-m", module, *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )


@pytest.mark.parametrize("module", ["gbmsim", "gbmsim.cli"])
def test_python_m_gbmsim_runs_the_cli(module):
    presets = _python_m(module, "presets")
    assert presets.returncode == 0
    assert "kappa1=55.0" in presets.stdout
    assert "surface preset:" in presets.stdout
    usage = _python_m(module, "sweep")
    assert usage.returncode == 2
    assert "usage:" in usage.stderr


@pytest.mark.parametrize("command", ["run", "ode"])
def test_cli_rejects_infinite_horizon(tmp_path, capsys, command):
    config = tmp_path / "inf.cfg"
    config.write_text("[solver]\nt_final = inf\n")
    out = tmp_path / "out"
    assert main([command, "--config", str(config), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == "error: line 2: t_final must be finite, got inf\n"
    assert not out.exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "mesh, message",
    [
        ("xmax = inf", "xmax must be finite, got inf"),
        ("xmin = -1e308\nxmax = 1e308", "xmax - xmin must be finite, got inf"),
    ],
)
def test_cli_run_rejects_non_finite_bounds(tmp_path, capsys, mesh, message):
    config = tmp_path / "mesh.cfg"
    config.write_text(f"[mesh]\nn_sub = 4\n{mesh}\n")
    out = tmp_path / "out"
    assert main(["run", "--config", str(config), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_cli_ode_rejects_non_finite_initial_state(tmp_path, capsys, value):
    config = tmp_path / "ode.cfg"
    config.write_text(f"[ic]\node_tumor = {value}\n")
    out = tmp_path / "out"
    assert main(["ode", "--config", str(config), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: line 2: initial t_density must be finite, got {value}\n"
    assert not out.exists()


def test_cli_ode_reports_a_horizon_too_long_to_allocate(tmp_path, capsys):
    # 1e18 + 1 samples fail at once and touch no memory (numpy raises a
    # MemoryError); 1e303 + 1 exceed numpy's size limit (a ValueError).
    for t_final in ("1e15", "1e300"):
        config = tmp_path / "ode.cfg"
        config.write_text(f"[solver]\nt_final = {t_final}\n")
        out = tmp_path / "out"
        assert main(["ode", "--config", str(config), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "t_final / dt" in err
        assert not out.exists()


def test_cli_ode_writes_trajectory(tmp_path):
    config = tmp_path / "ode.cfg"
    config.write_text("[solver]\nt_final=0.5\nmetrics_every=100\n")
    out = tmp_path / "ode"
    assert main(["ode", "--config", str(config), "--out", str(out)]) == 0
    lines = (out / "trajectory.csv").read_text().splitlines()
    assert lines[0] == "t,T,N,Phi"
    assert len(lines) == 7  # samples at steps 0,100,...,500
    first = [float(v) for v in lines[1].split(",")]
    assert first == [0.0, 0.1, 0.0, 0.5]
