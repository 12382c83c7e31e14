"""The benchmark's four workloads and their output checks.

Each workload drives only public entry points of ``gbmsim``: ``run``, the
scenario presets, and ``cli.main`` (which reaches ``run_homogeneous``).
A workload turns a seed into inputs, performs one set-up sequence on its own
(``setup``) so set-up time can be measured apart from the run, executes one
complete run (``execute``), and checks the outputs (``check``).  A run's
``fingerprint`` must repeat exactly on every rerun with the same inputs.
See NOTES.md for why these four were chosen.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import shutil
from dataclasses import astuple, dataclass, replace
from pathlib import Path

import gbmsim
from gbmsim import cli
from gbmsim.solver import LOWER_BOUND_TOL, UPPER_BOUND_TOL

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

# Observables are compared with the seed's only while the tumor integral is
# representable far above the underflow floor; the decayed phase is left
# free because extended-range work changes it legitimately.
MIN_TUMOR_INTEGRAL = 1e-30
REL_TOL = 1e-6

DEFAULT_SEED = 0

METRICS_COLUMNS = len(gbmsim.METRICS_HEADER.split(","))
INT_T = gbmsim.METRICS_HEADER.split(",").index("int_T")


def preset_setup(scenario) -> None:
    """The work ``run`` does before its first step: mesh, initial state, and
    the first stiffness assembly (which builds the CSR pattern)."""
    mesh = scenario.build_mesh()
    state = scenario.initial_state(mesh)
    p = gbmsim.vascular_fraction(state.phi_field, state.t_field)
    gbmsim.assemble_stiffness(mesh, scenario.params.kappa1 * p + 1.0)


def _close(a: float, b: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=0.0)


def compare_rows(label, rows, reference, key_column) -> list[str]:
    """Rows with ``row[key_column] >= MIN_TUMOR_INTEGRAL`` must match the
    reference rows (matched by time, column 0) within ``REL_TOL``."""
    kept = {row[0]: row for row in rows if row[key_column] >= MIN_TUMOR_INTEGRAL}
    expected = {row[0]: row for row in reference}
    problems = []
    if set(kept) != set(expected):
        problems.append(
            f"{label}: {len(kept)} representable samples, "
            f"reference has {len(expected)}"
        )
    for t in sorted(set(kept) & set(expected)):
        for got, want in zip(kept[t], expected[t]):
            if not _close(got, want):
                problems.append(f"{label}: t={t!r}: {kept[t]} != {expected[t]}")
                break
    return problems


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


def _parse_csv(path: Path, header: str, columns: int) -> list[list[float]]:
    lines = path.read_text().split("\n")
    if lines[0] != header or lines[-1] != "":
        raise ValueError(f"{path.name}: unexpected header or missing final LF")
    rows = [[float(v) for v in line.split(",")] for line in lines[1:-1]]
    if any(len(row) != columns for row in rows):
        raise ValueError(f"{path.name}: row with a wrong column count")
    return rows


def _digest(directory: Path) -> tuple:
    return tuple(
        (str(p.relative_to(directory)), hashlib.sha256(p.read_bytes()).hexdigest())
        for p in sorted(directory.rglob("*"))
        if p.is_file()
    )


def bytes_under(directory: Path) -> int:
    return sum(p.stat().st_size for p in directory.rglob("*") if p.is_file())


# ---------------------------------------------------------------------------
# Preset runs through the Python API


@dataclass(frozen=True)
class PresetRun:
    name: str
    why: str
    preset: str  # "ring" or "surface"
    n_sub: int
    t_final: float
    metrics_every: int
    setup_samples: int
    uses_seed = False
    min_runs = 1
    key_column = INT_T

    def inputs(self, seed: int, workdir: Path):
        make = {
            "ring": gbmsim.scenario_ring_width,
            "surface": gbmsim.scenario_surface_regularity,
        }[self.preset]
        scenario = replace(make(), n_sub=self.n_sub)
        config = replace(
            scenario.solver,
            t_final=self.t_final,
            metrics_every=self.metrics_every,
            snapshot_every=10**9,
        )
        return scenario, config

    def setup(self, inputs) -> None:
        preset_setup(inputs[0])

    def execute(self, inputs, out_dir: Path):
        scenario, config = inputs
        result = gbmsim.run(scenario, config)
        # Keep only what the checks read, so that a rerun does not allocate
        # while the previous run's mesh is still alive (peak RSS would then
        # depend on how many runs fit in the measured time).
        return replace(result, mesh=None, snapshots=[])

    def observables(self, inputs, result) -> dict:
        return {self.name: [list(astuple(s)) for s in result.metrics]}

    def fingerprint(self, result) -> str:
        return repr((self.observables(None, result), result.bound_violations))

    def bytes_written(self, result) -> int:
        return 0

    def check(self, inputs, result, reference) -> list[str]:
        problems = [
            f"bound violation: {v}" for v in result.bound_violations[:5]
        ]
        rows = self.observables(inputs, result)[self.name]
        problems += [
            f"rq={row[1]!r} outside [0, 1] at t={row[0]!r}"
            for row in rows
            if not 0.0 <= row[1] <= 1.0
        ]
        problems += compare_rows(self.name, rows, reference[self.name], self.key_column)
        return problems


# ---------------------------------------------------------------------------
# CLI workloads


@dataclass(frozen=True)
class CliInputs:
    argv: list
    config_text: str
    values: tuple = ()


def _call_cli(argv) -> tuple[int, str]:
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        code = cli.main(argv)
    return code, stderr.getvalue()


@dataclass(frozen=True)
class CliOutcome:
    code: int
    stderr: str
    out_dir: Path


class _CliWorkload:
    min_runs = 2  # the second run checks that reruns are byte-identical

    def _write_config(self, workdir: Path) -> Path:
        workdir.mkdir(parents=True, exist_ok=True)
        path = workdir / "config.cfg"
        path.write_text(self.config_text)
        return path

    def execute(self, inputs: CliInputs, out_dir: Path) -> CliOutcome:
        shutil.rmtree(out_dir, ignore_errors=True)
        code, stderr = _call_cli(inputs.argv + ["--out", str(out_dir)])
        return CliOutcome(code, stderr, out_dir)

    def fingerprint(self, outcome: CliOutcome):
        return (outcome.code, outcome.stderr, _digest(outcome.out_dir))

    def bytes_written(self, outcome: CliOutcome) -> int:
        return bytes_under(outcome.out_dir)

    def _cli_problems(self, outcome: CliOutcome) -> list[str]:
        problems = []
        if outcome.code != 0:
            problems.append(f"exit code {outcome.code}")
        if outcome.stderr:
            problems.append(f"stderr: {outcome.stderr.strip()[:300]}")
        return problems


SWEEP_CONFIG = """\
[ic]
scenario = surface
[solver]
dt = 0.001
t_final = 0.5
metrics_every = 5
snapshot_every = 50
[output]
vtk = true
"""


@dataclass(frozen=True)
class CliSweep(_CliWorkload):
    name: str = "cli_sweep_io"
    why: str = (
        "CLI sweep of three alpha values at n_sub=45 with dense metrics and VTK "
        "snapshots: the only workload where metrics and output dominate"
    )
    param: str = "alpha"
    config_text: str = SWEEP_CONFIG
    setup_samples: int = 24
    uses_seed = True
    key_column = INT_T

    def values(self, seed: int) -> tuple[str, ...]:
        """The default seed gives the preset grid (range low, fixed value,
        range high).  Any other seed draws one offset u in [0, 1) and takes
        the point at u in each third of the parameter's range, so every seed
        spans the range alike and the sweep's total work varies little."""
        if seed == DEFAULT_SEED:
            grid = gbmsim.default_sweep_values(self.param)
        else:
            lo, hi = gbmsim.PARAMETER_RANGES[self.param]
            u = random.Random(seed).random()
            grid = [lo + (hi - lo) * (i + u) / 3.0 for i in range(3)]
        return tuple(f"{v:.6g}" for v in grid)

    def inputs(self, seed: int, workdir: Path) -> CliInputs:
        config = self._write_config(workdir)
        values = self.values(seed)
        argv = [
            "sweep", "--config", str(config),
            "--param", self.param, "--values", ",".join(values),
        ]
        return CliInputs(argv=argv, config_text=self.config_text, values=values)

    def setup(self, inputs: CliInputs) -> None:
        preset_setup(gbmsim.parse_config(inputs.config_text).to_scenario())

    def observables(self, inputs: CliInputs, outcome: CliOutcome) -> dict:
        return {
            f"{self.name}/{self.param}={v}": _parse_csv(
                outcome.out_dir / f"{self.param}={v}" / "metrics.csv",
                gbmsim.METRICS_HEADER,
                METRICS_COLUMNS,
            )
            for v in inputs.values
        }

    def check(self, inputs: CliInputs, outcome: CliOutcome, reference) -> list[str]:
        problems = self._cli_problems(outcome)
        if problems:
            return problems
        config = gbmsim.parse_config(inputs.config_text)
        nv = (config.n_sub + 1) ** 2
        n_steps = round(config.solver.t_final / config.solver.dt)
        n_samples = n_steps // config.solver.metrics_every + 1
        n_snapshots = n_steps // config.solver.snapshot_every + 1
        for key, rows in self.observables(inputs, outcome).items():
            if len(rows) != n_samples:
                problems.append(f"{key}: {len(rows)} samples, expected {n_samples}")
            problems += [
                f"{key}: rq={row[1]!r} outside [0, 1] at t={row[0]!r}"
                for row in rows
                if not 0.0 <= row[1] <= 1.0
            ]
            if key in reference:
                problems += compare_rows(key, rows, reference[key], self.key_column)
        for value in inputs.values:
            member = outcome.out_dir / f"{self.param}={value}"
            snapshots = sorted(member.glob("snapshot_t*.csv"))
            if len(snapshots) != n_snapshots:
                problems.append(
                    f"{member.name}: {len(snapshots)} snapshots, "
                    f"expected {n_snapshots}"
                )
            for path in snapshots:
                problems += _check_snapshot(path, nv)
        return problems


def _check_snapshot(path: Path, nv: int) -> list[str]:
    """The CSV parses back, stays within the bounds, and its VTK sibling
    carries the same values."""
    rows = _parse_csv(path, "x,y,T,N,Phi", 5)
    if len(rows) != nv:
        return [f"{path.name}: {len(rows)} vertices, expected {nv}"]
    problems = []
    for x, y, t, n, phi in rows:
        if not (
            -LOWER_BOUND_TOL <= t <= 1.0 + UPPER_BOUND_TOL
            and -LOWER_BOUND_TOL <= phi <= 1.0 + UPPER_BOUND_TOL
            and n >= -LOWER_BOUND_TOL
        ):
            problems.append(f"{path.name}: field out of bounds at ({x}, {y})")
            break
    lines = path.with_suffix(".vtk").read_text().split("\n")
    if lines[0] != "# vtk DataFile Version 3.0" or f"POINTS {nv} double" not in lines:
        return problems + [f"{path.name}: VTK sibling has a wrong header"]
    for column, name in ((2, "T"), (3, "N"), (4, "Phi")):
        start = lines.index(f"SCALARS {name} double 1") + 2
        values = [float(v) for v in lines[start:start + nv]]
        if values != [row[column] for row in rows]:
            problems.append(f"{path.name}: VTK {name} differs from the CSV")
    return problems


ODE_CONFIG = """\
[ic]
ode_tumor = 0.1
ode_necrosis = 0.1
ode_vasculature = 0.5
[solver]
dt = 0.001
t_final = 200
"""


@dataclass(frozen=True)
class CliOde(_CliWorkload):
    name: str = "ode_t200"
    why: str = (
        "CLI ode mode, 2e5 scalar semi-implicit steps: run_homogeneous shares "
        "no code with the mesh workloads"
    )
    config_text: str = ODE_CONFIG
    setup_samples: int = 24
    uses_seed = False
    key_column = 1  # T

    def inputs(self, seed: int, workdir: Path) -> CliInputs:
        config = self._write_config(workdir)
        return CliInputs(argv=["ode", "--config", str(config)],
                         config_text=self.config_text)

    def setup(self, inputs: CliInputs) -> None:
        gbmsim.parse_config(inputs.config_text)

    def observables(self, inputs, outcome: CliOutcome) -> dict:
        return {
            self.name: _parse_csv(outcome.out_dir / "trajectory.csv", "t,T,N,Phi", 4)
        }

    def check(self, inputs: CliInputs, outcome: CliOutcome, reference) -> list[str]:
        problems = self._cli_problems(outcome)
        if problems:
            return problems
        rows = self.observables(inputs, outcome)[self.name]
        t_end, tumor, _, phi = rows[-1]
        config = gbmsim.parse_config(inputs.config_text)
        if t_end != config.solver.t_final:
            problems.append(f"trajectory ends at t={t_end!r}")
        if not (tumor < 1e-4 and phi < 1e-4):
            problems.append(f"no decay: T={tumor!r}, Phi={phi!r} at t={t_end!r}")
        problems += [
            f"state {row} out of bounds"
            for row in rows
            if not (
                -LOWER_BOUND_TOL <= row[1] <= 1.0 + UPPER_BOUND_TOL
                and row[2] >= -LOWER_BOUND_TOL
                and -LOWER_BOUND_TOL <= row[3] <= 1.0 + UPPER_BOUND_TOL
            )
        ][:5]
        problems += compare_rows(self.name, rows, reference[self.name], self.key_column)
        return problems


WORKLOADS = {
    w.name: w
    for w in (
        PresetRun(
            name="ring_n45_t25",
            why=(
                "ring preset to the paper's comparison time t=25: an active "
                "CG phase, then 15408 of 25000 steps with an all-zero rhs"
            ),
            preset="ring",
            n_sub=45,
            t_final=25.0,
            metrics_every=250,
            setup_samples=24,
        ),
        PresetRun(
            name="surface_n180_active",
            why=(
                "surface preset at n_sub=180 over the active start: CG with "
                "zoned diffusivity dominates every step"
            ),
            preset="surface",
            n_sub=180,
            t_final=0.5,
            metrics_every=50,
            setup_samples=10,
        ),
        CliSweep(),
        CliOde(),
    )
}
