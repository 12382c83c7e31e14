"""Command-line interface: run, sweep, ode, presets.

Exit codes: 0 success, 1 runtime failure (with a diagnostic on stderr),
2 usage error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import RunConfig, parse_config
from .errors import SimulationError, check_finite
from .experiments import (
    DEFAULT_PARAMETERS,
    PARAMETER_NAMES,
    PARAMETER_RANGES,
    scenario_ring_width,
    scenario_surface_regularity,
    sweep_runs,
)
from .output import (
    snapshot_name, write_metrics_csv, write_snapshot, write_trajectory_csv
)
from .solver import run, run_homogeneous

__all__ = ["main", "entry"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gbmsim",
        description="Three-field glioblastoma growth simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="integrate one scenario")
    run_p.add_argument("--config", help="config file (omit for ring defaults)")
    run_p.add_argument("--out", required=True, help="output directory")

    sweep_p = sub.add_parser("sweep", help="one run per value of one parameter")
    sweep_p.add_argument("--config", help="config file (omit for ring defaults)")
    sweep_p.add_argument(
        "--param", required=True, choices=sorted(PARAMETER_NAMES)
    )
    sweep_p.add_argument(
        "--values", required=True, help="comma-separated parameter values"
    )
    sweep_p.add_argument("--out", required=True, help="output directory")

    ode_p = sub.add_parser("ode", help="spatially homogeneous mode")
    ode_p.add_argument("--config", help="config file (omit for defaults)")
    ode_p.add_argument("--out", required=True, help="output directory")

    sub.add_parser("presets", help="print the preset parameter values")
    return parser


def _load_config(path: str | None) -> RunConfig:
    return parse_config("" if path is None else Path(path).read_text())


def _write_run_outputs(result, out_dir: Path, vtk: bool) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    write_metrics_csv(result.metrics, out_dir / "metrics.csv")
    for state in result.snapshots:
        write_snapshot(state, result.mesh, out_dir / snapshot_name(state.time), vtk=vtk)


def _cmd_run(args) -> int:
    config = _load_config(args.config)
    result = run(config)
    _write_run_outputs(result, Path(args.out), config.vtk)
    return 0


def _cmd_sweep(args) -> int:
    config = _load_config(args.config)
    tokens = [token.strip() for token in args.values.split(",") if token.strip()]
    values = []
    for token in tokens:
        try:
            values.append(float(token))
        except ValueError:
            check_finite(args.param, token)  # raises: no text is a real number
    runs = sweep_runs(config, args.param, values)
    for token, (_, result) in zip(tokens, runs):
        _write_run_outputs(
            result, Path(args.out) / f"{args.param}={token}", config.vtk
        )
    return 0


def _cmd_ode(args) -> int:
    config = _load_config(args.config)
    trajectory = run_homogeneous(config.ode_initial, config.params, config.solver)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_trajectory_csv(trajectory, out_dir / "trajectory.csv")
    return 0


def _cmd_presets(args) -> int:
    print("fixed defaults:")
    for name in PARAMETER_NAMES:
        print(f"  {name}={getattr(DEFAULT_PARAMETERS, name)}")
    print("sweep ranges:")
    for name in PARAMETER_NAMES:
        lo, hi = PARAMETER_RANGES[name]
        print(f"  {name} in [{lo}, {hi}]")
    phi = 3.0**-0.5  # maximises 2 Phi sqrt((1 - Phi) / (1 + 3 Phi)), which is alpha*
    alpha_star = 2.0 * phi * ((1.0 - phi) / (1.0 + 3.0 * phi)) ** 0.5
    print(f"growth threshold alpha* = {alpha_star:.4f}; every sweep point lies above it")
    ring = scenario_ring_width().vasculature_ic
    print(f"ring preset: uniform vasculature {ring.base_level}, necrosis 0")
    surface = scenario_surface_regularity().vasculature_ic
    levels = dict.fromkeys(zone.level for zone in surface.zones)
    print(
        f"surface preset: {len(levels)} vasculature corridors "
        f"({'/'.join(map(str, levels))}) on base {surface.base_level}"
    )
    return 0


_COMMANDS = {
    "run": _cmd_run,
    "sweep": _cmd_sweep,
    "ode": _cmd_ode,
    "presets": _cmd_presets,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 2
    try:
        return _COMMANDS[args.command](args)
    except (SimulationError, OSError, ValueError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
