"""Tests of the benchmark's traced run: exact counts repeat, wrappers come
off again, and names that are never called or no longer exist report zero."""

import importlib
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

import tracing  # noqa: E402
from workloads import WORKLOADS, load_reference  # noqa: E402

EXACT = (
    "solver.step.calls",
    "solver.solve_spd.calls",
    "solver.solve_spd.matvecs",
    "solver.solve_spd.zero_rhs",
    "mesh.nnz",
    "mesh.explicit_zero_ratio",
    "solver.solve_spd.matvec_bytes",
    "metrics.compute_sample.calls",
    "output.write_snapshot.calls",
)


def _targets():
    found = {}
    for module_name, attr, _ in tracing.TARGETS:
        owner = importlib.import_module(module_name)
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        found[(module_name, attr)] = owner.__dict__[leaf]
    return found


def traced_counts(name, workdir):
    workload = WORKLOADS[name]
    inputs = workload.inputs(0, workdir)
    with tracing.Tracer() as tracer:
        outcome = workload.execute(inputs, workdir / "out")
    assert workload.check(inputs, outcome, load_reference()) == []
    metrics = tracer.layer_metrics()
    counts = {key: metrics[key][0] for key in EXACT}
    counts["output.bytes_written"] = workload.bytes_written(outcome)
    return counts


@pytest.mark.slow
@pytest.mark.parametrize("name", ["ring_n45_t25", "cli_sweep_io", "ode_t200"])
def test_exact_counts_repeat_across_traced_runs(name, tmp_path):
    first = traced_counts(name, tmp_path / "a")
    second = traced_counts(name, tmp_path / "b")
    assert first == second
    if name == "ring_n45_t25":
        assert first["solver.step.calls"] == 25_000
        assert 0 < first["solver.solve_spd.zero_rhs"] < 25_000
        assert first["solver.solve_spd.matvecs"] > 0
        assert first["mesh.nnz"] > 0
    if name == "cli_sweep_io":
        assert first["output.write_snapshot.calls"] == 33
        assert first["output.bytes_written"] > 0


def test_attributes_restored_after_tracing(tmp_path):
    before = _targets()
    workload = WORKLOADS["ode_t200"]
    inputs = workload.inputs(0, tmp_path)
    with pytest.raises(RuntimeError):
        with tracing.Tracer():
            assert _targets() != before
            workload.execute(inputs, tmp_path / "out")
            raise RuntimeError("leave the block early")
    after = _targets()
    assert all(after[key] is before[key] for key in before)


def test_uncalled_and_absent_names_report_zero(tmp_path, monkeypatch):
    monkeypatch.setattr(
        tracing, "TARGETS", tracing.TARGETS + (("gbmsim.solver", "absent", "x.y"),)
    )
    workload = WORKLOADS["ode_t200"]
    inputs = workload.inputs(0, tmp_path)
    with tracing.Tracer() as tracer:
        workload.execute(inputs, tmp_path / "out")
    assert tracer.missing == ["gbmsim.solver.absent"]
    metrics = tracer.layer_metrics()
    assert metrics["mesh.assemble_stiffness.calls"][0] == 0
    assert metrics["solver.step.ms_p50"][0] == 0.0
    assert metrics["mesh.nnz"][0] == 0
    assert metrics["solver.run_homogeneous.steps_per_s"][0] > 0
    assert metrics["config.parse_config.ms"][0] > 0
    assert not hasattr(importlib.import_module("gbmsim.solver"), "absent")
