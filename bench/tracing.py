"""Span tracing for the benchmark's traced run.

The tracer wraps each layer's public function at the name its caller looks
it up by (``step`` finds ``assemble_stiffness`` in ``gbmsim.solver``, not in
``gbmsim.mesh``), records one span per call (name, start, end, parent) in
memory, and restores every original attribute when the ``with`` block ends,
so untraced runs execute unpatched code.  A target that a later version of
the package no longer has is skipped and reported with ``calls = 0``.

Counts made at the boundaries:

* matvecs: ``solve_spd`` gets a proxy matrix that counts ``dot`` calls;
* zero-rhs solves: a solve whose right-hand side is identically zero;
* the first assembly of each run: CSR nnz, explicit zeros, and the bytes one
  matvec reads and writes, computed from the array sizes;
* region vertices: vertices with T + N >= theta at each metrics sample.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from gbmsim.metrics import DEFAULT_THRESHOLD

# (module path, attribute, span name).  Class attributes are written
# "Class.method".
TARGETS = (
    ("gbmsim", "run", "solver.run"),
    ("gbmsim.solver", "step", "solver.step"),
    ("gbmsim.solver", "assemble_stiffness", "mesh.assemble_stiffness"),
    ("gbmsim.solver", "solve_spd", "solver.solve_spd"),
    ("gbmsim.solver", "compute_sample", "metrics.compute_sample"),
    ("gbmsim.cli", "main", "cli.main"),
    ("gbmsim.cli", "run", "solver.run"),
    ("gbmsim.cli", "run_homogeneous", "solver.run_homogeneous"),
    ("gbmsim.cli", "write_snapshot", "output.write_snapshot"),
    ("gbmsim.cli", "write_metrics_csv", "output.write_metrics_csv"),
    ("gbmsim.cli", "parse_config", "config.parse_config"),
    ("gbmsim.experiments", "run", "solver.run"),
    ("gbmsim.experiments", "build_mesh", "mesh.build_mesh"),
    ("gbmsim.experiments", "Scenario.initial_state", "experiments.initial_state"),
)


class CountingMatrix:
    """Matrix proxy handed to ``solve_spd``: counts products, delegates the
    rest."""

    def __init__(self, matrix):
        self._matrix = matrix
        self.matvecs = 0

    def dot(self, x):
        self.matvecs += 1
        return self._matrix.dot(x)

    def __matmul__(self, x):
        self.matvecs += 1
        return self._matrix @ x

    def diagonal(self):
        return self._matrix.diagonal()

    def __getattr__(self, name):
        return getattr(self._matrix, name)


@dataclass
class Solve:
    span: int
    matvecs: int
    zero_rhs: bool


@dataclass
class Tracer:
    """Collects spans and boundary counts while installed (``with tracer:``)."""

    spans: list = field(default_factory=list)  # [name, start, end, parent]
    solves: list = field(default_factory=list)
    first_assemblies: list = field(default_factory=list)  # span indices
    matrix_stats: dict = field(default_factory=dict)
    region_sizes: list = field(default_factory=list)
    homogeneous_steps: list = field(default_factory=list)
    missing: list = field(default_factory=list)
    _stack: list = field(default_factory=list)
    _patches: list = field(default_factory=list)
    _fresh_run: bool = False

    # -- installing and removing ------------------------------------------

    def __enter__(self):
        try:
            for module_name, attr, span_name in TARGETS:
                owner = importlib.import_module(module_name)
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part, None)
                if owner is None or not hasattr(owner, leaf):
                    self.missing.append(f"{module_name}.{attr}")
                    continue
                original = getattr(owner, leaf)
                self._patches.append((owner, leaf, original))
                setattr(owner, leaf, self._wrap(span_name, original))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc):
        self._restore()
        return False

    def _restore(self):
        while self._patches:
            owner, leaf, original = self._patches.pop()
            setattr(owner, leaf, original)

    # -- spans ------------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name, fn):
        hook = {
            "solver.run": self._call_run,
            "solver.solve_spd": self._call_solve,
            "mesh.assemble_stiffness": self._call_assemble,
            "metrics.compute_sample": self._call_sample,
            "solver.run_homogeneous": self._call_homogeneous,
        }.get(name, self._call)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return hook(name, fn, args, kwargs)

        return wrapper

    def _call(self, name, fn, args, kwargs):
        index = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(index)

    def _call_run(self, name, fn, args, kwargs):
        self._fresh_run = True
        return self._call(name, fn, args, kwargs)

    def _call_solve(self, name, fn, args, kwargs):
        if len(args) < 2:
            return self._call(name, fn, args, kwargs)
        matrix, rhs, *rest = args
        zero_rhs = not np.any(rhs)
        proxy = CountingMatrix(matrix)
        index = self._open(name)
        try:
            return fn(proxy, rhs, *rest, **kwargs)
        finally:
            self._close(index)
            self.solves.append(Solve(index, proxy.matvecs, zero_rhs))

    def _call_assemble(self, name, fn, args, kwargs):
        index = self._open(name)
        try:
            matrix = fn(*args, **kwargs)
        finally:
            self._close(index)
        if self._fresh_run:
            self._fresh_run = False
            self.first_assemblies.append(index)
            self.matrix_stats = _matrix_stats(matrix)
        return matrix

    def _call_sample(self, name, fn, args, kwargs):
        sample = self._call(name, fn, args, kwargs)
        state = args[0] if args else kwargs["state"]
        theta = args[2] if len(args) > 2 else kwargs.get("theta", DEFAULT_THRESHOLD)
        self.region_sizes.append(
            int(np.count_nonzero(state.t_field + state.n_field >= theta))
        )
        return sample

    def _call_homogeneous(self, name, fn, args, kwargs):
        trajectory = self._call(name, fn, args, kwargs)
        self.homogeneous_steps.append(len(trajectory) - 1)
        return trajectory

    # -- results ------------------------------------------------------------

    def write_spans(self, path) -> None:
        """Write the spans as JSON: a name table and [name, start, end,
        parent] rows with times in seconds from the first span."""
        names = sorted({span[0] for span in self.spans})
        code = {name: i for i, name in enumerate(names)}
        origin = self.spans[0][1] if self.spans else 0.0
        rows = [
            [code[n], round(s - origin, 9), round(e - origin, 9), p]
            for n, s, e, p in self.spans
        ]
        Path(path).write_text(json.dumps({"names": names, "spans": rows}))

    def layer_metrics(self) -> dict:
        """Per-layer metrics: name -> (value, unit, detail)."""
        return _layer_metrics(self)


def _matrix_stats(matrix) -> dict:
    data = getattr(matrix, "data", None)
    indices = getattr(matrix, "indices", None)
    indptr = getattr(matrix, "indptr", None)
    if data is None or indices is None or indptr is None:
        return {}
    nv = matrix.shape[0]
    nnz = int(data.size)
    itemsize = np.dtype(float).itemsize
    return {
        "nnz": nnz,
        "explicit_zeros": int(nnz - np.count_nonzero(data)),
        # CSR values, column indices and row pointers are read once; x is
        # read and y written once each.
        "matvec_bytes": int(
            data.nbytes + indices.nbytes + indptr.nbytes + 2 * nv * itemsize
        ),
    }


def _pct(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _layer_metrics(tr: Tracer) -> dict:
    duration = {}
    children = {}
    for index, (name, start, end, parent) in enumerate(tr.spans):
        duration.setdefault(name, []).append((index, end - start))
        children.setdefault(parent, []).append(index)

    def dur(index):
        _, start, end, _ = tr.spans[index]
        return end - start

    def self_time(index):
        return dur(index) - sum(dur(c) for c in children.get(index, ()))

    def ms(name):
        return [1e3 * d for _, d in duration.get(name, ())]

    def calls(name):
        return len(duration.get(name, ()))

    zero_by_span = {s.span: s.zero_rhs for s in tr.solves}
    step_zero = {}
    for index, _ in duration.get("solver.step", ()):
        flags = [
            zero_by_span[c] for c in children.get(index, ()) if c in zero_by_span
        ]
        step_zero[index] = bool(flags) and all(flags)
    active = [1e3 * dur(i) for i, z in step_zero.items() if not z]
    decayed = [1e3 * dur(i) for i, z in step_zero.items() if z]
    step_self = [1e3 * self_time(i) for i in step_zero]

    run_spans = [i for i, _ in duration.get("solver.run", ())]
    run_self = sum(self_time(i) for i in run_spans)
    run_steps = sum(
        1
        for i in run_spans
        for c in children.get(i, ())
        if tr.spans[c][0] == "solver.step"
    )

    assemblies = duration.get("mesh.assemble_stiffness", ())
    wasted = sum(
        1 for i, _ in assemblies if step_zero.get(tr.spans[i][3], False)
    )

    n_solves = len(tr.solves)
    n_zero = sum(1 for s in tr.solves if s.zero_rhs)
    matvecs = sum(s.matvecs for s in tr.solves)
    stats = tr.matrix_stats

    homogeneous_s = [d for _, d in duration.get("solver.run_homogeneous", ())]
    homogeneous_steps = sum(tr.homogeneous_steps)

    cli_self = sum(self_time(i) for i, _ in duration.get("cli.main", ()))
    first_assembly = [1e3 * dur(i) for i in tr.first_assemblies]

    step_ms = ms("solver.step")
    solve_ms = ms("solver.solve_spd")
    assemble_ms = ms("mesh.assemble_stiffness")
    sample_ms = ms("metrics.compute_sample")
    snapshot_ms = ms("output.write_snapshot")
    n_steps = calls("solver.step")

    def n(count, what):
        return f"n={count} {what}"

    return {
        "solver.step.calls": (n_steps, "count", "steps"),
        "solver.step.ms_p50": (_pct(step_ms, 50), "ms", n(n_steps, "steps")),
        "solver.step.ms_p99": (_pct(step_ms, 99), "ms", n(n_steps, "steps")),
        "solver.step.active_ms_p50": (
            _pct(active, 50), "ms", n(len(active), "steps with nonzero rhs")
        ),
        "solver.step.decayed_ms_p50": (
            _pct(decayed, 50), "ms", n(len(decayed), "steps with all-zero rhs")
        ),
        "solver.step.self_ms_p50": (
            _pct(step_self, 50), "ms",
            n(n_steps, "steps; step minus assembly and solve"),
        ),
        "solver.solve_spd.calls": (n_solves, "count", "solves"),
        "solver.solve_spd.ms_p50": (_pct(solve_ms, 50), "ms", n(n_solves, "solves")),
        "solver.solve_spd.ms_p99": (_pct(solve_ms, 99), "ms", n(n_solves, "solves")),
        "solver.solve_spd.matvecs": (matvecs, "count", "dot calls, exact"),
        "solver.solve_spd.matvecs_per_solve": (
            _ratio(matvecs, n_solves - n_zero), "matvec/solve",
            f"base: {n_solves - n_zero} solves with nonzero rhs",
        ),
        "solver.solve_spd.matvec_bytes": (
            stats.get("matvec_bytes", 0), "B-computed",
            "per matvec, computed from CSR array sizes and nv",
        ),
        "solver.solve_spd.zero_rhs": (n_zero, "count", "solves with all-zero rhs"),
        "solver.solve_spd.zero_rhs_ratio": (
            _ratio(n_zero, n_solves), "ratio", f"{n_zero}/{n_solves} solves"
        ),
        "solver.run.calls": (len(run_spans), "count", "runs"),
        "solver.run.self_ms_per_step": (
            1e3 * _ratio(run_self, run_steps), "ms",
            f"base: {run_steps} steps; run minus steps, samples and set-up",
        ),
        "solver.run_homogeneous.s": (
            _pct(homogeneous_s, 50), "s", n(len(homogeneous_s), "calls")
        ),
        "solver.run_homogeneous.steps_per_s": (
            _ratio(homogeneous_steps, sum(homogeneous_s)), "1/s",
            f"base: {homogeneous_steps} steps",
        ),
        "mesh.assemble_stiffness.calls": (len(assemblies), "count", "assemblies"),
        "mesh.assemble_stiffness.ms_p50": (
            _pct(assemble_ms, 50), "ms", n(len(assemblies), "assemblies")
        ),
        "mesh.assemble_stiffness.ms_p99": (
            _pct(assemble_ms, 99), "ms", n(len(assemblies), "assemblies")
        ),
        "mesh.assemble_stiffness.wasted_ratio": (
            _ratio(wasted, len(assemblies)), "ratio",
            f"{wasted}/{len(assemblies)} assemblies for an all-zero rhs",
        ),
        "mesh.nnz": (stats.get("nnz", 0), "count", "stored CSR entries"),
        "mesh.explicit_zero_ratio": (
            _ratio(stats.get("explicit_zeros", 0), stats.get("nnz", 0)), "ratio",
            f"{stats.get('explicit_zeros', 0)}/{stats.get('nnz', 0)} entries",
        ),
        "mesh.build_mesh.ms": (
            _pct(ms("mesh.build_mesh"), 50), "ms",
            n(calls("mesh.build_mesh"), "calls"),
        ),
        "mesh.first_assembly.ms": (
            _pct(first_assembly, 50), "ms", n(len(first_assembly), "runs")
        ),
        "metrics.compute_sample.calls": (len(sample_ms), "count", "samples"),
        "metrics.compute_sample.ms_p50": (
            _pct(sample_ms, 50), "ms", n(len(sample_ms), "samples")
        ),
        "metrics.compute_sample.ms_p99": (
            _pct(sample_ms, 99), "ms", n(len(sample_ms), "samples")
        ),
        "metrics.region_vertices_mean": (
            float(np.mean(tr.region_sizes)) if tr.region_sizes else 0.0,
            "count", n(len(tr.region_sizes), "samples"),
        ),
        "output.write_snapshot.calls": (len(snapshot_ms), "count", "snapshots"),
        "output.write_snapshot.ms_p50": (
            _pct(snapshot_ms, 50), "ms", n(len(snapshot_ms), "snapshots")
        ),
        "output.write_metrics_csv.ms": (
            _pct(ms("output.write_metrics_csv"), 50), "ms",
            n(calls("output.write_metrics_csv"), "calls"),
        ),
        "cli.self_s": (
            cli_self, "s",
            n(calls("cli.main"), "cli.main calls; minus run, writers and parse"),
        ),
        "config.parse_config.ms": (
            _pct(ms("config.parse_config"), 50), "ms",
            n(calls("config.parse_config"), "calls"),
        ),
        "experiments.initial_state.ms": (
            _pct(ms("experiments.initial_state"), 50), "ms",
            n(calls("experiments.initial_state"), "calls"),
        ),
        "trace.spans": (len(tr.spans), "count", "spans recorded"),
    }
