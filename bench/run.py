"""gbmsim benchmark: one workload per invocation.

    python3 bench/run.py --workload ring_n45_t25 --seed 0 --seconds 15 --trace 0

Run from the root of a source checkout; the package is imported from its
``src/`` directory.  ``--trace 0`` reports the end-to-end metrics from
untraced runs: ``setup_s`` (median of repeated set-up sequences), ``wall_s``
(median of complete runs, repeated until ``--seconds`` of runs have been
measured) and ``peak_rss_mib``.  ``--trace 1`` runs the workload once
untraced and once traced and reports the per-layer metrics.  Human-readable
lines go first; the last line of standard output is the JSON result.  Each
run's outputs are checked; ``failed``/``attempted`` is the failed ratio.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import sys
import threading
import time
from pathlib import Path

THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
MAX_PROBLEMS_SHOWN = 20


def pin_threads() -> None:
    """One BLAS thread: must run before numpy is first imported."""
    for name in THREAD_VARIABLES:
        os.environ[name] = "1"


def import_package():
    """Import gbmsim from this checkout's ``src/`` and nowhere else."""
    src = ROOT / "src"
    if not (src / "gbmsim" / "__init__.py").is_file():
        raise SystemExit(f"error: no gbmsim package under {src}")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(BENCH_DIR))
    import gbmsim

    if Path(gbmsim.__file__).resolve().parent != src / "gbmsim":
        raise SystemExit(f"error: imported gbmsim from {gbmsim.__file__}")
    return gbmsim


def environment() -> dict:
    import numpy
    import scipy

    def blas(module):
        try:
            info = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
            return f"{info['name']} {info['version']}"
        except (KeyError, TypeError, ValueError):
            return "unknown"

    return {
        "threads": {name: os.environ.get(name) for name in THREAD_VARIABLES},
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
        "commit": _commit(),
    }


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


class CpuRotation:
    """Moves the main thread to the next allowed CPU every ``period`` seconds
    while the block runs.

    On a shared virtual machine one vCPU can be much noisier than another
    for minutes at a time, so a run that stays wherever the scheduler put it
    measures that vCPU's luck.  Rotating makes every run sample each CPU
    alike.  The migrations cost a few cache refills per period, the same in
    every run.
    """

    def __init__(self, period: float = 0.05):
        self.period = period
        self.cpus = sorted(os.sched_getaffinity(0))
        self._tid = threading.get_native_id()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._rotate, daemon=True)

    def _rotate(self) -> None:
        index = 0
        while not self._stop.wait(self.period):
            index += 1
            os.sched_setaffinity(self._tid, {self.cpus[index % len(self.cpus)]})

    def __enter__(self):
        if len(self.cpus) > 1:
            self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        if self._thread.is_alive():
            self._thread.join(timeout=10.0)
        os.sched_setaffinity(self._tid, set(self.cpus))
        return False


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def time_setup(workload, inputs, samples: int) -> list[float]:
    """Seconds per set-up sequence; each sample times a batch of sequences
    long enough (>= 40 ms) for the clock."""
    start = time.perf_counter()
    workload.setup(inputs)
    batch = max(1, math.ceil(0.04 / max(time.perf_counter() - start, 1e-9)))
    times = []
    for _ in range(samples):
        start = time.perf_counter()
        for _ in range(batch):
            workload.setup(inputs)
        times.append((time.perf_counter() - start) / batch)
    return times


class Runs:
    """Executes and checks complete runs of one workload.

    A run fails when it raises, when its fingerprint differs from the first
    run's (reruns must be identical), or when the first run's outputs fail
    their check and this run repeats them."""

    def __init__(self, workload, inputs, workdir: Path, reference: dict):
        self.workload = workload
        self.inputs = inputs
        self.workdir = workdir
        self.reference = reference
        self.times: list[float] = []
        self.fingerprints: list = []
        self.problems: list[str] = []
        self.first = None

    def execute(self):
        index = len(self.times)
        out_dir = self.workdir / ("run0" if index == 0 else "rerun")
        start = time.perf_counter()
        try:
            outcome = self.workload.execute(self.inputs, out_dir)
        except Exception as exc:  # a failed run is counted, not fatal
            self.times.append(time.perf_counter() - start)
            self.fingerprints.append(None)
            self.problems.append(f"run {index} raised {type(exc).__name__}: {exc}")
            return None
        self.times.append(time.perf_counter() - start)
        self.fingerprints.append(self.workload.fingerprint(outcome))
        if self.first is None:
            self.first = outcome
        return outcome

    def failures(self) -> int:
        """Check the first successful run's outputs; count failed runs."""
        ok = [fp for fp in self.fingerprints if fp is not None]
        first_bad = False
        if self.first is not None:
            try:
                found = self.workload.check(self.inputs, self.first, self.reference)
            except (OSError, ValueError, KeyError) as exc:
                found = [f"outputs do not parse back: {exc}"]
            self.problems += found
            first_bad = bool(found)
        failed = 0
        for index, fp in enumerate(self.fingerprints):
            if fp is None or (first_bad and fp == ok[0]):
                failed += 1
            elif fp != ok[0]:
                failed += 1
                self.problems.append(f"run {index} differs from the first run")
        return failed


def measure(workload, inputs, workdir, reference, seconds):
    # Half the set-up samples are taken before the runs and half after, so
    # the median spans more than one phase of the machine's speed.
    half = workload.setup_samples // 2
    setup = time_setup(workload, inputs, half)
    runs = Runs(workload, inputs, workdir, reference)
    while sum(runs.times) < seconds or len(runs.times) < workload.min_runs:
        runs.execute()
    rss = peak_rss_mib()
    setup += time_setup(workload, inputs, workload.setup_samples - half)
    failed = runs.failures()
    metrics = {
        "setup_s": (
            statistics.median(setup), "s", f"median of {len(setup)} set-up samples"
        ),
        "wall_s": (
            statistics.median(runs.times), "s", f"median of {len(runs.times)} runs"
        ),
        "peak_rss_mib": (rss, "MiB", "ru_maxrss of this process"),
    }
    return runs, failed, metrics


def measure_traced(workload, inputs, workdir, reference):
    from tracing import Tracer

    runs = Runs(workload, inputs, workdir, reference)
    runs.execute()
    untraced = runs.times[-1]
    tracer = Tracer()
    with tracer:
        outcome = runs.execute()
    traced = runs.times[-1]
    failed = runs.failures()
    metrics = tracer.layer_metrics()
    metrics["output.bytes_written"] = (
        workload.bytes_written(outcome) if outcome is not None else 0,
        "B", "exact, traced run",
    )
    metrics["trace.wall_s"] = (traced, "s", "traced run")
    metrics["trace.overhead_ratio"] = (
        traced / untraced, "ratio", f"traced {traced:.4f} s / untraced {untraced:.4f} s"
    )
    if tracer.missing:
        runs.problems.append(f"note: not traced (absent): {', '.join(tracer.missing)}")
    tracer.write_spans(workdir / "spans.json")
    return runs, failed, metrics


def main(argv=None) -> int:
    gbmsim = import_package()
    from workloads import DEFAULT_SEED, WORKLOADS, load_reference

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    workdir = OUT_DIR / workload.name
    workdir.mkdir(parents=True, exist_ok=True)
    inputs = workload.inputs(args.seed, workdir)
    reference = load_reference()
    env = environment()

    with CpuRotation() as rotation:
        if args.trace:
            runs, failed, metrics = measure_traced(
                workload, inputs, workdir, reference
            )
        else:
            runs, failed, metrics = measure(
                workload, inputs, workdir, reference, args.seconds
            )
    env["cpu_rotation"] = {"cpus": rotation.cpus, "period_s": rotation.period}
    attempted = len(runs.times)

    seed_note = "" if workload.uses_seed else " (fixed preset: the seed is ignored)"
    print(f"# workload {workload.name}, seed {args.seed}{seed_note}")
    print(f"# {workload.why}")
    print(f"# gbmsim {gbmsim.__version__}; environment {json.dumps(env)}")
    for name, (value, unit, detail) in metrics.items():
        print(f"{name} = {value:.6g} {unit}  ({detail})")
    print(f"failed_ratio = {failed / attempted:.6g} ratio  ({failed}/{attempted} runs)")
    for problem in runs.problems[:MAX_PROBLEMS_SHOWN]:
        print(f"# check: {problem}")

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit, _) in metrics.items()
        },
    }
    record = dict(result, workload=workload.name, seed=args.seed,
                  trace=args.trace, environment=env, run_times_s=runs.times,
                  problems=runs.problems)
    record_path = workdir / f"result-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    pin_threads()
    sys.exit(main())
