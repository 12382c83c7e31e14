"""Run every workload untraced, each in its own process, and print its
end-to-end metrics by name with units.

    python3 bench/summary.py [--seed N] [--seconds S]

Exits non-zero if any workload fails to run or fails its output checks.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent


def main(argv=None) -> int:
    config = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=config["run_seconds"])
    args = parser.parse_args(argv)

    status = 0
    for workload in config["workloads"]:
        name = workload["name"]
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds)],
            capture_output=True, text=True,
        )
        lines = proc.stdout.strip().split("\n")
        if proc.returncode != 0 or not json.loads(lines[-1])["correct"]:
            status = 1
        print(f"{name}:")
        for line in lines[:-1]:
            if not line.startswith("# workload") and not line.startswith("# gbmsim"):
                print(f"  {line}")
        if proc.returncode != 0:
            print(f"  exit code {proc.returncode}: {proc.stderr.strip()[-500:]}")
    return status


if __name__ == "__main__":
    sys.exit(main())
