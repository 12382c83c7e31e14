"""Regenerate reference.json: the observables of every workload at the
default seed, kept only while the tumor integral is representable.

    python3 bench/make_reference.py

Run it only on a commit whose outputs are known good; the benchmark's
checks compare every later commit with these values.
"""

from __future__ import annotations

import json
import sys

from run import OUT_DIR, import_package, pin_threads


def main() -> int:
    import_package()
    from workloads import (
        DEFAULT_SEED, MIN_TUMOR_INTEGRAL, REFERENCE_PATH, WORKLOADS,
    )

    reference = {}
    for workload in WORKLOADS.values():
        workdir = OUT_DIR / "reference" / workload.name
        inputs = workload.inputs(DEFAULT_SEED, workdir)
        outcome = workload.execute(inputs, workdir / "run0")
        for key, rows in workload.observables(inputs, outcome).items():
            reference[key] = [
                row for row in rows if row[workload.key_column] >= MIN_TUMOR_INTEGRAL
            ]
            print(f"{key}: {len(reference[key])} of {len(rows)} samples kept")
    REFERENCE_PATH.write_text(
        "{\n"
        + ",\n".join(
            f"{json.dumps(key)}: [\n"
            + ",\n".join(json.dumps(row) for row in rows)
            + "\n]"
            for key, rows in reference.items()
        )
        + "\n}\n"
    )
    return 0


if __name__ == "__main__":
    pin_threads()
    sys.exit(main())
