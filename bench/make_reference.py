"""Record the default-seed reference that benchmark ops are checked against.

    python3 bench/make_reference.py

For ops 1..OPS of each workload at the reference seed, stores the full
ranking and epsilon of each screen-kcca and cli-dc op and the S values of
each suite-sim2 op in ``bench/reference.json``.  Each op must first pass
the oracle and invariant checks.  Re-record only when a change is meant to
alter rankings, epsilons or S values.
"""

import run as bench  # first: pins BLAS threads before numpy loads

import json
import os
import shutil
import sys
import tempfile

import numpy as np

from workloads import WORKLOADS

OPS = 12


def record(workload) -> list:
    work_dir = tempfile.mkdtemp(prefix=".work-", dir=bench.BENCH_DIR)
    try:
        empty = {name: [] for name in WORKLOADS}
        r = bench.Run(workload, bench.REFERENCE_SEED, 1, work_dir, empty)
        r.set_up()
        signatures = []
        for index in range(1, OPS + 1):
            prepared = r.prepared(index)
            output = workload.run(r.ks, prepared)
            rng = np.random.default_rng(np.random.SeedSequence([r.seed, index, 1]))
            problems, signature = workload.check(
                workload.make_input(r.seed, index), prepared, output, rng, None)
            if problems:
                raise SystemExit(f"{workload.name} op {index}: {problems}")
            signatures.append(signature)
        return signatures
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def main():
    sys.path.insert(0, bench.SRC_DIR)
    lines = []
    for name, workload in WORKLOADS.items():
        entries = ",\n".join("  " + json.dumps(s, separators=(",", ":")) for s in record(workload))
        lines.append(f"{json.dumps(name)}: [\n{entries}\n]")
    with open(bench.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        fh.write("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {os.path.relpath(bench.REFERENCE_PATH)}")


if __name__ == "__main__":
    main()
