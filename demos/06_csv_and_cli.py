#!/usr/bin/env python3
"""End-to-end CSV workflow: write a data file, screen it through the CLI,
and read the JSON report back."""

import json
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

rng = np.random.default_rng(5)
n = 60
x = rng.standard_normal((n, 6))
y = np.exp(-x[:, 3] ** 2) + 0.1 * rng.standard_normal(n)  # feature "d" drives y

header = ["a", "b", "c", "d", "e", "f", "outcome"]
lines = [",".join(header)]
for i in range(n):
    lines.append(",".join(f"{v:.12g}" for v in (*x[i], y[i])))

# The data file and the report live in a temporary directory that is
# removed, with both files, when the block ends.
with tempfile.TemporaryDirectory(prefix="kscreen_demo_") as tmp:
    workdir = Path(tmp)
    csv_path = workdir / "study.csv"
    out_path = workdir / "result.json"
    csv_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print("wrote", csv_path)

    cmd = [
        sys.executable, "-m", "kscreen", "screen",
        "--input", str(csv_path),
        "--response", "outcome",
        "--method", "kcca",
        "--epsilon", "auto",
        "--top", "3",
        "--out", str(out_path),
    ]
    print("running:", " ".join(cmd[2:]))
    subprocess.run(cmd, check=True)
    doc = json.loads(out_path.read_text())

print(f"\nchosen epsilon: {doc['epsilon']}, selected m = {doc['m']}")
print("top features:")
for entry in doc["selected"]:
    print(f"  rank {entry['rank']}: {entry['name']} (score {entry['score']:.4f})")
