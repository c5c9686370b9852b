#!/usr/bin/env python3
"""Run the math-module invariant suites under a line tracer and report
per-module line coverage.

Usage: python tests/_coverage_runner.py OUTPUT.json

Installs a sys.settrace collector restricted to the five math modules and
the CSV parser (dataio), imports the package under trace (so module-level
lines count), runs the invariant test files, and writes a JSON report with
executed/executable line counts per module and the pytest exit code.  No
third-party coverage tooling is available in this environment; executable
lines are derived from the compiled bytecode's line table.
"""

import dis
import json
import os
import sys
import threading

TARGET_MODULES = ("kernels", "measures", "tuning", "screening", "simulation", "dataio")
TEST_FILES = (
    "test_kernels.py",
    "test_measures.py",
    "test_tuning.py",
    "test_screening.py",
    "test_simulation.py",
    "test_dataio.py",
)


def executable_lines(path):
    with open(path, "r", encoding="utf-8") as fh:
        source = fh.read()
    code = compile(source, path, "exec")
    lines = set()
    stack = [code]
    while stack:
        co = stack.pop()
        for _, lineno in dis.findlinestarts(co):
            if lineno is not None:
                lines.add(lineno)
        stack.extend(c for c in co.co_consts if hasattr(c, "co_code"))
    return lines


def main():
    out_path = sys.argv[1]
    tests_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(tests_dir)
    src_dir = os.path.join(root, "src", "kscreen")
    targets = {
        os.path.realpath(os.path.join(src_dir, name + ".py")): name
        for name in TARGET_MODULES
    }

    import pytest  # imported before tracing starts

    executed = {path: set() for path in targets}

    def local_trace(frame, event, arg):
        if event == "line":
            executed[frame.f_code.co_filename].add(frame.f_lineno)
        return local_trace

    def global_trace(frame, event, arg):
        if event == "call" and frame.f_code.co_filename in executed:
            return local_trace
        return None

    sys.settrace(global_trace)
    threading.settrace(global_trace)
    try:
        import kscreen  # noqa: F401  (module-level lines run under trace)

        for path, name in targets.items():
            module_file = os.path.realpath(
                getattr(sys.modules[f"kscreen.{name}"], "__file__", "")
            )
            if module_file != path:
                raise RuntimeError(f"kscreen.{name} loaded from {module_file}, expected {path}")
        rc = pytest.main(
            [os.path.join(tests_dir, f) for f in TEST_FILES]
            + ["-q", "-p", "no:cacheprovider"]
        )
    finally:
        sys.settrace(None)
        threading.settrace(None)

    report = {"pytest_exit_code": int(rc), "modules": {}}
    total_exec = 0
    total_all = 0
    for path, name in sorted(targets.items(), key=lambda kv: kv[1]):
        possible = executable_lines(path)
        hit = executed[path] & possible
        total_exec += len(hit)
        total_all += len(possible)
        report["modules"][name] = {
            "executed": len(hit),
            "executable": len(possible),
            "coverage": len(hit) / len(possible),
            "missed_lines": sorted(possible - hit),
        }
    report["aggregate_coverage"] = total_exec / total_all
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
    print(f"aggregate line coverage: {report['aggregate_coverage']:.4f}")
    return 0 if rc == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
