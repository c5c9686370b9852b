"""Benchmark of kscreen: one workload per process, end to end or traced.

    python3 bench/run.py --workload screen-kcca --seed 1 --seconds 15 --trace 0

Run from the repository root; kscreen is imported from ``src/``.  With
``--trace 0`` the run sets up ``SETUPS`` times and then times ops for
``--seconds``, printing the end-to-end metrics at the reference speed of a
host probe (see ``HostProbe``).  With ``--trace 1`` it sets
up once and alternates untraced and traced ops, printing the per-layer
metrics.  Every op's output is checked outside the timed region.  The last
line of standard output is the JSON result; the line before it records the
host.  Spans and per-op records are written under ``bench/out/``.
"""

import os

THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Pinned before numpy loads its BLAS; spawned suite workers inherit it.
for _name in THREAD_ENV:
    os.environ[_name] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import multiprocessing  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from multiprocessing import resource_tracker  # noqa: E402

import numpy as np  # noqa: E402

import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SRC_DIR = os.path.join(os.path.dirname(BENCH_DIR), "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")
REFERENCE_PATH = os.path.join(BENCH_DIR, "reference.json")
REFERENCE_SEED = 0
SETUPS = 3
PROBE_EIGHS = 50
# Typical probe time on the reference host (2 cores, OpenBLAS 0.3.31, one
# BLAS thread); timings are reported at this probe speed.
PROBE_REF_S = 0.2


def import_kscreen():
    """Import kscreen and its CLI afresh, dropping any earlier import."""
    for name in [m for m in sys.modules if m == "kscreen" or m.startswith("kscreen.")]:
        del sys.modules[name]
    ks = importlib.import_module("kscreen")
    importlib.import_module("kscreen.cli")
    return ks


def cpu_seconds() -> float:
    """User + system CPU of this process and its reaped children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def peak_rss_mb() -> float:
    return max(resource.getrusage(who).ru_maxrss
               for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024.0


def host_info(seed: int, nproc: int, cpu: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "nproc": nproc,
        "pinned_cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "seed": seed,
    }


class HostProbe:
    """Times a fixed numpy task the benchmark owns, to track the host's speed.

    On a shared host, CPU speed drifts by up to ~40% for minutes at a time,
    which moves every op alike.  A probe run right before and right after a
    timed span measures that drift, and the span is reported at the
    reference speed: ``seconds * PROBE_REF_S / mean(probe before, after)``.
    A change to kscreen cannot move the probe, so the rescaled time still
    moves with the program.
    """

    def __init__(self):
        a = np.random.default_rng(20161).standard_normal((200, 200))
        self.matrix = a + a.T
        self.times = []
        np.linalg.eigh(self.matrix)  # the first call pays one-time LAPACK set-up

    def __call__(self) -> float:
        start = time.perf_counter()
        for _ in range(PROBE_EIGHS):
            np.linalg.eigh(self.matrix)
        self.times.append(time.perf_counter() - start)
        return self.times[-1]


def stop_child_processes():
    """Stop and reap every process this run started, so none outlives it.

    run_suite's spawn workers are joined by its executor, but the spawn
    context also starts multiprocessing's resource tracker, which otherwise
    lives until this process has exited and is then left to init.
    """
    for child in multiprocessing.active_children():
        child.terminate()
        child.join()
    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_fd", None) is not None:
        tracker._stop()


def clear_dir(path: str):
    for entry in os.listdir(path):
        os.remove(os.path.join(path, entry))


class Run:
    """One benchmark process: a workload, a seed, and its inputs and records."""

    def __init__(self, workload, seed: int, seconds: int, work_dir: str, reference):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.work_dir = work_dir
        self.reference = reference
        self.pool_size = max(2, math.ceil(seconds / workload.nominal_op_s))
        self.ks = None
        self.inputs = []
        self.records = []

    def set_up(self) -> float:
        """Timed: import kscreen, build every op's input, run one warm-up op."""
        clear_dir(self.work_dir)
        start = time.perf_counter()
        self.ks = import_kscreen()
        w = self.workload
        self.inputs = [w.prepare(self.ks, w.make_input(self.seed, i), i, self.work_dir)
                       for i in range(self.pool_size + 1)]
        w.run(self.ks, self.inputs[0])
        return time.perf_counter() - start

    def prepared(self, index: int):
        """Op ``index``'s input; built on demand once the set-up pool runs out."""
        if index < len(self.inputs):
            return self.inputs[index]
        w = self.workload
        return w.prepare(self.ks, w.make_input(self.seed, index), index, self.work_dir)

    def reference_for(self, index: int):
        if self.seed != REFERENCE_SEED:
            return None
        entries = self.reference[self.workload.name]
        return entries[index - 1] if index <= len(entries) else None

    def check(self, index: int, prepared, output) -> list:
        w = self.workload
        rng = np.random.default_rng(np.random.SeedSequence([self.seed, index, 1]))
        try:
            problems, _ = w.check(w.make_input(self.seed, index), prepared, output, rng,
                                  self.reference_for(index))
        except Exception:  # a malformed output must fail the op, not the run
            problems = ["check raised:\n" + traceback.format_exc()]
        return problems

    def record(self, index: int, wall: float, cpu: float, problems: list, scale: float = 1.0):
        self.records.append({"op": index, "wall_s": wall, "cpu_s": cpu, "scale": scale,
                             "problems": problems})
        for problem in problems:
            print(f"{self.workload.name} op {index}: {problem}", file=sys.stderr)

    @property
    def failed(self) -> int:
        return sum(1 for r in self.records if r["problems"])


def timed(fn):
    """(wall s, cpu s, result, error text) of one call; errors are caught."""
    cpu0 = cpu_seconds()
    start = time.perf_counter()
    try:
        result, error = fn(), None
    except Exception:  # an op that raises is a failed op
        result, error = None, traceback.format_exc()
    return time.perf_counter() - start, cpu_seconds() - cpu0, result, error


def measure(run: Run) -> tuple:
    """Time fresh-input ops for run.seconds.

    Returns the end-to-end metrics, at the probe's reference speed, and the
    same figures in raw seconds.
    """
    probe = HostProbe()
    setups, raw_setups = [], []
    before = probe()
    for _ in range(SETUPS):
        seconds = run.set_up()
        after = probe()
        raw_setups.append(seconds)
        setups.append(seconds * 2.0 * PROBE_REF_S / (before + after))
        before = after
    w, ks = run.workload, run.ks
    start = time.perf_counter()
    index = 1
    while index == 1 or time.perf_counter() - start < run.seconds:
        prepared = run.prepared(index)
        wall, cpu, output, error = timed(lambda: w.run(ks, prepared))
        after = probe()
        scale = 2.0 * PROBE_REF_S / (before + after)
        before = after
        run.record(index, wall, cpu, [error] if error else run.check(index, prepared, output),
                   scale)
        index += 1

    def summary(setup_s, scaled):
        op_s = statistics.median(r["wall_s"] * (r["scale"] if scaled else 1.0)
                                 for r in run.records)
        cpu_s = statistics.median(r["cpu_s"] * (r["scale"] if scaled else 1.0)
                                  for r in run.records)
        return {
            "setup_s": (statistics.median(setup_s), "s"),
            "op_s_p50": (op_s, "s"),
            "features_per_s": (w.features_per_op / op_s, "1/s"),
            "cpu_s_per_op": (cpu_s, "s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        }

    raw = summary(raw_setups, False)
    raw["probe_s"] = (statistics.median(probe.times), "s")
    raw["probes_s"] = (probe.times, "s")
    return summary(setups, True), raw


def trace(run: Run, spans_path: str) -> dict:
    """Alternate untraced and traced ops for run.seconds; return per-layer metrics.

    A suite op's replications run in spawned workers the wrappers cannot
    reach, so its traced unit is an in-process replay of the same
    replications, checked against run_suite's S values; the untraced unit
    is the same replay without wrappers.
    """
    run.set_up()
    w, ks = run.workload, run.ks
    replay = getattr(w, "replay", None)
    unit = (lambda p: replay(ks, p)) if replay else (lambda p: w.run(ks, p))
    tracer = tracing.Tracer()
    plain, traced, pool_overhead = [], {}, []
    start = time.perf_counter()
    index = 1
    while index <= 2 or time.perf_counter() - start < run.seconds:
        prepared = run.prepared(index)
        report = suite_error = None
        if index % 2:
            wall, cpu, output, error = timed(lambda: unit(prepared))
            plain.append(wall)
        else:
            if replay:
                suite_wall, _, report, suite_error = timed(lambda: w.run(ks, prepared))
            tracer.op = index
            with tracer.installed(ks):
                wall, cpu, output, error = timed(lambda: unit(prepared))
            tracer.op = None
            traced[index] = wall
            error = suite_error or error
            if replay and not error:
                pool_overhead.append(suite_wall - wall)
        if error:
            problems = [error]
        elif replay:
            problems = w.s_problems(output)
            if report is not None:
                problems += run.check(index, prepared, report)
                if output != {m: tuple(report.s_values[m]) for m in w.methods}:
                    problems.append("replay S values differ from run_suite's")
        else:
            problems = run.check(index, prepared, output)
        run.record(index, wall, cpu, problems)
        index += 1
    tracer.write(spans_path)
    metrics = tracer.layer_metrics(len(traced))
    metrics["simulation.pool_overhead_s"] = (
        statistics.median(pool_overhead) if pool_overhead else 0.0, "s/op")
    metrics["trace.overhead_s"] = (
        statistics.median(traced.values()) - statistics.median(plain), "s/op")
    metrics["trace.unattributed_s"] = (
        statistics.mean(tracer.unattributed(traced).values()), "s/op")
    metrics["error_rate"] = (run.failed / len(run.records), "1")
    return metrics


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC_DIR, "kscreen", "__init__.py")):
        print(f"error: no kscreen sources under {SRC_DIR}", file=sys.stderr)
        return 2
    # One CPU for the whole run, spawned workers included, so the host probe
    # measures the core the ops run on.  No workload uses more than one core
    # at a time: BLAS has one thread and run_suite one worker.
    allowed = os.sched_getaffinity(0)
    cpu = max(allowed)
    os.sched_setaffinity(0, {cpu})
    sys.path.insert(0, SRC_DIR)
    # Untimed first import: compiles bytecode, so set-up times no compilation.
    ks = import_kscreen()
    if os.path.dirname(os.path.abspath(ks.__file__)) != os.path.join(SRC_DIR, "kscreen"):
        print(f"error: kscreen imported from {ks.__file__}, not {SRC_DIR}", file=sys.stderr)
        return 2
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        reference = json.load(fh)

    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    os.makedirs(OUT_DIR, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work_dir = tempfile.mkdtemp(prefix=".work-", dir=BENCH_DIR)
    try:
        run = Run(WORKLOADS[args.workload], args.seed, args.seconds, work_dir, reference)
        if args.trace:
            metrics, raw = trace(run, os.path.join(OUT_DIR, f"spans-{tag}.jsonl")), None
        else:
            metrics, raw = measure(run)
    finally:
        stop_child_processes()
        shutil.rmtree(work_dir, ignore_errors=True)

    host = host_info(args.seed, len(allowed), cpu)
    with open(os.path.join(OUT_DIR, f"run-{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump({"host": host, "workload": args.workload, "seconds": args.seconds,
                   "ops": run.records, "metrics": metrics, "raw_metrics": raw}, fh, indent=1)
    print("host " + json.dumps(host))
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": len(run.records),
        "failed": run.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
