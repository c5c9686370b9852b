"""Tests of the benchmark itself: oracle, checks, tracing and run.py.

    python3 -m pytest -q bench/test_bench.py

Small copies of the workloads (fewer features, same code) keep each test
within seconds.
"""

import run as bench  # first: pins BLAS threads before numpy loads

import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np
import pytest

import oracle
import tracing
import workloads

sys.path.insert(0, bench.SRC_DIR)
ks = bench.import_kscreen()


class SmallKcca(workloads.ScreenKcca):
    p = 30


class SmallDc(workloads.CliDc):
    p = 40


class SmallSuite(workloads.SuiteSim2):
    p = 12
    reps = 2


@pytest.fixture
def make_run(tmp_path):
    def make(workload, seed=5):
        empty = {name: [] for name in workloads.WORKLOADS}
        r = bench.Run(workload, seed, 1, str(tmp_path), empty)
        r.ks = ks
        return r
    return make


def _op(r, index=1):
    prepared = r.prepared(index)
    return prepared, r.workload.run(ks, prepared)


def test_oracle_matches_screen_on_small_kcca_input():
    x, y = SmallKcca().make_input(3, 1)
    result = ks.screen(ks.DataMatrix(x), ks.DataMatrix(y[:, None]), method="kcca",
                       rule=ks.ThresholdRule.fixed(x.shape[1]))
    for j in range(x.shape[1]):
        want = oracle.kcca_score(x[:, j], y, result.epsilon)
        assert abs(result.scores[j] - want) <= oracle.KCCA_REL_TOL * want + 1e-12


def test_oracle_matches_screen_on_small_dc_input():
    x, y = SmallDc().make_input(3, 1)
    result = ks.screen(ks.DataMatrix(x), ks.DataMatrix(y[:, None]), method="dc")
    for j in range(x.shape[1]):
        assert abs(result.scores[j] - oracle.dcor_score(x[:, j], y)) <= oracle.DC_ABS_TOL


def test_ranking_problems_flags_swaps_ties_and_range():
    scores = np.array([0.2, 0.9, 0.5, 0.5])
    assert oracle.ranking_problems(scores, np.array([2, 3, 4, 1])) == []
    assert oracle.ranking_problems(scores, np.array([2, 4, 3, 1]))  # tie order
    assert oracle.ranking_problems(scores, np.array([3, 2, 4, 1]))  # swap
    assert oracle.ranking_problems(scores, np.array([2, 3, 3, 1]))  # not a permutation
    assert oracle.ranking_problems(np.array([1.0, 0.5]), np.array([1, 2]))  # score 1


class _Result:
    """Mutable stand-in for a ScreeningResult."""

    def __init__(self, result, **changes):
        for name in ("scores", "ranking", "selected", "epsilon"):
            setattr(self, name, changes.get(name, getattr(result, name)))


def test_kcca_checks_fail_perturbed_score_and_swapped_ranking(make_run):
    r = make_run(SmallKcca())
    prepared, result = _op(r)
    assert r.check(1, prepared, result) == []

    scores = result.scores.copy()
    top = result.ranking[0] - 1
    scores[top] *= 1.0 + 1e-4
    r.record(1, 0.0, 0.0, r.check(1, prepared, _Result(result, scores=scores)))

    ranking = result.ranking.copy()
    ranking[[0, 1]] = ranking[[1, 0]]
    r.record(2, 0.0, 0.0, r.check(1, prepared, _Result(result, ranking=ranking,
                                                       selected=ranking)))
    assert r.failed == 2


def test_kcca_check_compares_default_seed_reference(make_run):
    r = make_run(SmallKcca(), seed=bench.REFERENCE_SEED)
    prepared, result = _op(r)
    good = {"epsilon": float(result.epsilon), "ranking": result.ranking.tolist()}
    r.reference = {"screen-kcca": [good]}
    assert r.check(1, prepared, result) == []
    r.reference = {"screen-kcca": [dict(good, ranking=good["ranking"][::-1])]}
    assert r.check(1, prepared, result)
    assert r.check(2, r.prepared(2), _op(r, 2)[1]) == []  # past the reference: oracle only


def _rewrite(path, edit):
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    edit(doc)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def test_cli_checks_fail_perturbed_score_and_swapped_ranking(make_run):
    r = make_run(SmallDc())
    prepared, code = _op(r)
    assert code == 0
    assert r.check(1, prepared, code) == []

    def drop_wall_time(doc):
        doc.pop("wall_time_s", None)

    _rewrite(prepared[1], drop_wall_time)
    assert r.check(1, prepared, code) == []

    def perturb(doc):
        top = min(doc["scores"], key=lambda row: row["rank"])
        top["score"] *= 1.0 + 1e-6

    _rewrite(prepared[1], perturb)
    r.record(1, 0.0, 0.0, r.check(1, prepared, code))

    prepared, code = _op(r, 2)

    def swap(doc):
        rows = sorted(doc["scores"], key=lambda row: row["rank"])
        rows[0]["rank"], rows[1]["rank"] = rows[1]["rank"], rows[0]["rank"]

    _rewrite(prepared[1], swap)
    r.record(2, 0.0, 0.0, r.check(2, prepared, code))
    r.record(3, 0.0, 0.0, r.check(3, prepared, 3))  # non-zero exit
    assert r.failed == 3


def test_suite_replay_matches_run_suite_and_checks_catch_bad_s(make_run):
    w = SmallSuite()
    r = make_run(w)
    prepared, report = _op(r)
    assert r.check(1, prepared, report) == []
    replayed = w.replay(ks, prepared)
    assert replayed == {m: tuple(report.s_values[m]) for m in w.methods}
    assert w.s_problems(dict(replayed, kcca=(1, 2)))
    assert w.s_problems(dict(replayed, dc=(2, w.p + 1)))


def _traced_op(workload, r, index):
    tracer = tracing.Tracer()
    prepared = r.prepared(index)
    tracer.op = index
    with tracer.installed(ks):
        start = time.perf_counter()
        workload.run(ks, prepared)
        wall = time.perf_counter() - start
    return tracer, wall


def test_trace_self_times_account_for_op_wall_time(make_run):
    w = SmallKcca()
    r = make_run(w)
    prepared = r.prepared(1)
    plain = []
    for _ in range(3):
        start = time.perf_counter()
        w.run(ks, prepared)
        plain.append(time.perf_counter() - start)
    traced = [_traced_op(w, r, 1) for _ in range(3)]
    overhead = statistics.median(t for _, t in traced) - statistics.median(plain)
    for tracer, wall in traced:
        unattributed = tracer.unattributed({1: wall})[1]
        assert 0.0 <= unattributed <= max(abs(overhead), 1e-3)
    metrics = traced[0][0].layer_metrics(1)
    assert metrics["screening.screen.calls"][0] == 1
    assert metrics["kernels.center_and_decompose.calls"][0] == w.p + 1
    assert metrics["tuning.select_epsilon.calls"][0] == 1
    assert metrics["tuning.gcv_predictors"][0] == w.p
    assert 0.0 < metrics["kernels.rank_kept_frac"][0] < 1.0


def test_trace_of_cli_dc_never_reaches_kernels_or_tuning(make_run):
    w = SmallDc()
    tracer, _ = _traced_op(w, make_run(w), 1)
    metrics = tracer.layer_metrics(1)
    assert metrics["measures.dcor_score.calls"][0] == w.p
    assert metrics["dataio.load_csv.bytes"][0] == os.path.getsize(make_run(w).prepared(1)[0])
    assert metrics["dataio.json_dumps.bytes"][0] > 0
    for name in ("kernels.bandwidth", "kernels.gram", "kernels.center_and_decompose",
                 "tuning.select_epsilon"):
        assert metrics[f"{name}.calls"][0] == 0
    # Every wrapper is removed again.
    assert ks.cli.load_csv.__module__ == "kscreen.dataio"
    assert ks.screening.gram.__module__ == "kscreen.kernels"


def test_run_exits_nonzero_without_sources(tmp_path):
    shutil.copytree(bench.BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", ".work-*", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "screen-kcca", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_stop_child_processes_reaps_suite_workers_and_resource_tracker():
    spec = ks.SimulationSpec("sim2", 1, n=40, p=SmallSuite.p, reps=1, seed=7)
    ks.run_suite(spec, ("dc",), threads=1)
    tracker_pid = bench.resource_tracker._resource_tracker._pid
    assert tracker_pid is not None
    bench.stop_child_processes()
    assert bench.multiprocessing.active_children() == []
    with pytest.raises(ProcessLookupError):
        os.kill(tracker_pid, 0)
