"""Acceptance suite: one test per criterion, each printing a PASS line.

The simulation criteria (6, 7, 8, 10) run at the documented desk scale
(n = 200, p = 500, 50 replications; trend at p = 200 with 30 replications)
with frozen seeds.  On a shared 2-core host the whole module takes about
100 seconds; worker count adapts to the host.

Run with:  pytest tests/test_acceptance.py -v
"""

import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest

import kscreen as ks
from kscreen.cli import main as cli_main
from tests.helpers import (
    center_dense,
    dcor_brute,
    dense_gram,
    gcv_dense_oracle,
    hsic_double_sum,
    kcca_full_oracle,
)

WORKERS = min(8, os.cpu_count() or 1)
# Stated budget: 30 minutes on 8 cores; pro-rate for the host's workers.
SIM_BUDGET_S = 1800.0 * 8.0 / WORKERS


def _pass(num, name, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"\nACCEPTANCE {num:02d} {name}: PASS{suffix}")


@pytest.fixture(scope="module")
def sim1_reports():
    t0 = time.perf_counter()
    reports = {}
    for model, methods, seed in (
        (1, ("kcca", "dc"), 101),
        (2, ("kcca", "dc"), 102),
        (4, ("kcca", "dc", "sis"), 104),
    ):
        spec = ks.SimulationSpec(suite="sim1", model_id=model, n=200, p=500, reps=50, seed=seed)
        reports[model] = ks.run_suite(spec, methods, threads=WORKERS)
    return reports, time.perf_counter() - t0


@pytest.fixture(scope="module")
def sim2_report():
    t0 = time.perf_counter()
    spec = ks.SimulationSpec(suite="sim2", model_id=1, n=200, p=500, reps=50, seed=201)
    report = ks.run_suite(spec, ("kcca",), threads=WORKERS)
    return report, time.perf_counter() - t0


@pytest.fixture(scope="module")
def trend_proportions():
    props = {}
    for n in (50, 100, 200):
        spec = ks.SimulationSpec(suite="sim1", model_id=1, n=n, p=200, reps=30, seed=300 + n)
        report = ks.run_suite(spec, ("kcca",), threads=WORKERS)
        props[n] = report.p_proportions["kcca"][2]  # success within d3
    return props


def test_c01_kcca_coordinate_form_matches_dense_oracle():
    rng = np.random.default_rng(2601)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(10, 51))
        d = int(rng.integers(1, 3))
        x = rng.standard_normal(n)
        y = np.tanh(x)[:, None] * rng.uniform(0.2, 1.0) + rng.standard_normal((n, d))
        lx, ly = ks.gram(x, ks.bandwidth(x)), ks.gram(y, ks.bandwidth(y))
        eps = float(rng.choice(ks.GCV_GRID))
        got = ks.kcca_singular_value(ks.center(lx), ks.center(ly), eps)
        want = kcca_full_oracle(lx @ lx.T, ly @ ly.T, eps)
        rel = abs(got - want) / max(abs(want), 1e-300)
        worst = max(worst, rel)
        assert rel <= 1e-6
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _pass(1, "kcca Cholesky form vs untruncated dense P_X P_Y oracle",
          f"100 instances, worst rel {worst:.2e}, {elapsed:.1f}s")


def test_c02_self_dependence_closed_form():
    rng = np.random.default_rng(2602)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(8, 40))
        pts = rng.standard_normal(n) * rng.uniform(0.5, 3.0)
        c = ks.center(ks.gram(pts, ks.bandwidth(pts)))
        s0 = np.linalg.svd(c, compute_uv=False)[0]
        eps = float(rng.choice(ks.GCV_GRID))
        got = ks.kcca_singular_value(c, c, eps)
        want = s0 * s0 / (s0 * s0 + eps)
        worst = max(worst, abs(got - want))
        assert abs(got - want) <= 1e-8
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _pass(2, "self-dependence closed form s0^2/(s0^2+eps)",
          f"50 grams, worst abs {worst:.2e}, {elapsed:.1f}s")


def test_c03_hsic_trace_equals_double_sum():
    rng = np.random.default_rng(2603)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(5, 21))
        x = rng.standard_normal(n)
        y = x * rng.uniform(-1, 1) + rng.standard_normal(n)
        bx, by = ks.bandwidth(x), ks.bandwidth(y)
        got = ks.hsic_score(ks.center(ks.gram(x, bx)), ks.center(ks.gram(y, by)))
        want = hsic_double_sum(center_dense(dense_gram(x, bx)), center_dense(dense_gram(y, by)))
        worst = max(worst, abs(got - max(want, 0.0)))
        assert abs(got - max(want, 0.0)) <= 1e-10
    _pass(3, "hsic factor form vs brute double sum", f"50 instances, worst abs {worst:.2e}")


def test_c04_dcor_matches_independent_implementation():
    rng = np.random.default_rng(2604)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(4, 21))
        dx = int(rng.integers(1, 3))
        x = rng.standard_normal((n, dx))
        y = rng.standard_normal(n) + 0.5 * x[:, 0]
        got = ks.dcor_score(x, dy=ks.centered_distances(y))
        want = dcor_brute(x, y)
        worst = max(worst, abs(got - want))
        assert abs(got - want) <= 1e-10
    z = rng.standard_normal(15)
    assert abs(ks.dcor_score(z, dy=ks.centered_distances(z)) - 1.0) <= 1e-10
    _pass(4, "distance correlation vs brute-force oracle",
          f"50 instances + dcor(x,x)=1, worst abs {worst:.2e}")


def test_c05_gcv_matches_dense_assembly():
    rng = np.random.default_rng(2605)
    n, p = 6, 2
    x = rng.standard_normal((n, p))
    y = rng.standard_normal(n)
    bws = [ks.bandwidth(y)] + [ks.bandwidth(x[:, r]) for r in range(p)]
    ly = ks.gram(y, bws[0])
    lxs = [ks.gram(x[:, r], bws[r + 1]) for r in range(p)]
    ky = dense_gram(y, bws[0])
    kxs = [dense_gram(x[:, r], bws[r + 1]) for r in range(p)]
    worst = 0.0
    for eps in ks.GCV_GRID:
        got = ks.gcv_value(eps, ly, lxs)
        want = gcv_dense_oracle(eps, ky, kxs)
        rel = abs(got - want) / abs(want)
        worst = max(worst, rel)
        assert rel <= 1e-8
    _pass(5, "gcv value vs explicit-inverse dense assembly",
          f"9-point grid at n=6 p=2, worst rel {worst:.2e}")


def test_c06_scaled_sim1_ordering(sim1_reports):
    reports, elapsed = sim1_reports
    medians = {}
    for model in (1, 2, 4):
        rep = reports[model]
        med_kcca = rep.s_quantiles["kcca"][1]
        med_dc = rep.s_quantiles["dc"][1]
        medians[model] = (med_kcca, med_dc)
        assert med_kcca <= med_dc, f"model {model}: kcca median {med_kcca} > dc {med_dc}"
    assert medians[1][0] <= 25.0
    assert medians[2][0] <= 25.0
    assert elapsed < SIM_BUDGET_S
    detail = ", ".join(f"m{m}: kcca {a:g} <= dc {b:g}" for m, (a, b) in medians.items())
    _pass(6, "scaled sim1 ordering (50 reps, n=200, p=500)",
          f"{detail}; {elapsed:.0f}s of {SIM_BUDGET_S:.0f}s budget")


def test_c07_scaled_sim2_proportion(sim2_report):
    report, elapsed = sim2_report
    assert report.d_values == (2, 4, 6)
    p_d3 = report.p_proportions["kcca"][2]
    assert p_d3 >= 0.90
    assert elapsed < SIM_BUDGET_S
    _pass(7, "scaled sim2 model 1 coverage (kcca)",
          f"P(d3=6) = {p_d3:.3f} >= 0.90; S quantiles {report.s_quantiles['kcca']}")


def test_c08_sis_fails_on_model4(sim1_reports):
    reports, _ = sim1_reports
    p_d3 = reports[4].p_proportions["sis"][2]
    assert p_d3 <= 0.10
    _pass(8, "sis failure on sim1 model 4", f"P(sis, d3=111) = {p_d3:.3f} <= 0.10")


def test_c09_invariant_suites_pass_with_line_coverage(tmp_path):
    # pytest-cov/coverage are unavailable in this environment; line coverage
    # of the five math modules and dataio is measured with a settrace
    # collector while re-running the invariant suites (branch coverage is
    # not measurable here; see the repository notes).
    runner = os.path.join(os.path.dirname(__file__), "_coverage_runner.py")
    out = tmp_path / "coverage.json"
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, runner, str(out)],
        capture_output=True,
        text=True,
        cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    )
    elapsed = time.perf_counter() - t0
    assert proc.returncode == 0, proc.stdout + proc.stderr
    report = json.loads(out.read_text())
    assert report["pytest_exit_code"] == 0
    coverage = report["aggregate_coverage"]
    assert coverage >= 0.95
    assert elapsed < 300.0
    per_module = ", ".join(
        f"{name} {m['coverage']:.2f}" for name, m in sorted(report["modules"].items())
    )
    _pass(9, "invariant suites + math-module line coverage",
          f"aggregate {coverage:.3f} >= 0.95 [{per_module}], {elapsed:.0f}s")


def test_c10_sure_screening_trend(trend_proportions):
    props = trend_proportions
    seq = [props[50], props[100], props[200]]
    inversions = [max(0.0, a - b) for a, b in zip(seq, seq[1:])]
    n_inv = sum(1 for v in inversions if v > 0)
    assert n_inv <= 1
    assert all(v <= 0.05 for v in inversions)
    _pass(10, "screening success nondecreasing in n",
          f"P(d3) at n=50/100/200: {seq[0]:.3f}/{seq[1]:.3f}/{seq[2]:.3f}")


def test_c11_cli_determinism(tmp_path):
    argv = ["simulate", "--suite", "sim1", "--model", "1", "--n", "30", "--p", "25",
            "--reps", "4", "--methods", "kcca,dc", "--seed", "9"]
    payloads = {}
    for name, threads in (("a.json", "1"), ("b.json", "1"), ("c.json", "8")):
        out = tmp_path / name
        assert cli_main(argv + ["--threads", threads, "--out", str(out)]) == 0
        payloads[name] = out.read_bytes()
    assert payloads["a.json"] == payloads["b.json"]
    assert payloads["a.json"] == payloads["c.json"]
    _pass(11, "cli simulate byte-identical across runs and thread counts",
          f"{len(payloads['a.json'])} bytes")
