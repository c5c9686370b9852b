"""The three benchmark workloads: input generation, the timed op, and checks.

Every op gets a fresh input drawn from (seed, op index), so no op can reuse
another's work; index 0 is the warm-up op's input.  Inputs come from the
benchmark's own numpy code, so the program receives only generated data.
No module here imports kscreen: each function that needs it takes the
imported package as ``ks``, which keeps the import inside the timed set-up.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

import oracle

N = 200
RHO = 0.8
SIM1_C = (2.0, 0.5, 3.0, 2.0)


def input_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, index]))


def ar1_design(rng: np.random.Generator, n: int, p: int, rho: float = RHO) -> np.ndarray:
    """Rows from N(0, Sigma), Sigma_ij = rho^|i-j|, by the AR(1) recursion."""
    z = rng.standard_normal((n, p))
    x = np.empty((n, p))
    x[:, 0] = z[:, 0]
    scale = math.sqrt(1.0 - rho * rho)
    for j in range(1, p):
        x[:, j] = rho * x[:, j - 1] + scale * z[:, j]
    return x


def sim1_model1_response(rng: np.random.Generator, x: np.ndarray) -> np.ndarray:
    """y = c1 b1 x1 x2 + c3 b2 1(x12 < 0) + c4 b3 x22 + noise, random signed betas."""
    n = x.shape[0]
    a = 4.0 * math.log(n) / math.sqrt(n)
    signs = np.where(rng.random(3) < 0.4, -1.0, 1.0)
    betas = signs * (a + np.abs(rng.standard_normal(3)))
    c1, _, c3, c4 = SIM1_C
    return (c1 * betas[0] * x[:, 0] * x[:, 1] + c3 * betas[1] * (x[:, 11] < 0)
            + c4 * betas[2] * x[:, 21] + rng.standard_normal(n))


def _screen_input(seed: int, index: int, p: int) -> tuple:
    rng = input_rng(seed, index)
    x = ar1_design(rng, N, p)
    return x, sim1_model1_response(rng, x)


class ScreenKcca:
    """In-process ``screen`` with KCCA, GCV-tuned epsilon, all p ranked."""

    name = "screen-kcca"
    p = 500
    nominal_op_s = 2.5

    @property
    def features_per_op(self):
        return self.p

    def make_input(self, seed, index):
        return _screen_input(seed, index, self.p)

    def prepare(self, ks, raw, index, work_dir):
        x, y = raw
        return ks.DataMatrix(x), ks.DataMatrix(y[:, None])

    def run(self, ks, prepared):
        x, y = prepared
        return ks.screen(x, y, method="kcca", epsilon="auto",
                         rule=ks.ThresholdRule.fixed(self.p))

    def check(self, raw, prepared, result, rng, reference):
        x, y = raw
        problems = oracle.ranking_problems(result.scores, result.ranking)
        if result.epsilon not in oracle.GCV_GRID:
            problems.append(f"epsilon {result.epsilon!r} is not a grid point")
        if not np.array_equal(result.selected, result.ranking):
            problems.append("selected differs from the full ranking with m = p")
        if not problems:
            problems += oracle.score_problems("kcca", x, y, result.scores, result.ranking,
                                              rng, result.epsilon)
        signature = {"epsilon": float(result.epsilon), "ranking": result.ranking.tolist()}
        if reference is not None and signature != reference:
            problems.append("ranking or epsilon differs from the default-seed reference")
        return problems, signature


class CliDc:
    """In-process ``kscreen screen --method dc`` on a written CSV."""

    name = "cli-dc"
    p = 3000
    nominal_op_s = 2.2

    @property
    def features_per_op(self):
        return self.p

    def make_input(self, seed, index):
        return _screen_input(seed, index, self.p)

    def prepare(self, ks, raw, index, work_dir):
        x, y = raw
        csv_path = os.path.join(work_dir, f"input-{index}.csv")
        header = ",".join(["y"] + [f"x{j}" for j in range(1, self.p + 1)])
        np.savetxt(csv_path, np.column_stack([y, x]), fmt="%.17g", delimiter=",",
                   header=header, comments="")
        return csv_path, os.path.join(work_dir, f"output-{index}.json")

    def run(self, ks, prepared):
        csv_path, out_path = prepared
        return ks.cli.main(["screen", "--input", csv_path, "--response", "y",
                            "--method", "dc", "--out", out_path])

    def check(self, raw, prepared, exit_code, rng, reference):
        if exit_code != 0:
            return [f"exit code {exit_code}"], None
        x, y = raw
        with open(prepared[1], encoding="utf-8") as fh:
            doc = json.load(fh)
        # Only the fields checked here are required; wall_time_s is ignored.
        rows = doc["scores"]
        if (doc["method"], doc["n"], doc["p"], len(rows)) != ("dc", N, self.p, self.p):
            return ["method, n, p or score count is wrong"], None
        if [row["index"] for row in rows] != list(range(1, self.p + 1)):
            return ["score rows are not in feature order"], None
        scores = np.array([row["score"] for row in rows], dtype=float)
        rank = np.array([row["rank"] for row in rows])
        if not np.array_equal(np.sort(rank), np.arange(1, self.p + 1)):
            return ["ranks are not a permutation of 1..p"], None
        ranking = np.empty(self.p, dtype=int)
        ranking[rank - 1] = np.arange(1, self.p + 1)
        problems = oracle.ranking_problems(scores, ranking)
        m = math.ceil(0.01 * self.p)
        if doc["m"] != m or [s["index"] for s in doc["selected"]] != ranking[:m].tolist():
            problems.append("selected is not the top 1% of the ranking")
        if not problems:
            problems += oracle.score_problems("dc", x, y, scores, ranking, rng)
        signature = {"epsilon": doc["epsilon"], "ranking": ranking.tolist()}
        if reference is not None and signature != reference:
            problems.append("ranking differs from the default-seed reference")
        return problems, signature


class SuiteSim2:
    """``run_suite`` on sim2 model 1 with three methods and one worker."""

    name = "suite-sim2"
    p = 100
    reps = 3
    methods = ("kcca", "hsic", "dc")
    active = (1, 2)
    d_values = (2, 4, 6)
    nominal_op_s = 3.8

    @property
    def features_per_op(self):
        return self.reps * self.p * len(self.methods)

    def make_input(self, seed, index):
        # Replication k of an op uses spec seed + k, so ops are spaced by reps.
        return (seed * 1_000_000 + index) * self.reps

    def prepare(self, ks, raw, index, work_dir):
        return ks.SimulationSpec("sim2", 1, n=N, p=self.p, reps=self.reps, seed=raw)

    def run(self, ks, prepared):
        return ks.run_suite(prepared, self.methods, threads=1)

    def replay(self, ks, spec):
        """The op's replications in-process through the public API, as S values."""
        s_values = {m: [] for m in self.methods}
        for rep in range(spec.reps):
            rep_seed = spec.seed + rep
            inst = ks.gen_sim2(ks.ar_gaussian(spec.n, spec.p, spec.ar_rho, seed=rep_seed),
                               spec.model_id, seed=rep_seed)
            for method in self.methods:
                result = ks.screen(inst.x, inst.y, method=method,
                                   rule=ks.ThresholdRule.fixed(spec.p), seed=rep_seed)
                s_values[method].append(ks.min_model_size(result, inst.active))
        return {m: tuple(v) for m, v in s_values.items()}

    def s_problems(self, s_values):
        problems = []
        for m in self.methods:
            s = s_values.get(m, ())
            if len(s) != self.reps or not all(
                    isinstance(v, int) and len(self.active) <= v <= self.p for v in s):
                problems.append(f"{m}: S values {s!r} are not {self.reps} sizes in "
                                f"[{len(self.active)}, {self.p}]")
        return problems

    def check(self, raw, prepared, report, rng, reference):
        s_values = {m: tuple(report.s_values.get(m, ())) for m in self.methods}
        problems = self.s_problems(s_values)
        if problems:
            return problems, None
        for m in self.methods:
            s = np.asarray(s_values[m], dtype=float)
            quantiles = tuple(float(q) for q in np.quantile(s, (0.25, 0.5, 0.75)))
            proportions = tuple(float(np.count_nonzero(s <= d)) / self.reps
                                for d in self.d_values)
            if tuple(report.s_quantiles[m]) != quantiles:
                problems.append(f"{m}: S quantiles disagree with the S values")
            if tuple(report.p_proportions[m]) != proportions:
                problems.append(f"{m}: P proportions disagree with the S values")
        signature = {m: list(s_values[m]) for m in self.methods}
        if reference is not None and signature != reference:
            problems.append("S values differ from the default-seed reference")
        return problems, signature


WORKLOADS = {w.name: w for w in (ScreenKcca(), CliDc(), SuiteSim2())}
