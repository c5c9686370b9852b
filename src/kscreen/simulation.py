"""Seeded Monte Carlo benchmark harness for the screening methods.

Two synthetic suites are provided.  Suite "sim1" draws predictors from an
AR(1) Gaussian design (Sigma_ij = rho^|i-j|, rho = 0.8 by default) and a
univariate response from one of four nonlinear models with randomized
coefficients.  Suite "sim2" keeps the same design and draws a bivariate
normal response whose cross-correlation is a nonlinear function of the
active predictors, so only the multivariate-capable methods apply.

Per replication, every method screens identical data in one call
(screening._screen_methods), so kcca and hsic share one kernel
preparation: each bandwidth and Gram factor is built once.  The recorded
metric is the minimum model size S needed to cover the active set.  A report
aggregates the 25/50/75 percent quantiles of S and the proportion P of
replications with S <= d for three model-size budgets d1 < d2 < d3, with
d1 = floor(n / log n) for sim1 and the model-specific sizes for sim2.

Replications run in spawned worker processes with BLAS pinned to a single
thread, so results are identical for any worker count and fully determined
by the spec seed (replication k uses seed + k).
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial
from multiprocessing import get_context

import numpy as np

from .errors import ArgumentError, KScreenError, UnsupportedMethodError
from .kernels import DataMatrix, _is_real
from .measures import Method
from .screening import (
    ScreeningResult, ThresholdRule, _check_epsilon, _check_int, _screen_methods,
)

SIM1_CONSTANTS = (2.0, 0.5, 3.0, 2.0)
SIM1_ACTIVE = (1, 2, 12, 22)

_SUITE_MODELS = {"sim1": (1, 2, 3, 4), "sim2": (1, 2)}


@dataclass(frozen=True)
class SimulationSpec:
    """Generator id, sizes, replication count, and seeding for one study."""

    suite: str
    model_id: int
    n: int
    p: int
    reps: int
    seed: int
    ar_rho: float = 0.8

    def __post_init__(self):
        if self.suite not in _SUITE_MODELS:
            raise ArgumentError(f"unknown suite {self.suite!r}")
        _check_int("model_id", self.model_id, 1)
        if self.model_id not in _SUITE_MODELS[self.suite]:
            raise ArgumentError(f"suite {self.suite} has no model {self.model_id}")
        _check_int("n", self.n, 4)
        _check_int("reps", self.reps, 1)
        _check_int("seed", self.seed, 0)
        if not _is_real(self.ar_rho) or not -1.0 < self.ar_rho < 1.0:
            raise ArgumentError(f"ar_rho must be a real in (-1, 1), got {self.ar_rho!r}")
        _check_int("p", self.p, 22 if self.suite == "sim1" else 4)


@dataclass(frozen=True, eq=False)
class ModelInstance:
    """One realized (X, Y) draw with its active set and coefficients."""

    x: DataMatrix
    y: DataMatrix
    active: tuple
    coeffs: dict


@dataclass(frozen=True, eq=False)
class MetricsReport:
    """Table-shaped aggregation of S quantiles and P proportions per method."""

    spec: SimulationSpec
    methods: tuple
    d_values: tuple
    s_quantiles: dict
    p_proportions: dict
    s_values: dict

    def __post_init__(self):
        d1, d2, d3 = self.d_values
        if not 1 <= d1 <= d2 <= d3:
            raise ArgumentError(f"d values must be positive nondecreasing, got {self.d_values}")
        for method in self.methods:
            q = self.s_quantiles[method.value]
            if not (q[0] <= q[1] <= q[2]):
                raise ArgumentError(f"quantiles not nondecreasing for {method.value}: {q}")
            pr = self.p_proportions[method.value]
            if not (0.0 <= pr[0] <= pr[1] <= pr[2] <= 1.0):
                raise ArgumentError(f"proportions not nested for {method.value}: {pr}")

    def to_rows(self) -> list:
        """Rows of (suite, model, method, label, value) for serialization."""
        rows = []
        labels = ("S_q25", "S_q50", "S_q75", "P_d1", "P_d2", "P_d3")
        for method in self.methods:
            values = tuple(self.s_quantiles[method.value]) + tuple(
                self.p_proportions[method.value]
            )
            for label, value in zip(labels, values):
                rows.append((self.spec.suite, self.spec.model_id, method.value, label, value))
        return rows


def _rng(seed, tag: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(tag,)))


def ar_gaussian(n: int, p: int, rho: float, seed) -> DataMatrix:
    """n i.i.d. rows from N(0, Sigma) with Sigma_ij = rho^|i-j|.

    Realized exactly by the AR(1) recursion
    X_j = rho X_{j-1} + sqrt(1 - rho^2) Z_j, so no p x p factorization is
    ever formed.  Deterministic per seed.
    """
    if not _is_real(rho) or not -1.0 < rho < 1.0:
        raise ArgumentError(f"rho must be a real in (-1, 1), got {rho!r}")
    _check_int("n", n, 1)
    _check_int("p", p, 1)
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n, p))
    out = np.empty((n, p))
    out[:, 0] = z[:, 0]
    scale = math.sqrt(1.0 - rho * rho)
    for j in range(1, p):
        out[:, j] = rho * out[:, j - 1] + scale * z[:, j]
    return DataMatrix(values=out)


def _draw_betas(beta_rng: np.random.Generator, count: int, n: int) -> np.ndarray:
    # beta = (-1)^U (a + |Z|), U ~ Bernoulli(0.4), Z ~ N(0, 1),
    # a = 4 log(n) / sqrt(n); redrawn every replication.
    u = beta_rng.random(count) < 0.4
    z = beta_rng.standard_normal(count)
    a = 4.0 * math.log(n) / math.sqrt(n)
    return np.where(u, -1.0, 1.0) * (a + np.abs(z))


def gen_sim1(x: DataMatrix, model_id: int, seed) -> ModelInstance:
    """Univariate response from one of the four sim1 models.

    The coefficient and noise streams are independent streams derived from
    ``seed``; model 4 has no coefficients, so its response depends only on
    x and the noise stream.
    """
    if model_id not in (1, 2, 3, 4):
        raise ArgumentError(f"sim1 has models 1..4, got {model_id}")
    if x.p < 22:
        raise ArgumentError(f"sim1 models use features 1, 2, 12, 22; need p >= 22, got {x.p}")
    beta_rng, noise_rng = _rng(seed, 1), _rng(seed, 2)

    c1, c2, c3, c4 = SIM1_CONSTANTS
    v = x.values
    x1, x2, x12, x22 = v[:, 0], v[:, 1], v[:, 11], v[:, 21]
    indicator = (x12 < 0).astype(float)

    betas = _draw_betas(beta_rng, 3, x.n) if model_id != 4 else np.empty(0)
    noise = noise_rng.standard_normal(x.n)

    if model_id == 1:
        y = c1 * betas[0] * x1 * x2 + c3 * betas[1] * indicator + c4 * betas[2] * x22 + noise
    elif model_id == 2:
        y = c1 * betas[0] * x1 * x2 + c3 * betas[1] * indicator * x22 + noise
    elif model_id == 3:
        y = c1 * betas[0] * x1 + c2 * betas[1] * x2 + c3 * betas[2] * indicator
        y = y + np.exp(c4 * np.abs(x22)) * noise
    else:
        y = x1 / x2 + x12 ** 2 / (1.0 + np.cos(x22)) + noise

    return ModelInstance(
        x=x,
        y=DataMatrix(values=y[:, None]),
        active=SIM1_ACTIVE,
        coeffs={"betas": tuple(betas.tolist()), "c": SIM1_CONSTANTS,
                "a": 4.0 * math.log(x.n) / math.sqrt(x.n)},
    )


def gen_sim2(x: DataMatrix, model_id: int, seed) -> ModelInstance:
    """Bivariate response with cross-correlation sigma(X) per sample.

    Model 1: sigma = sin(b^T X) with b = (0.8, 0.6, 0, ...); model 2:
    sigma = (exp(t) - 1)/(exp(t) + 1) = tanh(t/2) with t = b^T X,
    b = (2-U1, ..., 2-U4, 0, ...), U_k i.i.d. Uniform[0,1].  Both maps
    stay inside [-1, 1]; an exact endpoint is nudged by 1e-12 toward 0.
    """
    if model_id not in (1, 2):
        raise ArgumentError(f"sim2 has models 1..2, got {model_id}")
    if x.p < 4:
        raise ArgumentError(f"sim2 models use the first 4 features; need p >= 4, got {x.p}")
    beta_rng, noise_rng = _rng(seed, 1), _rng(seed, 2)

    beta = np.zeros(x.p)
    if model_id == 1:
        beta[0], beta[1] = 0.8, 0.6
        active = (1, 2)
        sigma = np.sin(x.values @ beta)
    else:
        beta[:4] = 2.0 - beta_rng.random(4)
        active = (1, 2, 3, 4)
        sigma = np.tanh(0.5 * (x.values @ beta))
    sigma = np.where(sigma >= 1.0, 1.0 - 1e-12, sigma)
    sigma = np.where(sigma <= -1.0, -1.0 + 1e-12, sigma)

    z = noise_rng.standard_normal((x.n, 2))
    y = np.empty((x.n, 2))
    y[:, 0] = z[:, 0]
    y[:, 1] = sigma * z[:, 0] + np.sqrt(1.0 - sigma * sigma) * z[:, 1]

    return ModelInstance(
        x=x,
        y=DataMatrix(values=y),
        active=active,
        coeffs={"beta_head": tuple(beta[:4].tolist())},
    )


def min_model_size(result: ScreeningResult, active) -> int:
    """Smallest ranking prefix covering all active features (metric S)."""
    active = tuple(int(r) for r in active)
    p = result.ranking.shape[0]
    if not active:
        raise ArgumentError("active set must be nonempty")
    if any(r < 1 or r > p for r in active):
        raise ArgumentError(f"active set {active} not within 1..{p}")
    positions = result.rank_positions()
    return int(max(positions[r - 1] for r in active))


def default_d_values(spec: SimulationSpec) -> tuple:
    """(d1, 2*d1, 3*d1) with suite-specific d1."""
    if spec.suite == "sim1":
        d1 = math.floor(spec.n / math.log(spec.n))
    else:
        d1 = 2 if spec.model_id == 1 else 4
    return (d1, 2 * d1, 3 * d1)


def _generate_instance(spec: SimulationSpec, rep_seed: int) -> ModelInstance:
    x = ar_gaussian(spec.n, spec.p, spec.ar_rho, seed=rep_seed)
    if spec.suite == "sim1":
        return gen_sim1(x, spec.model_id, seed=rep_seed)
    return gen_sim2(x, spec.model_id, seed=rep_seed)


def _replication_sizes(spec, methods, epsilon, rep: int) -> dict:
    rep_seed = spec.seed + rep
    try:
        inst = _generate_instance(spec, rep_seed)
        results = _screen_methods(inst.x, inst.y, methods, ThresholdRule.fixed(spec.p),
                                  epsilon, rep_seed)
        return {method.value: min_model_size(results[method], inst.active) for method in methods}
    except KScreenError as e:
        raise type(e)(f"replication {rep}: {e}") from None


_WORKER_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def run_suite(
    spec: SimulationSpec,
    methods,
    d_values=None,
    *,
    threads: int = 1,
    epsilon="auto",
) -> MetricsReport:
    """Run every replication of a study and aggregate the S and P metrics.

    Each replication draws fresh data (seeded by spec.seed + index), runs
    every method on that identical data, and records its minimum model
    size.  Quantiles use linear interpolation between order statistics;
    P at d is exactly the count of replications with S <= d over reps.
    """
    methods = tuple(Method(m) for m in methods)
    if not methods:
        raise ArgumentError("at least one method is required")
    if len(set(methods)) != len(methods):
        raise ArgumentError("duplicate methods in list")
    if spec.suite == "sim2" and Method.SIS in methods:
        raise UnsupportedMethodError("sis cannot be applied to the bivariate sim2 response")
    _check_int("threads", threads, 1)
    _check_epsilon(epsilon)
    d_values = tuple(d_values if d_values is not None else default_d_values(spec))
    if len(d_values) != 3:
        raise ArgumentError(f"expected three d values, got {d_values}")
    for d in d_values:
        _check_int("d value", d, 1)
    if not d_values[0] <= d_values[1] <= d_values[2]:
        raise ArgumentError(f"d values must be nondecreasing, got {d_values}")
    d_values = tuple(int(d) for d in d_values)

    worker = partial(_replication_sizes, spec, methods, epsilon)

    # Replications always run in spawned workers with single-threaded BLAS,
    # so output bytes cannot depend on the worker count.
    saved = {k: os.environ.get(k) for k in _WORKER_ENV}
    try:
        for k in _WORKER_ENV:
            os.environ[k] = "1"
        ctx = get_context("spawn")
        with ProcessPoolExecutor(max_workers=threads, mp_context=ctx) as ex:
            per_rep = list(ex.map(worker, range(spec.reps)))
    finally:
        for k, v in saved.items():
            if v is None:
                os.environ.pop(k, None)
            else:
                os.environ[k] = v

    s_values = {
        method.value: tuple(per_rep[rep][method.value] for rep in range(spec.reps))
        for method in methods
    }
    s_quantiles = {}
    p_proportions = {}
    for method in methods:
        arr = np.asarray(s_values[method.value], dtype=float)
        s_quantiles[method.value] = tuple(float(q) for q in np.quantile(arr, (0.25, 0.5, 0.75)))
        p_proportions[method.value] = tuple(
            float(np.count_nonzero(arr <= d)) / spec.reps for d in d_values
        )
    return MetricsReport(
        spec=spec,
        methods=methods,
        d_values=d_values,
        s_quantiles=s_quantiles,
        p_proportions=p_proportions,
        s_values=s_values,
    )
