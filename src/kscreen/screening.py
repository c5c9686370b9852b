"""Full feature-screening pipeline: per-feature bandwidths, optional ridge
tuning, shared response decomposition, per-predictor scores, and top-m
selection.

Pipeline for the kernel methods, given data X (n x p) and response Y (n x d):

  (a) bandwidths gamma_1..gamma_p and gamma_Y from the mean pairwise
      distance rule (a constant feature, or one whose spread makes gamma
      overflow or underflow, falls back to gamma = 1 with a warning that
      says which);
  (b) one low-rank Gram factor per variable, each built once: the
      response's by kernels.gram, shared across all predictors, and the
      predictors' by kernels.gram_block, kernels._BUILD features per call,
      which hands them back in unpadded stacks of one rank each;
  (c) ridge epsilon from the GCV grid search over a subsample of the
      predictor factors (KCCA only, when auto);
  (d) one dependence score per predictor, a stack at a time as (b) builds
      it (the GCV subsample's once (c) has read them), each stack
      column-centered in place: KCCA from its r x r Grams against the
      response's retained eigenpairs (measures._stack_kcca), HSIC against
      the response's centered factor (measures._stack_hsic);
  (e) descending rank with ties broken by ascending feature index, and
      selection of the top m features.

Screening one (X, Y) by KCCA and HSIC together (as each run_suite
replication does) shares one kernel preparation: (a) and (b) run once, and
each stack is centered once and scored by both methods.

Distance correlation skips (a) and (c): (b) builds only the response's
double-centered distance matrix, prepared once with its row sums and one
n x n buffer, and (d) scores each raw column against it by
measures.dcor_score, from one sort and one n x n max pass per column.
SIS scores the raw columns.

Feature indices in results are 1-based, matching how selected sets are
reported in tables.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    ArgumentError,
    DataError,
    DegenerateDataError,
    DegenerateDataWarning,
    UnsupportedMethodError,
)
from .kernels import (
    _BUILD, Bandwidth, DataMatrix, _bandwidth_from_sum, _check_positive_epsilon,
    _scalar_distance_sums, bandwidth, center, center_and_decompose, centered_distances, gram,
    gram_block,
)
# hsic_score and kcca_singular_value are not called here; they stay names of
# this module because bench/tracing.py rebinds them.
from .measures import (  # noqa: F401
    Method, _DistanceResponse, _kcca_response, _stack_hsic, _stack_kcca, dcor_score,
    hsic_score, kcca_singular_value, pearson_score,
)
from .tuning import select_epsilon

# The GCV sum over all p predictors is O(p n r^2) for factors of rank r;
# above this many predictors the tuning step uses a seeded uniform subsample
# unless told otherwise.
GCV_SUBSAMPLE_DEFAULT = 200


def _check_int(name: str, value, minimum: int):
    """Raise ArgumentError unless value is an integer (not a bool) >= minimum."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < minimum:
        raise ArgumentError(f"{name} must be an integer >= {minimum}, got {value!r}")


@dataclass(frozen=True)
class ThresholdRule:
    """How many top-ranked features to select.

    kind "fixed_m" selects a caller-chosen m; kind "auto" uses the
    empirical recommendation m = ceil(1.5 * epsilon^(-3/2) * n^(1/4)),
    clamped to [1, p].  The theoretical cutoff against which scores would
    be thresholded has the same epsilon^(-3/2) shape with unknowable
    constants, so top-m selection is the implementable rule.
    """

    kind: str
    m: int | None = None

    def __post_init__(self):
        if self.kind not in ("fixed_m", "auto"):
            raise ArgumentError(f"unknown threshold rule kind {self.kind!r}")
        if self.kind == "fixed_m":
            _check_int("m", self.m, 1)
            object.__setattr__(self, "m", int(self.m))
        elif self.m is not None:
            raise ArgumentError("auto rule takes no m")

    @classmethod
    def fixed(cls, m: int) -> "ThresholdRule":
        return cls(kind="fixed_m", m=m)

    @classmethod
    def auto(cls) -> "ThresholdRule":
        return cls(kind="auto")


@dataclass(frozen=True, eq=False)
class ScreeningResult:
    """Scores, ranking, and selected set from one screening run.

    scores[r-1] is the dependence score of feature r; ranking is the
    1-based feature permutation by descending score (ties broken by
    ascending index); selected is its first m entries.  epsilon is present
    only for the KCCA method.
    """

    scores: np.ndarray
    ranking: np.ndarray
    selected: np.ndarray
    epsilon: float | None
    method: Method
    m: int

    def __post_init__(self):
        p = self.scores.shape[0]
        if not 1 <= self.m <= p:
            raise ArgumentError(f"m={self.m} outside [1, {p}]")
        if self.ranking.shape != (p,) or not np.array_equal(
            np.sort(self.ranking), np.arange(1, p + 1)
        ):
            raise ArgumentError("ranking must be a permutation of 1..p")
        if not np.array_equal(self.selected, self.ranking[: self.m]):
            raise ArgumentError("selected must be the first m entries of ranking")
        for name in ("scores", "ranking", "selected"):
            getattr(self, name).setflags(write=False)

    def rank_positions(self) -> np.ndarray:
        """positions[r-1] = 1-based rank of feature r."""
        pos = np.empty(self.ranking.shape[0], dtype=int)
        pos[self.ranking - 1] = np.arange(1, self.ranking.shape[0] + 1)
        return pos


def auto_threshold(epsilon: float, n: int, p: int) -> int:
    """Recommended model size m = ceil(1.5 * eps^(-3/2) * n^(1/4)), in [1, p]."""
    _check_positive_epsilon(epsilon)
    _check_int("n", n, 1)
    _check_int("p", p, 1)
    m = math.ceil(1.5 * epsilon ** -1.5 * n ** 0.25)
    return min(p, max(1, m))


def rank_by_score(scores) -> np.ndarray:
    """Stable descending sort of scores as a 1-based feature permutation.

    Ties are broken by ascending feature index.  NaN scores are a data
    error.
    """
    s = np.asarray(scores, dtype=float)
    if s.ndim != 1 or s.size == 0:
        raise ArgumentError("scores must be a nonempty 1-D sequence")
    if np.isnan(s).any():
        raise DataError("scores contain NaN")
    order = np.argsort(-s, kind="stable")
    return order.astype(int) + 1


def _check_epsilon(epsilon) -> float | None:
    """None for "auto", else epsilon as a positive finite float; anything
    else raises ArgumentError."""
    if isinstance(epsilon, str):
        if epsilon == "auto":
            return None
    elif (isinstance(epsilon, numbers.Real) and not isinstance(epsilon, bool)
          and np.isfinite(epsilon) and epsilon > 0.0):
        return float(epsilon)
    raise ArgumentError(f"epsilon must be 'auto' or a positive finite real, got {epsilon!r}")


def _column_bandwidth(label: str, make, *args) -> Bandwidth:
    """make(*args), or gamma = 1 with a warning naming label and giving the
    reason, if the samples are constant or their spread makes gamma
    overflow or underflow."""
    try:
        return make(*args)
    except DegenerateDataError as e:
        warnings.warn(f"{label}: {e}; substituting gamma = 1", DegenerateDataWarning)
        return Bandwidth(gamma=1.0)


def _resolve_m(rule, epsilon, n: int, p: int) -> int:
    if rule is None:
        # Default selection size: the top 1 percent of features.
        rule = ThresholdRule.fixed(min(p, max(1, math.ceil(0.01 * p))))
    if rule.kind == "fixed_m":
        return min(rule.m, p)
    # _screen_methods admits the auto rule for kcca alone, which has epsilon.
    return auto_threshold(epsilon, n, p)


def screen(
    x: DataMatrix,
    y: DataMatrix,
    method=Method.KCCA,
    rule: ThresholdRule | None = None,
    epsilon="auto",
    seed: int = 0,
    *,
    gcv_subsample: int | None = None,
) -> ScreeningResult:
    """Rank all features of x by marginal dependence with y and select the top m.

    Parameters
    ----------
    x, y : DataMatrix
        Predictors (n x p) and response (n x d) over the same n samples.
    method : Method or str
        "kcca", "hsic", "dc", or "sis" (sis requires a univariate response).
    rule : ThresholdRule, optional
        Selection size; defaults to the top 1 percent of features.  The
        auto rule is valid for kcca only (its formula needs epsilon).
    epsilon : "auto" or positive float
        KCCA ridge parameter; "auto" runs the GCV grid search.  Other
        methods ignore it, but every method rejects a value that is neither
        "auto" nor a positive finite real before any work.
    seed : int
        Non-negative; seeds the GCV predictor subsample draw (used when p
        exceeds the subsample size) and has no other effect.
    gcv_subsample : int, optional
        Number of predictors entering the GCV sum, at least 1; defaults to
        min(p, 200).  Pass p to force the full sum.  A seed or subsample
        size that is not an integer in range raises ArgumentError before
        any work.

    Unlike run_suite, screen does not pin the BLAS thread count, and kcca
    and hsic scores can differ in the last bits across BLAS thread counts;
    the README's BLAS paragraph has the measured differences.
    """
    method = Method(method)
    return _screen_methods(x, y, (method,), rule, epsilon, seed, gcv_subsample)[method]


def _screen_methods(x, y, methods, rule, epsilon, seed, gcv_subsample) -> dict:
    """screen for several methods over one (x, y), as {Method: ScreeningResult}.

    Bandwidths and Gram factor stacks are built and centered once and
    shared by the kernel methods; each result is bitwise the one screen
    returns for its method alone.
    """
    _check_int("seed", seed, 0)
    if gcv_subsample is not None:
        _check_int("gcv_subsample", gcv_subsample, 1)
    fixed_eps = _check_epsilon(epsilon)
    if x.n != y.n:
        raise ArgumentError(f"x and y sample counts differ: {x.n} vs {y.n}")
    n, p = x.n, x.p
    if n < 4:
        raise ArgumentError(f"screening needs at least 4 samples, got {n}")
    if p < 1:
        raise ArgumentError("x has no feature columns")
    if np.all(np.ptp(y.values, axis=0) == 0.0):
        raise DegenerateDataError("response is constant; screening is meaningless")
    if Method.SIS in methods and y.p != 1:
        raise UnsupportedMethodError("sis requires a univariate response")
    if rule is not None and rule.kind == "auto" and any(m is not Method.KCCA for m in methods):
        raise ArgumentError("auto threshold rule requires a KCCA epsilon")

    xv = x.values
    yv = y.values
    eps = None
    scores = {method: np.empty(p) for method in methods}

    if Method.SIS in scores:
        for r in range(p):
            scores[Method.SIS][r] = pearson_score(xv[:, r], yv[:, 0])

    if Method.DC in scores:
        # The response side and its n x n scratch buffer, prepared once.
        # Each column still goes through dcor_score, the layer that
        # bench/tracing.py counts and times.
        dy = _DistanceResponse(centered_distances(yv))
        for r in range(p):
            scores[Method.DC][r] = dcor_score(xv[:, r], dy=dy)
        del dy  # two n x n arrays, not needed by the kernel methods

    kcca, hsic = Method.KCCA in scores, Method.HSIC in scores
    if kcca or hsic:
        # Non-constant response plus the scale-free bandwidth rule guarantees
        # a nonzero centered Gram, so no rank guard is needed here.
        bw_y = _column_bandwidth("response", bandwidth, yv)
        ly = gram(yv, bw_y)
        # KCCA reads the centered Gram's retained spectrum, HSIC the
        # centered factor itself.
        gy = center_and_decompose(ly) if kcca else None
        ly_c = center(ly) if hsic else None

        # Every column's pairwise-distance sum from one sort of the table.
        bws = [_column_bandwidth(f"feature {r + 1}", _bandwidth_from_sum, total, n)
               for r, total in enumerate(_scalar_distance_sums(xv.T))]

        def built(idx):
            # (features, stack) pairs for the features idx, _BUILD per
            # gram_block call, each stack holding one rank.
            for start in range(0, len(idx), _BUILD):
                block = idx[start:start + _BUILD]
                for pos, stack in gram_block(xv[:, block].T, [bws[r] for r in block]):
                    yield block[pos], stack

        def score(features, stack):
            # Centered in place and scored by every kernel method; a score is
            # bitwise the same in any stack of its rank.
            stack -= stack.mean(axis=1, keepdims=True)
            if kcca:
                scores[Method.KCCA][features] = _stack_kcca(stack, uy, eps)
            if hsic:
                scores[Method.HSIC][features] = _stack_hsic(stack, ly_c)

        # Each feature's factor is built once: the GCV subsample's stacks
        # are scored once the GCV has read them, then the rest as built.
        rest = np.arange(p)
        tuned = []
        if kcca:
            eps = fixed_eps
            if eps is None:
                k_budget = gcv_subsample if gcv_subsample is not None else min(p, GCV_SUBSAMPLE_DEFAULT)
                if k_budget < p:
                    rng = np.random.default_rng(seed)
                    tuning_idx = np.sort(rng.choice(p, size=k_budget, replace=False))
                else:
                    tuning_idx = rest
                tuned = list(built(tuning_idx))
                # The GCV reads the uncentered factors, as views in feature order.
                view = {r: lx for features, stack in tuned
                        for r, lx in zip(features.tolist(), stack)}
                eps = select_epsilon(ly, [view[r] for r in tuning_idx.tolist()]).epsilon
                del view
                rest = np.delete(rest, tuning_idx)
            uy = _kcca_response(gy, eps)
        for features, stack in tuned:
            score(features, stack)
        del tuned  # before the rest are built
        for features, stack in built(rest):
            score(features, stack)

    results = {}
    for method in methods:
        ranking = rank_by_score(scores[method])
        method_eps = eps if method is Method.KCCA else None
        m = _resolve_m(rule, method_eps, n, p)
        results[method] = ScreeningResult(
            scores=scores[method],
            ranking=ranking,
            selected=ranking[:m].copy(),
            epsilon=method_eps,
            method=method,
            m=m,
        )
    return results
