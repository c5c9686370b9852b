"""Full feature-screening pipeline: per-feature bandwidths, optional ridge
tuning, a shared response factor, per-predictor scores, and top-m
selection.

Pipeline for the kernel methods, given data X (n x p) and response Y (n x d):

  (a) bandwidths gamma_1..gamma_p and gamma_Y from the mean pairwise
      distance rule (a constant feature, or one whose spread makes gamma
      overflow or underflow, falls back to gamma = 1 with a warning that
      says which);
  (b) one low-rank Gram factor per variable, each built once: the
      response's by kernels.gram, column-centered once and shared across
      all predictors, and the predictors' by kernels.gram_block, as many
      features per call as kernels._build_width(n) fits in the
      kernels._BUILD_BYTES = 2 MiB its initial L^T buffer may take (40 at
      n = 200, 4 at n = 2000), which hands them back in unpadded stacks of
      one rank each, none of them referenced once the next call starts;
  (c) ridge epsilon from the GCV grid search over GCV_GRID, summed over a
      seeded subsample of GCV_SUBSAMPLE predictors, or all of them when p
      is no larger (KCCA only, when auto), whose stacks are built first and
      handed uncentered to tuning._gcv_terms by the one generator that
      builds every stack and then scores it by (d), so none is held;
  (d) one dependence score per predictor, each stack column-centered in
      place as (b) builds it, its cross products X = C^T L_Y with the
      response's centered factor formed once, and then dropped: HSIC from
      X (measures._stack_hsic), KCCA from X and the stack's r x r Grams
      G = C^T C, held in one pile per rank r.  A pile is finished by one
      measures._stack_kcca call on its members' concatenated terms (one
      Cholesky solve per member against the response's whitening, itself
      one Cholesky per screen, _kcca_response), one pile at a time, once
      epsilon is known, at three points: a pile once it holds one build's
      width of members (so kernels._BUILD_BYTES sets both), every pile
      before a build would take the members held past GCV_SUBSAMPLE (the
      GCV's piles, which hold min(p, GCV_SUBSAMPLE) members, are finished
      there or at the end), and every pile left after the last build;
  (e) descending rank with ties broken by ascending feature index, and
      selection of the top m features.

Screening one (X, Y) by KCCA and HSIC together (as each run_suite
replication does) shares one kernel preparation: (a) and (b) run once, and
each stack is centered once and scored by both methods.

Distance correlation skips (a) and (c): (b) builds only the response's
double-centered distance matrix, prepared once with its row sums and its
upper triangle cut into row blocks of at most 64 rows, and (d) scores
each raw column against it by measures.dcor_score, one call per column:
one sort, then one max pass and one inner product per block, about n^2 / 2
entries in all.
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
# center_and_decompose, hsic_score, kcca_singular_value and select_epsilon
# are not called here; they stay names of this module because
# bench/tracing.py rebinds them.
from .kernels import (  # noqa: F401
    Bandwidth, DataMatrix, _as_array, _bandwidth_from_sum, _build_width, _check_positive_epsilon,
    _check_type, _scalar_distance_sums, bandwidth, center, center_and_decompose,
    centered_distances, gram, gram_block,
)
from .measures import (  # noqa: F401
    Method, _DistanceResponse, _kcca_response, _stack_hsic, _stack_kcca, dcor_score,
    hsic_score, kcca_singular_value, pearson_score,
)
from .tuning import _gcv_terms, _grid_search, select_epsilon  # noqa: F401

# The GCV sum over all p predictors is O(p n r^2) for factors of rank r;
# above this many predictors the tuning step uses a seeded uniform subsample
# of this size.  Read at call time.
GCV_SUBSAMPLE = 200


def _check_int(name: str, value, minimum: int):
    """Raise ArgumentError unless value is an integer (not a bool) >= minimum."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < minimum:
        expected = "a non-negative integer" if minimum == 0 else f"an integer >= {minimum}"
        raise ArgumentError(f"{name} must be {expected}, got {value!r}")


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
    epsilon = _check_positive_epsilon(epsilon)
    _check_int("n", n, 1)
    _check_int("p", p, 1)
    try:
        power = epsilon ** -1.5
    except OverflowError:  # past the float range for epsilon below ~2.8e-206
        power = math.inf
    # Clamped before ceil, which has no integer for an infinite m.
    return max(1, math.ceil(min(1.5 * power * n ** 0.25, p)))


def rank_by_score(scores) -> np.ndarray:
    """Stable descending sort of scores as a 1-based feature permutation.

    Ties are broken by ascending feature index.  NaN scores are a data
    error.
    """
    s = _as_array(scores, "scores", finite=False)
    if s.ndim != 1 or s.size == 0:
        raise ArgumentError("scores must be a nonempty 1-D sequence")
    if np.isnan(s).any():
        raise DataError("scores contain NaN")
    order = np.argsort(-s, kind="stable")
    return order.astype(int) + 1


def _check_screen_args(methods, rule, epsilon, seed) -> tuple:
    """screen's checks of the arguments that are not data: (methods as
    Method members, None for an "auto" epsilon or else epsilon as a float).
    UnsupportedMethodError for an unknown method, else ArgumentError."""
    _check_int("seed", seed, 0)
    auto = isinstance(epsilon, str) and epsilon == "auto"
    fixed_eps = None if auto else _check_positive_epsilon(epsilon, "epsilon, if not 'auto',")
    methods = tuple(Method(m) for m in methods)
    if not methods:
        raise ArgumentError("at least one method is required")
    if len(set(methods)) != len(methods):
        raise ArgumentError("duplicate methods in list")
    if rule is not None:
        _check_type("rule", rule, ThresholdRule)
        if rule.kind == "auto" and any(m is not Method.KCCA for m in methods):
            raise ArgumentError("auto threshold rule requires a KCCA epsilon")
    return methods, fixed_eps


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
) -> ScreeningResult:
    """Rank all features of x by marginal dependence with y and select the top m.

    Parameters
    ----------
    x, y : DataMatrix
        Predictors (n x p) and response (n x d) over the same n samples.
    method : Method or str
        "kcca", "hsic", "dc", or "sis" (sis requires a univariate response);
        any other name raises UnsupportedMethodError.
    rule : ThresholdRule, optional
        Selection size; defaults to the top 1 percent of features.  The
        auto rule is valid for kcca only (its formula needs epsilon).
    epsilon : "auto" or positive float
        KCCA ridge parameter; "auto" runs the GCV grid search.  Other
        methods ignore it, but every method rejects a value that is neither
        "auto" nor a positive finite real before any work.
    seed : int
        Non-negative; seeds the draw of the GCV_SUBSAMPLE = 200 predictors
        that enter the GCV sum when p exceeds that size, and has no other
        effect.  A seed that is not a non-negative integer raises
        ArgumentError before any work.

    Every argument is checked before any work; an x, y or rule of the
    wrong type raises ArgumentError naming it.

    Unlike run_suite, screen does not pin the BLAS thread count, and kcca
    and hsic scores can differ in the last bits across BLAS thread counts;
    the README's BLAS paragraph has the measured differences.
    """
    (result,) = _screen_methods(x, y, (method,), rule, epsilon, seed).values()
    return result


def _screen_methods(x, y, methods, rule, epsilon, seed) -> dict:
    """screen for several methods over one (x, y), as {Method: ScreeningResult}.

    Bandwidths and Gram factor stacks are built and centered once and
    shared by the kernel methods; each result is bitwise the one screen
    returns for its method alone.
    """
    methods, fixed_eps = _check_screen_args(methods, rule, epsilon, seed)
    _check_type("x", x, DataMatrix)
    _check_type("y", y, DataMatrix)
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

    xv = x.values
    yv = y.values
    eps = fixed_eps  # chosen by the GCV below when None and kcca is asked for
    scores = {method: np.empty(p) for method in methods}

    if Method.SIS in scores:
        for r in range(p):
            scores[Method.SIS][r] = pearson_score(xv[:, r], yv[:, 0])

    if Method.DC in scores:
        # The response side, its upper-triangle row blocks and their
        # scratch, prepared once.  Each column still goes through
        # dcor_score, the layer that bench/tracing.py counts and times.
        dy = _DistanceResponse(centered_distances(yv))
        for r in range(p):
            scores[Method.DC][r] = dcor_score(xv[:, r], dy=dy)
        del dy  # about 1.5 n^2 doubles, not needed by the kernel methods

    kcca, hsic = Method.KCCA in scores, Method.HSIC in scores
    if kcca or hsic:
        # The response's centered factor: HSIC reads it, and KCCA its
        # whitening, once epsilon is known.  The GCV reads the raw factor.
        ly = gram(yv, _column_bandwidth("response", bandwidth, yv))
        ly_c = center(ly)

        # Every column's pairwise-distance sum from one sort of the table.
        bws = [_column_bandwidth(f"feature {r + 1}", _bandwidth_from_sum, total, n)
               for r, total in enumerate(_scalar_distance_sums(xv.T))]

        def scored(idx):
            # Builds idx, width features per gram_block call, and hands each
            # stack (of one rank) and its positions in idx to the caller,
            # then centers it in place and scores it, with one cross product
            # for both methods; KCCA's terms join the pile of their rank.
            # Once epsilon is known, a pile is finished at width members,
            # and every pile before a build would pass GCV_SUBSAMPLE held.
            for start in range(0, len(idx), width):
                block = idx[start:start + width]
                held = sum(len(f) for pile in piles.values() for f, _, _ in pile)
                if eps is not None and held + len(block) > GCV_SUBSAMPLE:
                    finish(*piles)
                for pos, stack in gram_block(xv[:, block].T, [bws[r] for r in block]):
                    yield start + pos, stack
                    stack -= stack.mean(axis=1, keepdims=True)
                    ct = np.swapaxes(stack, 1, 2)
                    cross = ct @ ly_c
                    if hsic:
                        scores[Method.HSIC][block[pos]] = _stack_hsic(cross, n)
                    if kcca:
                        rank = stack.shape[2]
                        piles.setdefault(rank, []).append((block[pos], ct @ stack, cross))
                        if eps is not None and sum(len(f) for f, _, _ in piles[rank]) >= width:
                            finish(rank)
                    del stack, ct, cross  # none may outlive its build

        def finish(*ranks):
            # One pile at a time, so that only one is ever held twice, each
            # by one _stack_kcca call on its members' concatenated terms: a
            # score is bitwise the same in any stack of its rank.
            for rank in ranks:
                pile = piles.pop(rank)
                features, g, cross = pile[0] if len(pile) == 1 else map(np.concatenate, zip(*pile))
                del pile
                scores[Method.KCCA][features] = _stack_kcca(g, cross, whiten, eps)
                del g, cross  # before the next pile is concatenated

        # piles[r] holds the KCCA terms of rank r not yet finished.  The
        # GCV holds min(p, GCV_SUBSAMPLE) members, so its piles are finished
        # by the cap before the next build, or at the end.
        rest, piles, width = np.arange(p), {}, _build_width(n)
        if kcca and eps is None:
            tuning_idx = rest if p <= GCV_SUBSAMPLE else np.sort(
                np.random.default_rng(seed).choice(p, size=GCV_SUBSAMPLE, replace=False))
            eps = _grid_search(_gcv_terms(ly, scored(tuning_idx), len(tuning_idx))).epsilon
            rest = np.delete(rest, tuning_idx)
        if kcca:
            whiten = _kcca_response(ly_c, eps)
        for _, stack in scored(rest):
            del stack  # nothing reads it, and no build may run beside it
        finish(*piles)

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
