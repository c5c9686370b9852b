"""Marginal dependence statistics: the regularized kernel-CCA score, HSIC,
distance correlation, and absolute Pearson correlation.

Every measure scores a predictor side against a response side and returns
a plain float: KCCA two ``CenteredGram``s, HSIC two column-centered kernel
factors (kernels.center), distance correlation a predictor's raw samples
against the response's double-centered distance matrix
(kernels.centered_distances), and Pearson two scalar sample vectors.  A
caller screening many predictors against one response prepares the
response side once; for distance correlation that is a private
_DistanceResponse, which also holds the response's row sums, its distance
variance and the n x n buffer every scalar predictor's score reuses.  kcca_block and hsic_block score a block of predictor
kernel factors at once, from one zero-padded, column-centered stack of
them, and return an array; hsic_score runs hsic_block's arithmetic on a
stack of one.  Both are thin wrappers: the stack is built by
_centered_stack and scored by _stack_kcca and _stack_hsic, which the
screening pipeline calls directly to score both methods from one stack.

The KCCA score of a predictor against the response is the largest singular
value of the whitened cross-Gram coordinate matrix

    M = (D_Y + eps I)^{-1/2} D_Y^{1/2} U_Y^T U_X D_X^{1/2} (D_X + eps I)^{-1/2},

where (U, D) are the retained eigenpairs of the double-centered Gram
matrices.  For any eps > 0 the score lies in [0, 1) and is 0 iff the
centered operators are orthogonal.
"""

from __future__ import annotations

import math
from enum import Enum

import numpy as np

from .errors import ArgumentError, NumericError, UnsupportedMethodError
from .kernels import (
    DEFAULT_TOL_REL, CenteredGram, _as_factor, _as_samples, _check_positive_epsilon,
    _factor_stack, _pairwise_sq_dists, gram_eigh,
)


class Method(str, Enum):
    """Screening method tags."""

    KCCA = "kcca"
    HSIC = "hsic"
    DC = "dc"
    SIS = "sis"


def kcca_singular_value(gx: CenteredGram, gy: CenteredGram, epsilon: float) -> float:
    """Largest singular value of the whitened cross-Gram matrix M.

    M is built from the retained eigenpairs only (truncated ones would
    contribute exactly-zero rows/columns); a rank-0 side yields 0.
    """
    if gx.n != gy.n:
        raise ArgumentError(f"Gram matrices built from different sample counts: {gx.n} vs {gy.n}")
    _check_positive_epsilon(epsilon)
    if gx.rank == 0 or gy.rank == 0:
        return 0.0
    wx = np.sqrt(gx.d / (gx.d + epsilon))
    wy = np.sqrt(gy.d / (gy.d + epsilon))
    cross = gy.u.T @ gx.u
    return float(_top_singular_values((wy[:, None] * cross) * wx[None, :]))


def _centered_stack(lxs, n: int) -> tuple:
    """A block's kernel factors, zero-padded to the widest rank r and
    column-centered into one (b, n, r) stack, and the list of their ranks.

    Raises as kernels._factor_stack, which pads them.
    """
    c, ranks = _factor_stack(lxs, n)
    c -= c.mean(axis=1, keepdims=True)
    return c, ranks


def kcca_block(lxs, gy: CenteredGram, epsilon: float) -> np.ndarray:
    """KCCA scores of b predictors against one response, in one batched pass.

    ``lxs`` holds the predictors' n x r_m kernel factors, as
    kernels.gram_block returns them, and ``gy`` is the response's
    CenteredGram.  The factors are zero-padded to the widest rank r and
    column-centered into a (b, n, r) stack C.  With C^T C = W Lambda W^T,
    one batched eigh of the r x r Grams, the retained eigenvectors of the
    centered Gram C C^T are U_X = C W Lambda^(-1/2), so

        M = diag(w_Y) U_Y^T C W diag(keep / sqrt(lambda + eps))

    is the whitened cross-Gram matrix of kcca_singular_value.  Eigenvalues
    are kept by center_and_decompose's rule, lambda >= DEFAULT_TOL_REL *
    max(lambda_max, 1); the padding adds only zero eigenvalues, which the
    rule drops.  No n x r eigenvector matrix is formed.  The scores agree
    with kcca_singular_value(center_and_decompose(L), gy, eps) up to
    rounding, and each depends only on its own factor and the block's
    width.

    Raises ArgumentError unless lxs holds at least one n x r factor over
    gy's n samples and epsilon is positive and finite; DataError if a
    factor has a non-finite entry; NumericError if LAPACK fails.
    """
    _check_positive_epsilon(epsilon)
    return _stack_kcca(_centered_stack(lxs, gy.n)[0], gy, epsilon)


def _stack_kcca(c: np.ndarray, gy: CenteredGram, epsilon: float) -> np.ndarray:
    """kcca_block's scores of each centered factor of a (b, n, r) stack."""
    if gy.rank == 0:
        return np.zeros(c.shape[0])
    lam, w = gram_eigh(c)
    keep = lam >= DEFAULT_TOL_REL * np.maximum(lam[:, -1:], 1.0)
    scale = keep / np.sqrt(np.where(keep, lam, 0.0) + epsilon)
    wy = np.sqrt(gy.d / (gy.d + epsilon))
    return _top_singular_values(wy[:, None] * (gy.u.T @ c) @ (w * scale[:, None, :]))


def _top_singular_values(m: np.ndarray) -> np.ndarray:
    """Largest singular value of a matrix, or of each in a stack, clipped at
    1, with LAPACK failures mapped to NumericError."""
    try:
        sv = np.linalg.svd(m, compute_uv=False)[..., 0]
    except np.linalg.LinAlgError as e:
        raise NumericError(f"singular value computation failed: {e}") from None
    return np.minimum(sv, 1.0)


def hsic_block(lxs, ly_c) -> np.ndarray:
    """HSIC of b predictors against one response, in one batched pass.

    ``lxs`` holds the predictors' n x r_m kernel factors, as
    kernels.gram_block returns them, and ``ly_c`` is the response's
    column-centered factor (kernels.center).  The factors are zero-padded
    and column-centered into kcca_block's (b, n, r) stack C, and member m
    scores hsic_score's ||C_m^T L_Y||_F^2 / n^2 over its own r_m columns,
    so each score is bitwise hsic_score(center(L_m), ly_c) whatever the
    block.

    Raises ArgumentError unless lxs holds at least one n x r factor over
    ly_c's n >= 1 samples and ly_c is n x r_Y with r_Y <= n; DataError if a
    factor has a non-finite entry.
    """
    ly = _as_factor(ly_c)
    c, ranks = _centered_stack(lxs, ly.shape[0])
    return _stack_hsic(c, ranks, ly)


def hsic_score(lx: np.ndarray, ly: np.ndarray) -> float:
    """Biased V-statistic HSIC, trace(G_X G_Y) / n^2, of two column-centered
    kernel factors (kernels.center): with G = L L^T it is
    ||L_X^T L_Y||_F^2 / n^2, in O(n r_X r_Y).  hsic_block's arithmetic on
    a block of one factor that is already centered.

    Raises ArgumentError unless both are n x r factors over the same n >= 1
    samples.
    """
    a, b = _as_factor(lx), _as_factor(ly)
    if b.shape[0] != a.shape[0]:
        raise ArgumentError(
            f"hsic needs factors over the same samples, got {a.shape} and {b.shape}"
        )
    return float(_stack_hsic(a[None], [a.shape[1]], b)[0])


def _stack_hsic(c: np.ndarray, ranks: list, ly: np.ndarray) -> np.ndarray:
    """||C_m^T L_Y||_F^2 / n^2 for each centered factor C_m of a (b, n, r)
    stack, over its first ranks[m] columns.

    Each sum of squares is the smaller of its row-major and column-major
    sums.  Swapping the two factors transposes the cross product, which
    swaps the two sums, so the score is exactly symmetric in them.
    """
    n = c.shape[1]
    cross = np.swapaxes(c, 1, 2) @ ly
    sums = np.empty(len(ranks))
    for m, r in enumerate(ranks):
        x = cross[m, :r]
        sums[m] = min(np.vdot(x, x), np.vdot(x.T, x.T))
    return sums / (n * n)


class _DistanceResponse:
    """The response side of dcor_score, prepared once: the double-centered
    distance matrix dy, scaled by the power of two that brings its largest
    |entry| into [1/2, 1), its row sums dy 1 and <dy, dy> / n^2, and one
    n x n buffer that the scalar path overwrites for each feature.  screen
    builds one per screen and passes it as dy, so that p features reuse it;
    a plain matrix dy is prepared anew on every call.
    """

    __slots__ = ("dy", "rows", "dvar", "buf", "weights")

    def __init__(self, dy: np.ndarray):
        n = dy.shape[0]
        dy = np.ldexp(dy, -math.frexp(max(float(dy.max()), -float(dy.min())))[1])
        self.dy = dy
        self.rows = dy.sum(axis=1)
        self.dvar = float(np.vdot(dy, dy)) / float(n * n)
        self.buf = np.empty((n, n))
        # 2k - n + 2 for the 0-based sorted position k (see _scalar_dcov).
        self.weights = 2.0 * np.arange(n) - (n - 2)


def dcor_score(x_samples, *, dy) -> float:
    """Sample distance correlation of a variable's raw samples (scalars or
    same-length vectors) with a response side
    dy = kernels.centered_distances(y), clamped to [0, 1].

    With D the distance matrix of x, Q = I - (1/n) 1 1^T a projection and
    dy = Q D_Y Q, the x side needs no double centering:

        dCov^2    = <D, dy> / n^2,
        dVar^2(x) = sum D^2 / n^2 - 2 sum_i a_i^2 / n^3 + (sum_i a_i)^2 / n^4,

    where sum D^2 = 2 n sum_i ||x_i - mean||^2 and a_i are the row sums of
    D.  The samples are centered and scaled by the power of two that brings
    their largest |value| into [1/2, 1); the statistic is scale-free and the
    scaling is exact, so a score is the same bitwise at any scale whose
    products neither overflow nor underflow, and no square goes subnormal.

    A scalar variable forms no distance matrix.  Its row sums a_i come
    from one sort and one cumulative sum, and |c_i - c_j| = 2 max(c_i, c_j)
    - c_i - c_j turns the cross term into

        <D, dy> = 2 <max(c_i, c_j), dy> - 2 c^T (dy 1),

    one n x n max pass into a reused buffer and one inner product.  Vector
    samples form their n x n distance matrix.

    Returns 0 when either side has zero distance variance (a constant
    variable).  Raises ArgumentError unless x has n >= 1 samples and dy is
    n x n.
    """
    pts = _as_samples(x_samples)
    n = pts.shape[0]
    side = dy if isinstance(dy, _DistanceResponse) else None
    shape = side.dy.shape if side is not None else np.shape(dy)
    if n < 1 or shape != (n, n):
        raise ArgumentError(
            "dcor needs n >= 1 samples and an n x n centered distance matrix, "
            f"got {n} samples and shape {shape}"
        )
    if side is None:
        side = _DistanceResponse(np.asarray(dy, dtype=float))
    if side.dvar <= 0.0:
        return 0.0
    if pts.shape[1] == 1:
        dcov2, dvar_x = _scalar_dcov(pts[:, 0], side)
    else:
        dcov2, dvar_x = _vector_dcov(pts, side.dy)
    if dvar_x <= 0.0:
        return 0.0
    r2 = dcov2 / math.sqrt(dvar_x * side.dvar)
    return min(math.sqrt(max(r2, 0.0)), 1.0)


def _scalar_dcov(x: np.ndarray, side: _DistanceResponse) -> tuple:
    """(dCov^2, dVar^2) of scalar samples x, centered and scaled by a power
    of two, against side.  dVar^2 is 0 for a constant x."""
    n = x.shape[0]
    c = x - x.mean()
    s = np.sort(c)
    if s[0] == s[-1]:
        return 0.0, 0.0
    e = -math.frexp(max(-s[0], s[-1]))[1]
    np.ldexp(c, e, out=c)
    np.ldexp(s, e, out=s)
    # Row sums in sorted order, a_k = (2k - n + 2) s_k + sum(s) - 2 cumsum(s)_k.
    cum = s.cumsum()
    rows = side.weights * s
    rows += cum[-1]
    cum *= 2.0
    rows -= cum
    np.maximum(c[:, None], c, out=side.buf)
    n2 = float(n * n)
    dcov2 = (2.0 * float(np.vdot(side.buf, side.dy)) - 2.0 * float(np.dot(c, side.rows))) / n2
    return dcov2, _distance_variance(c, rows, n)


def _vector_dcov(pts: np.ndarray, dy: np.ndarray) -> tuple:
    """(dCov^2, dVar^2) of vector samples, centered and scaled by a power
    of two, against dy."""
    n = pts.shape[0]
    centered = pts - pts.mean(axis=0)
    top = float(np.max(np.abs(centered)))
    if top == 0.0:
        return 0.0, 0.0
    centered = np.ldexp(centered, -math.frexp(top)[1])
    dist = np.sqrt(_pairwise_sq_dists(centered))
    return float(np.vdot(dist, dy)) / float(n * n), _distance_variance(
        centered, dist.sum(axis=1), n)


def _distance_variance(centered: np.ndarray, rows: np.ndarray, n: int) -> float:
    """dVar^2 from the centered samples and the row sums of their distances."""
    n2 = float(n * n)
    return (
        2.0 * n * float(np.vdot(centered, centered)) / n2
        - 2.0 * float(np.dot(rows, rows)) / (n2 * n)
        + float(rows.sum()) ** 2 / (n2 * n2)
    )


def pearson_score(x_samples, y_samples) -> float:
    """Absolute sample Pearson correlation between two scalar variables.

    Returns 0 when either variable is constant.  A multivariate response is
    rejected: Pearson ranking has no single-number extension to vector
    responses.
    """
    xs = _as_samples(x_samples)
    ys = _as_samples(y_samples)
    if xs.shape[1] != 1 or ys.shape[1] != 1:
        raise UnsupportedMethodError(
            "pearson correlation requires univariate samples on both sides"
        )
    x = xs[:, 0]
    y = ys[:, 0]
    n = x.shape[0]
    if y.shape[0] != n:
        raise ArgumentError(f"sample counts differ: {n} vs {y.shape[0]}")
    if n < 2:
        raise ArgumentError(f"pearson correlation needs n >= 2, got {n}")
    cx = x - x.mean()
    cy = y - y.mean()
    denom = np.sqrt(np.dot(cx, cx) * np.dot(cy, cy))
    if denom == 0.0:
        return 0.0
    value = abs(float(np.dot(cx, cy) / denom))
    return min(value, 1.0)
