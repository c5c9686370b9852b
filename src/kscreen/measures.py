"""Marginal dependence statistics: the regularized kernel-CCA score, HSIC,
distance correlation, and absolute Pearson correlation.

Every measure scores a predictor side against a response side and returns
a plain float: KCCA and HSIC two column-centered kernel factors
(kernels.center), distance correlation a predictor's raw samples against
the response's double-centered distance matrix
(kernels.centered_distances), and Pearson two scalar sample vectors.  A
caller screening many predictors against one response prepares the
response side once; for distance correlation that is a private
_DistanceResponse, which also holds the response's row sums, its distance
variance, the upper triangle of its distance matrix in row blocks of at
most kernels._DIST_ROWS rows, and the scratch buffer of their max pass.

The screening pipeline scores distance correlation and Pearson a block of
raw scalar columns at a time: _stack_dcor against a _DistanceResponse,
_stack_pearson against the response's raw samples.  Each does the
per-column arithmetic row-wise in the same order, with every inner product
of a row a BLAS dot of that row alone (_row_dots), so a column's score is
bitwise the same in any block; dcor_score's scalar path and pearson_score
are the block of one.

The screening pipeline scores KCCA and HSIC a stack of predictors at a
time: kernels.gram_block hands back its factors as (b, n, r) stacks of one
rank r each, the pipeline column-centers each in place and forms each
member's cross product X = C^T L_Y with the response's centered factor
once.  _stack_hsic scores the stack from X; _stack_kcca from X, the Grams
G = C^T C and the response's whitening (_kcca_response), once epsilon is
known.  A member's scores are bitwise the same in any stack of its rank,
alone included; hsic_score and kcca_singular_value are the stack
arithmetic on a stack of one.

The KCCA score is the largest canonical correlation of the regularized
operators P = K (K + eps I)^{-1} of the centered Grams K = C C^T
(Fukumizu, Bach & Gretton, JMLR 2007), sigma_max(R_X^{-T} X R_Y^{-1})
with R^T R = G + eps I on each side (derived at _stack_kcca).  For eps > 0
it lies in [0, 1) and is 0 iff the centered operators are orthogonal.
"""

from __future__ import annotations

import math
from enum import Enum

import numpy as np

from .errors import ArgumentError, NumericError, UnsupportedMethodError
from .kernels import (
    _DIST_ROWS, _as_array, _as_factor, _as_samples, _build_width, _check_memory,
    _check_positive_epsilon, _pairwise_sq_dists,
)


class Method(str, Enum):
    """Screening method tags; Method(name) of any other name raises UnsupportedMethodError."""

    KCCA = "kcca"
    HSIC = "hsic"
    DC = "dc"
    SIS = "sis"

    @classmethod
    def _missing_(cls, value):
        valid = ", ".join(m.value for m in cls)
        raise UnsupportedMethodError(f"unknown method {value!r}; valid: {valid}")


def kcca_singular_value(lx, ly, epsilon: float) -> float:
    """Regularized KCCA score of two column-centered kernel factors
    (kernels.center).  _stack_kcca on a stack of one, so a screen's KCCA
    score is bitwise kcca_singular_value(center(L), center(L_Y), eps).

    Raises ArgumentError unless both are n x r factors over the same n >= 1
    samples and eps is positive and finite; NumericError if LAPACK fails.
    """
    a = _as_factor(lx, "lx")
    b = _as_factor(ly, "ly", a.shape[0])
    epsilon = _check_positive_epsilon(epsilon)
    ct = np.swapaxes(a[None], 1, 2)
    return float(_stack_kcca(ct @ a[None], ct @ b, _kcca_response(b, epsilon), epsilon)[0])


def _kcca_response(ly: np.ndarray, epsilon: float) -> np.ndarray:
    """The response's whitening R_Y^{-1} for _stack_kcca, from the Cholesky
    factor R_Y^T R_Y = L_Y^T L_Y + eps I of its centered factor L_Y."""
    gy = ly.T @ ly
    try:
        low = np.linalg.cholesky(gy + epsilon * np.eye(gy.shape[0]))
        return np.linalg.inv(low).T
    except np.linalg.LinAlgError as e:
        raise NumericError(f"Cholesky factorization of the response Gram failed: {e}") from None


def _stack_kcca(gram: np.ndarray, cross: np.ndarray, whiten: np.ndarray,
                epsilon: float) -> np.ndarray:
    """KCCA scores of a (b, n, r) stack of centered factors C from its
    Grams G = C^T C, its cross products X = C^T L_Y (the ones _stack_hsic
    reads) and the response's whitening R_Y^{-1} (_kcca_response).

    With R^T R = G + eps I, the push-through identity gives P_X = C (G +
    eps I)^{-1} C^T = A A^T for A = C R^{-1}, and P_Y = B B^T for B = L_Y
    R_Y^{-1}.  The nonzero eigenvalues of P_X P_Y are then those of N N^T
    with N = A^T B = R^{-T} X R_Y^{-1}, so the score is sigma_max(N): one
    Cholesky and one solve per member, and no eigenvalue is dropped.  A
    score is bitwise the same in any stack of its rank; a rank-0 stack, or
    a member with C = 0, scores 0.  NumericError if LAPACK fails.
    """
    if cross.shape[1] == 0 or cross.shape[2] == 0:
        return np.zeros(cross.shape[0])
    try:
        low = np.linalg.cholesky(gram + epsilon * np.eye(gram.shape[-1]))
        m = np.linalg.solve(low, cross @ whiten)
    except np.linalg.LinAlgError as e:
        raise NumericError(f"Cholesky solve of a KCCA stack failed: {e}") from None
    return _top_singular_values(m)


def _top_singular_values(m: np.ndarray) -> np.ndarray:
    """Largest singular value of a matrix, or of each in a stack, clipped to
    [0, 1], from the top eigenvalue of its smaller Gram (chosen by shape, so
    bitwise the same in any stack); LAPACK failures map to NumericError."""
    mt = np.swapaxes(m, -1, -2)
    try:
        top = np.linalg.eigvalsh(m @ mt if m.shape[-2] <= m.shape[-1] else mt @ m)[..., -1]
    except np.linalg.LinAlgError as e:
        raise NumericError(f"singular value computation failed: {e}") from None
    return np.sqrt(np.clip(top, 0.0, 1.0))


def hsic_score(lx: np.ndarray, ly: np.ndarray) -> float:
    """Biased V-statistic HSIC, trace(G_X G_Y) / n^2, of two column-centered
    kernel factors (kernels.center): with G = L L^T it is
    ||L_X^T L_Y||_F^2 / n^2, in O(n r_X r_Y).  _stack_hsic's arithmetic on
    a stack of one factor that is already centered, so a screen's HSIC
    score is bitwise hsic_score(center(L), ly).

    Raises ArgumentError unless both are n x r factors over the same n >= 1
    samples.
    """
    a = _as_factor(lx, "lx")
    b = _as_factor(ly, "ly", a.shape[0])
    return float(_stack_hsic(np.swapaxes(a[None], 1, 2) @ b, a.shape[0])[0])


def _stack_hsic(cross: np.ndarray, n: int) -> np.ndarray:
    """HSIC, ||X_m||_F^2 / n^2, of each member of a stack of cross products
    X_m = C_m^T L_Y of centered factors C_m over n samples with the
    response's centered factor L_Y.  The other members do not change a bit
    of a member's score.

    Each sum of squares is the smaller of its row-major and column-major
    sums.  Swapping the two factors transposes the cross product, which
    swaps the two sums, so the score is exactly symmetric in them.
    """
    sums = np.empty(cross.shape[0])
    for m, x in enumerate(cross):
        sums[m] = min(np.vdot(x, x), np.vdot(x.T, x.T))
    return sums / (n * n)


class _DistanceResponse:
    """The response side of dcor_score, prepared once: the double-centered
    distance matrix dy, scaled by the power of two that brings its largest
    |entry| into [1/2, 1), its row sums dy 1, <dy, dy> / n^2, and the upper
    triangle of dy in row blocks for the scalar path.

    The rows are cut evenly into ceil(n / _DIST_ROWS) blocks [a, b), one
    when n <= _DIST_ROWS.  Block [a, b) holds a contiguous copy of
    dy[a:b, a:] with its columns from b on doubled, so that for any
    symmetric M, <M, dy> is the sum over the blocks of <M[a:b, a:], block>:
    each pair i < j in different blocks is counted once, at twice its
    entry.  _stack_dcor scores at most width scalar predictors per call,
    and one flat buffer of width times the largest block is the scratch its
    max pass overwrites for each block of each call.  width is as many as
    fit, beside the largest block, in kernels._BUILD_BYTES (19 at n = 200,
    1 from n = 1366), so that the scratch and the block it is read against
    stay in cache together.  screen builds one per screen and passes it to
    every call; a plain matrix dy is prepared anew on every dcor_score
    call.
    """

    __slots__ = ("dy", "rows", "dvar", "blocks", "width", "buf", "weights")

    def __init__(self, dy: np.ndarray):
        n = dy.shape[0]
        dy = np.ldexp(dy, -math.frexp(max(float(dy.max()), -float(dy.min())))[1])
        self.dy = dy
        self.rows = dy.sum(axis=1)
        self.dvar = float(np.vdot(dy, dy)) / float(n * n)
        k = -(-n // _DIST_ROWS)
        cuts = [i * n // k for i in range(k + 1)]
        self.blocks = tuple((a, b, _upper_block(dy, a, b)) for a, b in zip(cuts, cuts[1:]))
        # (width + 1) * min(n, _DIST_ROWS) * n doubles fit in the budget.
        self.width = max(1, _build_width(n, _DIST_ROWS) - 1)
        self.buf = np.empty(self.width * max(block.size for _, _, block in self.blocks))
        # 2k - n + 2 for the 0-based sorted position k (see _stack_dcor).
        self.weights = 2.0 * np.arange(n) - (n - 2)


def _upper_block(dy: np.ndarray, a: int, b: int) -> np.ndarray:
    """A contiguous copy of dy[a:b, a:] with its columns from b on doubled
    (exactly: dy is scaled so that no entry overflows)."""
    block = dy[a:b, a:].copy()
    block[:, b - a:] *= 2.0
    return block


def dcor_score(x_samples, *, dy) -> float:
    """Sample distance correlation of a variable's raw samples (scalars or
    same-length vectors) with a response side
    dy = kernels.centered_distances(y), clamped to [0, 1].

    With D the distance matrix of x, Q = I - (1/n) 1 1^T a projection and
    dy = Q D_Y Q, the x side needs no double centering:

        dCov^2    = <D, dy> / n^2,
        dVar^2(x) = sum D^2 / n^2 - 2 sum_i a_i^2 / n^3 + (sum_i a_i)^2 / n^4,

    where sum D^2 = 2 n sum_i ||x_i - mean||^2 and a_i are the row sums of
    D.  The samples are scaled by the power of two that brings their
    largest |value| into [1/2, 1), centered, and scaled so again; the
    statistic is scale-free and the scalings are exact, so a score is the
    same bitwise at any scale that keeps the samples normal floats, up to
    the largest float, and no square goes subnormal.

    A scalar variable forms no distance matrix.  Its row sums a_i come
    from one sort and one cumulative sum, and |c_i - c_j| = 2 max(c_i, c_j)
    - c_i - c_j turns the cross term into

        <D, dy> = 2 <max(c_i, c_j), dy> - 2 c^T (dy 1).

    Both max(c_i, c_j) and dy are symmetric, so the first inner product
    reads only the upper triangle, in the row blocks of the prepared
    response (_DistanceResponse): per block one max pass into its scratch
    buffer and one inner product, about n^2 / 2 + 32 n entries in all, and
    each block stays in cache.  When n <= _DIST_ROWS the one block is a
    copy of dy, a single n x n pass.  A scalar variable is _stack_dcor's
    block of one, so a dc screen's score is bitwise dcor_score of its
    column alone.  Vector samples form their n x n distance matrix and
    read dy whole.

    Returns 0 when either side has zero distance variance (a constant
    variable).  Raises ArgumentError unless x has n >= 1 samples and dy is
    n x n, and DataError if either holds a NaN or infinite entry.
    """
    pts = _as_samples(x_samples, "x_samples")
    n = pts.shape[0]
    prepared = isinstance(dy, _DistanceResponse)
    matrix = dy.dy if prepared else _as_array(dy, "dy")
    if n < 1 or matrix.shape != (n, n):
        raise ArgumentError(
            "dcor needs n >= 1 samples and an n x n centered distance matrix, "
            f"got {n} samples and shape {matrix.shape}"
        )
    side = dy if prepared else _DistanceResponse(matrix)
    if side.dvar <= 0.0:
        return 0.0
    if pts.shape[1] == 1:
        return float(_stack_dcor(pts.T, side)[0])
    return float(_dcor(*_vector_dcov(pts, side.dy), side.dvar)[0])


def _stack_dcor(xs: np.ndarray, side: _DistanceResponse) -> np.ndarray:
    """Distance correlations of the rows of xs, an (m, n) block of at most
    side.width raw scalar variables, with the prepared response side, by
    dcor_score's arithmetic done row-wise in the same order: a row's score
    is bitwise the same at any position in any block, alone included.  A
    constant row scores 0."""
    m, n = xs.shape
    c = _centered_rows(xs)
    s = np.sort(c, axis=1)
    # Row sums in sorted order, a_k = (2k - n + 2) s_k + sum(s) - 2 cumsum(s)_k.
    cum = s.cumsum(axis=1)
    rows = side.weights * s
    rows += cum[:, -1:]
    cum *= 2.0
    rows -= cum
    # <max(c_i, c_j), dy> over the upper-triangle row blocks of side.
    cross = np.zeros(m)
    for a, b, block in side.blocks:
        top = side.buf[:m * block.size].reshape(m, b - a, n - a)
        np.maximum(c[:, a:b, None], c[:, None, a:], out=top)
        cross += _row_dots(top.reshape(m, -1), block.reshape(-1))
    dcov2 = (2.0 * cross - 2.0 * _row_dots(c, side.rows)) / float(n * n)
    dvar = _distance_variance(c, rows, n)
    dvar[s[:, 0] == s[:, -1]] = 0.0
    return _dcor(dcov2, dvar, side.dvar)


def _vector_dcov(pts: np.ndarray, dy: np.ndarray) -> tuple:
    """(dCov^2, dVar^2), each an array of one, of vector samples, centered
    and scaled by a power of two, against dy."""
    n = pts.shape[0]
    centered = pts - pts.mean(axis=0)
    top = float(np.max(np.abs(centered)))
    if top == 0.0:
        return np.zeros(1), np.zeros(1)
    centered = np.ldexp(centered, -math.frexp(top)[1])
    _check_memory("a distance matrix", n, 8 * n * n)
    dist = _pairwise_sq_dists(centered)
    np.sqrt(dist, out=dist)  # one n x n array, not two
    return np.array([float(np.vdot(dist, dy)) / float(n * n)]), _distance_variance(
        centered.reshape(1, -1), dist.sum(axis=1)[None], n)


def _distance_variance(centered: np.ndarray, rows: np.ndarray, n: int) -> np.ndarray:
    """dVar^2 of each row of centered samples (their coordinates in a row)
    from the same row of the row sums of their distances."""
    n2 = float(n * n)
    return (
        2.0 * n * _row_dots(centered, centered) / n2
        - 2.0 * _row_dots(rows, rows) / (n2 * n)
        # float_power is C pow, as a Python float's ** was; ** squares.
        + np.float_power(np.add.reduce(rows, axis=1), 2) / (n2 * n2)
    )


def _dcor(dcov2: np.ndarray, dvar: np.ndarray, dvar_y: float) -> np.ndarray:
    """Distance correlations from dCov^2 and dVar^2 of each variable and the
    response's dVar^2, clamped to [0, 1]; 0 where a dVar^2 is 0."""
    scores = np.zeros(dcov2.shape[0])
    live = (dvar > 0.0) & (dvar_y > 0.0)
    r2 = dcov2[live] / np.sqrt(dvar[live] * dvar_y)
    scores[live] = np.minimum(np.sqrt(np.maximum(r2, 0.0)), 1.0)
    return scores


def pearson_score(x_samples, y_samples) -> float:
    """Absolute sample Pearson correlation between two scalar variables.

    Each side is scaled by the power of two that brings its largest |value|
    into [1/2, 1), centered, and scaled so again, as in dcor_score, so a
    score is bitwise the same at any scale that keeps the centered samples
    normal floats, up to the largest float.  x is _stack_pearson's block of
    one, so a sis screen's score is bitwise pearson_score of its column
    alone.
    Returns 0 when either variable is constant.  A multivariate response is
    rejected: Pearson ranking has no single-number extension to vector
    responses.
    """
    xs = _as_samples(x_samples, "x_samples")
    ys = _as_samples(y_samples, "y_samples")
    if xs.shape[1] != 1 or ys.shape[1] != 1:
        raise UnsupportedMethodError(
            "pearson correlation requires univariate samples on both sides"
        )
    n = xs.shape[0]
    if ys.shape[0] != n:
        raise ArgumentError(f"sample counts differ: {n} vs {ys.shape[0]}")
    if n < 2:
        raise ArgumentError(f"pearson correlation needs n >= 2, got {n}")
    if ys.min() == ys.max():  # exactly 0, though the mean rounds
        return 0.0
    return float(_stack_pearson(xs.T, ys[:, 0])[0])


def _stack_pearson(xs: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Absolute Pearson correlations of the rows of xs, an (m, n) block of
    raw scalar variables, with the raw samples y of a non-constant
    response, clamped to [0, 1].  Each row's arithmetic is its own, so its
    score is bitwise the same at any position in any block, alone included.
    A constant row scores 0."""
    cx, cy = _centered_rows(xs), _centered_rows(y[None])[0]
    xy, xx = _row_dots(cx, cy), _row_dots(cx, cx)
    scores = np.zeros(xs.shape[0])
    live = xs.min(axis=1) < xs.max(axis=1)
    scores[live] = np.minimum(np.abs(xy[live] / np.sqrt(xx[live] * np.dot(cy, cy))), 1.0)
    return scores


def _centered_rows(xs: np.ndarray) -> np.ndarray:
    """Each row of xs scaled by the power of two that brings its largest
    |value| into [1/2, 1), centered, and scaled so again, in a new
    C-contiguous array.  Both scalings are exact: the mean's sum cannot
    overflow, and each sum of squares of a non-constant row lies in
    [1/4, n]."""
    c = np.ldexp(xs, -np.frexp(np.abs(xs).max(axis=1))[1][:, None], order="C")
    c -= np.add.reduce(c, axis=1, keepdims=True) / xs.shape[1]
    np.ldexp(c, -np.frexp(np.abs(c).max(axis=1))[1][:, None], out=c)
    return c


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Inner product of each row of a with b, or with the same row of b:
    bitwise np.dot of the two rows alone, at any position in any block.
    numpy's matmul hands each (1, k) @ (k, 1) product to the same BLAS dot
    as np.dot; a @ b and einsum do not sum in that order."""
    return (a[:, None, :] @ b[..., None])[:, 0, 0]
