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
variance, and the upper triangle of its distance matrix in row blocks of
at most _ROW_BLOCK rows with one block-sized scratch buffer, which every
scalar predictor's score reuses.

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
    _as_array, _as_factor, _as_samples, _check_memory, _check_positive_epsilon, _pairwise_sq_dists,
)

# Rows per block of the response's distance matrix in the scalar dc path;
# a block and its scratch, 64 rows of at most n doubles each, stay in cache.
_ROW_BLOCK = 64


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

    The rows are cut evenly into ceil(n / _ROW_BLOCK) blocks [a, b).  Block
    [a, b) holds a contiguous copy of dy[a:b, a:] with its columns from b
    on doubled, so that for any symmetric M, <M, dy> is the sum over the
    blocks of <M[a:b, a:], block>: each pair i < j in different blocks is
    counted once, at twice its entry.  When n <= _ROW_BLOCK the one block
    is dy itself.  One flat buffer, the size of the largest block, is the
    scratch that _scalar_dcov overwrites for each block of each feature;
    each block is held with a view of it in the block's shape.
    screen builds one per screen and passes it as dy, so that p features
    reuse it; a plain matrix dy is prepared anew on every call.
    """

    __slots__ = ("dy", "rows", "dvar", "blocks", "buf", "weights")

    def __init__(self, dy: np.ndarray):
        n = dy.shape[0]
        dy = np.ldexp(dy, -math.frexp(max(float(dy.max()), -float(dy.min())))[1])
        self.dy = dy
        self.rows = dy.sum(axis=1)
        self.dvar = float(np.vdot(dy, dy)) / float(n * n)
        k = -(-n // _ROW_BLOCK)
        cuts = [i * n // k for i in range(k + 1)]
        blocks = [(0, n, dy)] if k == 1 else [
            (a, b, _upper_block(dy, a, b)) for a, b in zip(cuts, cuts[1:])]
        self.buf = np.empty(max(block.size for _, _, block in blocks))
        # Each block with its view of the shared scratch, of the block's shape.
        self.blocks = tuple((a, b, block, self.buf[:block.size].reshape(block.shape))
                            for a, b, block in blocks)
        # 2k - n + 2 for the 0-based sorted position k (see _scalar_dcov).
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
    D.  The samples are centered and scaled by the power of two that brings
    their largest |value| into [1/2, 1); the statistic is scale-free and the
    scaling is exact, so a score is the same bitwise at any scale whose
    products neither overflow nor underflow, and no square goes subnormal.

    A scalar variable forms no distance matrix.  Its row sums a_i come
    from one sort and one cumulative sum, and |c_i - c_j| = 2 max(c_i, c_j)
    - c_i - c_j turns the cross term into

        <D, dy> = 2 <max(c_i, c_j), dy> - 2 c^T (dy 1).

    Both max(c_i, c_j) and dy are symmetric, so the first inner product
    reads only the upper triangle, in the row blocks of the prepared
    response (_DistanceResponse): per block one max pass into a reused
    block-sized buffer and one inner product, about n^2 / 2 + 32 n entries
    in all, and each block stays in cache.  When n <= _ROW_BLOCK the one
    block is dy, a single n x n pass.  Vector samples form their n x n
    distance matrix and read dy whole.

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
    c = x - np.add.reduce(x) / n
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
    # <max(c_i, c_j), dy> over the upper-triangle row blocks of side.
    cross = 0.0
    for a, b, block, top in side.blocks:
        np.maximum(c[a:b, None], c[a:], out=top)
        cross += float(np.vdot(top, block))
    n2 = float(n * n)
    dcov2 = (2.0 * cross - 2.0 * float(np.dot(c, side.rows))) / n2
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
    _check_memory("a distance matrix", n, 8 * n * n)
    dist = _pairwise_sq_dists(centered)
    np.sqrt(dist, out=dist)  # one n x n array, not two
    return float(np.vdot(dist, dy)) / float(n * n), _distance_variance(
        centered, dist.sum(axis=1), n)


def _distance_variance(centered: np.ndarray, rows: np.ndarray, n: int) -> float:
    """dVar^2 from the centered samples and the row sums of their distances."""
    n2 = float(n * n)
    return (
        2.0 * n * float(np.vdot(centered, centered)) / n2
        - 2.0 * float(np.dot(rows, rows)) / (n2 * n)
        + float(np.add.reduce(rows)) ** 2 / (n2 * n2)
    )


def pearson_score(x_samples, y_samples) -> float:
    """Absolute sample Pearson correlation between two scalar variables.

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
    x = xs[:, 0]
    y = ys[:, 0]
    n = x.shape[0]
    if y.shape[0] != n:
        raise ArgumentError(f"sample counts differ: {n} vs {y.shape[0]}")
    if n < 2:
        raise ArgumentError(f"pearson correlation needs n >= 2, got {n}")
    if x.min() == x.max() or y.min() == y.max():  # exactly 0, though the mean rounds
        return 0.0
    cx = x - x.mean()
    cy = y - y.mean()
    denom = np.sqrt(np.dot(cx, cx) * np.dot(cy, cy))
    if denom == 0.0:
        return 0.0
    value = abs(float(np.dot(cx, cy) / denom))
    return min(value, 1.0)
