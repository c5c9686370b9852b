"""Marginal dependence statistics: the regularized kernel-CCA score, HSIC,
distance correlation, and absolute Pearson correlation.

Every measure scores two prepared sides and returns a plain float: KCCA two
``CenteredGram``s, HSIC two column-centered kernel factors (kernels.center),
distance correlation two double-centered distance matrices
(kernels.centered_distances), and Pearson two scalar sample vectors.  A
caller screening many predictors against one response prepares the
response side once.

The KCCA score of a predictor against the response is the largest singular
value of the whitened cross-Gram coordinate matrix

    M = (D_Y + eps I)^{-1/2} D_Y^{1/2} U_Y^T U_X D_X^{1/2} (D_X + eps I)^{-1/2},

where (U, D) are the retained eigenpairs of the double-centered Gram
matrices.  For any eps > 0 the score lies in [0, 1) and is 0 iff the
centered operators are orthogonal.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from .errors import ArgumentError, NumericError, UnsupportedMethodError
from .kernels import CenteredGram, _as_factor, _as_samples


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
    if not np.isfinite(epsilon) or epsilon <= 0.0:
        raise ArgumentError(f"epsilon must be positive and finite, got {epsilon!r}")
    if gx.rank == 0 or gy.rank == 0:
        return 0.0
    wx = np.sqrt(gx.d / (gx.d + epsilon))
    wy = np.sqrt(gy.d / (gy.d + epsilon))
    cross = gy.u.T @ gx.u
    m = (wy[:, None] * cross) * wx[None, :]
    try:
        sv = float(np.linalg.svd(m, compute_uv=False)[0])
    except np.linalg.LinAlgError as e:
        raise NumericError(f"singular value computation failed: {e}") from None
    return min(sv, 1.0)


def hsic_score(lx: np.ndarray, ly: np.ndarray) -> float:
    """Biased V-statistic HSIC, trace(G_X G_Y) / n^2, of two column-centered
    kernel factors (kernels.center): with G = L L^T it is
    ||L_X^T L_Y||_F^2 / n^2, in O(n r_X r_Y).

    Raises ArgumentError unless both are n x r factors over the same n >= 1
    samples.
    """
    a, b = _as_factor(lx), _as_factor(ly)
    n = a.shape[0]
    if b.shape[0] != n:
        raise ArgumentError(
            f"hsic needs factors over the same samples, got {a.shape} and {b.shape}"
        )
    # A fixed operand order makes the score exactly symmetric in its arguments.
    if (a.shape[1], a.tobytes()) > (b.shape[1], b.tobytes()):
        a, b = b, a
    cross = a.T @ b
    return float(np.vdot(cross, cross)) / (n * n)


def dcor_score(a: np.ndarray, b: np.ndarray) -> float:
    """Sample distance correlation of two double-centered n x n distance
    matrices (kernels.centered_distances), clamped to [0, 1].

    Returns 0 when either side has zero distance variance (a constant
    variable).  Raises ArgumentError unless both are n x n with n >= 1.
    """
    if a.ndim != 2 or a.shape[0] != a.shape[1] or b.shape != a.shape or a.size == 0:
        raise ArgumentError(
            "dcor needs two n x n centered distance matrices with n >= 1, "
            f"got {a.shape} and {b.shape}"
        )
    n2 = a.shape[0] * a.shape[0]
    dcov2 = float(np.vdot(a, b)) / n2
    dvar_x = float(np.vdot(a, a)) / n2
    dvar_y = float(np.vdot(b, b)) / n2
    if dvar_x <= 0.0 or dvar_y <= 0.0:
        return 0.0
    r2 = dcov2 / np.sqrt(dvar_x * dvar_y)
    value = float(np.sqrt(max(r2, 0.0)))
    return min(value, 1.0)


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
