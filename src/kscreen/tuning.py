"""Ridge-parameter selection by generalized cross-validation.

For each predictor kernel matrix K_r, with Z_r = (1, K_r)^T and
Z_Y = (1, K_Y)^T both (n+1) x n, the criterion is

    GCV(eps) = sum_r  ||Z_Y - Z_Y Z_r^T (Z_r Z_r^T + eps I_{n+1})^{-1} Z_r||_F^2
               / {1 - tr(Z_r^T (Z_r Z_r^T + eps I_{n+1})^{-1} Z_r) / n}^2,

minimized over a grid of eps values.  Every kernel arrives as its n x r
factor L (kernels.gram, K ~= L L^T).  The push-through identity reduces the
(n+1)-sized inverse to A_r = Z_r^T Z_r = 1 1^T + K_r^2 = B_r B_r^T with
B_r = [1, L_r V_r Lambda_r^(1/2)], n x (r+1), where L_r^T L_r = V_r Lambda_r
V_r^T is the eigendecomposition of the factor's r x r Gram (eigenvalues that
round below 0 are clipped to 0).  With B_r^T B_r = W diag(a) W^T, A_r has
the eigenvalues a_i on the unit vectors p_i = B_r w_i / sqrt(a_i) and is 0
on their orthogonal complement, so all grid points share

    num(eps) = q_perp + sum_i (eps / (a_i + eps))^2 q_i,
    den(eps) = (1 - sum_i a_i / (a_i + eps) / n)^2,

with q_i = ||B_Y^T p_i||^2 = ||c_i||^2 / a_i for c_i = B_Y^T B_r w_i, and
q_perp = ||B_Y||_F^2 - sum_i q_i: the null space of A_r adds q_perp to the
numerator and nothing to the denominator.

No n-sized decomposition is taken.  The factors are zero-padded into one
(b, n, r) stack per block of _GCV_BLOCK predictors, which takes one batched
eigh of its r x r Grams L^T L and one of its (r+1) x (r+1) arrowhead Grams
B^T B = [[n, s^T], [s, Lambda^2]], s = Lambda^(1/2) V^T L^T 1.  An
eigenvalue of that squared Gram is accurate only to ~1e-16 a_max, so a_i
is taken as the Rayleigh quotient ||B w_i||^2 of one batched n-space
product B W, which keeps a small a_i as accurate as a thin SVD of B would,
and c_i = B_Y^T (B W) comes from the same product.  A direction is
numerically null when its ||B w_i||^2 is under its rounding floor, or when
n other directions, each clearly above the resolution of eigh, already
span R^n.  As a padded one, it is held as a_i = c_i = 0 and adds exactly 0
to both sums.

A direction with a_i > eps enters the numerator as (eps / (a_i + eps))^2
q_i.  One with a_i <= eps, whose q_i would divide by a small a_i, enters as
q_i - (a_i + 2 eps) / (a_i + eps)^2 ||c_i||^2 (since 1 - (eps / (a_i +
eps))^2 = a_i (a_i + 2 eps) / (a_i + eps)^2), and its q_i is folded into
q_perp + sum_{a_i <= eps} q_i = ||B_Y||_F^2 - sum_{a_i > eps} q_i.  When
B_r spans R^n and no a_i <= eps that remainder is exactly q_perp = 0, and
it is set to 0 rather than left as the rounding of a difference.

The a_i and ||c_i||^2 of all predictors are held as rows of two arrays,
zero-padded to the widest basis, and one evaluator computes a grid point
for every predictor at once.  gcv_value and select_epsilon both call it, so
their values agree bitwise.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, NumericError, NumericGuardWarning, TuningError
from .kernels import (
    _as_factor, _check_positive_epsilon, _factor_shape, _factor_stack, gram_eigh,
)

# The prescribed 9-point search grid 1e-5 ... 1e3.
GCV_GRID = tuple(10.0 ** k for k in range(-5, 4))

_DENOM_GUARD = 1e-12

# Predictors whose bases are decomposed together, as one zero-padded stack.
_GCV_BLOCK = 16

_ROUNDOFF = np.finfo(float).eps


@dataclass(frozen=True)
class RidgeSelection:
    """Outcome of a GCV grid search.

    epsilon is the selected grid point; gcv_values and skipped_counts are
    aligned with the (ascending) grid.
    """

    epsilon: float
    grid: tuple
    gcv_values: tuple
    skipped_counts: tuple

    def __post_init__(self):
        if self.epsilon not in self.grid:
            raise ArgumentError("selected epsilon must be a member of the grid")


def _check_factor_args(epsilon, ly, lxs):
    """epsilon, the response factor and the predictor factors' shapes.  The
    predictor factors' entries are checked for finiteness once, a block at
    a time, where _gcv_components stacks them (DataError)."""
    _check_positive_epsilon(epsilon)
    ly = _as_factor(ly)
    n = ly.shape[0]
    factors = []
    for i, lx in enumerate(lxs):
        lx = _factor_shape(lx)
        if lx.shape[0] != n:
            raise ArgumentError(f"kernel factor {i} has {lx.shape[0]} rows, expected {n}")
        factors.append(lx)
    if not factors:
        raise ArgumentError("at least one predictor kernel factor is required")
    return ly, factors


def _gcv_components(ly: np.ndarray, lxs: list) -> tuple:
    """(n, a, c2, by_norm2, spans) shared by every grid point: row m of a
    and c2 holds predictor m's a_i and ||c_i||^2, zero-padded to the widest
    basis, by_norm2 is ||B_Y||_F^2 and spans[m] says whether predictor m's
    basis spans all n dimensions."""
    n = ly.shape[0]
    lam, v = gram_eigh(ly)
    by = np.column_stack([np.ones(n), ly @ (v * np.sqrt(np.maximum(lam, 0.0)))])
    width = 1 + max(lx.shape[1] for lx in lxs)
    a = np.zeros((len(lxs), width))
    c2 = np.zeros((len(lxs), width))
    spans = np.zeros(len(lxs), dtype=bool)
    for start in range(0, len(lxs), _GCV_BLOCK):
        stop = min(start + _GCV_BLOCK, len(lxs))
        ai, ci2, spans[start:stop] = _block_spectrum(lxs[start:stop], by)
        a[start:stop, :ai.shape[1]] = ai
        c2[start:stop, :ai.shape[1]] = ci2
    return n, a, c2, np.vdot(by, by), spans


def _block_spectrum(lxs: list, by: np.ndarray) -> tuple:
    """a_i and ||c_i||^2 of each of a block of factors, zero-padded into one
    (b, n, r) stack, as (b, r + 1) arrays, and whether each one's basis
    spans R^n."""
    n = by.shape[0]
    stack, _ = _factor_stack(lxs, n)
    b, _, r = stack.shape
    lam, v = gram_eigh(stack)
    lam = np.maximum(lam, 0.0)
    root = v * np.sqrt(lam)[:, None, :]
    # B^T B = [[n, s^T], [s, Lambda^2]] with s = Lambda^(1/2) V^T L^T 1.
    arrow = np.zeros((b, r + 1, r + 1))
    arrow[:, 0, 0] = n
    arrow[:, 0, 1:] = arrow[:, 1:, 0] = (stack.sum(axis=1)[:, None, :] @ root)[:, 0]
    diag = np.arange(1, r + 1)
    arrow[:, diag, diag] = lam * lam
    try:
        _, w = np.linalg.eigh(arrow)
    except np.linalg.LinAlgError as e:
        raise NumericError(f"eigendecomposition of a GCV basis Gram failed: {e}") from None
    # a_i is the Rayleigh quotient ||B w_i||^2 of the unsquared basis, which
    # keeps a small a_i as accurate as a thin SVD of B would; the eigenvalue
    # of B^T B is accurate only to ~1e-16 a_max.  B W = [1, L V
    # Lambda^(1/2)] W is formed half a block at a time, so that it adds at
    # most half the stack's size to the memory the stack holds.
    proj = root @ w[:, 1:]
    a = np.empty((b, r + 1))
    c2 = np.empty((b, r + 1))
    for h in range(0, b, _GCV_BLOCK // 2):
        half = slice(h, h + _GCV_BLOCK // 2)
        bw = stack[half] @ proj[half]
        bw += w[half, None, 0]
        a[half] = np.einsum("bij,bij->bj", bw, bw)
        c = by.T @ bw
        c2[half] = np.einsum("bij,bij->bj", c, c)
        del bw, c  # before the next half's are allocated
    a_max = a.max(axis=1, keepdims=True)
    # A direction above ~1e-16 (r + 1) a_max, where eigh separates it from
    # the null space, is not null.  When n of them span R^n, every other
    # direction is null; otherwise those under the rounding floor of
    # ||B w_i||^2 are.  A null direction adds exactly 0.
    real = a > (r + 1) * _ROUNDOFF * a_max
    spans = np.count_nonzero(real, axis=1) >= n
    null = np.where(spans[:, None], ~real, a <= np.square((r + 1) * _ROUNDOFF) * a_max)
    return np.where(null, 0.0, a), np.where(null, 0.0, c2), spans


def _gcv_at(epsilon: float, n: int, a, c2, by_norm2, spans) -> tuple:
    """GCV value and skipped-summand count at one ridge value, for every
    predictor at once.  Padded and null entries (a = c2 = 0) add 0 to every
    sum."""
    shift = a + epsilon
    den = 1.0 - (a / shift).sum(axis=1) / n
    large = a > epsilon
    q = np.where(large, c2 / np.where(large, a, 1.0), 0.0)
    resid = epsilon / shift
    small = np.where(large, 0.0, (a + 2.0 * epsilon) / (shift * shift) * c2)
    # ||B_Y||^2 - sum of q_i over a_i > eps, which is exactly q_perp = 0 for
    # a basis that spans R^n with no a_i <= eps: set, not left as rounding.
    rest = by_norm2 - q.sum(axis=1)
    rest[spans & ~((a > 0.0) & ~large).any(axis=1)] = 0.0
    num = rest + (resid * resid * q).sum(axis=1) - small.sum(axis=1)
    kept = den > _DENOM_GUARD
    return float(np.sum(num[kept] / (den[kept] * den[kept]))), int(kept.size - kept.sum())


def gcv_value(epsilon: float, ly, lxs) -> float:
    """Evaluate the GCV criterion at one ridge value, from the kernel factors
    of the response (ly) and of each predictor (lxs).

    Summands whose denominator falls at or below 1e-12 are skipped with a
    NumericGuardWarning; well-conditioned inputs skip nothing.
    """
    ly, factors = _check_factor_args(epsilon, ly, lxs)
    value, skipped = _gcv_at(float(epsilon), *_gcv_components(ly, factors))
    if skipped:
        warnings.warn(
            f"GCV at epsilon={epsilon:g}: skipped {skipped} of {len(factors)} "
            "summands with near-zero denominator",
            NumericGuardWarning,
        )
    return value


def select_epsilon(ly, lxs, grid=GCV_GRID) -> RidgeSelection:
    """Grid-search the ridge parameter minimizing the GCV criterion, from the
    kernel factors of the response (ly) and of each predictor (lxs).

    The grid is sorted ascending internally; ties break toward the larger
    epsilon.  Grid points where every summand was skipped are unusable; if
    all grid points are unusable a TuningError is raised.
    """
    pts = sorted(float(e) for e in grid)
    if not pts:
        raise ArgumentError("epsilon grid must be nonempty")
    if pts[0] <= 0.0 or not np.isfinite(pts[-1]):
        raise ArgumentError("epsilon grid entries must be positive and finite")
    ly, factors = _check_factor_args(pts[0], ly, lxs)
    comps = _gcv_components(ly, factors)
    values, skips = zip(*(_gcv_at(eps, *comps) for eps in pts))
    usable = [i for i in range(len(pts)) if skips[i] < len(factors)]
    if not usable:
        raise TuningError("every grid point lost all GCV summands to the denominator guard")
    best_value = min(values[i] for i in usable)
    best = max(i for i in usable if values[i] == best_value)
    total_skipped = sum(skips)
    if total_skipped:
        warnings.warn(
            f"GCV grid search skipped {total_skipped} summands across the grid",
            NumericGuardWarning,
        )
    return RidgeSelection(
        epsilon=pts[best],
        grid=tuple(pts),
        gcv_values=values,
        skipped_counts=skips,
    )
