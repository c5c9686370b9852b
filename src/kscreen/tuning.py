"""Ridge-parameter selection by generalized cross-validation.

For each predictor kernel matrix K_r, with Z_r = (1, K_r)^T and
Z_Y = (1, K_Y)^T both (n+1) x n, the criterion is

    GCV(eps) = sum_r  ||Z_Y - Z_Y Z_r^T (Z_r Z_r^T + eps I_{n+1})^{-1} Z_r||_F^2
               / {1 - tr(Z_r^T (Z_r Z_r^T + eps I_{n+1})^{-1} Z_r) / n}^2,

minimized over a grid of eps values.  Every kernel arrives as its n x r
factor L (kernels.gram, K ~= L L^T).  The push-through identity reduces the
(n+1)-sized inverse to A_r = Z_r^T Z_r = 1 1^T + K_r^2 = B_r B_r^T with
B_r = [L_r R_r^T, 1], n x (r+1), where R_r is the r x r triangular factor of
a QR of L_r: R_r^T R_r = L_r^T L_r, so L_r R_r^T R_r L_r^T = K_r^2.  The
response's B_Y is built by the same rule.  With B_r^T B_r = W diag(a) W^T, A_r has
the eigenvalues a_i on the unit vectors p_i = B_r w_i / sqrt(a_i) and is 0
on their orthogonal complement, so all grid points share

    num(eps) = q_perp + sum_i (eps / (a_i + eps))^2 q_i,
    den(eps) = (1 - sum_i a_i / (a_i + eps) / n)^2,

with q_i = ||B_Y^T p_i||^2 = ||c_i||^2 / a_i for c_i = B_Y^T B_r w_i, and
q_perp = ||B_Y||_F^2 - sum_i q_i: the null space of A_r adds q_perp to the
numerator and nothing to the denominator.

No n-sized decomposition is taken.  _gcv_terms reads the factors a
(b, n, r) stack of one rank at a time: screen's as kernels.gram_block
builds them, select_epsilon's and gcv_value's as kernels._rank_stacks
within screen's build budget (kernels._build_width), in the same layout,
so a predictor's terms are bitwise the same either way.  Each stack takes
one batched QR of its factors and one batched eigh of its (r+1) x (r+1)
basis Grams B^T B = [[(R R^T)^2, t], [t^T, n]], t = R L^T 1.  An
eigenvalue of that squared Gram is accurate only to ~1e-16 a_max, so a_i
is taken as the Rayleigh quotient ||B w_i||^2 of one batched n-space
product B W over the whole stack, which keeps a small a_i accurate, and
c_i = B_Y^T (B W) comes from the same product.  A direction is numerically
null when its ||B w_i||^2 is under its rounding floor, or when n other
directions, each clearly above the resolution of eigh, already span R^n.
It is held as a_i = c_i = 0 and adds exactly 0 to both sums.

A direction with a_i > eps enters the numerator as (eps / (a_i + eps))^2
q_i.  One with a_i <= eps, whose q_i would divide by a small a_i, enters as
q_i - (a_i + 2 eps) / (a_i + eps)^2 ||c_i||^2 (since 1 - (eps / (a_i +
eps))^2 = a_i (a_i + 2 eps) / (a_i + eps)^2), and its q_i is folded into
q_perp + sum_{a_i <= eps} q_i = ||B_Y||_F^2 - sum_{a_i > eps} q_i.  When
B_r spans R^n and no a_i <= eps that remainder is exactly q_perp = 0, and
it is set to 0 rather than left as the rounding of a difference.

The a_i and ||c_i||^2 of all predictors are held as rows of two arrays,
zero-padded to the widest basis, and one evaluator computes a grid point
for every predictor at once, each row summed in column order.  gcv_value
and _grid_search, the search of select_epsilon and of screen, both call
it, so their values agree bitwise.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    ArgumentError, DegenerateDataError, NumericError, NumericGuardWarning, TuningError,
)
from .kernels import _as_factor, _as_sequence, _build_width, _check_positive_epsilon, _rank_stacks

# The prescribed 9-point search grid 1e-5 ... 1e3, ascending.
GCV_GRID = tuple(10.0 ** k for k in range(-5, 4))

_DENOM_GUARD = 1e-12

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


def _factor_terms(ly, lxs) -> tuple:
    """_gcv_terms of the response factor ly and the factor list lxs, each
    checked by kernels._as_factor, restacked by rank within the build budget.

    A response factor whose every column is constant has a constant Gram,
    which centers to 0: its GCV value is then a small difference of
    ||B_Y||_F^2 and its projections with no relative accuracy, and it is
    rejected with DegenerateDataError, as screen rejects a constant
    response."""
    ly = _as_factor(ly, "ly")
    if np.all(ly == ly[:1]):
        raise DegenerateDataError("response kernel factor is constant; its GCV is meaningless")
    factors = [_as_factor(lx, f"kernel factor {i}", ly.shape[0])
               for i, lx in enumerate(_as_sequence(lxs, "lxs", "factors"))]
    if not factors:
        raise ArgumentError("at least one predictor kernel factor is required")
    width = _build_width(ly.shape[0], max(lx.shape[1] for lx in factors))
    return _gcv_terms(ly, _rank_stacks(factors, width), len(factors))


def _gcv_terms(ly: np.ndarray, stacks, count: int) -> tuple:
    """_gcv_at's arguments (n, a, c2, by_norm2, spans) for count predictors,
    from (positions, stack) pairs of their uncentered factors, each read
    once as it comes: row m of a and c2 holds predictor m's a_i and
    ||c_i||^2, zero-padded to the widest basis, by_norm2 is ||B_Y||_F^2 and
    spans[m] whether m's basis spans R^n.  LAPACK errors are NumericError.
    The stacks are not checked: their samples or factors already were."""
    n = ly.shape[0]
    rows = []
    try:
        by = np.column_stack([ly @ np.linalg.qr(ly, mode="r").T, np.ones(n)])
        for pos, stack in stacks:
            rows.append((pos, *_block_spectrum(stack, by)))
            del stack  # before the next stack is built
    except np.linalg.LinAlgError as e:
        raise NumericError(f"decomposition of a GCV basis failed: {e}") from None
    a = np.zeros((count, max(ai.shape[1] for _, ai, _, _ in rows)))
    c2 = np.zeros_like(a)
    spans = np.zeros(count, dtype=bool)
    for pos, ai, ci, si in rows:
        a[pos, :ai.shape[1]], c2[pos, :ci.shape[1]], spans[pos] = ai, ci, si
    return n, a, c2, np.vdot(by, by), spans


def _block_spectrum(stack: np.ndarray, by: np.ndarray) -> tuple:
    """a_i and ||c_i||^2 of each factor of a (b, n, r) stack, as (b, r + 1)
    arrays, and whether each one's basis spans R^n."""
    b, n, r = stack.shape
    # R^T R = L^T L for the R of a QR of L, so B = [L R^T, 1] and B^T B =
    # [[(R R^T)^2, t], [t^T, n]] with t = R L^T 1.  The ones column goes
    # last: R, from a QR of the pivoted factor, is graded from its first
    # row down, and eigh keeps that grading's small a_i accurate.
    root = np.swapaxes(np.linalg.qr(stack, mode="r"), 1, 2)
    btb = np.empty((b, r + 1, r + 1))
    rrt = np.swapaxes(root, 1, 2) @ root
    btb[:, :r, :r] = rrt @ rrt
    btb[:, r, :r] = btb[:, :r, r] = (stack.sum(axis=1)[:, None, :] @ root)[:, 0]
    btb[:, r, r] = n
    _, w = np.linalg.eigh(btb)
    del rrt, btb
    # B W = [L R^T, 1] W, whose squared column norms are the a_i, for the
    # whole stack in one product about the stack's size.
    bw = stack @ (root @ w[:, :r])
    bw += w[:, None, r]
    a = np.einsum("bij,bij->bj", bw, bw)
    c = by.T @ bw
    c2 = np.einsum("bij,bij->bj", c, c)
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
    predictor at once.  Null entries, and the zeros that fill a row out to
    the widest basis (a = c2 = 0), add exactly 0 to every sum."""
    # Rows are summed in column order (a cumulative sum), where the zero
    # fill changes no bit, so a summand does not depend on the list.
    shift = a + epsilon
    den = 1.0 - np.cumsum(a / shift, axis=1)[:, -1] / n
    large = a > epsilon
    q = np.where(large, c2 / np.where(large, a, 1.0), 0.0)
    resid = epsilon / shift
    small = np.where(large, 0.0, (a + 2.0 * epsilon) / (shift * shift) * c2)
    # ||B_Y||^2 - sum of q_i over a_i > eps, which is exactly q_perp = 0 for
    # a basis that spans R^n with no a_i <= eps: set, not left as rounding.
    rest = by_norm2 - np.cumsum(q, axis=1)[:, -1]
    rest[spans & ~((a > 0.0) & ~large).any(axis=1)] = 0.0
    num = rest + np.cumsum(resid * resid * q - small, axis=1)[:, -1]
    kept = den > _DENOM_GUARD
    return float(np.sum(num[kept] / (den[kept] * den[kept]))), int(kept.size - kept.sum())


def gcv_value(epsilon: float, ly, lxs) -> float:
    """Evaluate the GCV criterion at one ridge value, from the kernel factors
    of the response (ly) and of each predictor (lxs).

    Summands whose denominator falls at or below 1e-12 are skipped with a
    NumericGuardWarning; well-conditioned inputs skip nothing.  A response
    factor whose every column is constant raises DegenerateDataError.
    """
    epsilon = _check_positive_epsilon(epsilon)
    comps = _factor_terms(ly, lxs)
    value, skipped = _gcv_at(epsilon, *comps)
    if skipped:
        warnings.warn(
            f"GCV at epsilon={epsilon:g}: skipped {skipped} of {len(comps[1])} "
            "summands with near-zero denominator",
            NumericGuardWarning,
        )
    return value


def select_epsilon(ly, lxs) -> RidgeSelection:
    """Grid-search GCV_GRID for the ridge parameter minimizing the GCV
    criterion, from the kernel factors of the response (ly) and of each
    predictor (lxs).

    Ties break toward the larger epsilon.  Grid points where every summand
    was skipped are unusable; if all grid points are unusable a TuningError
    is raised.  A response factor whose every column is constant raises
    DegenerateDataError.
    """
    return _grid_search(_factor_terms(ly, lxs))


def _grid_search(comps: tuple) -> RidgeSelection:
    """select_epsilon's search over GCV_GRID, from the _gcv_terms of its
    predictors; screen calls it directly."""
    values, skips = zip(*(_gcv_at(eps, *comps) for eps in GCV_GRID))
    usable = [i for i in range(len(GCV_GRID)) if skips[i] < len(comps[1])]
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
        epsilon=GCV_GRID[best],
        grid=GCV_GRID,
        gcv_values=values,
        skipped_counts=skips,
    )
