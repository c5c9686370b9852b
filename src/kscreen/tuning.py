"""Ridge-parameter selection by generalized cross-validation.

For each predictor kernel matrix K_r, with Z_r = (1, K_r)^T and
Z_Y = (1, K_Y)^T both (n+1) x n, the criterion is

    GCV(eps) = sum_r  ||Z_Y - Z_Y Z_r^T (Z_r Z_r^T + eps I_{n+1})^{-1} Z_r||_F^2
               / {1 - tr(Z_r^T (Z_r Z_r^T + eps I_{n+1})^{-1} Z_r) / n}^2,

minimized over a grid of eps values.  Every kernel arrives as its factor
L = U S V^T (kernels.gram, K ~= L L^T).  The push-through identity reduces
the (n+1)-sized inverse to A_r = Z_r^T Z_r = 1 1^T + K_r^2 = B_r B_r^T with
B_r = [1, U_r S_r^2], n x (r+1).  With B_r = P_r Sigma_r W_r^T its thin SVD,
A_r has the eigenvalues a_i = sigma_i^2 on the columns p_i of P_r and is 0
on their orthogonal complement, so all grid points share one small SVD per
predictor:

    num(eps) = sum_i (eps / (a_i + eps))^2 * q_i  +  q_perp,
    den(eps) = (1 - sum_i a_i / (a_i + eps) / n)^2,

with q_i = ||B_Y^T p_i||^2 and q_perp = ||(I - P_r P_r^T) B_Y||_F^2, which
is tr(Z_Y^T Z_Y) - sum_i q_i: the null space of A_r adds q_perp to the
numerator and nothing to the denominator.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, NumericGuardWarning, TuningError
from .kernels import _as_factor, thin_svd

# The prescribed 9-point search grid 1e-5 ... 1e3.
GCV_GRID = tuple(10.0 ** k for k in range(-5, 4))

_DENOM_GUARD = 1e-12


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
    if not np.isfinite(epsilon) or epsilon <= 0.0:
        raise ArgumentError(f"epsilon must be positive and finite, got {epsilon!r}")
    ly = _as_factor(ly)
    n = ly.shape[0]
    factors = []
    for i, lx in enumerate(lxs):
        lx = _as_factor(lx)
        if lx.shape[0] != n:
            raise ArgumentError(f"kernel factor {i} has {lx.shape[0]} rows, expected {n}")
        factors.append(lx)
    if not factors:
        raise ArgumentError("at least one predictor kernel factor is required")
    return ly, factors


def _gcv_basis(factor: np.ndarray) -> np.ndarray:
    """B = [1, U S^2] for the factor U S V^T, so that B B^T = 1 1^T + K^2."""
    u, s, _ = thin_svd(factor)
    return np.column_stack([np.ones(factor.shape[0]), u * (s * s)])


def _gcv_components(ly: np.ndarray, lxs: list) -> tuple:
    """Per-predictor (a_i, q_i, q_perp), shared by every grid point."""
    by = _gcv_basis(ly)
    comps = []
    for lx in lxs:
        p, sigma, _ = thin_svd(_gcv_basis(lx))
        c = p.T @ by
        perp = by - p @ c
        comps.append((sigma * sigma, np.einsum("ij,ij->i", c, c), float(np.vdot(perp, perp))))
    return ly.shape[0], comps


def _gcv_from_components(epsilon: float, n: int, comps) -> tuple:
    total = 0.0
    skipped = 0
    for a, q, q_perp in comps:
        shrink = a / (a + epsilon)
        den = 1.0 - float(shrink.sum()) / n
        if den <= _DENOM_GUARD:
            skipped += 1
            continue
        resid = epsilon / (a + epsilon)
        total += (float(np.sum(resid * resid * q)) + q_perp) / (den * den)
    return total, skipped


def gcv_value(epsilon: float, ly, lxs) -> float:
    """Evaluate the GCV criterion at one ridge value, from the kernel factors
    of the response (ly) and of each predictor (lxs).

    Summands whose denominator falls at or below 1e-12 are skipped with a
    NumericGuardWarning; well-conditioned inputs skip nothing.
    """
    ly, factors = _check_factor_args(epsilon, ly, lxs)
    n, comps = _gcv_components(ly, factors)
    value, skipped = _gcv_from_components(float(epsilon), n, comps)
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
    n, comps = _gcv_components(ly, factors)

    values = []
    skips = []
    for eps in pts:
        value, skipped = _gcv_from_components(eps, n, comps)
        values.append(value)
        skips.append(skipped)
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
        gcv_values=tuple(values),
        skipped_counts=tuple(skips),
    )
