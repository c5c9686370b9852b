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
round below 0 are clipped to 0).  With B_r = P_r Sigma_r W_r^T its thin SVD,
A_r has the eigenvalues a_i = sigma_i^2 on the columns p_i of P_r and is 0
on their orthogonal complement, so all grid points share one small SVD per
predictor:

    num(eps) = sum_i (eps / (a_i + eps))^2 * q_i  +  q_perp,
    den(eps) = (1 - sum_i a_i / (a_i + eps) / n)^2,

with q_i = ||B_Y^T p_i||^2 and q_perp = ||(I - P_r P_r^T) B_Y||_F^2, which
is tr(Z_Y^T Z_Y) - sum_i q_i but is formed directly from the residual
B_Y - P_r P_r^T B_Y: the null space of A_r adds q_perp to the numerator and
nothing to the denominator.

The a_i and q_i of all predictors are held as rows of two arrays,
zero-padded to the widest basis (a padded a_i = q_i = 0 adds nothing to
either sum), and one evaluator computes a grid point for every predictor
at once.  gcv_value and select_epsilon both call it, so their values agree
bitwise.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, NumericGuardWarning, TuningError
from .kernels import _as_factor, _check_positive_epsilon, gram_eigh, thin_svd

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
    _check_positive_epsilon(epsilon)
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
    """B = [1, L V Lambda^(1/2)] for L^T L = V Lambda V^T, so that
    B B^T = 1 1^T + L L^T L L^T = 1 1^T + K^2.  Eigenvalues that round
    below 0 are clipped to 0."""
    lam, v = gram_eigh(factor)
    root = v * np.sqrt(np.maximum(lam, 0.0))
    return np.column_stack([np.ones(factor.shape[0]), factor @ root])


def _gcv_components(ly: np.ndarray, lxs: list) -> tuple:
    """(n, a, q, q_perp) shared by every grid point: row m of a and q holds
    predictor m's a_i and q_i, zero-padded to the widest basis, and q_perp[m]
    its q_perp."""
    n = ly.shape[0]
    by = _gcv_basis(ly)
    width = min(n, 1 + max(lx.shape[1] for lx in lxs))
    a = np.zeros((len(lxs), width))
    q = np.zeros((len(lxs), width))
    q_perp = np.empty(len(lxs))
    for m, lx in enumerate(lxs):
        p, sigma, _ = thin_svd(_gcv_basis(lx))
        c = p.T @ by
        perp = by - p @ c
        a[m, :sigma.size] = sigma * sigma
        q[m, :sigma.size] = np.einsum("ij,ij->i", c, c)
        q_perp[m] = np.vdot(perp, perp)
    return n, a, q, q_perp


def _gcv_at(epsilon: float, n: int, a, q, q_perp) -> tuple:
    """GCV value and skipped-summand count at one ridge value, for every
    predictor at once.  Padded entries (a = q = 0) add 0 to both sums."""
    shift = a + epsilon
    den = 1.0 - (a / shift).sum(axis=1) / n
    resid = epsilon / shift
    num = (resid * resid * q).sum(axis=1) + q_perp
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
