"""Gaussian kernel evaluation, bandwidth selection, Gram construction,
double centering, centered distance matrices, and the retained spectrum of
a centered Gram.

Every dependence measure in this package is built on top of the objects
defined here.  All functions are pure and all returned containers are
immutable, so instances can be shared freely across concurrent workers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, DataError, DegenerateDataError, NumericError

DEFAULT_TOL_REL = 1e-10


def symmetric_eigh(matrix: np.ndarray) -> tuple:
    """np.linalg.eigh with LAPACK failures mapped to NumericError."""
    try:
        return np.linalg.eigh(matrix)
    except np.linalg.LinAlgError as e:
        raise NumericError(f"symmetric eigendecomposition failed: {e}") from None


@dataclass(frozen=True)
class Bandwidth:
    """Inverse squared length-scale of the Gaussian kernel.

    The kernel is k(x, y) = exp(-gamma * ||x - y||^2); gamma must be a
    positive finite real.
    """

    gamma: float

    def __post_init__(self):
        g = self.gamma
        if not np.isfinite(g) or g <= 0.0:
            raise ArgumentError(f"bandwidth gamma must be positive and finite, got {g!r}")


@dataclass(frozen=True, eq=False)
class DataMatrix:
    """An n x p sample matrix with column-major semantic access by feature.

    Parameters
    ----------
    values : (n, p) ndarray
        Sample matrix; all entries must be finite.
    columns : tuple of str, optional
        Column names, retained for reporting.
    """

    values: np.ndarray
    columns: tuple | None = None

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=float)
        if arr.ndim != 2:
            raise ArgumentError(f"DataMatrix expects a 2-D array, got ndim={arr.ndim}")
        if not np.all(np.isfinite(arr)):
            raise DataError("DataMatrix entries must all be finite (no NaN/Inf/missing)")
        if self.columns is not None and len(self.columns) != arr.shape[1]:
            raise ArgumentError(
                f"{len(self.columns)} column names for {arr.shape[1]} columns"
            )
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)
        if self.columns is not None:
            object.__setattr__(self, "columns", tuple(str(c) for c in self.columns))

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def p(self) -> int:
        return self.values.shape[1]

    def column(self, r: int) -> np.ndarray:
        """Feature column r (0-based)."""
        return self.values[:, r]


@dataclass(frozen=True, eq=False)
class CenteredGram:
    """The retained spectrum of a double-centered kernel Gram matrix.

    Only the eigenpairs at or above the truncation threshold are kept, so
    u d u^T is the centered Gram with its numerical null space removed.

    Fields
    ------
    u : (n, rank) ndarray
        Orthonormal eigenvectors, columns aligned with ``d``.
    d : (rank,) ndarray
        Retained eigenvalues in descending order, each at least ``tol``.
    tol : float
        Positive absolute truncation threshold applied to the eigenvalues.
    """

    u: np.ndarray
    d: np.ndarray
    tol: float

    def __post_init__(self):
        for name in ("u", "d"):
            getattr(self, name).setflags(write=False)

    @property
    def n(self) -> int:
        return self.u.shape[0]

    @property
    def rank(self) -> int:
        """Number of retained eigenvalues; 0 when centering annihilated the matrix."""
        return self.d.shape[0]


def _as_samples(samples) -> np.ndarray:
    """Coerce a list of scalars or fixed-length vectors to an (n, d) array."""
    arr = np.asarray(samples, dtype=float)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2:
        raise ArgumentError(f"samples must be scalars or same-length vectors, got ndim={arr.ndim}")
    if not np.all(np.isfinite(arr)):
        raise DataError("samples must be finite")
    return arr


def _pairwise_sq_dists(pts: np.ndarray) -> np.ndarray:
    # Direct differences: exact symmetry and exact zero diagonal, no
    # ||a||^2 + ||b||^2 - 2ab cancellation.
    diff = pts[:, None, :] - pts[None, :, :]
    return np.einsum("ijk,ijk->ij", diff, diff)


def _double_center(a: np.ndarray) -> np.ndarray:
    """Q a Q with Q = I - (1/n) 1 1^T, via row, column and grand means."""
    return a - a.mean(axis=1, keepdims=True) - a.mean(axis=0, keepdims=True) + a.mean()


def gaussian_kernel(x, y, bw: Bandwidth) -> float:
    """Evaluate the Gaussian kernel exp(-gamma * ||x - y||^2).

    Returns a value in (0, 1]; equals 1 exactly iff x == y.  Scalars and
    same-length vectors are accepted.
    """
    xv = np.atleast_1d(np.asarray(x, dtype=float))
    yv = np.atleast_1d(np.asarray(y, dtype=float))
    if xv.shape != yv.shape:
        raise ArgumentError(f"kernel arguments differ in shape: {xv.shape} vs {yv.shape}")
    if not (np.all(np.isfinite(xv)) and np.all(np.isfinite(yv))):
        raise DataError("kernel arguments must be finite")
    diff = xv - yv
    return float(np.exp(-bw.gamma * np.dot(diff, diff)))


def bandwidth(samples) -> Bandwidth:
    """Data-driven Gaussian bandwidth from the mean pairwise distance.

    Sets 1/sqrt(gamma) = (2*sqrt(2) / (n*(n-1))) * sum_{i<j} ||x_i - x_j||
    and returns gamma.  Feature columns pass scalar samples; a multivariate
    response passes its d-vector rows.

    Raises
    ------
    DegenerateDataError
        If all samples are identical (zero pairwise distance); callers
        screening real data substitute gamma = 1 with a warning.
    """
    pts = _as_samples(samples)
    n = pts.shape[0]
    if n < 2:
        raise ArgumentError(f"bandwidth needs at least 2 samples, got {n}")
    d2 = _pairwise_sq_dists(pts)
    iu = np.triu_indices(n, k=1)
    total = float(np.sum(np.sqrt(d2[iu])))
    if total == 0.0:
        raise DegenerateDataError("all samples identical: mean pairwise distance is 0")
    inv_sqrt_gamma = 2.0 * np.sqrt(2.0) * total / (n * (n - 1))
    with np.errstate(over="ignore"):
        gamma = inv_sqrt_gamma ** -2.0
    if not np.isfinite(gamma) or gamma <= 0.0:
        raise DegenerateDataError(f"pairwise distances produce unusable gamma {gamma!r}")
    return Bandwidth(gamma=gamma)


def gram(samples, bw: Bandwidth) -> np.ndarray:
    """Gaussian kernel Gram matrix K with K_ij = k(x_i, x_j).

    Symmetric with unit diagonal and entries in (0, 1]; positive
    semidefinite by construction.
    """
    pts = _as_samples(samples)
    if pts.shape[0] < 1:
        raise ArgumentError("gram needs at least 1 sample")
    return np.exp(-bw.gamma * _pairwise_sq_dists(pts))


def center(k: np.ndarray) -> np.ndarray:
    """Double-center a symmetric kernel matrix: Q k Q with Q = I - (1/n) 1 1^T.

    Raises
    ------
    ArgumentError
        If k is not square or not symmetric within tolerance.
    DataError
        If k has a non-finite entry.
    """
    arr = np.asarray(k, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ArgumentError(f"kernel matrix must be square, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise DataError("kernel matrix entries must be finite")
    scale = max(1.0, float(np.max(np.abs(arr)))) if arr.size else 1.0
    asym = float(np.max(np.abs(arr - arr.T))) if arr.size else 0.0
    if asym > 1e-8 * scale:
        raise ArgumentError(f"kernel matrix is not symmetric (max asymmetry {asym:.3e})")
    g = _double_center(0.5 * (arr + arr.T))
    return 0.5 * (g + g.T)


def centered_distances(samples) -> np.ndarray:
    """Double-centered Euclidean distance matrix Q D Q, D_ij = ||x_i - x_j||.

    Distance correlation's per-variable input (measures.dcor_score).
    Scalars or same-length vectors are accepted, as for bandwidth.
    """
    pts = _as_samples(samples)
    if pts.shape[0] < 2:
        raise ArgumentError(f"distance matrices need n >= 2, got {pts.shape[0]}")
    return _double_center(np.sqrt(_pairwise_sq_dists(pts)))


def center_and_decompose(k: np.ndarray) -> CenteredGram:
    """Double-center a PSD kernel matrix and keep its retained eigenpairs.

    Eigendecomposes g = center(k) and keeps the eigenvalues at or above
    DEFAULT_TOL_REL * max(lambda_max, 1), in descending order, with their
    eigenvectors; the rest span the numerical null space and are dropped.

    Raises
    ------
    ArgumentError
        If k is not square, not symmetric within tolerance, or has an
        eigenvalue spectrum inconsistent with a PSD input.
    """
    evals, evecs = symmetric_eigh(center(k))  # ascending eigenvalues
    n = evals.shape[0]
    dmax = float(evals[-1]) if n else 0.0
    if n and float(evals[0]) < -1e-8 * max(1.0, dmax):
        raise ArgumentError(
            f"input is not positive semidefinite (min eigenvalue {evals[0]:.3e})"
        )
    tol_abs = DEFAULT_TOL_REL * max(dmax, 1.0)
    rank = int(np.count_nonzero(evals >= tol_abs))
    u, d = evecs[:, n - rank:][:, ::-1].copy(), evals[n - rank:][::-1].copy()
    return CenteredGram(u=u, d=d, tol=tol_abs)
