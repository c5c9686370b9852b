"""Gaussian kernel evaluation, bandwidth selection, low-rank Gram factors,
centering, centered distance matrices, and the retained spectrum of a
centered Gram.

Every kernel Gram matrix K is held as an n x r factor L with K ~= L L^T,
built by pivoted incomplete Cholesky (``gram_block`` for a block of
variables at once, ``gram`` for one); no n x n kernel matrix is formed.
KCCA, HSIC and the GCV tuning all read this one representation.
Every dependence measure in this package is built on top of the objects
defined here.  Every function is pure.  Bandwidth, DataMatrix and
CenteredGram are frozen and their arrays read-only, but gram, gram_block,
center and centered_distances return new, writable arrays.
"""

from __future__ import annotations

import math
import numbers
import os
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, DataError, DegenerateDataError, NumericError

DEFAULT_TOL_REL = 1e-10

# gram stops once the residual trace tr(K - L L^T) is at most this, 1e-13.
# The residual E is PSD, and so is its centered form, with no larger trace;
# since P(K) - P(K - E) = eps (K - E + eps I)^{-1} E (K + eps I)^{-1}, the
# regularized operator P = K (K + eps I)^{-1} of a centered Gram moves by at
# most 1e-13 / eps in norm, 1e-8 at eps = 1e-5.
RESIDUAL_TRACE_TOL = 1e-3 * DEFAULT_TOL_REL

_TWO_SQRT2 = 2.0 * math.sqrt(2.0)

# Columns of L (rows of L^T) gram_block first allocates per variable; the
# buffer doubles when a rank outgrows it.
_FIRST_RANKS = 32

# Bytes of the L^T buffer a gram_block call in screen starts with, (width,
# min(n, _FIRST_RANKS), n) doubles, and of a GCV stack of a caller's
# factors: they set both widths (_build_width).  A factor, its scores and
# its GCV terms are bitwise the same in any stack of its rank; a wider
# build spreads a step's numpy calls over more features, and at large n a
# narrow one is as fast and holds far less.  It also sets the columns per
# call of a dc or sis screen (measures._DistanceResponse, screening).
_BUILD_BYTES = 2 << 20

# Rows per block of n-wide distance work: the pairwise differences
# _pairwise_sq_dists forms (no n x n x d tensor: 1.6 GB at n = 10000, d = 2),
# and the scalar dc path's cache-sized response blocks (measures._DistanceResponse).
_DIST_ROWS = 64

# n x n doubles a dc screen holds at once: centered_distances' matrix, then
# measures._DistanceResponse's scaled copy of it and its upper-triangle row
# blocks, about 1.5 n^2 more.  centered_distances roots and double-centers
# its squared distances in place, with no n x n temporaries.
_DC_SQUARES = 2.5


@dataclass(frozen=True)
class Bandwidth:
    """Inverse squared length-scale of the Gaussian kernel.

    The kernel is k(x, y) = exp(-gamma * ||x - y||^2); gamma must be a
    positive finite real.
    """

    gamma: float

    def __post_init__(self):
        _check_positive_epsilon(self.gamma, "bandwidth gamma")


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
        arr = _as_array(self.values, "DataMatrix values")
        if arr.ndim != 2:
            raise ArgumentError(f"DataMatrix expects a 2-D array, got ndim={arr.ndim}")
        if self.columns is not None:
            columns = _as_sequence(self.columns, "columns", "names")
            if len(columns) != arr.shape[1]:
                raise ArgumentError(f"{len(columns)} column names for {arr.shape[1]} columns")
            object.__setattr__(self, "columns", tuple(str(c) for c in columns))
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

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


def _as_array(value, name: str, finite: bool = True) -> np.ndarray:
    """The array argument called name as a float array: ArgumentError,
    naming it, for None or a None entry (which numpy would read as NaN),
    text, complex numbers, objects float() rejects and ragged lists, then,
    if finite, DataError for a NaN or infinite entry."""
    try:
        arr = np.asarray(value)
        if arr.dtype.kind == "O" and any(v is None for v in arr.flat):
            missing = "is None" if value is None else "has a None entry"
            raise ArgumentError(f"{name} {missing}; an array of real numbers is due")
        arr = arr.astype(float, copy=False) if arr.dtype.kind in "biufO" else None
    except (TypeError, ValueError, OverflowError):
        arr = None
    if arr is None:
        raise ArgumentError(f"{name} must be an array of real numbers, got {type(value).__name__}")
    if finite and not np.isfinite(arr).all():
        raise DataError(f"{name} must be finite, with no NaN or infinite entry")
    return arr


def _as_sequence(value, name: str, items: str) -> tuple:
    """The sequence argument called name as a tuple: ArgumentError, naming
    it and what its items are, for text (which would split into its
    characters) or a value that is not iterable."""
    if not isinstance(value, (str, bytes)):
        try:
            return tuple(value)
        except TypeError:
            pass
    raise ArgumentError(f"{name} must be a list of {items}, got {type(value).__name__}")


def _as_samples(samples, name: str = "samples") -> np.ndarray:
    """Coerce a list of scalars or fixed-length vectors to an (n, d) array."""
    arr = _as_array(samples, name)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2:
        raise ArgumentError(f"{name} must be scalars or same-length vectors, got ndim={arr.ndim}")
    return arr


def _as_factor(factor, name: str = "factor", n: int | None = None) -> np.ndarray:
    """Check an n x r kernel factor as gram returns it: a finite float array
    with n >= 1 rows (n rows, if n is given) and r <= n.

    A factor with more columns than rows is rejected; it is most often a
    transposed one.
    """
    arr = _as_array(factor, name)
    bad = arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] > arr.shape[0]
    if bad or (n is not None and arr.shape[0] != n):
        rows = "n >= 1" if n is None else f"n = {n}"
        raise ArgumentError(
            f"{name} must be an n x r kernel factor with {rows} and r <= n, got shape {arr.shape}"
        )
    return arr


def _rank_groups(ranks, cap: int):
    """(positions, r) for each rank r, ascending, in groups of at most cap
    (sorted(set()), as np.unique's first call loads ~1.7 MB of code)."""
    ranks = np.asarray(ranks)
    for r in sorted(set(ranks.tolist())):
        same = np.flatnonzero(ranks == r)
        for start in range(0, len(same), cap):
            yield same[start:start + cap], r


def _rank_stacks(factors, cap: int):
    """The n x r factors as gram_block returns them, (positions, stack)
    pairs from _rank_groups, each stack the (g, n, r) transposed view of a
    C-contiguous (g, r, n) copy of the members' L^T."""
    for pos, r in _rank_groups([lx.shape[1] for lx in factors], cap):
        rows = np.empty((len(pos), r, factors[pos[0]].shape[0]))
        for i, m in enumerate(pos):
            rows[i] = factors[m].T
        yield pos, np.swapaxes(rows, 1, 2)


def _build_width(n: int, rank: int = _FIRST_RANKS) -> int:
    """Features per build in screen, or per GCV stack of a factor list whose
    widest factor has this rank: as many as fit min(n, rank) rows of n
    doubles each in _BUILD_BYTES (40 at n = 200, 4 at n = 2000), at least 1."""
    return max(1, _BUILD_BYTES // (8 * min(n, rank) * n))


def _is_real(value) -> bool:
    """Whether value is a real number other than a bool."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _check_positive_epsilon(epsilon, name: str = "epsilon") -> float:
    """epsilon (the ridge, or the value called name) as a float; ArgumentError
    unless it is a real (not a bool) that is positive and finite as a float."""
    finite = _is_real(epsilon) and abs(epsilon) <= sys.float_info.max
    if not (finite and float(epsilon) > 0.0):
        raise ArgumentError(f"{name} must be a positive finite real, got {epsilon!r}")
    return float(epsilon)


def _check_type(name: str, value, cls):
    """Raise ArgumentError, naming the argument and cls, unless value is a cls."""
    if not isinstance(value, cls):
        raise ArgumentError(f"{name} must be a {cls.__name__}, got {type(value).__name__}")


def _pairwise_sq_dists(pts: np.ndarray) -> np.ndarray:
    # Direct differences: exact symmetry and exact zero diagonal, no
    # ||a||^2 + ||b||^2 - 2ab cancellation.  _DIST_ROWS rows at a time;
    # each row's sums are bitwise those of the whole tensor's einsum.
    n = pts.shape[0]
    out = np.empty((n, n))
    for a in range(0, n, _DIST_ROWS):
        _sq_dist_rows(pts, a, out[a:a + _DIST_ROWS])
    return out


def _sq_dist_rows(pts: np.ndarray, a: int, out: np.ndarray) -> np.ndarray:
    """Rows a, a + 1, ... of the squared distance matrix, into out, as many
    as it has (at most _DIST_ROWS)."""
    diff = pts[a:a + out.shape[0], None, :] - pts[None, :, :]
    return np.einsum("ijk,ijk->ij", diff, diff, out=out)


def _double_center(a: np.ndarray) -> np.ndarray:
    """Q a Q with Q = I - (1/n) 1 1^T, in place, via the row, column and
    grand means of a, each element as (a - row) - column + grand."""
    rows, cols, grand = a.mean(axis=1, keepdims=True), a.mean(axis=0), a.mean()
    a -= rows
    a -= cols
    a += grand
    return a


def _physical_memory() -> int | None:
    """The host's physical memory in bytes, or None where the platform
    does not report it."""
    try:
        page, pages = os.sysconf("SC_PAGE_SIZE"), os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return None
    return page * pages if page > 0 and pages > 0 else None


def _check_memory(what: str, n: int, needed: int):
    """Raise ArgumentError, naming n and the bytes, when needed bytes for
    n samples would exceed the host's physical memory (not checked where
    the platform does not report it)."""
    total = _physical_memory()
    if total is not None and needed > total:
        raise ArgumentError(
            f"{what} for n = {n} samples need about {needed} bytes, "
            f"more than the {total} bytes of physical memory"
        )


def gaussian_kernel(x, y, bw: Bandwidth) -> float:
    """Evaluate the Gaussian kernel exp(-gamma * ||x - y||^2).

    Returns a value in (0, 1]; equals 1 exactly iff x == y.  Scalars and
    same-length vectors are accepted.
    """
    _check_type("bw", bw, Bandwidth)
    xv = np.atleast_1d(_as_array(x, "x"))
    yv = np.atleast_1d(_as_array(y, "y"))
    if xv.shape != yv.shape:
        raise ArgumentError(f"kernel arguments differ in shape: {xv.shape} vs {yv.shape}")
    diff = xv - yv
    return float(np.exp(-bw.gamma * np.dot(diff, diff)))


def bandwidth(samples) -> Bandwidth:
    """Data-driven Gaussian bandwidth from the mean pairwise distance.

    Sets 1/sqrt(gamma) = (2*sqrt(2) / (n*(n-1))) * sum_{i<j} ||x_i - x_j||
    and returns gamma.  Feature columns pass scalar samples; a multivariate
    response passes its d-vector rows.

    For scalar samples the sum is taken in sorted form, in O(n log n):
    sum_k (2k - n + 1) x_(k) over the 0-based order statistics, summed by
    parts as sum_k k (n - k) (x_(k) - x_(k-1)) so that no term is negative.
    Vector rows sum the n (n - 1) / 2 pairwise distances directly, from
    one flat buffer of them filled _DIST_ROWS rows at a time, and raise
    ArgumentError, before allocating it, when it would not fit in the
    host's physical memory.

    Raises
    ------
    DegenerateDataError
        If all samples are identical (zero pairwise distance), or if gamma
        overflows or falls below the smallest normal float; callers
        screening real data substitute gamma = 1 with a warning.
    """
    pts = _as_samples(samples)
    n = pts.shape[0]
    if n < 2:
        raise ArgumentError(f"bandwidth needs at least 2 samples, got {n}")
    (gamma,), unusable = _gammas_from_sums(np.array([_distance_sum(pts)]), n)
    if unusable:
        raise DegenerateDataError(unusable[0][1])
    return Bandwidth(gamma=float(gamma))


def _distance_sum(pts: np.ndarray) -> float:
    """sum_{i<j} ||x_i - x_j|| of the (n, d) rows, inf if it overflows: by
    _scalar_distance_sums for scalars, else in about n^2 / 2 doubles, one
    flat buffer of the upper triangle's distances row by row, as the squared
    distance matrix's upper triangle would gather; one np.sum of it is
    bitwise the sum of that gather's roots."""
    n = pts.shape[0]
    if pts.shape[1] == 1:
        return float(_scalar_distance_sums(pts.T)[0])
    size = n * (n - 1) // 2
    _check_memory("pairwise distances", n, 8 * size)
    flat = np.empty(size)
    block = np.empty((min(n, _DIST_ROWS), n))
    cols = np.arange(n)
    start = 0
    with np.errstate(over="ignore"):
        for a in range(0, n, _DIST_ROWS):
            rows = _sq_dist_rows(pts, a, block[:n - a])
            upper = rows[cols > np.arange(a, a + rows.shape[0])[:, None]]
            np.sqrt(upper, out=flat[start:start + upper.size])
            start += upper.size
        return float(np.sum(flat))


def _scalar_distance_sums(rows: np.ndarray) -> np.ndarray:
    """sum_{i<j} |x_i - x_j| of each row of a (p, n) array of scalar
    samples, by bandwidth's sorted form, sorting a block of rows at a time:
    _build_width(n, 1), as many as fit n doubles each in _BUILD_BYTES (1310
    at n = 200).  A sum that overflows is inf, with no RuntimeWarning.

    The weighted gaps are laid out row by row (C order, whatever the
    layout of rows), so one reduction along a block's rows sums each as a
    1-D array, and its sum is bitwise the one of that row alone.
    """
    p, n = rows.shape
    k = np.arange(1, n)
    step = _build_width(n, 1)
    sums = np.empty(p)
    with np.errstate(over="ignore"):
        for a in range(0, p, step):
            gaps = np.diff(np.sort(rows[a:a + step], axis=1), axis=1)
            np.multiply(gaps, k * (n - k), order="C").sum(axis=1, out=sums[a:a + step])
    return sums


def _gammas_from_sums(sums: np.ndarray, n: int) -> tuple:
    """bandwidth's gamma for each sum of n (n - 1) / 2 pairwise distances,
    and the unusable ones as (index, reason) pairs in ascending order: a
    zero sum (all samples identical), or a gamma that is infinite or below
    the smallest normal float.  Every step is a correctly rounded
    elementwise product or quotient, so samples times 2^k give gamma times
    2^-2k exactly while no step leaves the normal range; a power would
    round differently."""
    with np.errstate(over="ignore", divide="ignore"):
        inv_sqrt_gamma = _TWO_SQRT2 * sums / (n * (n - 1))
        # Dividing twice, not by the square, so that a gamma that is
        # subnormal is reported as such rather than as 0.
        gamma = 1.0 / inv_sqrt_gamma / inv_sqrt_gamma
    # A subnormal gamma has lost bits; its squared distances are near overflow.
    bad = np.flatnonzero((gamma < sys.float_info.min) | (gamma == math.inf))
    return gamma, [(i, "all samples identical: mean pairwise distance is 0" if sums[i] == 0.0
                    else f"pairwise distances produce unusable gamma {float(gamma[i])!r}")
                   for i in bad.tolist()]


def gram(samples, bw: Bandwidth) -> np.ndarray:
    """Low-rank factor L of the Gaussian kernel Gram matrix: K ~= L L^T,
    with K_ij = k(x_i, x_j).

    The block of one variable in gram_block, which describes the steps and
    the stopping rule.  Returns an n x r array with 1 <= r <= n; K itself
    is never formed.
    """
    _check_type("bw", bw, Bandwidth)
    ((_, stack),) = gram_block(_as_samples(samples)[None], [bw.gamma])
    return stack[0]


def gram_block(samples, gammas) -> list:
    """Gram factors of b variables over the same n samples, built together.

    ``samples`` is (b, n) for scalar variables or (b, n, d) for d-vector
    rows, and ``gammas`` one positive finite gamma per variable (an array,
    not Bandwidth objects).  The factors L_m, each n x r_m with 1 <= r_m <=
    n and K_m ~= L_m L_m^T, are returned grouped by rank, unpadded: a list
    of (positions, stack) pairs, one per
    rank r in ascending order, where stack is a (len(positions), n, r)
    array whose member i is the factor of variable positions[i].  It is
    the transposed view of one C-contiguous gather, rows[positions, :r], of
    the build's L^T rows, so no member is copied twice.  Every variable is
    in exactly one stack.

    Each factor is a pivoted incomplete Cholesky (Fine & Scheinberg, JMLR
    2001; Bach & Jordan, JMLR 2002): a step evaluates the kernel column of
    the sample with the largest residual diagonal, in O(n d), and
    orthogonalizes it against the columns so far, in O(n r).  A variable
    stops once its residual trace tr(K - L L^T), which is PSD, is at most
    RESIDUAL_TRACE_TOL, or at rank n.  Every step runs on all b variables
    at once, each with its own pivot.  Once some variable has stopped, the
    steps after give every stopped one a zero projection and a unit pivot,
    and its extra columns are dropped.  A variable's arithmetic never mixes
    with another's, so its factor is bitwise the same in any block, alone
    included.

    Each variable's squared distances are formed at a power-of-two scale,
    as in centered_distances: its samples times 2^-e and its gamma times
    2^2e, with e bringing the largest |sample| into [1/2, 1).  Both are
    exact, so no normal-range bit changes, and no pair's squared distance
    overflows while gamma 2^2e is finite.  Where it would not be (a huge
    column at the gamma = 1 fallback, say), e is the largest that keeps it
    finite, and a product that then overflows has kernel value 0.
    """
    pts = _as_array(samples, "samples")
    gamma = np.asarray(gammas, dtype=float)
    if pts.ndim == 2:
        pts = pts[:, :, None]
    if pts.ndim != 3 or gamma.shape != pts.shape[:1]:
        raise ArgumentError(
            f"gram_block needs (b, n) or (b, n, d) samples and b gammas, "
            f"got shape {pts.shape} and {gamma.size} gammas"
        )
    b, n, d = pts.shape
    if n < 1:
        raise ArgumentError("gram needs at least 1 sample")
    # gamma 2^2e is finite for e <= (1024 - exponent of gamma) / 2.
    e = np.minimum(np.frexp(np.max(np.abs(pts), axis=(1, 2), initial=0.0))[1],
                   (1024 - np.frexp(gamma)[1]) // 2)
    pts = np.ldexp(pts, -e[:, None, None])
    neg_gamma = np.ldexp(-gamma, 2 * e)[:, None]
    if d == 1:
        pts = pts[:, :, 0]  # scalar differences are squared in place
    diff = np.empty_like(pts)
    members = np.arange(b)
    resid = np.ones((b, n))  # diagonals of K - L L^T; K has a unit diagonal
    rows = np.empty((b, min(n, _FIRST_RANKS), n))  # L^T per variable, doubled when full
    live = np.ones(b, dtype=bool)
    all_live = True
    ranks = np.zeros(b, dtype=int)
    r = 0
    with np.errstate(over="ignore"):
        while r < n:
            live &= resid.sum(axis=1) > RESIDUAL_TRACE_TOL
            if all_live:
                all_live = live.all()
            if not (all_live or live.any()):
                break
            ranks += live
            if r == rows.shape[1]:
                rows = np.concatenate([rows, np.empty((b, min(r, n - r), n))], axis=1)
            j = np.argmax(resid, axis=1)
            np.subtract(pts, pts[members, j][:, None], out=diff)
            if d == 1:
                col = np.multiply(diff, diff, out=diff)
            else:
                col = np.einsum("bij,bij->bi", diff, diff)
            col *= neg_gamma
            np.exp(col, out=col)
            coef = rows[members, :r, j]
            pivot = resid[members, j]
            if not all_live:
                coef[~live] = 0.0
                pivot[~live] = 1.0
            col -= (coef[:, None] @ rows[:, :r])[:, 0]
            col /= np.sqrt(pivot, out=pivot)[:, None]
            rows[:, r] = col
            col *= col
            resid -= col
            resid[members, j] = 0.0
            np.maximum(resid, 0.0, out=resid)
            r += 1
    flat = rows.reshape(b, -1)  # gathers rows[pos, :r] several times faster
    return [(pos, np.swapaxes(flat[pos, :r * n].reshape(len(pos), r, n), 1, 2))
            for pos, r in _rank_groups(ranks, b)]


def center(factor) -> np.ndarray:
    """Column-center a kernel factor: Q L with Q = I - (1/n) 1 1^T.

    (Q L)(Q L)^T = Q K Q is the double-centered Gram of K = L L^T.

    Raises
    ------
    ArgumentError
        If the factor is not n x r with n >= 1 and r <= n.
    DataError
        If it has a non-finite entry.
    """
    arr = _as_factor(factor)
    return arr - arr.mean(axis=0)


def centered_distances(samples) -> np.ndarray:
    """Double-centered Euclidean distance matrix Q D Q, D_ij = ||x_i - x_j||.

    The response side of measures.dcor_score, built once per screen; the
    predictor side is the raw samples.  Scalars or same-length vectors are
    accepted, as for bandwidth.

    The matrix is formed from the samples scaled by the power of two that
    brings their largest |value| into [1/2, 1), and scaled back.  Scaling
    by a power of two is exact, so no normal-range entry changes by a bit,
    and no squared distance overflows or goes subnormal.

    Raises ArgumentError, before any n x n allocation, when the _DC_SQUARES
    n x n doubles a dc screen holds would not fit in the host's physical
    memory (not checked where the platform does not report it).
    """
    pts = _as_samples(samples)
    n = pts.shape[0]
    if n < 2:
        raise ArgumentError(f"distance matrices need n >= 2, got {n}")
    _check_memory("distance matrices", n, int(_DC_SQUARES * 8 * n * n))
    e = math.frexp(float(np.max(np.abs(pts))))[1]
    dist = _pairwise_sq_dists(np.ldexp(pts, -e))
    dist = _double_center(np.sqrt(dist, out=dist))
    return np.ldexp(dist, e, out=dist)


def center_and_decompose(factor) -> CenteredGram:
    """The retained spectrum of the double-centered Gram of a kernel factor.

    With Q L = U S V^T the thin SVD of the column-centered factor, the
    centered Gram Q L L^T Q has the eigenpairs (S^2, U).  Eigenvalues at or
    above DEFAULT_TOL_REL * max(lambda_max, 1) are kept, in descending
    order, with their eigenvectors; the rest span the numerical null space
    and are dropped.  Costs O(n r^2).  Raises as center does.
    """
    try:
        u, s, _ = np.linalg.svd(center(factor), full_matrices=False)
    except np.linalg.LinAlgError as e:
        raise NumericError(f"singular value decomposition failed: {e}") from None
    d = s * s
    tol_abs = DEFAULT_TOL_REL * max(float(d[0]) if d.size else 0.0, 1.0)
    rank = int(np.count_nonzero(d >= tol_abs))
    return CenteredGram(u=u[:, :rank].copy(), d=d[:rank].copy(), tol=tol_abs)
