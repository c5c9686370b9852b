"""Property-based checks of the README's promises: scale-freeness, sample
relabeling invariance, feature-permutation equivariance, and the [0, 1)
score range; and of the per-feature representation behind them, the
retained spectrum of a centered Gram and the HSIC it feeds.

Data come from hypothesis as integer arrays divided by 100, so every entry
sits on a 0.01 grid in [-10, 10].  Distinct values are therefore at least
0.01 apart and no column's spread is small enough for the bandwidth rule
to overflow; ties and constant columns still occur.  The response is a
nonlinear function of the first feature plus noise from a drawn seed, so
it is never an exact affine image of a feature.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import kscreen as ks

SETTINGS = settings(derandomize=True, deadline=None, max_examples=60)

# Absolute tolerances for scores that agree only up to rounding.  hsic, dc
# and sis are reordered sums of at most n^2 = 196 terms of size O(1), so
# they differ by ~1e-14 at most (observed: 6e-16).  kcca weighs each
# eigenvalue d of a centered Gram by sqrt(d / (d + eps)); an eigenvalue just
# above the 1e-10 truncation carries an absolute rounding error of ~1e-16
# times the largest one, which at eps = 1e-5 can move the score by ~1e-9
# (observed: 3.3e-11 over 3000 examples).
TOL = {"kcca": 1e-8, "hsic": 1e-12, "dc": 1e-12, "sis": 1e-12}


@st.composite
def tables(draw, min_p=1):
    n = draw(st.integers(6, 14))
    p = draw(st.integers(min_p, 5))
    grid = draw(hnp.arrays(np.int64, (n, p), elements=st.integers(-1000, 1000)))
    x = grid / 100.0
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    y = np.sin(x[:, 0]) + x[:, 0] ** 2 / 10.0 + rng.standard_normal(n)
    return x, y[:, None]


def scores(x, y, method, epsilon=0.1):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ks.DegenerateDataWarning)
        result = ks.screen(ks.DataMatrix(x), ks.DataMatrix(y), method=method, epsilon=epsilon)
    return result.scores


@SETTINGS
@given(
    table=tables(),
    column=st.integers(0, 4),
    a=st.floats(1e-3, 1e3) | st.floats(-1e3, -1e-3),
    c=st.floats(-10.0, 10.0),
    epsilon=st.sampled_from(ks.GCV_GRID),
)
def test_affine_rescaling_of_a_feature_keeps_its_score(table, column, a, c, epsilon):
    # The bandwidth rule cancels a and the double centering cancels b, but
    # only up to rounding, hence TOL.  The shift is b = a * c so that it
    # stays on the scale of the data; a shift far larger than the spread
    # would round the data itself away.
    x, y = table
    r = column % x.shape[1]
    moved = x.copy()
    moved[:, r] = a * x[:, r] + a * c
    for method in ("kcca", "hsic", "dc"):
        before = scores(x, y, method, epsilon)[r]
        after = scores(moved, y, method, epsilon)[r]
        assert after == pytest.approx(before, abs=TOL[method]), method


@SETTINGS
@given(table=tables(), draw=st.data(), epsilon=st.sampled_from(ks.GCV_GRID))
def test_relabeling_samples_keeps_every_score(table, draw, epsilon):
    # Relabeling reorders the sums behind each bandwidth, centering and
    # eigendecomposition, so the scores agree up to rounding, hence TOL.
    x, y = table
    perm = np.array(draw.draw(st.permutations(range(x.shape[0]))))
    for method in TOL:
        base = scores(x, y, method, epsilon)
        relabeled = scores(x[perm], y[perm], method, epsilon)
        np.testing.assert_allclose(relabeled, base, rtol=0, atol=TOL[method], err_msg=method)


@SETTINGS
@given(table=tables(min_p=2), draw=st.data(), epsilon=st.sampled_from(ks.GCV_GRID))
def test_permuting_features_permutes_scores_bitwise(table, draw, epsilon):
    # At a fixed epsilon each feature's score depends only on its own
    # column and the response, through the same operations in the same
    # order, so the permuted scores are bitwise equal.
    x, y = table
    perm = np.array(draw.draw(st.permutations(range(x.shape[1]))))
    for method in TOL:
        base = scores(x, y, method, epsilon)
        permuted = scores(x[:, perm], y, method, epsilon)
        assert permuted.tobytes() == base[perm].tobytes(), method


@SETTINGS
@given(table=tables(), epsilon=st.sampled_from(ks.GCV_GRID))
def test_kcca_and_dc_scores_lie_in_unit_interval(table, epsilon):
    # Exact bounds, no tolerance: kcca is below max sqrt(d / (d + eps)) < 1
    # for eps > 0, and dc reaches 1 only when the response is an affine
    # image of the feature, which the added noise rules out.
    x, y = table
    for method in ("kcca", "dc"):
        s = scores(x, y, method, epsilon)
        assert np.all(s >= 0.0) and np.all(s < 1.0), method



def sample_gram(draw, n):
    # Scalar or bivariate samples on the 0.01 grid; a constant draw falls
    # back to gamma = 1 as screen does, giving a Gram that centers to 0.
    d = draw(st.integers(1, 2))
    pts = draw(hnp.arrays(np.int64, (n, d), elements=st.integers(-1000, 1000))) / 100.0
    try:
        bw = ks.bandwidth(pts)
    except ks.DegenerateDataError:
        bw = ks.Bandwidth(1.0)
    return ks.gram(pts, bw)


@st.composite
def grams(draw):
    return sample_gram(draw, draw(st.integers(2, 30)))


@SETTINGS
@given(k=grams())
def test_retained_spectrum_is_a_thin_orthonormal_factor_of_the_centered_gram(k):
    cg = ks.center_and_decompose(k)
    g = ks.center(k)
    n, rank = k.shape[0], cg.rank
    assert cg.u.shape == (n, rank) and cg.d.shape == (rank,)
    # eigh returns vectors orthonormal to a few ulps (observed: 4e-15).
    assert np.max(np.abs(cg.u.T @ cg.u - np.eye(rank)), initial=0.0) <= 1e-12
    # The columns are orthogonal to the constant vector, which centering
    # maps to 0.  An eigenvector is resolved only to ~1e-16 * d_max / d_i,
    # so u^T 1 itself reaches 1e-5 for eigenvalues near tol; the product
    # with d, (U D)^T 1 = U D U^T 1, is tight (observed: 1.1e-14).
    dmax = cg.d[0] if rank else 0.0
    ones = np.ones(n)
    assert np.max(np.abs(cg.d * (cg.u.T @ ones)), initial=0.0) <= 1e-12 * max(1.0, dmax)
    assert cg.tol > 0.0
    assert np.all(np.diff(cg.d) <= 0.0) and np.all(cg.d >= cg.tol)
    # Every dropped eigenvalue lies below tol, so the truncated part has
    # Frobenius norm below sqrt(n) * tol (observed: at most 0.31 of it).
    recon = cg.u @ np.diag(cg.d) @ cg.u.T
    assert np.linalg.norm(recon - g, "fro") <= np.sqrt(n) * cg.tol


@SETTINGS
@given(kx=grams(), draw=st.data())
def test_hsic_of_centered_grams_is_nonnegative_and_exactly_symmetric(kx, draw):
    gx = ks.center(kx)
    gy = ks.center(sample_gram(draw.draw, kx.shape[0]))
    forward = ks.hsic_score(gx, gy)
    assert forward >= 0.0
    assert forward == ks.hsic_score(gy, gx)
