"""Property-based checks of the README's promises: scale-freeness, sample
relabeling invariance, feature-permutation equivariance, and the [0, 1)
score range.

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
