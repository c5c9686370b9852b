"""Property-based checks of the README's promises: scale-freeness, sample
relabeling invariance, feature-permutation equivariance, the [0, 1) score
range, and a typed error for every malformed scalar argument; and of the
per-feature representation behind them, the low-rank Gram factor, checked
against the dense n x n oracles: the retained spectrum of its centered
Gram, and the KCCA, HSIC and GCV values it feeds.

Data come from hypothesis as integer arrays divided by 100, so every entry
sits on a 0.01 grid in [-10, 10].  Distinct values are therefore at least
0.01 apart and no column's spread is small enough for the bandwidth rule
to overflow; ties and constant columns still occur.  The response is a
nonlinear function of the first feature plus noise from a drawn seed, so
it is never an exact affine image of a feature.
"""

import contextlib
import math
import types
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import kscreen as ks
from kscreen import measures, screening, tuning
from kscreen.kernels import (
    RESIDUAL_TRACE_TOL, _bandwidth_from_sum, _pairwise_sq_dists, _rank_stacks,
    _scalar_distance_sums, gram_block,
)
from kscreen.measures import _kcca_response, _stack_hsic, _stack_kcca
from tests.helpers import (
    center_dense, dcor_brute, decompose_dense, dense_gram, distance_moments_brute,
    gcv_dense_oracle, hsic_double_sum, kcca_dense_oracle, kcca_full_oracle,
)

SETTINGS = settings(derandomize=True, deadline=None, max_examples=60)


def kcca_of_stack(c, ly_c, eps):
    # screen's KCCA arithmetic on one centered stack.
    ct = np.swapaxes(c, 1, 2)
    return _stack_kcca(ct @ c, ct @ ly_c, _kcca_response(ly_c, eps), eps)


def hsic_of_stack(c, ly_c):
    return _stack_hsic(np.swapaxes(c, 1, 2) @ ly_c, c.shape[1])


# Absolute tolerances for scores that agree only up to rounding.  hsic, dc
# and sis are reordered sums of at most n^2 = 196 terms of size O(1), so
# they differ by ~1e-14 at most (observed: 6e-16).  kcca solves with
# G + eps I, so it sees every eigenvalue of the centered Gram: a relabeled
# or rescaled column gets a factor whose residual trace differs by up to
# 1e-13, which moves P = K (K + eps I)^{-1} by up to 1e-13 / eps, ~1e-8 at
# eps = 1e-5 (observed: 1.2e-9 over 3000 examples).
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


@SETTINGS
@given(table=tables(), column=st.integers(0, 4), epsilon=st.sampled_from(ks.GCV_GRID))
def test_kcca_with_the_linear_kernel_is_the_shrunk_absolute_pearson_correlation(
        table, column, epsilon):
    # SIS is KCCA with the linear kernel.  Its centered factor is the
    # centered column c, so G = d = ||c||^2 is 1 x 1 and N is the 1 x 1
    # matrix c_Y^T c_X / (sqrt(d_X + eps) sqrt(d_Y + eps)), Pearson's
    # correlation times sqrt(d_X / (d_X + eps)) sqrt(d_Y / (d_Y + eps)).
    # Observed: 3.3e-16 absolute over 3000 random draws of this domain.
    x, y = table
    col = x[:, column % x.shape[1]]
    cy = ks.center(y)
    pearson = ks.pearson_score(col, y[:, 0])
    if col.min() == col.max():
        # A constant column, centered exactly, as pearson_score reads it:
        # its mean may round, but the centered kernel of a constant is 0.
        assert pearson == 0.0
        assert ks.kcca_singular_value(np.zeros((col.shape[0], 1)), cy, epsilon) == 0.0
        return
    cx = ks.center(col[:, None])
    dx, dy = float(cx[:, 0] @ cx[:, 0]), float(cy[:, 0] @ cy[:, 0])
    shrink = math.sqrt(dx / (dx + epsilon)) * math.sqrt(dy / (dy + epsilon))
    assert ks.kcca_singular_value(cx, cy, epsilon) == pytest.approx(pearson * shrink, abs=1e-14)
    # As eps -> 0 the shrink tends to 1; at eps = 1e-12 min(d_X, d_Y) it
    # lies in [1 - 1e-12, 1], so the score is Pearson's to within that.
    limit = ks.kcca_singular_value(cx, cy, 1e-12 * min(dx, dy))
    assert pearson * (1.0 - 1e-12) - 1e-14 <= limit <= pearson + 1e-14


def distance_kernel_factor(v):
    # The distance-induced kernel k(a, b) = (|a| + |b| - |a - b|) / 2,
    # factored densely as V diag(sqrt(lambda)) from its eigendecomposition,
    # with eigenvalues that round below 0 taken as 0.
    k = 0.5 * (np.abs(v)[:, None] + np.abs(v)[None, :] - np.abs(v[:, None] - v[None, :]))
    lam, vec = np.linalg.eigh(k)
    return vec * np.sqrt(np.maximum(lam, 0.0))


@SETTINGS
@given(table=tables(), column=st.integers(0, 4))
def test_hsic_with_the_distance_kernel_is_a_quarter_of_the_squared_distance_covariance(
        table, column):
    # DC-SIS is HSIC with the distance-induced kernel (Sejdinovic et al.,
    # Ann. Statist. 2013): centering removes the |a| and |b| terms, so the
    # centered Gram is minus half the double-centered distance matrix, and
    # 4 HSIC is the V-statistic dCov^2.  Every kernel entry is at most
    # max |x| or max |y|, which sets the scale of the tolerance.  Observed:
    # 4.8e-16 of that scale over 3000 random draws of this domain.
    x, y = table
    col = x[:, column % x.shape[1]]
    got = 4.0 * ks.hsic_score(ks.center(distance_kernel_factor(col)),
                              ks.center(distance_kernel_factor(y[:, 0])))
    dcov2 = distance_moments_brute(col, y)[0]
    assert got == pytest.approx(dcov2, abs=1e-14 * np.abs(col).max() * np.abs(y).max())


def sample_kernel(draw, n):
    # Scalar or bivariate samples on the 0.01 grid, with their bandwidth; a
    # constant draw falls back to gamma = 1 as screen does, giving a Gram
    # that centers to 0.
    d = draw(st.integers(1, 2))
    pts = draw(hnp.arrays(np.int64, (n, d), elements=st.integers(-1000, 1000))) / 100.0
    try:
        bw = ks.bandwidth(pts)
    except ks.DegenerateDataError:
        bw = ks.Bandwidth(1.0)
    return pts, bw


@st.composite
def kernels(draw, min_n=2, max_n=30):
    return sample_kernel(draw, draw(st.integers(min_n, max_n)))


def members(stacks, b):
    # gram_block's b factors in variable order, once its (positions, stack)
    # pairs are checked: one stack per rank, the transposed view of a
    # C-contiguous gather of L^T rows, ranks ascending, and every position
    # in exactly one stack.
    ranks = [stack.shape[2] for _, stack in stacks]
    assert ranks == sorted(set(ranks))
    seen = np.concatenate([pos for pos, _ in stacks])
    assert np.array_equal(np.sort(seen), np.arange(b))
    out = [None] * b
    for pos, stack in stacks:
        assert np.swapaxes(stack, 1, 2).flags.c_contiguous and stack.shape[0] == len(pos)
        for m, lx in zip(pos, stack):
            out[m] = lx
    return out


@SETTINGS
@given(
    n=st.integers(1, 40),
    d=st.integers(1, 3),
    levels=st.lists(st.sampled_from([0, 3, 1000]), min_size=1, max_size=17),
    draw=st.data(),
)
def test_block_factors_are_bitwise_the_factors_built_alone(n, d, levels, draw):
    # Each member of a block is built by the same arithmetic on its own
    # rows of the working arrays, so its factor is bitwise the one built
    # alone, at any block size and position; members checks the unpadded
    # stacks they come back in.  A level of 0 gives a constant member,
    # which takes the gamma = 1 fallback as in screen; levels 3 and 1000
    # give members that stop at different steps.
    pts = np.stack([
        draw.draw(hnp.arrays(np.int64, (n, d), elements=st.integers(-k, k))) / 100.0
        for k in levels
    ])
    bws, fallback = [], []
    for member in pts:
        try:
            bws.append(ks.bandwidth(member))
            fallback.append(False)
        except (ks.DegenerateDataError, ks.ArgumentError):  # constant, or n = 1
            bws.append(ks.Bandwidth(1.0))
            fallback.append(True)
    alone = [ks.gram(member, bw) for member, bw in zip(pts, bws)]
    order = np.array(draw.draw(st.permutations(range(len(levels)))))
    block = members(gram_block(pts[order], [bws[m] for m in order]), len(levels))
    # The samples times 2^k with their own bandwidths, for k in the range
    # where every such gamma is a normal float.  bandwidth gives gamma
    # times 2^-2k exactly there, and a fallback gamma stays 1.  Both
    # scalings are exact, so the scaled block's factors are bitwise the
    # same too.
    exps = [np.frexp(bw.gamma)[1] for bw, f in zip(bws, fallback) if not f]
    k = draw.draw(st.integers(max([-((1024 - g) // 2) for g in exps], default=-500),
                              min([(g + 1021) // 2 for g in exps], default=500)))
    scaled_bws = [bws[m] if fallback[m] else ks.bandwidth(np.ldexp(pts[m], k)) for m in order]
    scaled = members(gram_block(np.ldexp(pts[order], k), scaled_bws), len(levels))
    # The stopping test reads the running residual diagonal; each of the n
    # diagonal entries of the dense K - L L^T rounds by about an ulp of 1
    # (observed excess over the tolerance: 1.1e-15 at n = 40 over 100000
    # draws), hence the n * eps allowance.
    tol = RESIDUAL_TRACE_TOL + n * np.finfo(float).eps
    for lf, lk, m in zip(block, scaled, order):
        assert lf.shape == alone[m].shape and lf.tobytes() == alone[m].tobytes()
        assert lk.shape == alone[m].shape and lk.tobytes() == alone[m].tobytes()
        assert np.trace(dense_gram(pts[m], bws[m]) - lf @ lf.T) <= tol


@SETTINGS
@given(grid=hnp.arrays(np.int64, st.integers(2, 39), elements=st.integers(-1000, 1000)),
       k=st.integers(-600, 600))
@example(grid=np.array([129, -353]), k=-1)  # an ulp off when gamma was a power
def test_bandwidth_scales_exactly_with_a_power_of_two(grid, k):
    # Samples times 2^k give gamma times 2^-2k exactly, for every k that
    # keeps that gamma a normal float (k is clamped to that range): each
    # step of the rule is a correctly rounded product or quotient.
    x = grid / 100.0
    try:
        gamma = ks.bandwidth(x).gamma
    except ks.DegenerateDataError:  # constant samples
        return
    e = np.frexp(gamma)[1]
    k = min(max(k, -((1024 - e) // 2)), (e + 1021) // 2)
    assert ks.bandwidth(np.ldexp(x, k)).gamma == np.ldexp(gamma, -2 * k), k


@SETTINGS
@given(kernel=kernels())
def test_retained_spectrum_is_a_thin_orthonormal_factor_of_the_centered_gram(kernel):
    pts, bw = kernel
    cg = ks.center_and_decompose(ks.gram(pts, bw))
    g = center_dense(dense_gram(pts, bw))
    n, rank = g.shape[0], cg.rank
    assert cg.u.shape == (n, rank) and cg.d.shape == (rank,)
    # The SVD returns vectors orthonormal to a few ulps (observed: 4e-15).
    assert np.max(np.abs(cg.u.T @ cg.u - np.eye(rank)), initial=0.0) <= 1e-12
    # The columns are orthogonal to the constant vector, which centering
    # maps to 0.  An eigenvector is resolved only to ~1e-16 * d_max / d_i,
    # so u^T 1 itself can reach 1e-5 for eigenvalues near tol; the product
    # with d, (U D)^T 1 = U D U^T 1, is tight (observed: 4.3e-15 * d_max).
    dmax = cg.d[0] if rank else 0.0
    ones = np.ones(n)
    assert np.max(np.abs(cg.d * (cg.u.T @ ones)), initial=0.0) <= 1e-12 * max(1.0, dmax)
    assert cg.tol > 0.0
    assert np.all(np.diff(cg.d) <= 0.0) and np.all(cg.d >= cg.tol)
    # Every dropped eigenvalue lies below tol, and the factor's residual
    # trace is a thousandth of tol, so the truncated part has Frobenius
    # norm below sqrt(n) * tol (observed: at most 0.27 of it).
    recon = cg.u @ np.diag(cg.d) @ cg.u.T
    assert np.linalg.norm(recon - g, "fro") <= np.sqrt(n) * cg.tol


@SETTINGS
@given(kernel=kernels(min_n=2, max_n=120))
def test_factor_spectrum_matches_the_dense_eigendecomposition(kernel):
    # Both sides resolve an eigenvalue only to ~1e-16 * d_max, and the
    # factor's residual trace moves it by at most 1e-13; eigenvalues below
    # 1e-6 * d_max are left out because near the truncation threshold the
    # two sides may keep different counts.  Observed: 7.7e-15 *
    # max(1, d_max) over 1500 draws.
    pts, bw = kernel
    got = ks.center_and_decompose(ks.gram(pts, bw)).d
    want = decompose_dense(dense_gram(pts, bw)).d
    dmax = want[0] if want.size else 0.0
    big = want >= 1e-6 * dmax
    assert got.shape[0] >= np.count_nonzero(big)
    np.testing.assert_allclose(got[: big.sum()], want[big], rtol=0, atol=1e-12 * max(1.0, dmax))


def kcca_mpmath(kx, ky, eps, digits=50):
    # kcca_full_oracle's definition in mpmath arithmetic on the same float
    # Grams: exact centering, P = G (G + eps I)^{-1}, and the top real part
    # of the eigenvalues of P_X P_Y.
    with mpmath.workdps(digits):
        n = kx.shape[0]
        q = mpmath.eye(n) - mpmath.ones(n, n) / n

        def smoother(k):
            g = q * mpmath.matrix(k.tolist()) * q
            return g * mpmath.inverse(g + mpmath.mpf(eps) * mpmath.eye(n))

        lam = mpmath.eig(smoother(kx) * smoother(ky), left=False, right=False)
        return mpmath.sqrt(max(max(mpmath.re(v) for v in lam), 0))


@pytest.mark.parametrize("n, kind", [(4, "plain"), (7, "ties"), (10, "bivariate"),
                                     (12, "plain"), (9, "constant")])
def test_the_kcca_oracle_matches_50_digit_arithmetic(n, kind):
    # The dense oracle solves with G + eps I, whose condition number
    # (lambda_max + eps) / eps <= (n + eps) / eps limits its accuracy,
    # and so does the library's Cholesky form.  Observed: at most 0.09
    # of the bound, at worst 1.2e-12 relative (n = 7, eps = 1e-5); on 72
    # random pairs with n <= 12, 5.1e-12.  The Grams are the factors'
    # L L^T, as the property tests pass them; a constant response
    # scores exactly 0 on both sides.
    rng = np.random.default_rng(n)
    x = rng.standard_normal(n)
    if kind == "ties":
        x = np.round(x)
    y = np.tanh(x)[:, None] + 0.5 * rng.standard_normal((n, 2 if kind == "bivariate" else 1))
    if kind == "constant":
        y[:] = 0.3
    by = ks.Bandwidth(1.0) if kind == "constant" else ks.bandwidth(y)
    lx, ly = ks.gram(x, ks.bandwidth(x)), ks.gram(y, by)
    kx, ky = lx @ lx.T, ly @ ly.T
    for eps in ks.GCV_GRID:
        got = kcca_full_oracle(kx, ky, eps)
        want = float(kcca_mpmath(kx, ky, eps))
        if kind == "constant":
            assert got == want == 0.0
            continue
        assert got == pytest.approx(want, rel=1e-14 + 2e-17 * n / eps, abs=0.0), eps
        # The library's factor form, against the same 50-digit value.
        lib = ks.kcca_singular_value(ks.center(lx), ks.center(ly), eps)
        assert lib == pytest.approx(want, rel=1e-14 + 2e-17 * n / eps, abs=0.0), eps


@SETTINGS
@given(kx=kernels(min_n=2, max_n=40), draw=st.data())
def test_the_retained_spectrum_moves_the_kcca_score_by_at_most_its_truncation(kx, draw):
    # center_and_decompose drops eigenvalues below tol, and each dropped
    # one has a smoother eigenvalue below delta = tol / (tol + eps).  So
    # the truncated P differs from the full one by at most delta in norm,
    # and the top eigenvalue of P_X P_Y by at most delta_X + delta_Y, with
    # 1e-12 allowed for the oracles' rounding (observed: at most 0.2 of
    # the bound over 1500 draws and the whole grid, up to 2.6e-5 at
    # eps = 1e-5).
    pts, bw = kx
    ypts, ybw = sample_kernel(draw.draw, pts.shape[0])
    lx, ly = ks.gram(pts, bw), ks.gram(ypts, ybw)
    gx, gy = ks.center_and_decompose(lx), ks.center_and_decompose(ly)
    for eps in ks.GCV_GRID:
        truncated = kcca_dense_oracle(gx, gy, eps) ** 2
        full = kcca_full_oracle(lx @ lx.T, ly @ ly.T, eps) ** 2
        bound = gx.tol / (gx.tol + eps) + gy.tol / (gy.tol + eps)
        assert abs(truncated - full) <= bound + 1e-12, eps


@SETTINGS
@given(kx=kernels(min_n=4, max_n=60), draw=st.data())
def test_kcca_of_factors_matches_the_dense_path_at_every_grid_point(kx, draw):
    # The factors' score against the untruncated oracle on the exact dense
    # Grams, so the representation and the arithmetic both differ
    # (observed: 1.3e-9 over 3000 draws and the whole grid, the most at
    # eps = 1e-5, where the factor's residual trace of 1e-13 can move P by
    # up to 1e-13 / eps).
    pts, bw = kx
    ypts, ybw = sample_kernel(draw.draw, pts.shape[0])
    cx, cy = ks.center(ks.gram(pts, bw)), ks.center(ks.gram(ypts, ybw))
    kx, ky = dense_gram(pts, bw), dense_gram(ypts, ybw)
    for eps in ks.GCV_GRID:
        got = ks.kcca_singular_value(cx, cy, eps)
        assert got == pytest.approx(kcca_full_oracle(kx, ky, eps), abs=TOL["kcca"]), eps


def block_factors(draw, n, levels):
    # Scalar samples of one block member per level, on a grid of 2 k + 1
    # values for level k: 0 gives a constant member, which takes the
    # gamma = 1 fallback as in screen, and 3 a low-rank one.  Returns the
    # samples, their bandwidths and gram_block's stacks of their factors.
    pts = np.stack([
        draw(hnp.arrays(np.int64, n, elements=st.integers(-k, k))) / 100.0 for k in levels
    ])
    bws = []
    for member in pts:
        try:
            bws.append(ks.bandwidth(member))
        except ks.DegenerateDataError:
            bws.append(ks.Bandwidth(1.0))
    return pts, bws, gram_block(pts, bws)


@SETTINGS
@given(
    n=st.integers(4, 40),
    levels=st.lists(st.sampled_from([0, 3, 1000]), min_size=1, max_size=17),
    draw=st.data(),
)
def test_block_kcca_matches_the_per_pair_score_and_the_dense_oracle(n, levels, draw):
    # A level of 0 gives a constant member, 3 a low-rank one; the response
    # is scalar or bivariate.  A member's score is the per-pair score
    # bitwise, since kcca_singular_value is the stack arithmetic on a stack
    # of one; the untruncated oracle builds n x n Grams (observed: 3.0e-9
    # relative over 3000 draws and the whole grid).
    pts, bws, stacks = block_factors(draw.draw, n, levels)
    ypts, ybw = sample_kernel(draw.draw, n)
    ly_c = ks.center(ks.gram(ypts, ybw))
    ky = dense_gram(ypts, ybw)
    for pos, stack in stacks:
        c = stack - stack.mean(axis=1, keepdims=True)
        for eps in ks.GCV_GRID:
            got = kcca_of_stack(c, ly_c, eps)
            assert got.shape == (len(pos),)
            for i, m in enumerate(pos):
                want = ks.kcca_singular_value(ks.center(stack[i]), ly_c, eps)
                assert got[i] == want, (m, eps)
                if levels[m] == 0:
                    assert got[i] == 0.0
                    continue
                oracle = kcca_full_oracle(dense_gram(pts[m], bws[m]), ky, eps)
                assert got[i] == pytest.approx(oracle, rel=1e-7, abs=0.0), (m, eps)


@SETTINGS
@given(
    n=st.integers(2, 40),
    levels=st.lists(st.sampled_from([0, 3, 1000]), min_size=1, max_size=17),
    draw=st.data(),
)
def test_block_hsic_is_bitwise_the_per_pair_score_and_matches_the_dense_grams(n, levels, draw):
    # Centering a member in its stack, its product with the response and
    # its sum of squares are the per-pair arithmetic, so the other members
    # change no bit.
    pts, bws, stacks = block_factors(draw.draw, n, levels)
    ypts, ybw = sample_kernel(draw.draw, n)
    ly_c = ks.center(ks.gram(ypts, ybw))
    gy = center_dense(dense_gram(ypts, ybw))
    for pos, stack in stacks:
        got = hsic_of_stack(stack - stack.mean(axis=1, keepdims=True), ly_c)
        assert got.shape == (len(pos),)
        for i, m in enumerate(pos):
            assert got[i] == ks.hsic_score(ks.center(stack[i]), ly_c), m
            if levels[m] == 0:
                assert got[i] == 0.0
            want = hsic_double_sum(center_dense(dense_gram(pts[m], bws[m])), gy)
            assert got[i] == pytest.approx(want, abs=TOL["hsic"]), m


@SETTINGS
@given(
    n=st.integers(4, 40),
    levels=st.lists(st.sampled_from([0, 3, 1000]), min_size=1, max_size=6),
    draw=st.data(),
)
def test_kcca_of_two_factors_is_symmetric_and_lies_in_the_unit_interval(n, levels, draw):
    # Swapping the factors transposes N up to rounding, so the two scores
    # agree to a few ulps times the conditioning of G + eps I (observed:
    # 1.9e-13 relative over 1500 draws and the whole grid).  Each lies in
    # [0, 1): sigma_max(N)^2 is an eigenvalue of P_X P_Y, whose factors
    # have norm below 1 for eps > 0, and a constant side scores 0.
    _, _, stacks = block_factors(draw.draw, n, levels)
    ly_c = ks.center(ks.gram(*sample_kernel(draw.draw, n)))
    for pos, stack in stacks:
        for m, lx in zip(pos, stack):
            cx = ks.center(lx)
            for eps in ks.GCV_GRID:
                forward = ks.kcca_singular_value(cx, ly_c, eps)
                backward = ks.kcca_singular_value(ly_c, cx, eps)
                assert 0.0 <= forward < 1.0 and 0.0 <= backward < 1.0, (m, eps)
                assert backward == pytest.approx(forward, rel=1e-12, abs=0.0), (m, eps)
                if levels[m] == 0:
                    assert forward == backward == 0.0


@SETTINGS
@given(kx=kernels(min_n=2, max_n=60), eps=st.sampled_from(ks.GCV_GRID))
def test_kcca_self_dependence_is_the_shrunk_top_eigenvalue(kx, eps):
    # P_X P_X has the top eigenvalue (s0^2 / (s0^2 + eps))^2 for the top
    # singular value s0 of the centered factor, 0 for a constant one
    # (observed: 1.9e-15 relative over 3000 draws).
    c = ks.center(ks.gram(*kx))
    s0 = np.linalg.svd(c, compute_uv=False)[0]
    want = s0 * s0 / (s0 * s0 + eps)
    got = ks.kcca_singular_value(c, c, eps)
    assert got == pytest.approx(want, rel=1e-12, abs=0.0)


@SETTINGS
@given(
    n=st.integers(4, 40),
    levels=st.lists(st.sampled_from([0, 3, 1000]), min_size=1, max_size=17),
    draw=st.data(),
)
def test_a_factor_scores_bitwise_the_same_alone_or_in_any_stack_of_its_rank(n, levels, draw):
    # No member's arithmetic mixes with another's and no stack is padded,
    # so a factor's KCCA scores at every grid point, its HSIC score and its
    # GCV term (its a_i and ||c_i||^2, and the GCV value they give) are
    # bitwise the same in a stack of one and in a stack of any size and
    # order of factors of its rank, repeats included.  Members may be
    # constant (level 0) or low-rank (level 3), and the response scalar or
    # bivariate.  The GCV splits a stack of more than 16.
    _, _, stacks = block_factors(draw.draw, n, levels)
    _, stack = stacks[draw.draw(st.integers(0, len(stacks) - 1))]
    picks = draw.draw(st.lists(st.integers(0, len(stack) - 1), min_size=1, max_size=40))
    ypts, ybw = sample_kernel(draw.draw, n)
    ly = ks.gram(ypts, ybw)
    ly_c = ks.center(ly)
    eps = draw.draw(st.sampled_from(ks.GCV_GRID))

    def scored(lxs):
        comps = tuning._gcv_terms(ly, _rank_stacks(list(lxs), tuning._BLOCK), len(lxs))
        c = lxs - lxs.mean(axis=1, keepdims=True)
        kcca = np.stack([kcca_of_stack(c, ly_c, e) for e in ks.GCV_GRID], axis=1)
        return kcca, hsic_of_stack(c, ly_c), comps

    kcca, hsic, (_, a, c2, by_norm2, spans) = scored(stack[picks])
    for i, m in enumerate(picks):
        kcca1, hsic1, alone = scored(stack[m:m + 1])
        assert kcca1.tobytes() == kcca[i:i + 1].tobytes(), m
        assert hsic1.tobytes() == hsic[i:i + 1].tobytes(), m
        assert alone[1].tobytes() == a[i:i + 1].tobytes()
        assert alone[2].tobytes() == c2[i:i + 1].tobytes()
        assert tuning._gcv_at(eps, *alone) == tuning._gcv_at(
            eps, n, a[i:i + 1], c2[i:i + 1], by_norm2, spans[i:i + 1])


@SETTINGS
@given(
    n=st.integers(4, 40),
    levels=st.lists(st.sampled_from([0, 3, 1000]), min_size=1, max_size=17),
    draw=st.data(),
)
def test_kcca_of_concatenated_stacks_is_bitwise_each_stacks_own(n, levels, draw):
    # screen holds each stack's KCCA terms, G = C^T C and X = C^T L_Y, in
    # a pile per rank and finishes the pile's concatenation in one call.
    # Stacks of one rank, of any sizes and order, members repeated, give
    # each member its per-stack scores bitwise, at every grid point.
    _, _, stacks = block_factors(draw.draw, n, levels)
    _, stack = stacks[draw.draw(st.integers(0, len(stacks) - 1))]
    ly_c = ks.center(ks.gram(*sample_kernel(draw.draw, n)))
    sizes = draw.draw(st.lists(st.integers(1, 6), min_size=1, max_size=6))
    terms = []
    for size in sizes:
        picks = draw.draw(st.lists(st.integers(0, len(stack) - 1), min_size=size, max_size=size))
        c = stack[picks] - stack[picks].mean(axis=1, keepdims=True)
        ct = np.swapaxes(c, 1, 2)
        terms.append((ct @ c, ct @ ly_c))
    g, cross = map(np.concatenate, zip(*terms))
    for eps in ks.GCV_GRID:
        whiten = _kcca_response(ly_c, eps)
        each = np.concatenate([_stack_kcca(*t, whiten, eps) for t in terms])
        assert _stack_kcca(g, cross, whiten, eps).tobytes() == each.tobytes(), eps


@SETTINGS
@given(
    n=st.integers(1, 300),
    d=st.integers(1, 4),
    rows=st.integers(1, 69),
    scale=st.sampled_from([1e-3, 1.0, 1e3]),
    seed=st.integers(0, 2**32 - 1),
)
def test_row_blocked_pairwise_distances_are_bitwise_the_whole_tensor_einsum(
        n, d, rows, scale, seed):
    # _pairwise_sq_dists forms the differences a block of rows at a time,
    # so that no n x n x d tensor is held; each row's einsum is the one of
    # the whole tensor, bit for bit, whatever the block size.
    pts = np.random.default_rng(seed).standard_normal((n, d)) * scale
    diff = pts[:, None, :] - pts[None, :, :]
    want = np.einsum("ijk,ijk->ij", diff, diff)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("kscreen.kernels._DIST_ROWS", rows)
        got = _pairwise_sq_dists(pts)
    assert got.tobytes() == want.tobytes()


@SETTINGS
@given(
    n=st.integers(2, 150),
    d=st.integers(2, 4),
    distinct=st.integers(1, 150),
    scale=st.sampled_from([1e-3, 1.0, 1e3]),
    seed=st.integers(0, 2**32 - 1),
)
def test_vector_bandwidth_is_bitwise_the_gathered_upper_triangle_sum(
        n, d, distinct, scale, seed):
    # bandwidth of vector rows fills one flat buffer with the upper
    # triangle's distances, row by row, and sums it once: bitwise the sum of
    # the roots of the squared distance matrix's triu_indices gather.  Rows
    # are drawn from a few distinct ones, so repeats and constants occur.
    rng = np.random.default_rng(seed)
    k = min(distinct, n)
    pts = (rng.standard_normal((k, d)) * scale)[rng.integers(0, k, n)]
    d2 = _pairwise_sq_dists(pts)
    total = float(np.sum(np.sqrt(d2[np.triu_indices(n, k=1)])))
    try:
        want = _bandwidth_from_sum(total, n).gamma
    except ks.DegenerateDataError:
        with pytest.raises(ks.DegenerateDataError):
            ks.bandwidth(pts)
    else:
        assert ks.bandwidth(pts).gamma.hex() == want.hex()


@SETTINGS
@given(
    n=st.integers(4, 40),
    levels=st.lists(st.sampled_from([0, 3, 1000]), min_size=1, max_size=40),
    draw=st.data(),
)
def test_a_built_stack_and_a_restacked_one_read_bitwise_the_same(n, levels, draw):
    # screen reads gram_block's stacks in place, and select_epsilon and
    # gcv_value restack their factor lists with _rank_stacks.  Both give
    # the same layout, so a factor's GCV terms, KCCA score and HSIC score
    # are bitwise the same whichever path stacked it.
    _, _, stacks = block_factors(draw.draw, n, levels)
    factors = [None] * len(levels)
    for pos, stack in stacks:
        for m, lx in zip(pos, stack):
            factors[m] = lx
    restacked = list(_rank_stacks(factors, len(levels)))
    ypts, ybw = sample_kernel(draw.draw, n)
    ly = ks.gram(ypts, ybw)
    ly_c = ks.center(ly)
    eps = draw.draw(st.sampled_from(ks.GCV_GRID))
    for (pos, stack), (pos2, stack2) in zip(stacks, restacked, strict=True):
        assert pos.tobytes() == pos2.tobytes() and stack.strides == stack2.strides
        assert stack.tobytes() == stack2.tobytes()
    built = tuning._gcv_terms(ly, stacks, len(levels))
    again = tuning._gcv_terms(ly, restacked, len(levels))
    for got, want in zip(built, again, strict=True):
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
    for (_, stack), (_, stack2) in zip(stacks, restacked):
        for s in (stack, stack2):
            s -= s.mean(axis=1, keepdims=True)
        assert (kcca_of_stack(stack, ly_c, eps).tobytes()
                == kcca_of_stack(stack2, ly_c, eps).tobytes())
        assert hsic_of_stack(stack, ly_c).tobytes() == hsic_of_stack(stack2, ly_c).tobytes()


@SETTINGS
@given(
    n=st.integers(6, 30),
    p=st.integers(2, 45),
    k=st.sampled_from([1, 20, None]),
    seed=st.integers(0, 2**16),
    draw=st.data(),
)
def test_the_gcv_of_a_screen_is_bitwise_select_epsilon_of_its_subsample(n, p, k, seed, draw):
    # screen reads each subsample stack's GCV terms as it is built and
    # drops it, then searches the grid once; select_epsilon restacks the
    # same factors.  The chosen epsilon, every GCV value and every skip
    # count agree bitwise.  Level 0 gives constant columns (gamma = 1
    # fallback), level 3 low-rank ones; k = None is the full sum, p.
    k = p if k is None else min(k, p)
    levels = draw.draw(st.lists(st.sampled_from([0, 3, 1000]), min_size=p, max_size=p))
    x = np.stack([draw.draw(hnp.arrays(np.int64, n, elements=st.integers(-m, m))) / 100.0
                  for m in levels], axis=1)
    rng = np.random.default_rng(seed)
    y = np.sin(x[:, :1]) + rng.standard_normal((n, 1))
    searched = []

    def searching(comps, search=screening._grid_search):
        searched.append(search(comps))
        return searched[-1]

    with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings():
        warnings.simplefilter("ignore", ks.DegenerateDataWarning)
        mp.setattr(screening, "_grid_search", searching)
        mp.setattr(screening, "GCV_SUBSAMPLE", k)
        eps = ks.screen(ks.DataMatrix(x), ks.DataMatrix(y), method="kcca", seed=seed).epsilon
    idx = (np.sort(np.random.default_rng(seed).choice(p, size=k, replace=False))
           if k < p else range(p))
    lxs = []
    for r in idx:
        try:
            bw = ks.bandwidth(x[:, r])
        except ks.DegenerateDataError:
            bw = ks.Bandwidth(1.0)
        lxs.append(ks.gram(x[:, r], bw))
    want = ks.select_epsilon(ks.gram(y, ks.bandwidth(y)), lxs)
    (got,) = searched
    assert eps == got.epsilon == want.epsilon
    assert np.array(got.gcv_values).tobytes() == np.array(want.gcv_values).tobytes()
    assert got.skipped_counts == want.skipped_counts and got.grid == want.grid


@settings(derandomize=True, deadline=None, max_examples=200)
@given(
    value=st.floats(-1e300, 1e300, allow_nan=False, allow_infinity=False),
    n=st.integers(2, 300),
    seed=st.integers(0, 2**32 - 1),
)
def test_pearson_of_a_constant_side_is_exactly_zero(value, n, seed):
    # The mean of n copies of a value may round (ten of 0.01 gave a
    # correlation of 7.7e-17), so a constant side is tested for first.
    y = np.random.default_rng(seed).standard_normal(n)
    const = np.full(n, value)
    assert ks.pearson_score(const, y) == 0.0
    assert ks.pearson_score(y, const) == 0.0


@settings(derandomize=True, deadline=None, max_examples=200)
@given(
    n=st.integers(2, 300),
    p=st.integers(1, 12),
    levels=st.sampled_from([1, 3, 1000, 10**6]),
    layout=st.sampled_from(["C", "F"]),
    draw=st.data(),
)
def test_each_distance_sum_is_bitwise_its_row_summed_alone(n, p, levels, layout, draw):
    # _scalar_distance_sums sums each block of rows in one reduction; each
    # sum is bitwise the 1-D sum of that row's weighted gaps, so gamma is
    # the one bandwidth gives the column alone.  screen passes the table's
    # transpose, an F-ordered array.
    grid = draw.draw(hnp.arrays(np.int64, (p, n), elements=st.integers(-levels, levels)))
    rows = np.asarray(grid / 100.0, order=layout)
    got = _scalar_distance_sums(rows)
    k = np.arange(1, n)
    for i, row in enumerate(rows):
        alone = np.diff(np.sort(row)) * (k * (n - k))
        assert got[i] == float(alone.sum()) == _scalar_distance_sums(rows[i:i + 1])[0]
        if got[i] > 0.0:
            assert ks.bandwidth(row) == _bandwidth_from_sum(got[i], n)


@SETTINGS
@given(table=tables(min_p=2), budget=st.integers(1, 8 * 14 * 5))
def test_screen_scores_are_bitwise_the_same_at_any_block_width(table, budget):
    # kernels._BUILD_BYTES sets the rows the bandwidth pass sorts at a time,
    # max(1, budget // 8n), 1 to all p here, and the features per factor
    # build; neither moves a bit of a score or of epsilon.
    x, y = table

    def run():
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ks.DegenerateDataWarning)
            results = screening._screen_methods(
                ks.DataMatrix(x), ks.DataMatrix(y), ("kcca", "hsic"), None, "auto", 0)
        return [(r.scores.tobytes(), r.epsilon) for r in results.values()]

    want = run()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("kscreen.kernels._BUILD_BYTES", budget)
        assert run() == want


@SETTINGS
@given(kx=kernels(min_n=2, max_n=60), draw=st.data())
def test_hsic_of_factors_matches_the_dense_double_centered_grams(kx, draw):
    # Observed: 3.1e-16 over 1500 draws.
    pts, bw = kx
    ypts, ybw = sample_kernel(draw.draw, pts.shape[0])
    got = ks.hsic_score(ks.center(ks.gram(pts, bw)), ks.center(ks.gram(ypts, ybw)))
    gx = center_dense(dense_gram(pts, bw))
    gy = center_dense(dense_gram(ypts, ybw))
    want = float(np.sum(gx * gy)) / pts.shape[0] ** 2
    assert got == pytest.approx(want, abs=TOL["hsic"])


@contextlib.contextmanager
def row_blocks(n, blocks):
    # The scalar dc path cuts the response's n rows into ceil(n / rows)
    # blocks of at most rows = ceil(n / blocks): `blocks` of them, or fewer
    # when n is small (4 rows in 2 blocks of 2 when blocks is 3).
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(measures, "_ROW_BLOCK", -(-n // blocks))
        yield


@SETTINGS
@given(
    n=st.integers(4, 40),
    dims=st.tuples(st.integers(1, 2), st.integers(1, 2)),
    levels=st.sampled_from([1, 3, 1000]),
    shift=st.floats(-1e3, 1e3),
    blocks=st.integers(1, 4),
    draw=st.data(),
)
def test_dcor_of_raw_samples_matches_the_dense_double_centered_form(
        n, dims, levels, shift, blocks, draw):
    # Few levels give ties and constant columns; the shift, up to 1e3 times
    # the spread, is cancelled by the distances only up to rounding.  The
    # response carries noise from a drawn seed, so its distance covariance
    # with x is never an exact 0 whose square root would magnify rounding.
    # The scalar path reads the response's upper triangle in one to four
    # row blocks.  Observed: 2.4e-15 over 3000 draws with one block, and
    # 2.1e-15 over 3000 with one to four.
    x_dim, y_dim = dims
    grid = draw.draw(hnp.arrays(np.int64, (n, x_dim), elements=st.integers(-levels, levels)))
    spread = max(float(np.ptp(grid)), 1.0)
    x = grid / 100.0 + shift * spread / 100.0
    rng = np.random.default_rng(draw.draw(st.integers(0, 2**32 - 1)))
    y = np.sin(grid[:, :1] / 100.0) + rng.standard_normal((n, y_dim))
    with row_blocks(n, blocks):
        got = ks.dcor_score(x[:, 0] if x_dim == 1 else x, dy=ks.centered_distances(y))
    if np.ptp(grid) == 0:
        assert got == 0.0
    else:
        assert got == pytest.approx(dcor_brute(x, y), abs=TOL["dc"])


@SETTINGS
@given(ky=kernels(), draw=st.data(), eps=st.sampled_from(ks.GCV_GRID))
def test_gcv_of_factors_matches_the_explicit_inverse_assembly(ky, draw, eps):
    # Over the whole kernels() domain.  Against 50-digit arithmetic on the
    # factors' Grams, over 5000 random draws of it with a non-constant
    # response, the factor form was within 7.9e-11 relative (worst: n = 29,
    # eps = 1e-5, full-rank factors), below a tenth of the rel 1e-8 gate;
    # the eigendecomposition form it replaced was within 1.9e-10.  For a
    # constant response the value would be a small difference of ||B_Y||^2
    # and its projections, off by up to 1.1e-2 relative on 243 such draws,
    # so it is rejected as degenerate, as screen rejects it.
    ypts, ybw = ky
    xs = [sample_kernel(draw.draw, ypts.shape[0]) for _ in range(draw.draw(st.integers(1, 3)))]
    lxs = [ks.gram(p, b) for p, b in xs]
    if np.ptp(ypts) == 0:
        with pytest.raises(ks.DegenerateDataError):
            ks.gcv_value(eps, ks.gram(ypts, ybw), lxs)
        return
    got = ks.gcv_value(eps, ks.gram(ypts, ybw), lxs)
    want = gcv_dense_oracle(eps, dense_gram(ypts, ybw), [dense_gram(p, b) for p, b in xs])
    assert got == pytest.approx(want, rel=1e-8)


@SETTINGS
@given(kx=kernels(), draw=st.data())
def test_hsic_of_centered_grams_is_nonnegative_and_exactly_symmetric(kx, draw):
    pts, bw = kx
    gx = ks.center(ks.gram(pts, bw))
    gy = ks.center(ks.gram(*sample_kernel(draw.draw, pts.shape[0])))
    forward = ks.hsic_score(gx, gy)
    assert forward >= 0.0
    assert forward == ks.hsic_score(gy, gx)


@st.composite
def wide_tables(draw):
    # p is never a multiple of the 16-feature block, so the last block is
    # narrower; some columns may be constant, and the response may be
    # bivariate.
    n = draw(st.integers(6, 14))
    p = draw(st.integers(17, 40).filter(lambda p: p % 16))
    x = draw(hnp.arrays(np.int64, (n, p), elements=st.integers(-1000, 1000))) / 100.0
    for r in draw(st.lists(st.integers(0, p - 1), max_size=3)):
        x[:, r] = x[0, r]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    y = np.sin(x[:, :1]) + x[:, :1] ** 2 / 10.0 + rng.standard_normal((n, 1))
    if draw(st.booleans()):
        y = np.column_stack([y[:, 0], np.cos(x[:, 1]) + rng.standard_normal(n)])
    return x, y


@SETTINGS
@given(table=wide_tables(), draw=st.data())
def test_methods_screened_together_are_bitwise_the_separate_screens(table, draw):
    # One shared kernel preparation per call, as in a run_suite replication.
    x, y = table
    p = x.shape[1]
    pool = ["kcca", "hsic", "dc"] + (["sis"] if y.shape[1] == 1 else [])
    methods = tuple(ks.Method(m) for m in draw.draw(st.permutations(pool)))
    epsilon = draw.draw(st.sampled_from(["auto", 1e-5, 0.1]))
    seed = draw.draw(st.integers(0, 1000))
    gcv_subsample = draw.draw(st.integers(1, p - 1))
    rule = ks.ThresholdRule.fixed(draw.draw(st.integers(1, p)))
    xm, ym = ks.DataMatrix(x), ks.DataMatrix(y)
    with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings():
        warnings.simplefilter("ignore", ks.DegenerateDataWarning)
        mp.setattr(screening, "GCV_SUBSAMPLE", gcv_subsample)
        together = screening._screen_methods(xm, ym, methods, rule, epsilon, seed)
        for method in methods:
            alone = ks.screen(xm, ym, method=method, rule=rule, epsilon=epsilon, seed=seed)
            got = together[method]
            assert got.method is method
            assert got.scores.tobytes() == alone.scores.tobytes(), method
            assert got.ranking.tobytes() == alone.ranking.tobytes(), method
            assert got.selected.tobytes() == alone.selected.tobytes(), method
            assert got.epsilon == alone.epsilon and got.m == alone.m, method


@SETTINGS
@given(
    n=st.integers(2, 30),
    p=st.integers(1, 4),
    y_dim=st.integers(1, 2),
    levels=st.sampled_from([0, 1, 3, 1000]),
    blocks=st.integers(1, 4),
    draw=st.data(),
)
def test_scalar_dcor_matches_the_brute_form_and_ignores_the_other_columns(
        n, p, y_dim, levels, blocks, draw):
    # Few levels give ties, and 0 levels a constant column.  Each column is
    # scored by dcor_score alone and by a dc screen of the whole table, whose
    # scalar path shares one prepared response, its one to four row blocks
    # and their scratch buffer.
    grid = draw.draw(hnp.arrays(np.int64, (n, p), elements=st.integers(-levels, levels)))
    x = grid / 100.0
    rng = np.random.default_rng(draw.draw(st.integers(0, 2**32 - 1)))
    y = np.sin(x[:, :1]) + rng.standard_normal((n, y_dim))
    dy = ks.centered_distances(y)
    with row_blocks(n, blocks):
        alone = np.array([ks.dcor_score(x[:, r], dy=dy) for r in range(p)])
        if n >= 4:
            together = ks.screen(ks.DataMatrix(x), ks.DataMatrix(y), method="dc").scores
            assert together.tobytes() == alone.tobytes()
    for r in range(p):
        if np.ptp(grid[:, r]) == 0:
            assert alone[r] == 0.0
        else:
            assert alone[r] == pytest.approx(dcor_brute(x[:, r], y), abs=TOL["dc"])


def _texts(*accepted):
    return lambda v: isinstance(v, str) and v in accepted


def _position_text(v):
    # A response column text load_csv would take: a header name or an integer.
    if not isinstance(v, str):
        return False
    try:
        int(v)
    except ValueError:
        return v in ("a", "b", "y")
    return True


_NO_TEXT = _texts()
_METHODS = _texts("kcca", "hsic", "dc", "sis")
_AUTO = _texts("auto")


def _spec_with(field):
    valid = dict(suite="sim2", model_id=1, n=10, p=10, reps=1, seed=0)
    return lambda a, v: ks.SimulationSpec(**{**valid, field: v})


# Each scalar argument of a public entry point: (kind, accepted, call), where
# call(valid, v) passes v in that argument's place and valid values elsewhere.
# kind says which further numbers are malformed there: for "int" every
# float, for "object" (a library type, a name or a path) every number;
# negatives, NaN, infinities, bools, None and text are malformed everywhere
# unless accepted(v).
SCALAR_ARGUMENTS = {
    "Bandwidth.gamma": ("real", _NO_TEXT, lambda a, v: ks.Bandwidth(v)),
    "gaussian_kernel.bw": ("object", _NO_TEXT, lambda a, v: ks.gaussian_kernel(0.0, 1.0, v)),
    "gram.bw": ("object", _NO_TEXT, lambda a, v: ks.gram(a.samples, v)),
    "kcca_singular_value.epsilon": (
        "real", _NO_TEXT, lambda a, v: ks.kcca_singular_value(a.factor, a.factor, v)),
    "gcv_value.epsilon": ("real", _NO_TEXT, lambda a, v: ks.gcv_value(a.factor, [a.factor], v)),
    "ThresholdRule.kind": ("object", _AUTO, lambda a, v: ks.ThresholdRule(v)),
    "ThresholdRule.fixed.m": ("int", _NO_TEXT, lambda a, v: ks.ThresholdRule.fixed(v)),
    "auto_threshold.epsilon": ("real", _NO_TEXT, lambda a, v: ks.auto_threshold(v, 10, 5)),
    "auto_threshold.n": ("int", _NO_TEXT, lambda a, v: ks.auto_threshold(0.5, v, 5)),
    "auto_threshold.p": ("int", _NO_TEXT, lambda a, v: ks.auto_threshold(0.5, 10, v)),
    "screen.x": ("object", _NO_TEXT, lambda a, v: ks.screen(v, a.y)),
    "screen.y": ("object", _NO_TEXT, lambda a, v: ks.screen(a.x, v)),
    "screen.method": ("object", _METHODS, lambda a, v: ks.screen(a.x, a.y, method=v)),
    "screen.rule": ("object", lambda v: v is None, lambda a, v: ks.screen(a.x, a.y, rule=v)),
    "screen.epsilon": ("real", _AUTO, lambda a, v: ks.screen(a.x, a.y, epsilon=v)),
    "screen.seed": ("int", _NO_TEXT, lambda a, v: ks.screen(a.x, a.y, seed=v)),
    "SimulationSpec.suite": ("object", _texts("sim1", "sim2"), _spec_with("suite")),
    **{f"SimulationSpec.{field}": ("int", _NO_TEXT, _spec_with(field))
       for field in ("model_id", "n", "p", "reps", "seed")},
    "SimulationSpec.ar_rho": ("real", _NO_TEXT, _spec_with("ar_rho")),
    "ar_gaussian.n": ("int", _NO_TEXT, lambda a, v: ks.ar_gaussian(v, 5, 0.5, 0)),
    "ar_gaussian.p": ("int", _NO_TEXT, lambda a, v: ks.ar_gaussian(10, v, 0.5, 0)),
    "ar_gaussian.rho": ("real", _NO_TEXT, lambda a, v: ks.ar_gaussian(10, 5, v, 0)),
    "ar_gaussian.seed": ("int", _NO_TEXT, lambda a, v: ks.ar_gaussian(10, 5, 0.5, v)),
    "gen_sim1.x": ("object", _NO_TEXT, lambda a, v: ks.gen_sim1(v, 1, 0)),
    "gen_sim1.model_id": ("int", _NO_TEXT, lambda a, v: ks.gen_sim1(a.x22, v, 0)),
    "gen_sim1.seed": ("int", _NO_TEXT, lambda a, v: ks.gen_sim1(a.x22, 1, v)),
    "gen_sim2.x": ("object", _NO_TEXT, lambda a, v: ks.gen_sim2(v, 1, 0)),
    "gen_sim2.model_id": ("int", _NO_TEXT, lambda a, v: ks.gen_sim2(a.x22, v, 0)),
    "gen_sim2.seed": ("int", _NO_TEXT, lambda a, v: ks.gen_sim2(a.x22, 1, v)),
    "min_model_size.result": ("object", _NO_TEXT, lambda a, v: ks.min_model_size(v, [1])),
    "min_model_size.active": ("int", _NO_TEXT, lambda a, v: ks.min_model_size(a.result, [v])),
    "default_d_values.spec": ("object", _NO_TEXT, lambda a, v: ks.default_d_values(v)),
    "run_suite.spec": ("object", _NO_TEXT, lambda a, v: ks.run_suite(v, ["dc"])),
    "run_suite.methods": ("object", _METHODS, lambda a, v: ks.run_suite(a.spec, [v])),
    "run_suite.d_values": ("int", _NO_TEXT, lambda a, v: ks.run_suite(a.spec, ["dc"], (v, 4, 6))),
    "run_suite.threads": ("int", _NO_TEXT, lambda a, v: ks.run_suite(a.spec, ["dc"], threads=v)),
    "run_suite.epsilon": ("real", _AUTO, lambda a, v: ks.run_suite(a.spec, ["dc"], epsilon=v)),
    "load_csv.path": ("object", _NO_TEXT, lambda a, v: ks.load_csv(v, ["y"])),
    "load_csv.response_columns": (
        "int", _position_text, lambda a, v: ks.load_csv(a.csv_path, [v])),
}


def _malformed(kind, accepted):
    values = [st.booleans(), st.sampled_from([np.True_, np.False_]), st.none(),
              st.sampled_from([math.nan, math.inf, -math.inf]),
              st.integers(max_value=-1), st.floats(max_value=-1.0), st.text()]
    if kind == "int":
        values.append(st.floats())  # a float, even 3.0, where an int is due
    elif kind == "object":
        values += [st.integers(), st.floats()]
    return st.one_of(values).filter(lambda v: not accepted(v))


@pytest.fixture(scope="module")
def valid_arguments(tmp_path_factory):
    rng = np.random.default_rng(0)
    x, y = ks.DataMatrix(rng.standard_normal((10, 5))), ks.DataMatrix(rng.standard_normal((10, 1)))
    csv_path = tmp_path_factory.mktemp("csv") / "table.csv"
    csv_path.write_text("a,b,y\n" + "".join(f"{i},{i * i % 7},{i % 3}\n" for i in range(8)))
    return types.SimpleNamespace(
        x=x, y=y, x22=ks.ar_gaussian(10, 22, 0.5, 0), samples=np.arange(5.0),
        factor=ks.gram(rng.standard_normal(10), ks.Bandwidth(1.0)),
        result=ks.screen(x, y, method="sis"), csv_path=csv_path,
        spec=ks.SimulationSpec("sim2", 1, 10, 10, 1, 0),
    )


def _no_work(*args, **kwargs):
    raise AssertionError("work started before every argument was checked")


@settings(derandomize=True, deadline=None, max_examples=600)
@given(name=st.sampled_from(sorted(SCALAR_ARGUMENTS)), draw=st.data())
def test_a_malformed_scalar_argument_is_a_kscreen_error_before_any_work(
        valid_arguments, name, draw):
    # Never a bare ValueError, TypeError or AttributeError, and screen and
    # run_suite raise before their first step.
    kind, accepted, call = SCALAR_ARGUMENTS[name]
    value = draw.draw(_malformed(kind, accepted), label="value")
    with pytest.MonkeyPatch.context() as mp:
        for target in ("gram", "centered_distances", "pearson_score", "_scalar_distance_sums"):
            mp.setattr(screening, target, _no_work)
        mp.setattr(ks.simulation, "ProcessPoolExecutor", _no_work)
        with pytest.raises(ks.KScreenError):
            call(valid_arguments, value)


# Each array argument of a public entry point, by the call that passes v in
# its place and valid values elsewhere.  lxs is the predictor factor list
# of the GCV functions, and lxs[0] a factor in it.
ARRAY_ARGUMENTS = {
    "DataMatrix.values": lambda a, v: ks.DataMatrix(v),
    "bandwidth.samples": lambda a, v: ks.bandwidth(v),
    "gram.samples": lambda a, v: ks.gram(v, ks.Bandwidth(1.0)),
    "center.factor": lambda a, v: ks.center(v),
    "centered_distances.samples": lambda a, v: ks.centered_distances(v),
    "center_and_decompose.factor": lambda a, v: ks.center_and_decompose(v),
    "gaussian_kernel.x": lambda a, v: ks.gaussian_kernel(v, 0.0, ks.Bandwidth(1.0)),
    "gaussian_kernel.y": lambda a, v: ks.gaussian_kernel(0.0, v, ks.Bandwidth(1.0)),
    "kcca_singular_value.lx": lambda a, v: ks.kcca_singular_value(v, a.factor, 0.1),
    "kcca_singular_value.ly": lambda a, v: ks.kcca_singular_value(a.factor, v, 0.1),
    "hsic_score.lx": lambda a, v: ks.hsic_score(v, a.factor),
    "hsic_score.ly": lambda a, v: ks.hsic_score(a.factor, v),
    "dcor_score.x_samples": lambda a, v: ks.dcor_score(v, dy=a.dy),
    "dcor_score.dy": lambda a, v: ks.dcor_score(a.samples, dy=v),
    "pearson_score.x_samples": lambda a, v: ks.pearson_score(v, a.samples),
    "pearson_score.y_samples": lambda a, v: ks.pearson_score(a.samples, v),
    "gcv_value.ly": lambda a, v: ks.gcv_value(0.1, v, [a.factor]),
    "gcv_value.lxs": lambda a, v: ks.gcv_value(0.1, a.factor, v),
    "gcv_value.lxs[0]": lambda a, v: ks.gcv_value(0.1, a.factor, [v]),
    "select_epsilon.ly": lambda a, v: ks.select_epsilon(v, [a.factor]),
    "select_epsilon.lxs": lambda a, v: ks.select_epsilon(a.factor, v),
    "select_epsilon.lxs[0]": lambda a, v: ks.select_epsilon(a.factor, [v]),
    "rank_by_score.scores": lambda a, v: ks.rank_by_score(v),
}

_REALS = st.floats(-10.0, 10.0)


@st.composite
def _non_finite_arrays(draw, bad):
    # An array, or its nested lists, of 1 or 2 dimensions with one bad entry.
    shape = draw(hnp.array_shapes(min_dims=1, max_dims=2, max_side=6))
    arr = draw(hnp.arrays(np.float64, shape, elements=_REALS))
    arr.flat[draw(st.integers(0, arr.size - 1))] = draw(st.sampled_from(bad))
    return arr.tolist() if draw(st.booleans()) else arr


def _malformed_arrays(bad):
    return st.one_of(
        st.text(),
        st.lists(st.one_of(_REALS, st.text()), min_size=1, max_size=5).filter(
            lambda v: any(isinstance(e, str) for e in v)),
        st.lists(st.lists(_REALS, min_size=1, max_size=3), min_size=2, max_size=4).filter(
            lambda rows: len({len(row) for row in rows}) > 1),
        st.lists(st.complex_numbers(max_magnitude=10.0, allow_nan=False).filter(
            lambda z: z.imag != 0.0), min_size=1, max_size=4),
        st.sampled_from([object(), None, {}, {1.0: 2.0}, {1.0, 2.0}, slice(1)]),
        _non_finite_arrays(bad),
    )


@pytest.fixture(scope="module")
def valid_arrays():
    rng = np.random.default_rng(0)
    samples = rng.standard_normal(5)
    return types.SimpleNamespace(
        samples=samples, dy=ks.centered_distances(samples ** 2),
        factor=ks.gram(rng.standard_normal(10), ks.Bandwidth(1.0)),
    )


@settings(derandomize=True, deadline=None, max_examples=600)
@given(name=st.sampled_from(sorted(ARRAY_ARGUMENTS)), draw=st.data())
def test_a_malformed_array_argument_is_an_argument_or_data_error(valid_arrays, name, draw):
    # Text, objects, ragged lists, complex numbers and NaN or infinite
    # entries: never numpy's bare ValueError or TypeError, and never a
    # score.  An infinite score ranks, so only NaN is malformed there.
    bad = [math.nan] if name == "rank_by_score.scores" else [math.nan, math.inf, -math.inf]
    value = draw.draw(_malformed_arrays(bad), label="value")
    with pytest.raises((ks.ArgumentError, ks.DataError)):
        ARRAY_ARGUMENTS[name](valid_arrays, value)
