"""Property-based checks of the README's promises: scale-freeness, sample
relabeling invariance, feature-permutation equivariance, and the [0, 1)
score range; and of the per-feature representation behind them, the
low-rank Gram factor, checked against the dense n x n oracles: the
retained spectrum of its centered Gram, and the KCCA, HSIC and GCV values
it feeds.

Data come from hypothesis as integer arrays divided by 100, so every entry
sits on a 0.01 grid in [-10, 10].  Distinct values are therefore at least
0.01 apart and no column's spread is small enough for the bandwidth rule
to overflow; ties and constant columns still occur.  The response is a
nonlinear function of the first feature plus noise from a drawn seed, so
it is never an exact affine image of a feature.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import kscreen as ks
from kscreen import screening, tuning
from kscreen.kernels import RESIDUAL_TRACE_TOL, gram_block
from kscreen.measures import _kcca_response, _stack_hsic, _stack_kcca
from tests.helpers import (
    center_dense, dcor_brute, decompose_dense, dense_gram, distance_moments_brute,
    gcv_dense_oracle, hsic_double_sum, kcca_dense_oracle,
)

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


@SETTINGS
@given(table=tables(), column=st.integers(0, 4), epsilon=st.sampled_from(ks.GCV_GRID))
def test_kcca_with_the_linear_kernel_is_the_shrunk_absolute_pearson_correlation(
        table, column, epsilon):
    # SIS is KCCA with the linear kernel.  Its factor is the column itself,
    # so each centered Gram has the one eigenvalue d = ||x - mean||^2 with
    # the unit eigenvector u = (x - mean) / sqrt(d), and M is the 1 x 1
    # matrix u_Y^T u_X sqrt(d_X / (d_X + eps)) sqrt(d_Y / (d_Y + eps)).
    # Observed: 6.7e-16 absolute over 3000 random draws of this domain.
    x, y = table
    col = x[:, column % x.shape[1]]
    gx, gy = ks.center_and_decompose(col[:, None]), ks.center_and_decompose(y)
    pearson = ks.pearson_score(col, y[:, 0])
    if gx.rank == 0:
        # A constant column.  Its mean rounds, so pearson_score may see a
        # constant residual, whose correlation with y is ~1e-17, not 0.
        assert pearson <= 1e-14 and ks.kcca_singular_value(gx, gy, epsilon) == 0.0
        return
    (dx,), (dy,) = gx.d, gy.d
    shrink = math.sqrt(dx / (dx + epsilon)) * math.sqrt(dy / (dy + epsilon))
    assert ks.kcca_singular_value(gx, gy, epsilon) == pytest.approx(pearson * shrink, abs=1e-14)
    # As eps -> 0 the shrink tends to 1; at eps = 1e-12 min(d_X, d_Y) it
    # lies in [1 - 1e-12, 1], so the score is Pearson's to within that.
    limit = ks.kcca_singular_value(gx, gy, 1e-12 * min(dx, dy))
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
    # pairs are checked: one C-contiguous stack per rank, ranks ascending,
    # and every position in exactly one stack.
    ranks = [stack.shape[2] for _, stack in stacks]
    assert ranks == sorted(set(ranks))
    seen = np.concatenate([pos for pos, _ in stacks])
    assert np.array_equal(np.sort(seen), np.arange(b))
    out = [None] * b
    for pos, stack in stacks:
        assert stack.flags.c_contiguous and stack.shape[0] == len(pos)
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


@SETTINGS
@given(kx=kernels(min_n=4, max_n=60), draw=st.data())
def test_kcca_of_factors_matches_the_dense_path_at_every_grid_point(kx, draw):
    # The same measure on both sides, so only the representation differs
    # (observed: 2.4e-10 over 1500 draws and the whole grid).
    pts, bw = kx
    ypts, ybw = sample_kernel(draw.draw, pts.shape[0])
    gx = ks.center_and_decompose(ks.gram(pts, bw))
    gy = ks.center_and_decompose(ks.gram(ypts, ybw))
    dx = decompose_dense(dense_gram(pts, bw))
    dy = decompose_dense(dense_gram(ypts, ybw))
    for eps in ks.GCV_GRID:
        got = ks.kcca_singular_value(gx, gy, eps)
        want = ks.kcca_singular_value(dx, dy, eps)
        assert got == pytest.approx(want, abs=TOL["kcca"]), eps


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
    # A level of 0 gives a constant member, 3 a low-rank one.  A stack
    # takes its eigenvalues from eigh of C^T C, where the per-pair score
    # takes them from the SVD of C (observed: 2.3e-12 relative over 3000
    # draws and the whole grid); the dense oracle builds n x n Grams
    # (observed: 3.9e-10 relative).
    pts, bws, stacks = block_factors(draw.draw, n, levels)
    ypts, ybw = sample_kernel(draw.draw, n)
    gy = ks.center_and_decompose(ks.gram(ypts, ybw))
    dy = decompose_dense(dense_gram(ypts, ybw))
    for pos, stack in stacks:
        c = stack - stack.mean(axis=1, keepdims=True)
        for eps in ks.GCV_GRID:
            got = _stack_kcca(c, _kcca_response(gy, eps), eps)
            assert got.shape == (len(pos),)
            for i, m in enumerate(pos):
                want = ks.kcca_singular_value(ks.center_and_decompose(stack[i]), gy, eps)
                if levels[m] == 0:
                    assert got[i] == 0.0 and want == 0.0
                    continue
                assert got[i] == pytest.approx(want, rel=1e-10, abs=0.0), (m, eps)
                oracle = kcca_dense_oracle(decompose_dense(dense_gram(pts[m], bws[m])), dy, eps)
                assert got[i] == pytest.approx(oracle, rel=1e-6, abs=0.0), (m, eps)


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
        got = _stack_hsic(stack - stack.mean(axis=1, keepdims=True), ly_c)
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
    levels=st.lists(st.sampled_from([0, 3, 1000]), min_size=1, max_size=17),
    draw=st.data(),
)
def test_a_factor_scores_bitwise_the_same_alone_or_in_any_stack_of_its_rank(n, levels, draw):
    # No member's arithmetic mixes with another's and no stack is padded,
    # so a factor's KCCA and HSIC scores and its GCV term (its a_i and
    # ||c_i||^2, and the GCV value they give) are bitwise the same in a
    # stack of one and in a stack of any size and order of factors of its
    # rank, repeats included.  The GCV splits a stack of more than 16.
    _, _, stacks = block_factors(draw.draw, n, levels)
    _, stack = stacks[draw.draw(st.integers(0, len(stacks) - 1))]
    picks = draw.draw(st.lists(st.integers(0, len(stack) - 1), min_size=1, max_size=40))
    ypts, ybw = sample_kernel(draw.draw, n)
    ly = ks.gram(ypts, ybw)
    gy, ly_c = ks.center_and_decompose(ly), ks.center(ly)
    eps = draw.draw(st.sampled_from(ks.GCV_GRID))

    def scored(lxs):
        comps = tuning._gcv_components(ly, list(lxs))
        c = lxs - lxs.mean(axis=1, keepdims=True)
        return _stack_kcca(c, _kcca_response(gy, eps), eps), _stack_hsic(c, ly_c), comps

    kcca, hsic, (_, a, c2, by_norm2, spans) = scored(stack[picks])
    for i, m in enumerate(picks):
        kcca1, hsic1, alone = scored(stack[m:m + 1])
        assert kcca1.tobytes() == kcca[i:i + 1].tobytes(), (m, eps)
        assert hsic1.tobytes() == hsic[i:i + 1].tobytes(), m
        assert alone[1].tobytes() == a[i:i + 1].tobytes()
        assert alone[2].tobytes() == c2[i:i + 1].tobytes()
        assert tuning._gcv_at(eps, *alone) == tuning._gcv_at(
            eps, n, a[i:i + 1], c2[i:i + 1], by_norm2, spans[i:i + 1])


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


@SETTINGS
@given(
    n=st.integers(4, 40),
    dims=st.tuples(st.integers(1, 2), st.integers(1, 2)),
    levels=st.sampled_from([1, 3, 1000]),
    shift=st.floats(-1e3, 1e3),
    draw=st.data(),
)
def test_dcor_of_raw_samples_matches_the_dense_double_centered_form(n, dims, levels, shift, draw):
    # Few levels give ties and constant columns; the shift, up to 1e3 times
    # the spread, is cancelled by the distances only up to rounding.  The
    # response carries noise from a drawn seed, so its distance covariance
    # with x is never an exact 0 whose square root would magnify rounding.
    # Observed: 2.4e-15 over 3000 draws.
    x_dim, y_dim = dims
    grid = draw.draw(hnp.arrays(np.int64, (n, x_dim), elements=st.integers(-levels, levels)))
    spread = max(float(np.ptp(grid)), 1.0)
    x = grid / 100.0 + shift * spread / 100.0
    rng = np.random.default_rng(draw.draw(st.integers(0, 2**32 - 1)))
    y = np.sin(grid[:, :1] / 100.0) + rng.standard_normal((n, y_dim))
    got = ks.dcor_score(x[:, 0] if x_dim == 1 else x, dy=ks.centered_distances(y))
    if np.ptp(grid) == 0:
        assert got == 0.0
    else:
        assert got == pytest.approx(dcor_brute(x, y), abs=TOL["dc"])


@SETTINGS
@given(ky=kernels(), draw=st.data(), eps=st.sampled_from(ks.GCV_GRID))
def test_gcv_of_factors_matches_the_explicit_inverse_assembly(ky, draw, eps):
    # Over the whole kernels() domain, constant responses included.
    # Against 50-digit arithmetic on the factors' Grams, over 5000 random
    # draws of it with a non-constant response, the factor form was within
    # 7.9e-11 relative (worst: n = 29, eps = 1e-5, full-rank factors),
    # below a tenth of the rel 1e-8 gate; the eigendecomposition form it
    # replaced was within 1.9e-10.  For a constant response the value is a
    # small difference of ||B_Y||^2 and its projections, and on 243 such
    # draws it was off by up to 1.1e-2 relative (2.6e-3 before).
    ypts, ybw = ky
    xs = [sample_kernel(draw.draw, ypts.shape[0]) for _ in range(draw.draw(st.integers(1, 3)))]
    got = ks.gcv_value(eps, ks.gram(ypts, ybw), [ks.gram(p, b) for p, b in xs])
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
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ks.DegenerateDataWarning)
        together = screening._screen_methods(xm, ym, methods, rule, epsilon, seed, gcv_subsample)
        for method in methods:
            alone = ks.screen(xm, ym, method=method, rule=rule, epsilon=epsilon, seed=seed,
                              gcv_subsample=gcv_subsample)
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
    draw=st.data(),
)
def test_scalar_dcor_matches_the_brute_form_and_ignores_the_other_columns(
        n, p, y_dim, levels, draw):
    # Few levels give ties, and 0 levels a constant column.  Each column is
    # scored by dcor_score alone and by a dc screen of the whole table, whose
    # scalar path shares one prepared response and one n x n buffer.
    grid = draw.draw(hnp.arrays(np.int64, (n, p), elements=st.integers(-levels, levels)))
    x = grid / 100.0
    rng = np.random.default_rng(draw.draw(st.integers(0, 2**32 - 1)))
    y = np.sin(x[:, :1]) + rng.standard_normal((n, y_dim))
    dy = ks.centered_distances(y)
    alone = np.array([ks.dcor_score(x[:, r], dy=dy) for r in range(p)])
    for r in range(p):
        if np.ptp(grid[:, r]) == 0:
            assert alone[r] == 0.0
        else:
            assert alone[r] == pytest.approx(dcor_brute(x[:, r], y), abs=TOL["dc"])
    if n >= 4:
        together = ks.screen(ks.DataMatrix(x), ks.DataMatrix(y), method="dc").scores
        assert together.tobytes() == alone.tobytes()
