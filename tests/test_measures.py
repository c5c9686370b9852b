"""Dependence measures: KCCA score against its dense oracle, HSIC against
the explicit double sum, distance correlation against a loop-based
implementation, and the Pearson baseline."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kscreen as ks
from kscreen import kernels, measures
from kscreen.errors import ArgumentError, DataError, NumericError, UnsupportedMethodError
from kscreen.kernels import _rank_stacks
from kscreen.measures import (
    _DistanceResponse, _kcca_response, _scalar_dcov, _stack_hsic, _stack_kcca,
    _top_singular_values,
)
from tests.helpers import (
    center_dense,
    dcor_brute,
    dense_gram,
    hsic_double_sum,
    kcca_full_oracle,
    random_centered,
    random_factor,
)


class TestKccaScore:
    def test_self_dependence_closed_form(self):
        # P_X P_X has the top eigenvalue (s0^2 / (s0^2 + eps))^2 for the
        # top singular value s0 of the centered factor.
        rng = np.random.default_rng(1)
        for _ in range(5):
            c = random_centered(rng, 14)
            s0 = np.linalg.svd(c, compute_uv=False)[0]
            eps = float(rng.uniform(0.05, 5.0))
            got = ks.kcca_singular_value(c, c, eps)
            assert got == pytest.approx(s0 * s0 / (s0 * s0 + eps), abs=1e-10)

    @pytest.mark.parametrize("seed", range(6))
    def test_dense_product_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(8, 30))
        x = rng.standard_normal(n)
        y = 0.6 * x + 0.8 * rng.standard_normal(n)
        lx, ly = ks.gram(x, ks.bandwidth(x)), ks.gram(y, ks.bandwidth(y))
        eps = float(rng.choice(ks.GCV_GRID))
        got = ks.kcca_singular_value(ks.center(lx), ks.center(ly), eps)
        want = kcca_full_oracle(lx @ lx.T, ly @ ly.T, eps)
        assert got == pytest.approx(want, rel=1e-6)

    def test_permutation_null_not_elevated(self):
        # independent X and Y: the permutation-mean score should not
        # systematically exceed the unpermuted one
        rng = np.random.default_rng(12345)
        n, n_perm, eps, trials = 100, 200, 1.0, 12
        hits = 0
        for _ in range(trials):
            x = rng.standard_normal(n)
            y = rng.standard_normal(n)
            cx = ks.center(ks.gram(x, ks.bandwidth(x)))
            ly = ks.gram(y, ks.bandwidth(y))
            base = ks.kcca_singular_value(cx, ks.center(ly), eps)
            perm_scores = []
            for _ in range(n_perm):
                pi = rng.permutation(n)
                perm_scores.append(ks.kcca_singular_value(cx, ks.center(ly[pi]), eps))
            hits += float(np.mean(perm_scores)) > base
        assert hits / trials <= 0.60

    def test_strictly_below_one(self):
        rng = np.random.default_rng(9)
        for _ in range(8):
            cx = random_centered(rng, 12)
            cy = random_centered(rng, 12)
            for eps in (1e-5, 1e-2, 1.0):
                assert ks.kcca_singular_value(cx, cy, eps) < 1.0

    def test_monotone_in_epsilon_for_self_dependence(self):
        rng = np.random.default_rng(4)
        c = random_centered(rng, 16)
        values = [ks.kcca_singular_value(c, c, eps) for eps in ks.GCV_GRID]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_relabeling_invariance(self):
        rng = np.random.default_rng(8)
        n = 20
        x = rng.standard_normal(n)
        y = np.tanh(x) + 0.3 * rng.standard_normal(n)
        bx, by = ks.bandwidth(x), ks.bandwidth(y)
        base = ks.kcca_singular_value(
            ks.center(ks.gram(x, bx)), ks.center(ks.gram(y, by)), 0.1)
        pi = rng.permutation(n)
        permuted = ks.kcca_singular_value(
            ks.center(ks.gram(x[pi], bx)), ks.center(ks.gram(y[pi], by)), 0.1)
        assert permuted == pytest.approx(base, abs=1e-10)

    def test_scale_free_gram(self):
        # rescaling the data while recomputing the bandwidth leaves the
        # Gram matrix, hence the score, unchanged
        rng = np.random.default_rng(13)
        x = rng.standard_normal(18)
        l0 = ks.gram(x, ks.bandwidth(x))
        for c in (3.0, -0.2, 1e3):
            l1 = ks.gram(c * x, ks.bandwidth(c * x))
            assert np.max(np.abs(l1 @ l1.T - l0 @ l0.T)) <= 1e-10

    def test_constant_side_scores_zero(self):
        # A constant side's Gram factor is a column of ones, which centers
        # to exactly 0; an empty factor has rank 0.
        rng = np.random.default_rng(3)
        cx = random_centered(rng, 10)
        for zero in (ks.center(np.ones((10, 1))), np.zeros((10, 0))):
            assert ks.kcca_singular_value(cx, zero, 0.5) == 0.0
            assert ks.kcca_singular_value(zero, cx, 0.5) == 0.0

    def test_argument_errors(self):
        rng = np.random.default_rng(0)
        cx = random_centered(rng, 8)
        cy = random_centered(rng, 9)
        with pytest.raises(ArgumentError):
            ks.kcca_singular_value(cx, cy, 0.1)
        with pytest.raises(ArgumentError):
            ks.kcca_singular_value(cx, cx, 0.0)
        with pytest.raises(ArgumentError):
            ks.kcca_singular_value(cx, cx, -1.0)
        for bad in (np.ones((8, 9)), np.ones((8, 2, 1)), np.zeros((0, 0))):
            with pytest.raises(ArgumentError):
                ks.kcca_singular_value(cx, bad, 0.1)
        nan = cx.copy()
        nan[0, 0] = np.nan
        with pytest.raises(DataError):
            ks.kcca_singular_value(nan, cx, 0.1)

    def test_eigvalsh_failure_maps_to_numeric_error(self, monkeypatch):
        # The top singular value of N comes from eigvalsh of its smaller Gram.
        self.test_lapack_failure_maps_to_numeric_error(monkeypatch, "eigvalsh")

    @pytest.mark.parametrize("routine", ["cholesky", "inv", "solve"])
    def test_lapack_failure_maps_to_numeric_error(self, monkeypatch, routine):
        # The response's Cholesky factor and its inverse, and the member's
        # Cholesky solve.
        rng = np.random.default_rng(0)
        cx = random_centered(rng, 8)

        def boom(*args, **kwargs):
            raise np.linalg.LinAlgError("no convergence")

        monkeypatch.setattr(np.linalg, routine, boom)
        with pytest.raises(NumericError):
            ks.kcca_singular_value(cx, cx, 0.5)


def stack_scores(score, lxs, *args):
    # Factors of any ranks scored as screen scores them: one stack per rank,
    # column-centered in place.
    out = np.empty(len(lxs))
    for pos, stack in _rank_stacks(lxs, len(lxs)):
        stack -= stack.mean(axis=1, keepdims=True)
        out[pos] = score(stack, *args)
    return out


def kcca_of_stack(c, ly_c, eps):
    # screen's KCCA arithmetic on one centered stack.
    ct = np.swapaxes(c, 1, 2)
    return _stack_kcca(ct @ c, ct @ ly_c, _kcca_response(ly_c, eps), eps)


def hsic_of_stack(c, ly_c):
    return _stack_hsic(np.swapaxes(c, 1, 2) @ ly_c, c.shape[1])


def stack_kcca(lxs, ly_c, eps):
    return stack_scores(kcca_of_stack, lxs, ly_c, eps)


def stack_hsic(lxs, ly_c):
    return stack_scores(hsic_of_stack, lxs, ly_c)


class TestKccaBlock:
    def test_constant_members_and_a_rank_zero_response_score_exactly_zero(self):
        rng = np.random.default_rng(4)
        lxs = [random_factor(rng, 10), np.ones((10, 1)), random_factor(rng, 10)]
        ly_c = random_centered(rng, 10)
        got = stack_kcca(lxs, ly_c, 0.5)
        assert got.shape == (3,) and got[1] == 0.0 and np.all(got[[0, 2]] > 0.0)
        for zero in (ks.center(np.ones((10, 1))), np.zeros((10, 0))):
            assert stack_kcca(lxs, zero, 0.5).tobytes() == np.zeros(3).tobytes()
        assert stack_kcca([np.zeros((10, 0))], ly_c, 0.5).tobytes() == np.zeros(1).tobytes()

    @pytest.mark.parametrize("routine", ["cholesky", "solve", "eigvalsh"])
    def test_lapack_failure_maps_to_numeric_error(self, monkeypatch, routine):
        rng = np.random.default_rng(0)
        c = ks.center(random_factor(rng, 8))[None]
        ly_c = random_centered(rng, 8)
        whiten = _kcca_response(ly_c, 0.5)
        ct = np.swapaxes(c, 1, 2)

        def boom(*args, **kwargs):
            raise np.linalg.LinAlgError("no convergence")

        monkeypatch.setattr(np.linalg, routine, boom)
        with pytest.raises(NumericError):
            _stack_kcca(ct @ c, ct @ ly_c, whiten, 0.5)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(
    b=st.integers(1, 6),
    k=st.integers(1, 24),
    m=st.integers(1, 24),
    kind=st.sampled_from(["full", "rank-one", "zero"]),
    scale=st.sampled_from([1e-3, 0.3, 1.0, 3.0]),
    seed=st.integers(0, 2**32 - 1),
    draw=st.data(),
)
def test_top_singular_value_matches_the_svd_and_is_its_own_in_any_stack(
        b, k, m, kind, scale, seed, draw):
    # sigma_max comes from eigvalsh of the smaller Gram, whose largest
    # eigenvalue is accurate to a few ulps times its size, so sigma_max is
    # too (observed: 1.2 eps * max(k, m) over 20000 random draws of this
    # domain); the bound is 4 eps * max(k, m).  Values above 1 are clipped
    # to 1, as M's largest singular value is at most 1 in exact arithmetic.
    rng = np.random.default_rng(seed)
    ms = rng.standard_normal((b, k, m))
    if kind == "rank-one":
        ms = rng.standard_normal((b, k, 1)) * rng.standard_normal((b, 1, m))
    elif kind == "zero":
        ms[:] = 0.0
    ms *= scale / np.sqrt(k * m)
    got = _top_singular_values(ms)
    want = np.minimum(np.linalg.svd(ms, compute_uv=False)[..., 0], 1.0)
    assert got.shape == (b,)
    assert np.all(np.abs(got - want) <= 4 * np.finfo(float).eps * max(k, m) * want)
    picks = draw.draw(st.lists(st.integers(0, b - 1), min_size=1, max_size=8))
    mixed = _top_singular_values(ms[picks])
    for i, j in enumerate(picks):
        assert _top_singular_values(ms[j:j + 1]).tobytes() == got[j:j + 1].tobytes()
        assert mixed[i] == got[j]


class TestHsicBlock:
    def test_constant_and_rank_zero_members_score_exactly_zero(self):
        rng = np.random.default_rng(4)
        lxs = [random_factor(rng, 10), np.ones((10, 1)), np.zeros((10, 0))]
        ly = random_centered(rng, 10)
        got = stack_hsic(lxs, ly)
        assert got.shape == (3,) and got[0] > 0.0 and got[1] == 0.0 and got[2] == 0.0
        assert got[0] == ks.hsic_score(ks.center(lxs[0]), ly)


class TestHsicScore:
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_factor_entry_rejected(self, value):
        rng = np.random.default_rng(0)
        bad = random_centered(rng, 8)
        bad[3, 0] = value
        for pair in ((bad, random_centered(rng, 8)), (random_centered(rng, 8), bad)):
            with pytest.raises(DataError):
                ks.hsic_score(*pair)

    def test_zero_operator(self):
        rng = np.random.default_rng(2)
        gx = random_centered(rng, 9)
        gzero = ks.center(np.ones((9, 1)))
        assert ks.hsic_score(gx, gzero) == 0.0

    def test_symmetry_exact(self):
        rng = np.random.default_rng(5)
        gx = random_centered(rng, 11)
        gy = random_centered(rng, 11)
        assert ks.hsic_score(gx, gy) == ks.hsic_score(gy, gx)

    @pytest.mark.parametrize("seed", range(5))
    def test_double_sum_oracle(self, seed):
        rng = np.random.default_rng(seed)
        x, y = rng.standard_normal(8), rng.standard_normal(8)
        bx, by = ks.bandwidth(x), ks.bandwidth(y)
        got = ks.hsic_score(ks.center(ks.gram(x, bx)), ks.center(ks.gram(y, by)))
        want = hsic_double_sum(center_dense(dense_gram(x, bx)), center_dense(dense_gram(y, by)))
        assert got == pytest.approx(want, abs=1e-10)

    def test_mismatched_n(self):
        rng = np.random.default_rng(1)
        with pytest.raises(ArgumentError):
            ks.hsic_score(random_centered(rng, 7), random_centered(rng, 8))

    def test_empty_inputs_rejected(self):
        with pytest.raises(ArgumentError):
            ks.hsic_score(np.zeros((0, 0)), np.zeros((0, 0)))

    def test_bad_response_factor_rejected(self):
        rng = np.random.default_rng(0)
        lx = random_centered(rng, 8)
        for ly in (random_centered(rng, 9), np.ones((8, 9)), np.ones((8, 2, 1)),
                   np.zeros((0, 0))):
            with pytest.raises(ArgumentError):
                ks.hsic_score(lx, ly)
        ly = random_centered(rng, 8)
        ly[0, 0] = np.nan
        with pytest.raises(DataError):
            ks.hsic_score(lx, ly)


def dcor(x, y):
    return ks.dcor_score(x, dy=ks.centered_distances(y))


class TestDcorScore:
    def test_perfect_dependence(self):
        x = np.array([0.3, -1.2, 2.0, 0.7, -0.4])
        assert dcor(x, x) == pytest.approx(1.0, abs=1e-10)

    def test_constant_side_is_zero(self):
        x = np.arange(5.0)
        assert dcor(x, np.full(5, 2.0)) == 0.0
        assert dcor(np.full(5, 2.0), x) == 0.0

    def test_brute_force_oracle_quadratic(self):
        x = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        y = x ** 2
        got = dcor(x, y)
        assert got == pytest.approx(dcor_brute(x, y), abs=1e-10)

    @pytest.mark.parametrize("seed", range(5))
    def test_brute_force_oracle_random(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(5, 15))
        x = rng.standard_normal((n, 2))
        y = rng.standard_normal(n)
        got = dcor(x, y)
        assert got == pytest.approx(dcor_brute(x, y), abs=1e-10)

    def test_symmetry(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal(10)
        y = rng.standard_normal(10)
        assert dcor(x, y) == pytest.approx(dcor(y, x), abs=1e-14)

    def test_needs_two_samples(self):
        with pytest.raises(ArgumentError):
            ks.centered_distances([1.0])

    def test_mismatched_lengths(self):
        with pytest.raises(ArgumentError):
            dcor([1.0, 2.0], [1.0, 2.0, 3.0])

    def test_rejects_mismatched_and_non_square_shapes(self):
        x = np.arange(5.0)
        a = ks.centered_distances(x)
        b = ks.centered_distances(np.arange(4.0))
        for samples, dy in ((x, b), (x[:4], a), (x, a[:, :4]), (x[:4], a[:4]), (x, a[0]),
                            (np.ones((4, 2)), a)):
            with pytest.raises(ArgumentError):
                ks.dcor_score(samples, dy=dy)

    def test_empty_inputs_rejected(self):
        with pytest.raises(ArgumentError):
            ks.dcor_score(np.zeros(0), dy=np.zeros((0, 0)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_a_non_finite_plain_response_is_a_data_error(self, bad):
        # A plain dy is prepared on every call; a NaN in it gave a NaN score.
        x = np.arange(5.0)
        dy = ks.centered_distances(x ** 2)
        dy[1, 3] = dy[3, 1] = bad
        with pytest.raises(DataError, match="^dy must be finite"):
            ks.dcor_score(x, dy=dy)

    @pytest.mark.parametrize("bivariate", [False, True])
    def test_power_of_two_scaling_is_bitwise_invisible(self, bivariate):
        # 2^-531 ~ 1.4e-160 and 2^498 ~ 8.2e149: the squares of such
        # distances are subnormal or near overflow unless the scorer
        # rescales the centered samples first.
        rng = np.random.default_rng(11)
        x = rng.standard_normal((40, 2)) if bivariate else rng.standard_normal(40)
        y = np.abs(x).sum(axis=-1) if bivariate else x ** 2
        base = ks.dcor_score(x, dy=ks.centered_distances(y))
        for scale in (2.0 ** -531, 2.0 ** 498):
            assert ks.dcor_score(x * scale, dy=ks.centered_distances(y)) == base
            assert ks.dcor_score(x, dy=ks.centered_distances(y * scale)) == base

    @pytest.mark.parametrize("scale", [1e-160, 1e150, 1e160, 1e-300, 1e300])
    def test_decimal_scaling_moves_only_the_rounding_of_the_samples(self, scale):
        # x * scale is rounded once per entry, so the score may move by a
        # few ulps, not through subnormal squares (by -4.4e-5 for x and
        # 1.7e-4 for y at 1e-160 before the rescaling) or an overflow
        # (OverflowError for x at 1e300, NaN for y at 1e160).
        rng = np.random.default_rng(3)
        x = rng.standard_normal(50)
        y = x ** 2 + rng.standard_normal(50)
        base = ks.dcor_score(x, dy=ks.centered_distances(y))
        for xs, ys in ((x * scale, y), (x, y * scale), (x * scale, y * scale)):
            assert ks.dcor_score(xs, dy=ks.centered_distances(ys)) == pytest.approx(
                base, abs=2e-15)

    def test_prepared_response_scores_like_the_matrix(self):
        rng = np.random.default_rng(8)
        y = rng.standard_normal((12, 2))
        dy = ks.centered_distances(y)
        side = _DistanceResponse(dy)
        for x in (rng.standard_normal(12), rng.standard_normal((12, 2)), np.full(12, 0.1)):
            assert ks.dcor_score(x, dy=side) == ks.dcor_score(x, dy=dy)
        with pytest.raises(ArgumentError):
            ks.dcor_score(np.ones(11), dy=side)

    @staticmethod
    def dense_max_pass(x, side):
        # _scalar_dcov's dCov^2 with the cross term as one max pass over
        # the whole n x n dy, the form the row blocks replace.
        n = x.shape[0]
        c = x - x.mean()
        s = np.sort(c)
        c = np.ldexp(c, -math.frexp(max(-s[0], s[-1]))[1])
        cross = float(np.vdot(np.maximum(c[:, None], c), side.dy))
        return (2.0 * cross - 2.0 * float(np.dot(c, side.rows))) / float(n * n)

    @pytest.mark.parametrize("n", [4, 40, 64])
    def test_one_row_block_is_bitwise_the_dense_max_pass(self, n):
        rng = np.random.default_rng(n)
        y = rng.standard_normal((n, 2))
        side = _DistanceResponse(ks.centered_distances(y))
        assert len(side.blocks) == 1 and side.blocks[0][2] is side.dy
        for x in (rng.standard_normal(n), np.round(rng.standard_normal(n)), y[:, 0] ** 2):
            assert _scalar_dcov(x, side)[0] == self.dense_max_pass(x, side)

    @pytest.mark.parametrize("n", [65, 130, 200])
    def test_row_blocks_cover_the_upper_triangle_and_match_the_dense_max_pass(self, n):
        rng = np.random.default_rng(n)
        y = rng.standard_normal((n, 1))
        side = _DistanceResponse(ks.centered_distances(y))
        k = math.ceil(n / measures._ROW_BLOCK)
        assert [(a, b) for a, b, _, _ in side.blocks] == [
            (i * n // k, (i + 1) * n // k) for i in range(k)]
        for a, b, block, _ in side.blocks:
            assert block.flags.c_contiguous and b - a <= measures._ROW_BLOCK
            assert block[:, :b - a].tobytes() == side.dy[a:b, a:b].tobytes()
            assert block[:, b - a:].tobytes() == (2.0 * side.dy[a:b, b:]).tobytes()
        for x in (rng.standard_normal(n), np.round(rng.standard_normal(n)), y[:, 0] ** 2):
            got, want = _scalar_dcov(x, side)[0], self.dense_max_pass(x, side)
            assert got == pytest.approx(want, rel=1e-12)

    def test_prepared_response_holds_no_n_by_n_scratch(self):
        # Only dy itself is n x n: the upper-triangle blocks hold about
        # n^2 / 2 + 32 n entries and the scratch buffer one block.
        n = 300
        side = _DistanceResponse(ks.centered_distances(np.arange(float(n))))
        assert side.buf.size == max(block.size for _, _, block, _ in side.blocks)
        assert side.buf.size <= measures._ROW_BLOCK * n
        assert sum(block.size for _, _, block, _ in side.blocks) <= n * n // 2 + 32 * n
        for _, _, block, top in side.blocks:
            assert top.shape == block.shape and np.shares_memory(top, side.buf)
            assert not np.shares_memory(block, side.dy)

    def test_response_side_is_keyword_only(self):
        # An n x n first argument would read as n vector samples, so a
        # positional call in the two-matrix form must not run.
        a = ks.centered_distances(np.arange(5.0))
        with pytest.raises(TypeError):
            ks.dcor_score(a, a)

    def test_vector_samples_hold_one_distance_matrix(self):
        # The distances are square-rooted in place: about n^2 doubles at
        # n = 1000, d = 2, against 2 n^2 while the roots were a second array.
        n = 1000
        rng = np.random.default_rng(4)
        pts = rng.standard_normal((n, 2))
        side = _DistanceResponse(ks.centered_distances(rng.standard_normal(n)))
        ks.dcor_score(pts, dy=side)  # any first-call allocations
        tracemalloc.start()
        try:
            ks.dcor_score(pts, dy=side)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 8 * n * n

    def test_vector_samples_beyond_physical_memory_are_rejected_before_allocating(
            self, monkeypatch):
        # One n x n distance matrix: 1280000 bytes at n = 400, 320000 at 200.
        rng = np.random.default_rng(5)
        sides = {n: _DistanceResponse(ks.centered_distances(rng.standard_normal(n)))
                 for n in (200, 400)}
        monkeypatch.setattr(kernels, "_physical_memory", lambda: 10**6)
        assert 0.0 <= ks.dcor_score(rng.standard_normal((200, 2)), dy=sides[200]) <= 1.0

        def no_distances(pts):
            raise AssertionError("allocated before the memory check")

        monkeypatch.setattr(measures, "_pairwise_sq_dists", no_distances)
        with pytest.raises(ArgumentError, match=r"n = 400 samples need about 1280000 bytes"):
            ks.dcor_score(rng.standard_normal((400, 2)), dy=sides[400])


class TestPearsonScore:
    def test_affine_dependence(self):
        x = np.array([0.5, 1.5, -2.0, 3.0])
        assert ks.pearson_score(x, 2 * x + 3) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_case(self):
        x = np.array([1.0, -1.0, 1.0, -1.0])
        y = np.array([1.0, 1.0, -1.0, -1.0])
        assert ks.pearson_score(x, y) == 0.0

    def test_hand_computed_value(self):
        got = ks.pearson_score([1.0, 2.0, 3.0], [1.0, 2.0, 2.0])
        assert got == pytest.approx(np.sqrt(3.0) / 2.0, abs=1e-6)

    def test_constant_side_is_zero(self):
        assert ks.pearson_score([1.0, 1.0, 1.0], [1.0, 2.0, 3.0]) == 0.0

    def test_symmetry(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal(9)
        y = rng.standard_normal(9)
        assert ks.pearson_score(x, y) == pytest.approx(
            ks.pearson_score(y, x), abs=1e-14
        )

    def test_multivariate_rejected(self):
        x = np.arange(4.0)
        y = np.arange(8.0).reshape(4, 2)
        with pytest.raises(UnsupportedMethodError):
            ks.pearson_score(x, y)

    def test_mismatched_lengths(self):
        with pytest.raises(ArgumentError):
            ks.pearson_score([1.0, 2.0], [1.0, 2.0, 3.0])

    def test_needs_two_samples(self):
        with pytest.raises(ArgumentError):
            ks.pearson_score([1.0], [2.0])

