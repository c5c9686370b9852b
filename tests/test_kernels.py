"""Kernel substrate: evaluation, bandwidth rule, low-rank Gram factors,
centering, and the truncated spectral decomposition, checked against the
dense n x n oracles."""

import sys
import tracemalloc

import numpy as np
import pytest

import kscreen as ks
from kscreen import kernels
from kscreen.errors import ArgumentError, DataError, DegenerateDataError, NumericError
from kscreen.kernels import RESIDUAL_TRACE_TOL, gram_block
from tests.helpers import center_dense, dense_gram


class TestGaussianKernel:
    def test_identity_is_exactly_one(self):
        bw = ks.Bandwidth(0.7)
        assert ks.gaussian_kernel(3.7, 3.7, bw) == 1.0

    def test_scalar_formula(self):
        assert ks.gaussian_kernel(0.0, 1.0, ks.Bandwidth(0.5)) == pytest.approx(
            np.exp(-0.5), abs=1e-12
        )

    def test_vector_formula(self):
        value = ks.gaussian_kernel([1.0, 0.0], [0.0, 1.0], ks.Bandwidth(1.0))
        assert value == pytest.approx(np.exp(-2.0), abs=1e-12)

    def test_symmetric_in_arguments(self):
        bw = ks.Bandwidth(0.3)
        assert ks.gaussian_kernel(0.2, 1.9, bw) == ks.gaussian_kernel(1.9, 0.2, bw)

    def test_dimension_mismatch(self):
        with pytest.raises(ArgumentError):
            ks.gaussian_kernel([1.0, 2.0], [1.0], ks.Bandwidth(1.0))

    @pytest.mark.parametrize("seed", range(5))
    def test_identity_exact_on_random_vectors(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(4)
        assert ks.gaussian_kernel(x, x, ks.Bandwidth(rng.uniform(0.1, 5))) == 1.0

    def test_bad_gamma_rejected(self):
        for gamma in (0.0, -1.0, np.nan, np.inf):
            with pytest.raises(ArgumentError):
                ks.Bandwidth(gamma)


class TestBandwidth:
    def test_two_points(self):
        # 1/sqrt(gamma) = (2 sqrt(2) / 2) * 1 = sqrt(2), so gamma = 1/2
        assert ks.bandwidth([0.0, 1.0]).gamma == pytest.approx(0.5, rel=1e-12)

    def test_three_points(self):
        # distances 1 + 2 + 1 = 4; 1/sqrt(gamma) = 2 sqrt(2) * 4 / 6, gamma = 9/32
        assert ks.bandwidth([0.0, 1.0, 2.0]).gamma == pytest.approx(9.0 / 32.0, rel=1e-12)

    def test_constant_samples_degenerate(self):
        with pytest.raises(DegenerateDataError):
            ks.bandwidth([5.0, 5.0, 5.0])

    def test_needs_two_samples(self):
        with pytest.raises(ArgumentError):
            ks.bandwidth([1.0])

    @pytest.mark.parametrize("seed", range(4))
    def test_translation_invariance(self, seed):
        rng = np.random.default_rng(seed)
        pts = rng.standard_normal((15, 2))
        g0 = ks.bandwidth(pts).gamma
        g1 = ks.bandwidth(pts + np.array([2.75, -1.5])).gamma
        assert g1 == pytest.approx(g0, rel=1e-12)

    def test_vector_samples(self):
        # two 2-vectors at distance sqrt(2): 1/sqrt(gamma) = sqrt(2)*sqrt(2) = 2
        got = ks.bandwidth([[0.0, 0.0], [1.0, 1.0]]).gamma
        assert got == pytest.approx(0.25, rel=1e-12)

    @pytest.mark.parametrize("seed", range(6))
    def test_sorted_scalar_sum_matches_pairwise_sum(self, seed):
        # A zero second coordinate sends the same distances through the
        # pairwise sum of the vector path.  Ties, an offset far above the
        # spread and one outlier below a cluster are the hard cases for the
        # sorted form.
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 400))
        cases = (
            rng.standard_normal(n),
            np.round(rng.standard_normal(n), 1),
            1e6 + rng.standard_normal(n),
            np.concatenate([[-50.0], 1.0 + 1e-3 * rng.standard_normal(n)]),
        )
        for x in cases:
            pairwise = ks.bandwidth(np.column_stack([x, np.zeros_like(x)])).gamma
            assert ks.bandwidth(x).gamma == pytest.approx(pairwise, rel=1e-14)

    def test_vector_rows_hold_about_half_an_n_by_n_matrix(self):
        # The upper triangle's distances go into one flat buffer of
        # n (n - 1) / 2 doubles, 64 rows at a time: 0.77 n^2 doubles at
        # n = 1000, d = 2 on a 2-core host, against 3.0 n^2 when the
        # squared distance matrix and its triu_indices gather were held.
        n = 1000
        pts = np.random.default_rng(0).standard_normal((n, 2))
        ks.bandwidth(pts[:10])  # any first-call allocations
        tracemalloc.start()
        try:
            ks.bandwidth(pts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * n * n

    def test_vector_rows_beyond_physical_memory_are_rejected_before_allocating(
            self, monkeypatch):
        # n (n - 1) / 2 doubles: 638400 bytes at n = 400, 159200 at n = 200.
        monkeypatch.setattr(kernels, "_physical_memory", lambda: 300000)
        pts = np.random.default_rng(2).standard_normal((400, 2))
        assert ks.bandwidth(pts[:200]).gamma > 0.0

        def no_distances(pts, a, out):
            raise AssertionError("allocated before the memory check")

        monkeypatch.setattr(kernels, "_sq_dist_rows", no_distances)
        with pytest.raises(ArgumentError, match=r"n = 400 samples need about 638400 bytes"):
            ks.bandwidth(pts)
        x = ks.DataMatrix(np.random.default_rng(1).standard_normal((400, 3)))
        with pytest.raises(ArgumentError, match="n = 400"):
            ks.screen(x, ks.DataMatrix(pts), method="hsic")


    def test_column_sums_hold_a_wide_table_a_block_at_a_time(self):
        # Each block of rows is sorted, differenced and weighted with at
        # most _BUILD_BYTES per array, two at a time, plus the p sums: 6.5
        # MB here on a 2-core host, against 15.8 MB for all rows at once.
        n, p = 50, 20000
        rows = np.random.default_rng(4).standard_normal((n, p)).T
        kernels._scalar_distance_sums(rows[:2])  # any first-call allocations
        tracemalloc.start()
        try:
            sums = kernels._scalar_distance_sums(rows)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(sums) == p
        assert peak < 4 * kernels._BUILD_BYTES


class TestBuildWidth:
    @pytest.mark.parametrize("n, width", [(200, 40), (500, 16), (1000, 8), (2000, 4)])
    def test_width_at_the_default_budget(self, n, width):
        assert kernels._build_width(n) == width

    @pytest.mark.parametrize("n", [1, 2, 31, 32, 33, 200, 1000, 2000, 8191, 8192, 10**5])
    def test_initial_buffer_is_the_widest_within_the_budget(self, n):
        # gram_block starts from a (width, min(n, 32), n) L^T buffer; a
        # single feature is built whatever its buffer takes.
        width, one = kernels._build_width(n), 8 * min(n, 32) * n
        assert width >= 1 and (width == 1 or width * one <= kernels._BUILD_BYTES)
        assert (width + 1) * one > kernels._BUILD_BYTES

    def test_initial_buffer_is_the_one_gram_block_allocates(self):
        # Rank below 32: the buffer is never doubled, so the build's peak
        # is that buffer, its gathers and (b, n) arrays.
        n = 200
        width = kernels._build_width(n)
        pts = np.random.default_rng(3).standard_normal((width, n))
        gammas = [ks.bandwidth(row).gamma for row in pts]
        gram_block(pts, gammas)  # any first-call allocations
        tracemalloc.start()
        try:
            stacks = gram_block(pts, gammas)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert max(stack.shape[2] for _, stack in stacks) < 32
        assert width * 8 * 32 * n < peak < 2 * kernels._BUILD_BYTES


class TestGram:
    def test_single_sample(self):
        k = ks.gram([4.2], ks.Bandwidth(1.0))
        assert k.shape == (1, 1) and k[0, 0] == 1.0

    def test_two_samples(self):
        lf = ks.gram([0.0, 1.0], ks.Bandwidth(0.5))
        expected = np.array([[1.0, np.exp(-0.5)], [np.exp(-0.5), 1.0]])
        np.testing.assert_allclose(lf @ lf.T, expected, atol=1e-15)

    @pytest.mark.parametrize("seed", range(5))
    def test_psd_eigenvalue_oracle(self, seed):
        # The residual K - L L^T of the dense oracle Gram is PSD with trace
        # at most RESIDUAL_TRACE_TOL, up to rounding.
        rng = np.random.default_rng(seed)
        pts = rng.standard_normal(10 + 40 * seed)
        bw = ks.bandwidth(pts)
        lf = ks.gram(pts, bw)
        resid = dense_gram(pts, bw) - lf @ lf.T
        evals = np.linalg.eigvalsh(resid)
        assert evals.min() >= -1e-13
        assert np.trace(resid) <= RESIDUAL_TRACE_TOL + 1e-13

    def test_permutation_exchange_symmetry(self):
        rng = np.random.default_rng(3)
        pts = rng.standard_normal(8)
        bw = ks.bandwidth(pts)
        perm = rng.permutation(8)
        lf = ks.gram(pts, bw)
        lp = ks.gram(pts[perm], bw)
        np.testing.assert_allclose(lp @ lp.T, (lf @ lf.T)[np.ix_(perm, perm)], atol=1e-14)

    def test_early_stop_well_below_full_rank(self):
        rng = np.random.default_rng(4)
        pts = rng.standard_normal(500)
        bw = ks.bandwidth(pts)
        lf = ks.gram(pts, bw)
        assert lf.shape[0] == 500 and 1 <= lf.shape[1] <= 40
        resid = dense_gram(pts, bw) - lf @ lf.T
        assert np.trace(resid) <= RESIDUAL_TRACE_TOL + 1e-13
        # One fewer column would not have met the stopping rule.
        short = lf[:, :-1]
        assert np.trace(dense_gram(pts, bw) - short @ short.T) > RESIDUAL_TRACE_TOL

    def test_full_rank_when_the_kernel_is_nearly_diagonal(self):
        # Far-apart points: off-diagonal entries exp(-50 k^2) <= 2e-22, so no
        # column can be skipped and the factor is a full Cholesky factor.
        pts = np.arange(40.0)
        bw = ks.Bandwidth(50.0)
        lf = ks.gram(pts, bw)
        assert lf.shape == (40, 40)
        np.testing.assert_allclose(lf @ lf.T, dense_gram(pts, bw), rtol=0, atol=1e-15)

    def test_vector_samples_match_dense_gram(self):
        rng = np.random.default_rng(8)
        pts = rng.standard_normal((60, 3))
        bw = ks.bandwidth(pts)
        lf = ks.gram(pts, bw)
        np.testing.assert_allclose(lf @ lf.T, dense_gram(pts, bw), rtol=0, atol=1e-13)

    def test_constant_column_has_a_rank_zero_centered_factor(self):
        lf = ks.gram(np.full(7, 2.5), ks.Bandwidth(1.0))
        np.testing.assert_array_equal(lf, np.ones((7, 1)))
        assert np.all(ks.center(lf) == 0.0)
        assert ks.center_and_decompose(lf).rank == 0

    def test_duplicate_samples_stop_at_the_distinct_count(self):
        pts = np.repeat([0.0, 1.0, 3.0], 4)
        lf = ks.gram(pts, ks.Bandwidth(20.0))
        assert lf.shape == (12, 3)


class TestCenterAndDecompose:
    def test_all_ones_kernel_annihilated(self):
        assert np.all(ks.center(np.ones((6, 1))) == 0.0)
        cg = ks.center_and_decompose(np.ones((6, 1)))
        assert cg.rank == 0
        assert cg.u.shape == (6, 0) and cg.d.shape == (0,)

    @pytest.mark.parametrize("seed", range(4))
    def test_row_sums_zero(self, seed):
        rng = np.random.default_rng(seed)
        pts = rng.standard_normal(12)
        lc = ks.center(ks.gram(pts, ks.bandwidth(pts)))
        assert np.max(np.abs((lc @ lc.T).sum(axis=1))) <= 1e-8

    def test_reconstruction(self):
        rng = np.random.default_rng(11)
        pts = rng.standard_normal(20)
        bw = ks.bandwidth(pts)
        cg = ks.center_and_decompose(ks.gram(pts, bw))
        g = center_dense(dense_gram(pts, bw))
        recon = cg.u @ np.diag(cg.d) @ cg.u.T
        err = np.linalg.norm(recon - g, "fro")
        assert err <= 1e-6 * max(1.0, np.linalg.norm(g, "fro"))

    def test_symmetry_and_descending_spectrum(self):
        rng = np.random.default_rng(2)
        pts = rng.standard_normal(9)
        cg = ks.center_and_decompose(ks.gram(pts, ks.bandwidth(pts)))
        assert np.all(np.diff(cg.d) <= 0)
        assert cg.d.min() >= cg.tol > 0.0

    def test_centering_idempotent(self):
        rng = np.random.default_rng(5)
        pts = rng.standard_normal(10)
        lc = ks.center(ks.gram(pts, ks.bandwidth(pts)))
        # centering an already-centered factor changes nothing
        assert np.linalg.norm(ks.center(lc) - lc, "fro") <= 1e-14

    def test_pseudo_inverse_contract(self):
        # Pseudo-inverse powers downstream invert exactly the retained
        # eigenvalues: each is at least tol > 0, and every eigenvalue of the
        # dense centered Gram that was dropped lies below tol, up to the
        # factor's residual trace.
        rng = np.random.default_rng(6)
        pts = rng.standard_normal(15)
        bw = ks.bandwidth(pts)
        cg = ks.center_and_decompose(ks.gram(pts, bw))
        evals = np.linalg.eigvalsh(center_dense(dense_gram(pts, bw)))[::-1]
        assert cg.tol > 0.0 and np.all(cg.d >= cg.tol)
        assert np.all(evals[cg.rank:] < cg.tol + RESIDUAL_TRACE_TOL)
        np.testing.assert_allclose(cg.d, evals[: cg.rank], rtol=0, atol=1e-13)

    def test_truncation_threshold(self):
        # a rank-1 PSD matrix plus the constant direction: centering leaves
        # exactly one nonzero eigenvalue
        v = np.array([1.0, -1.0, 0.5, -0.5])
        cg = ks.center_and_decompose(np.column_stack([v, np.ones(4)]))
        assert cg.rank == 1
        assert cg.d[0] == pytest.approx(np.dot(v, v), rel=1e-15)
        assert cg.tol > 0.0

    def test_non_square_rejected(self):
        # a factor never has more columns than rows; a wide one is most
        # often a transposed factor
        with pytest.raises(ArgumentError):
            ks.center_and_decompose(np.ones((2, 3)))
        for bad in (np.ones(3), np.ones((0, 0)), np.ones((2, 2, 2))):
            with pytest.raises(ArgumentError):
                ks.center(bad)

    def test_nan_rejected(self):
        bad = np.eye(3)
        bad[0, 0] = np.nan
        with pytest.raises(DataError):
            ks.center_and_decompose(bad)


class TestCenteredDistances:
    @pytest.mark.parametrize("d", [1, 3])
    def test_matches_explicit_q_d_q(self, d):
        rng = np.random.default_rng(d)
        pts = rng.standard_normal((9, d))
        dist = np.array([[np.linalg.norm(a - b) for b in pts] for a in pts])
        q = np.eye(9) - np.full((9, 9), 1.0 / 9)
        np.testing.assert_allclose(ks.centered_distances(pts), q @ dist @ q, atol=1e-12)

    def test_samples_must_be_finite(self):
        with pytest.raises(DataError):
            ks.centered_distances([0.0, 1.0, np.inf])

    @pytest.mark.parametrize("d", [1, 2])
    def test_scales_exactly_where_squared_distances_leave_the_float_range(self, d):
        # 2^530 and 2^-531: the squared distances would overflow to inf or
        # go subnormal, and before the rescaling the matrix held NaN at 1e160.
        pts = np.random.default_rng(d).standard_normal((9, d))
        base = ks.centered_distances(pts)
        for k in (530, -531):
            got = ks.centered_distances(np.ldexp(pts, k))
            assert got.tobytes() == np.ldexp(base, k).tobytes()

    def test_holds_no_n_by_n_by_d_difference_tensor(self):
        # The differences are formed a block of rows at a time and the
        # matrix is rooted and centered in place: 1.40 n^2 doubles at
        # n = 1000, d = 3 on a 2-core host, against 4.00 n^2 when the
        # whole (n, n, d) tensor was formed.
        n = 1000
        pts = np.random.default_rng(0).standard_normal((n, 3))
        ks.centered_distances(pts[:10])  # any first-call allocations
        tracemalloc.start()
        try:
            ks.centered_distances(pts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 8 * n * n

    def test_rejects_n_beyond_physical_memory_before_allocating(self, monkeypatch):
        # 2.5 n^2 doubles: 3.2e6 bytes at n = 400, 8.0e5 at n = 200.
        monkeypatch.setattr(kernels, "_physical_memory", lambda: 10**6)
        assert ks.centered_distances(np.arange(200.0)).shape == (200, 200)

        def no_distances(pts):
            raise AssertionError("allocated before the memory check")

        monkeypatch.setattr(kernels, "_pairwise_sq_dists", no_distances)
        with pytest.raises(ArgumentError, match=r"n = 400 samples need about 3200000 bytes"):
            ks.centered_distances(np.arange(400.0))
        x = ks.DataMatrix(np.random.default_rng(1).standard_normal((400, 2)))
        with pytest.raises(ArgumentError, match="n = 400"):
            ks.screen(x, ks.DataMatrix(np.arange(400.0)[:, None]), method="dc")

    @pytest.mark.parametrize("sysconf", [-1, ValueError, OSError])
    def test_unreported_physical_memory_skips_the_check(self, monkeypatch, sysconf):
        def unreported(name):
            if isinstance(sysconf, int):
                return sysconf
            raise sysconf(name)

        monkeypatch.setattr(kernels.os, "sysconf", unreported)
        assert kernels._physical_memory() is None
        assert ks.centered_distances(np.arange(5.0)).shape == (5, 5)

    def test_physical_memory_is_the_page_count_times_the_page_size(self, monkeypatch):
        sizes = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 1000}
        monkeypatch.setattr(kernels.os, "sysconf", sizes.__getitem__)
        assert kernels._physical_memory() == 4096000


class TestValidationEdges:
    def test_samples_wrong_ndim(self):
        with pytest.raises(ArgumentError):
            ks.bandwidth(np.ones((2, 2, 2)))

    def test_samples_must_be_finite(self):
        with pytest.raises(DataError):
            ks.bandwidth([0.0, np.nan])

    def test_kernel_arguments_must_be_finite(self):
        with pytest.raises(DataError):
            ks.gaussian_kernel(np.inf, 1.0, ks.Bandwidth(1.0))

    @pytest.mark.parametrize("value", [
        "abc", object(), [[1.0, "a"]], [[1.0], [1.0, 2.0]], [1j, 2j], [10**400, 1]])
    @pytest.mark.parametrize("name, call", [
        ("DataMatrix values", ks.DataMatrix),
        ("samples", ks.bandwidth),
        ("factor", ks.center),
        ("samples", lambda v: gram_block(v, [1.0])),
        ("y", lambda v: ks.gaussian_kernel(0.0, v, ks.Bandwidth(1.0))),
    ])
    def test_an_array_that_is_not_real_numbers_is_an_argument_error_naming_it(
            self, name, call, value):
        # Text, objects, ragged lists, complex numbers and ints beyond the
        # float range; numpy alone raises ValueError, TypeError or
        # OverflowError for them, or drops an imaginary part.
        with pytest.raises(ArgumentError, match=f"^{name} must be an array of real numbers"):
            call(value)

    def test_unusable_gamma_from_underflowing_distances(self):
        # vector rows: the squared distances underflow the sum entirely
        with pytest.raises(DegenerateDataError):
            ks.bandwidth([[0.0, 0.0], [1e-300, 0.0]])
        # scalars: the distances survive but gamma overflows
        for tiny in (1e-300, 1e-160):
            with pytest.raises(DegenerateDataError):
                ks.bandwidth([0.0, tiny])
        # or the mean distance itself underflows to 0
        with pytest.raises(DegenerateDataError, match="unusable gamma inf"):
            ks.bandwidth([0.0] * 99 + [5e-324])

    def test_subnormal_gamma_rejected(self):
        # gamma = 1 / (2 d^2) for two samples d apart falls below the
        # smallest normal float just above d = 4.74e153; at 1e160 it is
        # subnormal.
        with pytest.raises(DegenerateDataError, match="unusable gamma 5e-321"):
            ks.bandwidth([0.0, 1e160])
        with pytest.raises(DegenerateDataError, match="unusable gamma"):
            ks.bandwidth([0.0, 4.75e153])
        assert ks.bandwidth([0.0, 4.74e153]).gamma >= sys.float_info.min

    def test_gram_needs_a_sample(self):
        with pytest.raises(ArgumentError):
            ks.gram([], ks.Bandwidth(1.0))

    def test_gram_block_checks_its_arguments(self):
        with pytest.raises(ArgumentError):
            gram_block(np.zeros((2, 5)), [1.0])  # one gamma for two variables
        with pytest.raises(ArgumentError):
            gram_block(np.zeros((2, 5, 1, 1)), [1.0, 1.0])
        with pytest.raises(ArgumentError):
            gram_block(np.zeros((1, 0)), [1.0])
        with pytest.raises(DataError):
            gram_block(np.array([[0.0, np.nan]]), [1.0])

    def test_lapack_failure_maps_to_numeric_error(self, monkeypatch):
        def boom(*args, **kwargs):
            raise np.linalg.LinAlgError("did not converge")

        monkeypatch.setattr(np.linalg, "svd", boom)
        with pytest.raises(NumericError):
            ks.center_and_decompose(np.eye(3))

    @pytest.mark.parametrize("call", [
        lambda v: ks.kcca_singular_value(np.eye(6, 2), np.eye(6, 3), v),
        lambda v: ks.gcv_value(v, np.eye(6, 3), [np.eye(6, 2)]),
        lambda v: ks.auto_threshold(v, 100, 50),
        lambda v: ks.screen(ks.DataMatrix(np.eye(6)), ks.DataMatrix(np.arange(6.0)[:, None]),
                            epsilon=v),
        lambda v: ks.SimulationSpec(suite="sim2", model_id=1, n=10, p=5, reps=1, seed=0,
                                    ar_rho=v),
        lambda v: ks.simulation.ar_gaussian(10, 5, v, 0),
    ], ids=["kcca", "gcv", "auto_threshold", "screen", "spec_rho", "ar_gaussian_rho"])
    def test_a_non_real_epsilon_or_rho_is_an_argument_error(self, call):
        # A bool is not a real, nor is an array of one, and an integer past
        # the float range is no epsilon.
        call(np.float64(0.5))  # numpy reals stay accepted
        for bad in (None, "0.5", True, False, np.bool_(True), 1j, np.array([0.5]), 10 ** 400):
            with pytest.raises(ArgumentError):
                call(bad)


class TestDataMatrix:
    def test_shape_properties(self):
        dm = ks.DataMatrix(np.arange(6.0).reshape(3, 2), columns=("a", "b"))
        assert dm.n == 3 and dm.p == 2
        np.testing.assert_array_equal(dm.column(1), [1.0, 3.0, 5.0])

    def test_rejects_nan(self):
        with pytest.raises(DataError):
            ks.DataMatrix(np.array([[1.0, np.nan]]))

    def test_rejects_wrong_ndim(self):
        with pytest.raises(ArgumentError):
            ks.DataMatrix(np.arange(3.0))

    def test_immutable(self):
        dm = ks.DataMatrix(np.ones((2, 2)))
        with pytest.raises(ValueError):
            dm.values[0, 0] = 5.0

    def test_column_name_count_checked(self):
        with pytest.raises(ArgumentError):
            ks.DataMatrix(np.ones((2, 2)), columns=("only_one",))
