"""GCV criterion and ridge grid search on kernel factors, checked against a
from-scratch dense assembly with explicit matrix inverses."""

import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kscreen as ks
from kscreen import tuning
from kscreen.errors import (
    ArgumentError, DataError, DegenerateDataError, NumericError, NumericGuardWarning, TuningError,
)
from kscreen.kernels import _rank_stacks
from tests.helpers import dense_gram, gcv_dense_oracle


def toy_columns(seed, n, p):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, p))
    y = np.sin(x[:, 0]) + rng.standard_normal(n)
    return [y] + [x[:, r] for r in range(p)]


def toy_kernels(seed=42, n=6, p=2):
    """Factors of the response and predictor Grams."""
    factors = [ks.gram(c, ks.bandwidth(c)) for c in toy_columns(seed, n, p)]
    return factors[0], factors[1:]


def dense_kernels(columns):
    grams = [dense_gram(c, ks.bandwidth(c)) for c in columns]
    return grams[0], grams[1:]


class TestGcvValue:
    def test_default_grid_is_nine_decades(self):
        assert len(ks.GCV_GRID) == 9
        assert ks.GCV_GRID[0] == 1e-5 and ks.GCV_GRID[-1] == 1e3
        ratios = [b / a for a, b in zip(ks.GCV_GRID, ks.GCV_GRID[1:])]
        assert all(r == pytest.approx(10.0) for r in ratios)

    def test_dense_oracle_across_grid(self):
        ly, lxs = toy_kernels()
        ky, kxs = dense_kernels(toy_columns(42, 6, 2))
        for eps in ks.GCV_GRID:
            got = ks.gcv_value(eps, ly, lxs)
            want = gcv_dense_oracle(eps, ky, kxs)
            assert got == pytest.approx(want, rel=1e-8)

    def test_early_stopped_factors_match_dense_oracle(self):
        # Every factor stops well below rank n, so the null space of
        # 1 1^T + K^2 carries part of the numerator.
        ly, lxs = toy_kernels(42, 80, 3)
        assert max(lf.shape[1] for lf in [ly] + lxs) < 40
        ky, kxs = dense_kernels(toy_columns(42, 80, 3))
        for eps in ks.GCV_GRID:
            got = ks.gcv_value(eps, ly, lxs)
            assert got == pytest.approx(gcv_dense_oracle(eps, ky, kxs), rel=1e-8)

    def test_full_rank_factors_match_dense_oracle(self):
        # Far-apart samples and a narrow kernel leave nothing to truncate.
        bw = ks.Bandwidth(50.0)
        columns = [np.arange(30.0), np.arange(30.0)[::-1] * 1.5, np.sqrt(np.arange(30.0)) * 9]
        factors = [ks.gram(c, bw) for c in columns]
        assert all(lf.shape == (30, 30) for lf in factors)
        grams = [dense_gram(c, bw) for c in columns]
        for eps in ks.GCV_GRID:
            got = ks.gcv_value(eps, factors[0], factors[1:])
            assert got == pytest.approx(gcv_dense_oracle(eps, grams[0], grams[1:]), rel=1e-8)

    def test_constant_predictor_matches_dense_oracle(self):
        # A constant column's factor is a single column of ones, whose
        # centered factor has rank 0.
        columns = toy_columns(3, 12, 1)
        columns.append(np.full(12, 0.7))
        ly, lxs = toy_kernels(3, 12, 1)
        lxs.append(ks.gram(columns[-1], ks.Bandwidth(1.0)))
        ky, kxs = dense_kernels(columns[:-1])
        kxs.append(dense_gram(columns[-1], ks.Bandwidth(1.0)))
        for eps in ks.GCV_GRID:
            got = ks.gcv_value(eps, ly, lxs)
            assert got == pytest.approx(gcv_dense_oracle(eps, ky, kxs), rel=1e-8)

    @pytest.mark.parametrize("seed", range(3))
    def test_singular_factor_grams_match_dense_oracle(self, seed):
        # Caller-supplied factors whose r x r Gram L^T L is singular: a
        # repeated column, an appended zero column, repeated constant
        # columns.  Their Gram eigenvalues round to 0 or just below it.
        ly, (lx,) = toy_kernels(seed, 12, 1)
        lx, ly = lx[:, :6], ly[:, :6]
        const = np.full(12, 0.7)
        lxs = [
            np.column_stack([lx, lx[:, :1]]),
            np.column_stack([lx, lx]),
            np.column_stack([lx, np.zeros(12)]),
            np.column_stack([lx, const, const]),
            np.column_stack([const, const, const]),
        ]
        assert any(np.linalg.eigvalsh(f.T @ f).min() < 0.0 for f in lxs)
        for fy in (ly, np.column_stack([ly, ly[:, -1:]])):
            for eps in ks.GCV_GRID:
                got = ks.gcv_value(eps, fy, lxs)
                assert np.isfinite(got)
                want = gcv_dense_oracle(eps, fy @ fy.T, [f @ f.T for f in lxs])
                assert got == pytest.approx(want, rel=1e-8)

    def test_lapack_failure_maps_to_numeric_error(self, monkeypatch):
        def boom(*args, **kwargs):
            raise np.linalg.LinAlgError("did not converge")

        ly, lxs = toy_kernels()
        monkeypatch.setattr(np.linalg, "eigh", boom)
        with pytest.raises(NumericError):
            ks.gcv_value(0.1, ly, lxs)
        with pytest.raises(NumericError):
            ks.select_epsilon(ly, lxs)

    def test_qr_failure_maps_to_numeric_error(self, monkeypatch):
        # Each basis [L R^T, 1] takes R from a QR of its factor.
        def boom(*args, **kwargs):
            raise np.linalg.LinAlgError("did not converge")

        ly, lxs = toy_kernels()
        monkeypatch.setattr(np.linalg, "qr", boom)
        with pytest.raises(NumericError):
            ks.gcv_value(0.1, ly, lxs)
        with pytest.raises(NumericError):
            ks.select_epsilon(ly, lxs)

    def test_no_singular_value_decomposition(self, monkeypatch):
        # Every predictor's basis is decomposed through eigh of small Grams.
        def boom(*args, **kwargs):
            raise AssertionError("np.linalg.svd called")

        ly, lxs = toy_kernels(seed=4, n=40, p=20)
        want = [ks.gcv_value(eps, ly, lxs) for eps in ks.GCV_GRID]
        monkeypatch.setattr(np.linalg, "svd", boom)
        assert [ks.gcv_value(eps, ly, lxs) for eps in ks.GCV_GRID] == want
        assert ks.select_epsilon(ly, lxs).gcv_values == tuple(want)

    def test_large_epsilon_limit(self):
        columns = toy_columns(42, 6, 2)
        ly, lxs = toy_kernels()
        ky, _ = dense_kernels(columns)
        n = ky.shape[0]
        zy = np.vstack([np.ones((1, n)), ky])
        want = len(lxs) * np.linalg.norm(zy, "fro") ** 2
        assert ks.gcv_value(1e12, ly, lxs) == pytest.approx(want, rel=1e-4)

    def test_never_fails_on_valid_input(self):
        # (L L^T + eps I) is PD for every eps > 0, so all grid points evaluate
        ky, kxs = toy_kernels(seed=7, n=10, p=3)
        for eps in ks.GCV_GRID:
            value = ks.gcv_value(eps, ky, kxs)
            assert np.isfinite(value) and value >= 0.0

    def test_deterministic(self):
        ky, kxs = toy_kernels(seed=3)
        a = ks.gcv_value(0.01, ky, kxs)
        b = ks.gcv_value(0.01, ky, kxs)
        assert a == b

    def test_no_skips_on_well_conditioned_input(self):
        ky, kxs = toy_kernels(seed=5, n=8, p=2)
        with warnings.catch_warnings():
            warnings.simplefilter("error", NumericGuardWarning)
            for eps in ks.GCV_GRID:
                ks.gcv_value(eps, ky, kxs)

    def test_bad_epsilon(self):
        ky, kxs = toy_kernels()
        for eps in (0.0, -1.0, np.nan):
            with pytest.raises(ArgumentError):
                ks.gcv_value(eps, ky, kxs)

    def test_shape_mismatch(self):
        ky, kxs = toy_kernels()
        with pytest.raises(ArgumentError):
            ks.gcv_value(0.1, ky, [np.ones((3, 3))])

    @pytest.mark.parametrize("shape", [(9, 3), (7, 3), (8, 9), (8, 3, 1), (8,)])
    def test_factor_of_the_wrong_shape_rejected(self, shape):
        # Other sample counts, r > n, and factors that are not 2-D.  Shapes
        # are checked before any stacking: factor 1 sits in the first block
        # of 16, factor 17 in the second.
        ky, kxs = toy_kernels(seed=3, n=8, p=20)
        for i in (1, 17):
            bad = kxs[:i] + [np.ones(shape)] + kxs[i + 1:]
            with pytest.raises(ArgumentError, match=f"kernel factor {i} "):
                ks.gcv_value(0.1, ky, bad)
            with pytest.raises(ArgumentError, match=f"kernel factor {i} "):
                ks.select_epsilon(ky, bad)


class TestSelectEpsilon:
    def test_member_of_grid(self):
        ky, kxs = toy_kernels(seed=9, n=12, p=3)
        sel = ks.select_epsilon(ky, kxs)
        assert sel.epsilon in sel.grid
        assert sel.grid == tuple(sorted(ks.GCV_GRID))

    def test_matches_independent_reevaluation(self):
        ky, kxs = toy_kernels(seed=20, n=20, p=5)
        sel = ks.select_epsilon(ky, kxs)
        values = [ks.gcv_value(eps, ky, kxs) for eps in sel.grid]
        np.testing.assert_array_equal(values, sel.gcv_values)
        best = min(values)
        # tie-break toward the larger epsilon
        want = max(e for e, v in zip(sel.grid, values) if v == best)
        assert sel.epsilon == want

    @settings(derandomize=True, deadline=None, max_examples=25)
    @given(
        seed=st.integers(0, 2**16),
        n=st.integers(6, 16),
        k=st.integers(9, 40),
        huge=st.integers(0, 2),
    )
    def test_agrees_bitwise_with_gcv_value_past_the_summation_block(self, seed, n, k, huge):
        # More predictors than numpy's pairwise-summation block of 8, so a
        # second summation order would show.  The huge full-rank factors
        # (kernel 1e8 I) lose their summands to the guard at small epsilon.
        ly, lxs = toy_kernels(seed, n, k - huge)
        lxs += [1e4 * np.eye(n)] * huge
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NumericGuardWarning)
            sel = ks.select_epsilon(ly, lxs)
        for eps, value, skipped in zip(sel.grid, sel.gcv_values, sel.skipped_counts):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", NumericGuardWarning)
                got = ks.gcv_value(eps, ly, lxs)
            assert got == value
            counts = [int(re.search(r"skipped (\d+) of", str(w.message)).group(1))
                      for w in caught if issubclass(w.category, NumericGuardWarning)]
            assert sum(counts) == skipped
        assert sel.skipped_counts[0] == huge

    def test_skipped_counts_zero_on_fixtures(self):
        ky, kxs = toy_kernels(seed=2, n=10, p=3)
        sel = ks.select_epsilon(ky, kxs)
        assert sel.skipped_counts == (0,) * len(sel.grid)

    def test_all_terms_skipped_raises(self):
        # enormous ridgeless spectra drive every denominator to the guard
        # at every grid point: the factor 1e4 I is the kernel 1e8 I
        n = 4
        huge = [1e4 * np.eye(n)]
        ky = np.eye(n)
        with pytest.raises(TuningError):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", NumericGuardWarning)
                ks.select_epsilon(ky, huge)

    def test_partial_skips_warn_but_select(self):
        # the kernel 1e4 I loses its summand at the two smallest grid
        # points; the others survive
        n = 4
        kxs = [100.0 * np.eye(n)]
        ky = np.eye(n)
        with pytest.warns(NumericGuardWarning):
            sel = ks.select_epsilon(ky, kxs)
        assert sel.epsilon == 1e-2
        assert sel.skipped_counts == (1, 1) + (0,) * 7

    def test_grid_is_not_a_keyword(self):
        ky, kxs = toy_kernels()
        with pytest.raises(TypeError):
            ks.select_epsilon(ky, kxs, grid=ks.GCV_GRID)

    def test_gcv_value_warns_on_skip(self):
        n = 4
        with pytest.warns(NumericGuardWarning):
            ks.gcv_value(1e-5, np.eye(n), [1e4 * np.eye(n)])

    def test_selection_membership_validated(self):
        with pytest.raises(ArgumentError):
            ks.RidgeSelection(
                epsilon=0.5, grid=(0.1, 1.0), gcv_values=(1.0, 2.0), skipped_counts=(0, 0)
            )

    def test_response_kernel_must_be_square(self):
        # a response factor with more columns than rows
        with pytest.raises(ArgumentError):
            ks.gcv_value(0.1, np.ones((2, 3)), [np.ones((2, 2))])

    def test_constant_response_factor_is_degenerate(self):
        # A constant response's Gram centers to 0, so its GCV has no
        # relative accuracy; a factor whose every column is constant is
        # rejected by both entry points, whatever the predictors.
        _, lxs = toy_kernels(seed=6, n=10, p=3)
        for ly in (ks.gram(np.full(10, 0.7), ks.Bandwidth(1.0)), np.full((10, 2), 0.5)):
            with pytest.raises(DegenerateDataError, match="constant"):
                ks.gcv_value(0.1, ly, lxs)
            with pytest.raises(DegenerateDataError, match="constant"):
                ks.select_epsilon(ly, lxs)

    def test_predictor_list_must_be_nonempty(self):
        with pytest.raises(ArgumentError):
            ks.gcv_value(0.1, np.eye(3), [])

    @pytest.mark.parametrize("lxs", [None, 3.0, object()])
    def test_predictor_factors_must_be_iterable(self, lxs):
        ky, _ = toy_kernels(seed=3, n=8, p=2)
        with pytest.raises(ArgumentError, match="^lxs must be a list of factors"):
            ks.gcv_value(0.1, ky, lxs)
        with pytest.raises(ArgumentError, match="^lxs must be a list of factors"):
            ks.select_epsilon(ky, lxs)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("member", [0, 17])
    def test_non_finite_predictor_factor_is_a_data_error(self, bad, member):
        # Each predictor factor is checked with its shape, before any is
        # stacked; member 17 would sit in the second stack of 16.
        ky, kxs = toy_kernels(seed=3, n=8, p=20)
        kxs = [kx.copy() for kx in kxs]
        kxs[member][2, 0] = bad
        with pytest.raises(DataError, match="finite"):
            ks.gcv_value(0.1, ky, kxs)
        with pytest.raises(DataError, match="finite"):
            ks.select_epsilon(ky, kxs)


def level_factor(draw, n):
    # Few levels give low-rank and constant predictors, many give wide ones.
    levels = draw(st.sampled_from([1, 3, 50, 1000]))
    pts = np.array(draw(st.lists(st.integers(-levels, levels), min_size=n, max_size=n))) / 100.0
    try:
        bw = ks.bandwidth(pts)
    except ks.DegenerateDataError:
        bw = ks.Bandwidth(1.0)
    return ks.gram(pts, bw)


def gcv_components(ly, lxs):
    # The GCV terms of a factor list, stacked as select_epsilon stacks it.
    return tuning._gcv_terms(ly, _rank_stacks(lxs, tuning._BLOCK), len(lxs))


@settings(derandomize=True, deadline=None, max_examples=40)
@given(n=st.integers(6, 30), k=st.integers(0, 40), draw=st.data())
def test_gcv_summand_does_not_depend_on_its_block(n, k, draw):
    # A predictor's a_i and ||c_i||^2 are bitwise its own in any list (each
    # is computed in a stack of its rank), and its row, zero-filled to the
    # list's widest basis, is summed in column order, where the fill adds
    # exactly 0, so its summand is bitwise its own too.
    ly = level_factor(draw.draw, n)
    lx = level_factor(draw.draw, n)
    others = [level_factor(draw.draw, n) for _ in range(k)]
    m = draw.draw(st.integers(0, k))
    alone = gcv_components(ly, [lx])
    n_, a, c2, by_norm2, spans = gcv_components(ly, others[:m] + [lx] + others[m:])
    for eps in ks.GCV_GRID:
        want, _ = tuning._gcv_at(eps, *alone)
        got, _ = tuning._gcv_at(eps, n_, a[m:m + 1], c2[m:m + 1], by_norm2, spans[m:m + 1])
        assert got == want
