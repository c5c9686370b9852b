"""Screening pipeline: dominance of a duplicated predictor, permutation and
scale invariance, determinism, threshold rules, and ranking."""

import importlib.util
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

import kscreen as ks
from kscreen import measures, screening
from kscreen.errors import (
    ArgumentError,
    DataError,
    DegenerateDataError,
    DegenerateDataWarning,
    UnsupportedMethodError,
)


def make_data(seed=0, n=30, p=10, signal=1):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, p))
    y = np.sin(1.5 * x[:, signal]) + 0.2 * rng.standard_normal(n)
    return ks.DataMatrix(x), ks.DataMatrix(y[:, None])


class TestAutoThreshold:
    def test_unit_epsilon(self):
        assert ks.auto_threshold(1.0, 16, 100) == 3

    def test_small_epsilon_capped_at_p(self):
        assert ks.auto_threshold(0.01, 16, 100) == 100

    def test_large_epsilon_floor_guard(self):
        assert ks.auto_threshold(1e3, 200, 2000) == 1

    @pytest.mark.parametrize("epsilon, n", [(1e-250, 200), (5e-324, 200), (1e-205, 10**4)])
    def test_epsilon_past_the_float_range_of_m_clamps_to_p(self, epsilon, n):
        # epsilon^(-3/2) overflows in the first two, the product in the third.
        assert ks.auto_threshold(epsilon, n, 500) == 500

    def test_bad_arguments(self):
        with pytest.raises(ArgumentError):
            ks.auto_threshold(0.0, 16, 100)
        with pytest.raises(ArgumentError):
            ks.auto_threshold(1.0, 0, 100)

    @pytest.mark.parametrize("n, p", [(16.5, 100), (16, 100.7), (True, 100), (16, "100")])
    def test_non_integer_sizes_rejected(self, n, p):
        with pytest.raises(ArgumentError, match="must be an integer"):
            ks.auto_threshold(0.5, n, p)


class TestRankByScore:
    def test_example(self):
        np.testing.assert_array_equal(ks.rank_by_score([0.2, 0.9, 0.5]), [2, 3, 1])

    def test_ties_keep_ascending_index(self):
        np.testing.assert_array_equal(ks.rank_by_score([0.4, 0.4, 0.4]), [1, 2, 3])

    def test_random_scores_valid_sorted_permutation(self):
        rng = np.random.default_rng(10)
        scores = rng.random(1000)
        ranking = ks.rank_by_score(scores)
        assert sorted(ranking) == list(range(1, 1001))
        ordered = scores[ranking - 1]
        assert np.all(np.diff(ordered) <= 0)

    def test_nan_is_data_error(self):
        with pytest.raises(DataError):
            ks.rank_by_score([0.1, np.nan])

    def test_empty_rejected(self):
        with pytest.raises(ArgumentError):
            ks.rank_by_score([])

    def test_text_is_an_argument_error_and_infinities_rank(self):
        # Only NaN is a data error; an infinite score ranks at an end.
        with pytest.raises(ArgumentError, match="^scores must be an array of real numbers"):
            ks.rank_by_score(["x"])
        np.testing.assert_array_equal(ks.rank_by_score([0.5, np.inf, -np.inf]), [2, 1, 3])


class TestThresholdRule:
    def test_fixed_requires_positive_m(self):
        with pytest.raises(ArgumentError):
            ks.ThresholdRule.fixed(0)
        assert ks.ThresholdRule.fixed(5).m == 5

    @pytest.mark.parametrize("m", [2.7, 3.0, "3", True, None, -1])
    def test_fixed_m_must_be_an_integer(self, m):
        with pytest.raises(ArgumentError, match="m must be an integer"):
            ks.ThresholdRule.fixed(m)

    def test_fixed_accepts_numpy_integers(self):
        rule = ks.ThresholdRule.fixed(np.int64(3))
        assert rule.m == 3 and type(rule.m) is int

    def test_auto_takes_no_m(self):
        with pytest.raises(ArgumentError):
            ks.ThresholdRule(kind="auto", m=3)

    def test_unknown_kind(self):
        with pytest.raises(ArgumentError):
            ks.ThresholdRule(kind="percentile")


class TestScreen:
    @pytest.mark.parametrize("method", ["kcca", "hsic", "dc", "sis"])
    def test_duplicated_predictor_ranks_first(self, method):
        rng = np.random.default_rng(42)
        n = 50
        y = rng.standard_normal(n)
        x = np.column_stack([y, rng.standard_normal(n), rng.standard_normal(n)])
        res = ks.screen(
            ks.DataMatrix(x), ks.DataMatrix(y[:, None]), method=method, epsilon="auto"
        )
        assert res.ranking[0] == 1
        assert res.method == ks.Method(method)

    def test_permutation_of_columns_permutes_scores(self):
        x, y = make_data(seed=7, n=30, p=10)
        rng = np.random.default_rng(1)
        perm = rng.permutation(10)
        xp = ks.DataMatrix(x.values[:, perm])
        for method, eps in (("kcca", 0.1), ("dc", "auto"), ("kcca", "auto")):
            base = ks.screen(x, y, method=method, epsilon=eps)
            permuted = ks.screen(xp, y, method=method, epsilon=eps)
            np.testing.assert_allclose(permuted.scores, base.scores[perm], atol=1e-12)
            # position of original feature j in the permuted ranking matches
            base_pos = base.rank_positions()
            perm_pos = permuted.rank_positions()
            for new_idx, old_idx in enumerate(perm):
                assert perm_pos[new_idx] == base_pos[old_idx]

    def test_monotone_score_transform_keeps_ranking(self):
        x, y = make_data(seed=3)
        res = ks.screen(x, y, method="dc")
        transformed = np.expm1(3.0 * res.scores)  # strictly increasing map
        np.testing.assert_array_equal(ks.rank_by_score(transformed), res.ranking)

    def test_rescaled_column_keeps_score_and_ranking(self):
        x, y = make_data(seed=11, n=40, p=6)
        res = ks.screen(x, y, method="kcca", epsilon=0.5)
        scaled = x.values.copy()
        scaled[:, 2] *= -170.0
        res2 = ks.screen(ks.DataMatrix(scaled), y, method="kcca", epsilon=0.5)
        assert res2.scores[2] == pytest.approx(res.scores[2], abs=1e-10)
        np.testing.assert_array_equal(res2.ranking, res.ranking)

    def test_deterministic(self):
        x, y = make_data(seed=5, n=25, p=8)
        a = ks.screen(x, y, method="kcca", epsilon="auto", seed=3)
        b = ks.screen(x, y, method="kcca", epsilon="auto", seed=3)
        np.testing.assert_array_equal(a.scores, b.scores)
        np.testing.assert_array_equal(a.ranking, b.ranking)
        assert a.epsilon == b.epsilon and a.m == b.m

    def test_shared_response_gram_matches_per_predictor_recompute(self):
        x, y = make_data(seed=9, n=30, p=5)
        res = ks.screen(x, y, method="kcca", epsilon=0.2)
        hsic = ks.screen(x, y, method="hsic")
        bw_y = ks.bandwidth(y.values)
        for r in range(x.p):
            kx = ks.gram(x.values[:, r], ks.bandwidth(x.values[:, r]))
            ky = ks.gram(y.values, bw_y)
            # The screen's stack arithmetic is kcca_singular_value's on a
            # stack of one, so the scores are bitwise equal.
            assert res.scores[r] == ks.kcca_singular_value(ks.center(kx), ks.center(ky), 0.2)
            assert hsic.scores[r] == ks.hsic_score(ks.center(kx), ks.center(ky))
        # dc shares the response's centered distances, for a univariate and
        # a bivariate response.
        bivariate = ks.DataMatrix(np.column_stack([y.values[:, 0], x.values[:, 3] ** 2]))
        for resp in (y, bivariate):
            dc = ks.screen(x, resp, method="dc")
            dy = ks.centered_distances(resp.values)
            for r in range(x.p):
                assert dc.scores[r] == ks.dcor_score(x.values[:, r], dy=dy)

    def test_one_prepared_response_serves_a_whole_dc_screen(self, monkeypatch):
        # A dc screen prepares the response side once and scores the
        # columns a block of at most its width per call, in order, and each
        # score is bitwise dcor_score of its column alone.
        x, y = make_data(seed=4, n=70, p=9)
        monkeypatch.setattr("kscreen.kernels._BUILD_BYTES", 5 * 8 * 64 * 70)
        calls = []

        def counted(xs, side):
            calls.append((xs.shape[0], side))
            return measures._stack_dcor(xs, side)

        monkeypatch.setattr(screening, "_stack_dcor", counted)
        res = ks.screen(x, y, method="dc")
        side = calls[0][1]
        assert side.width == 4 and [m for m, _ in calls] == [4, 4, 1]
        assert all(s is side for _, s in calls)
        dy = ks.centered_distances(y.values)
        assert res.scores.tolist() == [ks.dcor_score(x.values[:, r], dy=dy) for r in range(x.p)]

    def test_sis_needs_univariate_response(self):
        rng = np.random.default_rng(2)
        x = ks.DataMatrix(rng.standard_normal((20, 4)))
        y = ks.DataMatrix(rng.standard_normal((20, 2)))
        with pytest.raises(UnsupportedMethodError):
            ks.screen(x, y, method="sis")

    def test_constant_response_rejected(self):
        rng = np.random.default_rng(2)
        x = ks.DataMatrix(rng.standard_normal((20, 4)))
        y = ks.DataMatrix(np.full((20, 1), 3.0))
        for method in ("kcca", "dc", "sis"):
            with pytest.raises(DegenerateDataError):
                ks.screen(x, y, method=method)

    def test_small_sample_rejected(self):
        rng = np.random.default_rng(2)
        x = ks.DataMatrix(rng.standard_normal((3, 4)))
        y = ks.DataMatrix(rng.standard_normal((3, 1)))
        with pytest.raises(ArgumentError):
            ks.screen(x, y, method="dc")

    def test_mismatched_sample_counts(self):
        rng = np.random.default_rng(2)
        x = ks.DataMatrix(rng.standard_normal((10, 4)))
        y = ks.DataMatrix(rng.standard_normal((11, 1)))
        with pytest.raises(ArgumentError):
            ks.screen(x, y)

    def test_constant_predictor_warns_and_scores_zero(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((25, 3))
        x[:, 1] = 4.0
        y = ks.DataMatrix((x[:, 0] + 0.1 * rng.standard_normal(25))[:, None])
        with pytest.warns(DegenerateDataWarning):
            res = ks.screen(ks.DataMatrix(x), y, method="kcca", epsilon=0.5)
        assert res.scores[1] == 0.0
        assert res.ranking[-1] == 2

    @pytest.mark.parametrize("method", ["kcca", "hsic"])
    def test_degenerate_bandwidth_warning_gives_its_reason(self, method):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((20, 3))
        y = ks.DataMatrix((x[:, 0] + 0.1 * rng.standard_normal(20))[:, None])
        constant, tiny, subnormal, huge = x.copy(), x.copy(), x.copy(), x.copy()
        constant[:, 2] = 4.0
        # Not constant, but their mean pairwise distances make gamma
        # overflow, go subnormal and underflow.
        tiny[:, 2] *= 1e-160
        subnormal[:, 2] *= 1e160
        huge[:, 2] *= 1e200
        for data, reason in ((constant, "all samples identical"),
                             (tiny, "unusable gamma inf"),
                             (subnormal, "unusable gamma 7.045e-321"),
                             (huge, "unusable gamma 0.0")):
            with pytest.warns(DegenerateDataWarning) as record:
                res = ks.screen(ks.DataMatrix(data), y, method=method, epsilon=0.5)
            (message,) = [str(w.message) for w in record]
            assert message.startswith("feature 3: ") and reason in message
            assert "constant" not in message
            # gamma = 1 makes the kernel of the tiny column all ones.
            if data is constant or data is tiny:
                assert res.scores[2] == 0.0

    @pytest.mark.parametrize("method", ["kcca", "hsic"])
    def test_a_column_whose_distance_sum_overflows_warns_only_where_it_is(self, method):
        # The column's pairwise-distance sum passes the largest float, so
        # its gamma is 0.0: the one warning names it, and numpy's overflow
        # RuntimeWarning does not escape.
        rng = np.random.default_rng(0)
        x = rng.standard_normal((60, 3))
        x[:, 1] = np.ldexp(x[:, 1], 1014)
        y = ks.DataMatrix((x[:, 0] + 0.1 * rng.standard_normal(60))[:, None])
        with pytest.warns(DegenerateDataWarning) as record:
            ks.screen(ks.DataMatrix(x), y, method=method, epsilon=0.5)
        assert [str(w.message) for w in record] == [
            "feature 2: pairwise distances produce unusable gamma 0.0; substituting gamma = 1"]

    def test_sis_screens_a_column_whose_sum_passes_the_largest_float(self):
        rng = np.random.default_rng(9)
        x = 1.0 + rng.random((200, 3))
        y = ks.DataMatrix((x[:, 1] + rng.standard_normal(200))[:, None])
        scaled = [np.column_stack([x[:, 0], np.ldexp(x[:, 1], k), x[:, 2]]) for k in (418, 1018)]
        low, high = (ks.screen(ks.DataMatrix(v), y, method="sis").scores for v in scaled)
        assert high.tobytes() == low.tobytes()

    def test_auto_rule_uses_threshold_formula(self):
        x, y = make_data(seed=15, n=30, p=10)
        res = ks.screen(x, y, method="kcca", rule=ks.ThresholdRule.auto(), epsilon=1.0)
        assert res.m == ks.auto_threshold(1.0, 30, 10)
        np.testing.assert_array_equal(res.selected, res.ranking[: res.m])

    def test_auto_rule_rejected_for_baselines(self):
        x, y = make_data(seed=15)
        with pytest.raises(ArgumentError):
            ks.screen(x, y, method="dc", rule=ks.ThresholdRule.auto())

    def test_auto_rule_without_kcca_rejected_before_any_factor(self, monkeypatch):
        calls = []
        gram_block = screening.gram_block

        def counting(samples, gammas):
            calls.append(len(gammas))
            return gram_block(samples, gammas)

        monkeypatch.setattr(screening, "gram_block", counting)
        x, y = make_data(seed=15, n=30, p=40)
        auto = ks.ThresholdRule.auto()
        with pytest.raises(ArgumentError, match="auto threshold rule requires a KCCA epsilon"):
            ks.screen(x, y, method="hsic", rule=auto)
        # Several methods share the rule, so one that is not kcca rejects it.
        with pytest.raises(ArgumentError, match="auto threshold rule requires a KCCA epsilon"):
            screening._screen_methods(x, y, (ks.Method.KCCA, ks.Method.HSIC), auto, "auto", 0)
        assert calls == []
        assert ks.screen(x, y, method="kcca", rule=auto).m == ks.auto_threshold(
            ks.screen(x, y, method="kcca").epsilon, 30, 40)
        assert sum(calls) > 0

    def test_default_rule_is_top_percent(self):
        x, y = make_data(seed=16, n=30, p=10)
        res = ks.screen(x, y, method="dc")
        assert res.m == 1  # ceil(0.01 * 10) = 1

    def test_fixed_rule_clamped_to_p(self):
        x, y = make_data(seed=17, n=30, p=10)
        res = ks.screen(x, y, method="dc", rule=ks.ThresholdRule.fixed(999))
        assert res.m == 10

    def test_epsilon_recorded_only_for_kcca(self):
        x, y = make_data(seed=18)
        assert ks.screen(x, y, method="dc").epsilon is None
        assert ks.screen(x, y, method="hsic").epsilon is None
        assert ks.screen(x, y, method="kcca", epsilon=0.3).epsilon == 0.3

    def test_gcv_subsample_deterministic_per_seed(self):
        x, y = make_data(seed=19, n=25, p=12)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(screening, "GCV_SUBSAMPLE", 4)
            a = ks.screen(x, y, method="kcca", epsilon="auto", seed=5)
            b = ks.screen(x, y, method="kcca", epsilon="auto", seed=5)
        assert a.epsilon == b.epsilon

    def test_seed_and_gcv_subsample_leave_scores_at_an_epsilon_bitwise_unchanged(self):
        # seed and the subsample size pick the GCV subsample, whose factors
        # are built first in blocks of their own, so they decide which
        # features share a block.  At a given epsilon the scores must not
        # notice.
        x, y = make_data(seed=20, n=24, p=40)
        base = {m: ks.screen(x, y, method=m, epsilon=0.1).scores.tobytes() for m in ("kcca", "hsic")}
        for seed, k in ((0, 7), (1, 16), (2, 23), (3, 40)):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(screening, "GCV_SUBSAMPLE", k)
                for method, want in base.items():
                    got = ks.screen(x, y, method=method, epsilon=0.1, seed=seed)
                    assert got.scores.tobytes() == want, (method, seed, k)
                tuned = ks.screen(x, y, method="kcca", seed=seed)
            fixed = ks.screen(x, y, method="kcca", epsilon=tuned.epsilon)
            assert tuned.scores.tobytes() == fixed.scores.tobytes(), (seed, k)

    def test_no_features_rejected(self):
        rng = np.random.default_rng(1)
        x = ks.DataMatrix(np.empty((10, 0)))
        y = ks.DataMatrix(rng.standard_normal((10, 1)))
        with pytest.raises(ArgumentError):
            ks.screen(x, y, method="dc")

    def test_bad_epsilon_strings_rejected(self):
        x, y = make_data(seed=1)
        with pytest.raises(ArgumentError):
            ks.screen(x, y, method="kcca", epsilon="bogus")
        with pytest.raises(ArgumentError):
            ks.screen(x, y, method="kcca", epsilon=-0.5)

    @pytest.mark.parametrize("method", ["kcca", "hsic", "dc", "sis"])
    @pytest.mark.parametrize(
        "kwargs",
        [{"seed": -1}, {"seed": 1.5}, {"seed": True}, {"seed": "3"}, {"seed": np.int64(-1)},
         # the seed is checked even where a fixed epsilon leaves it unused
         {"seed": -1, "epsilon": 0.1},
         {"epsilon": "bogus"}, {"epsilon": -3.0}, {"epsilon": 0.0}, {"epsilon": float("nan")},
         {"epsilon": float("inf")}, {"epsilon": None}, {"epsilon": True}],
    )
    def test_bad_seed_or_epsilon_rejected_before_any_work(self, monkeypatch, method, kwargs):
        x, y = make_data(seed=1)

        def boom(*args, **kw):
            raise AssertionError("screen did work before checking its arguments")

        for name in ("_distance_sum", "centered_distances", "_stack_dcor", "_stack_pearson"):
            monkeypatch.setattr(screening, name, boom)
        with pytest.raises(ArgumentError):
            ks.screen(x, y, method=method, **kwargs)

    def test_numpy_integer_seed_accepted(self):
        x, y = make_data(seed=19, n=25, p=12)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(screening, "GCV_SUBSAMPLE", 4)
            a = ks.screen(x, y, method="kcca", seed=np.int64(5))
            b = ks.screen(x, y, method="kcca", seed=5)
        assert a.scores.tobytes() == b.scores.tobytes() and a.epsilon == b.epsilon

    @pytest.mark.parametrize("method", ["kcca", "hsic", "dc", "sis"])
    def test_gcv_subsample_is_not_a_keyword(self, method):
        x, y = make_data(seed=1)
        with pytest.raises(TypeError):
            ks.screen(x, y, method=method, gcv_subsample=4)

    def test_m_bounds_validated(self):
        with pytest.raises(ArgumentError):
            ks.ScreeningResult(
                scores=np.array([0.5, 0.2]),
                ranking=np.array([1, 2]),
                selected=np.array([], dtype=int),
                epsilon=None,
                method=ks.Method.DC,
                m=0,
            )

    def test_result_invariants_validated(self):
        scores = np.array([0.5, 0.2])
        with pytest.raises(ArgumentError):
            ks.ScreeningResult(
                scores=scores,
                ranking=np.array([1, 1]),
                selected=np.array([1]),
                epsilon=None,
                method=ks.Method.DC,
                m=1,
            )
        with pytest.raises(ArgumentError):
            ks.ScreeningResult(
                scores=scores,
                ranking=np.array([1, 2]),
                selected=np.array([2]),
                epsilon=None,
                method=ks.Method.DC,
                m=1,
            )


def test_every_name_the_benchmark_tracer_rebinds_exists():
    # bench/tracing.py looks each of its targets up with getattr when it
    # installs its spans, so a traced name deleted from the package would
    # break only the benchmark.  The file is loaded by path and only read.
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("kscreen_bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TARGETS
    for module_name, attr, _ in tracing.TARGETS:
        module = importlib.import_module(f"kscreen.{module_name}") if module_name else ks
        assert callable(getattr(module, attr, None)), (module_name, attr)


def test_a_screen_builds_no_bandwidth_object_per_feature(monkeypatch):
    # The bandwidth pass hands gram_block slices of one gamma array; only
    # the response's factor is built from a Bandwidth.
    made = []
    post_init = ks.Bandwidth.__post_init__

    def counting(self):
        made.append(self.gamma)
        post_init(self)

    monkeypatch.setattr(ks.Bandwidth, "__post_init__", counting)
    x, y = make_data(seed=4, n=30, p=300)
    screening._screen_methods(x, y, (ks.Method.KCCA, ks.Method.HSIC), None, "auto", 0)
    assert len(made) <= 1


def test_lapack_budget_of_a_kcca_screen(monkeypatch):
    # Every LAPACK call of one auto-epsilon kcca screen, counted as the
    # matrices each routine receives (a stack of b counts b): per predictor
    # one r x r Cholesky of G + eps I, one solve with it for the r x r_Y N
    # and one eigvalsh of the smaller Gram of N; per GCV predictor one QR
    # of its factor and one (r+1) x (r+1) eigh of its basis Gram; for the
    # response one Cholesky and one triangular inverse, for its whitening,
    # and one QR of its factor for the GCV; nothing else, no SVD at all.
    # The GCV predictors, GCV_SUBSAMPLE of the p, are counted in the
    # stacks screen hands to tuning._gcv_terms, which reads each once as
    # it is built.
    n, p = 40, 220
    x, y = make_data(seed=3, n=n, p=p)
    ly = ks.gram(y.values, ks.bandwidth(y.values))
    ry = ly.shape[1]
    received = {name: [] for name in ("cholesky", "solve", "inv", "eigh", "eigvalsh", "eig",
                                      "svd", "qr", "lstsq", "pinv", "det", "slogdet")}

    def counting(name, fn):
        def wrapped(a, *args, **kwargs):
            shape = np.shape(a)
            received[name].extend([shape[-2:]] * int(np.prod(shape[:-2], dtype=int)))
            return fn(a, *args, **kwargs)
        return wrapped

    for name in received:
        monkeypatch.setattr(np.linalg, name, counting(name, getattr(np.linalg, name)))
    ranks, tuned = [], []

    def building(samples, gammas, gram_block=screening.gram_block):
        built = gram_block(samples, gammas)
        ranks.extend(stack.shape[2] for pos, stack in built for _ in pos)
        return built

    def reading(ly, stacks, count, gcv_terms=screening._gcv_terms):
        def counted():
            for pos, stack in stacks:
                tuned.extend([stack.shape[2]] * len(pos))
                yield pos, stack
        return gcv_terms(ly, counted(), count)

    monkeypatch.setattr(screening, "gram_block", building)
    monkeypatch.setattr(screening, "_gcv_terms", reading)
    ks.screen(x, y, method="kcca")
    assert len(ranks) == p and len(tuned) == screening.GCV_SUBSAMPLE == 200 and min(ranks) > 0
    assert sorted(received.pop("cholesky")) == sorted([(r, r) for r in ranks] + [(ry, ry)])
    assert sorted(received.pop("solve")) == sorted([(r, r) for r in ranks])
    assert received.pop("inv") == [(ry, ry)]
    assert sorted(received.pop("eigvalsh")) == sorted([(min(r, ry),) * 2 for r in ranks])
    assert sorted(received.pop("eigh")) == sorted([(r + 1, r + 1) for r in tuned])
    assert sorted(received.pop("qr")) == sorted([(n, r) for r in tuned] + [ly.shape])
    assert received == {name: [] for name in received}


def test_a_kcca_screen_never_holds_its_gcv_subsample_factors():
    # screen reads each subsample stack's GCV and KCCA terms as it is built
    # and then drops it, so the memory it allocates stays below the bytes
    # of the subsample's n x r factors.  Calibrated on a 2-core host: a
    # peak of 4.62 MB against 6.17 MB of factors (0.75 of the bound), with
    # 40-wide builds (the 2 MiB build budget at n = 200); the KCCA terms
    # held until epsilon is known, each member's r x r Gram and r x r_Y
    # cross product, take about 0.4 MB of it.  Holding the factors until
    # the search ends reads 7.89 MB.
    n, p, k = 200, 400, screening.GCV_SUBSAMPLE
    x, y = make_data(seed=0, n=n, p=p)
    idx = np.sort(np.random.default_rng(0).choice(p, size=k, replace=False))
    factor_bytes = sum(8 * n * ks.gram(x.values[:, r], ks.bandwidth(x.values[:, r])).shape[1]
                       for r in idx)
    ks.screen(x, y, method="kcca")  # any first-call allocations
    tracemalloc.start()
    try:
        ks.screen(x, y, method="kcca")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < factor_bytes


@pytest.mark.parametrize("epsilon, cap", [("auto", 25), ("auto", 5), (0.1, 5), (0.1, 25)])
def test_kcca_piles_finish_each_rank_once_per_flush(monkeypatch, epsilon, cap):
    # With 4-wide builds (the byte budget of a 4-wide build at n = 40),
    # the GCV subsample (of cap features) and the rest take several builds
    # each.  The KCCA terms wait in one pile per rank, and once epsilon is
    # known a flush finishes every pile, each by one _stack_kcca call, at
    # two points: before a build would take the members held past
    # GCV_SUBSAMPLE (so the GCV's piles go before the first build after
    # it), and after the last build.  Every score is still bitwise
    # kcca_singular_value's on the predictor alone.
    n, p = 40, 60
    x, y = make_data(seed=6, n=n, p=p)
    monkeypatch.setattr("kscreen.kernels._BUILD_BYTES", 4 * 8 * 32 * n)
    monkeypatch.setattr(screening, "GCV_SUBSAMPLE", cap)
    builds, calls = [], []  # (rank, members) of each stack, and of each call

    def building(samples, gammas, gram_block=screening.gram_block):
        built = gram_block(samples, gammas)
        builds.append([(stack.shape[2], len(pos)) for pos, stack in built])
        return built

    def scoring(g, cross, whiten, eps, stack_kcca=screening._stack_kcca):
        calls.append((cross.shape[1], len(g)))
        return stack_kcca(g, cross, whiten, eps)

    monkeypatch.setattr(screening, "gram_block", building)
    monkeypatch.setattr(screening, "_stack_kcca", scoring)
    res = ks.screen(x, y, method="kcca", epsilon=epsilon)
    monkeypatch.undo()
    tuned = -(-cap // 4) if epsilon == "auto" else 0  # the GCV's builds
    assert len(builds) == tuned + -(-(p - (cap if tuned else 0)) // 4)
    flushes, piles = [], {}
    for b, stacks in enumerate(builds):
        if b >= tuned and sum(piles.values()) + sum(m for _, m in stacks) > cap:
            flushes.append(piles)
            piles = {}
        for rank, members in stacks:
            piles[rank] = piles.get(rank, 0) + members
    flushes.append(piles)
    got = iter(calls)
    for piles in flushes:
        assert sorted(next(got) for _ in piles) == sorted(piles.items()), (builds, calls)
    assert next(got, None) is None
    # With room for several builds, piles held stacks of several builds
    # after the GCV, too; a cap of 5 finishes them before every build.
    rest = sum(len(stacks) for stacks in builds[tuned:])
    assert (len(calls) - (len(flushes[0]) if tuned else 0) < rest) == (cap == 25)
    ly_c = ks.center(ks.gram(y.values, ks.bandwidth(y.values)))
    for r in range(p):
        lx = ks.gram(x.values[:, r], ks.bandwidth(x.values[:, r]))
        assert res.scores[r] == ks.kcca_singular_value(ks.center(lx), ly_c, res.epsilon)


@pytest.mark.parametrize("epsilon", ["auto", 0.1])
def test_no_stack_of_an_earlier_build_is_alive_when_the_next_build_starts(
        monkeypatch, epsilon):
    # Each build's stacks are read in place and dropped, also by the loop
    # variables that handed them on, so that a build never runs beside the
    # last one's stacks (a 32-member stack of rank 28 is 14 MB at n = 2000).
    n, p = 40, 60
    x, y = make_data(seed=6, n=n, p=p)
    monkeypatch.setattr("kscreen.kernels._BUILD_BYTES", 4 * 8 * 32 * n)
    monkeypatch.setattr(screening, "GCV_SUBSAMPLE", 25)
    refs, alive = [], []

    def building(samples, gammas, gram_block=screening.gram_block):
        alive.append(sum(ref() is not None for ref in refs))
        built = gram_block(samples, gammas)
        refs.extend(weakref.ref(a) for _, stack in built for a in (stack, stack.base))
        return built

    monkeypatch.setattr(screening, "gram_block", building)
    screening._screen_methods(x, y, (ks.Method.KCCA, ks.Method.HSIC), None, epsilon, 0)
    assert len(alive) == (-(-25 // 4) + -(-35 // 4) if epsilon == "auto" else 15)
    assert alive == [0] * len(alive)
    assert all(ref() is None for ref in refs)


def budget_data(kind):
    rng = np.random.default_rng(11)
    x = rng.standard_normal((60, 150))
    x[:, 7] = 2.0  # a constant column, at gamma = 1
    y = np.sin(1.5 * x[:, 1]) + 0.2 * rng.standard_normal(60)
    if kind == "bivariate":
        y = np.column_stack([y, x[:, 3] ** 2 + 0.2 * rng.standard_normal(60)])
    return ks.DataMatrix(x), ks.DataMatrix(y.reshape(60, -1))


@pytest.mark.filterwarnings("ignore::kscreen.errors.DegenerateDataWarning")
@pytest.mark.parametrize("kind", ["scalar", "bivariate"])
def test_scores_are_bitwise_the_same_under_any_build_budget(monkeypatch, kind):
    # A factor is bitwise the same in any build, and a score in any stack
    # or pile of its rank, so the byte budget, which sets both the build
    # width and the pile cap, moves no bit of a score or of epsilon.
    x, y = budget_data(kind)
    # p > 50: the GCV reads a drawn subsample, and the rest is built after.
    monkeypatch.setattr(screening, "GCV_SUBSAMPLE", 50)
    runs = [((ks.Method.KCCA,), "auto"), ((ks.Method.KCCA,), 0.01), ((ks.Method.HSIC,), "auto"),
            ((ks.Method.KCCA, ks.Method.HSIC), "auto")]
    results = []
    for width in (1, 7, 136):  # 136 wide is the default budget's at n = 60
        monkeypatch.setattr("kscreen.kernels._BUILD_BYTES", width * 8 * 32 * 60)
        assert screening._build_width(60) == width
        got = [r for methods, eps in runs
               for r in screening._screen_methods(x, y, methods, None, eps, 3).values()]
        results.append([(r.scores.tobytes(), r.epsilon) for r in got])
    assert results[0] == results[1] == results[2]
    assert results[0][0] == results[0][3] and results[0][2] == results[0][4]


def test_a_kcca_screen_at_n_1000_holds_about_one_build_budget():
    # A build's initial L^T buffer is bounded by kernels._BUILD_BYTES (8
    # features at n = 1000) rather than by 32 features (8 MB at n = 1000,
    # with its gathers beside it).  Calibrated on a 2-core host: a peak of
    # 4.5 MB, against 15.6 MB with 32-wide builds.
    rng = np.random.default_rng(1)
    x = rng.standard_normal((1000, 40))
    y = np.sin(1.5 * x[:, 1]) + 0.2 * rng.standard_normal(1000)
    x, y = ks.DataMatrix(x), ks.DataMatrix(y[:, None])
    ks.screen(x, y, method="kcca")  # any first-call allocations
    tracemalloc.start()
    try:
        ks.screen(x, y, method="kcca")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 7.5e6
