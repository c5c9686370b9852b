"""Simulation harness: AR(1) design, the response generators, the minimum
model size metric, and suite aggregation."""

import math

import numpy as np
import pytest

import kscreen as ks
from kscreen import simulation
from kscreen.errors import ArgumentError, UnsupportedMethodError
from tests.helpers import min_size_prefix_scan


class TestArGaussian:
    def test_rho_zero_gives_iid_columns(self):
        x = ks.ar_gaussian(4000, 3, 0.0, seed=1).values
        assert np.max(np.abs(x.mean(axis=0))) < 0.1
        r = np.corrcoef(x, rowvar=False)
        assert abs(r[0, 1]) < 0.05 and abs(r[0, 2]) < 0.05

    def test_autocorrelation_matches_target(self):
        x = ks.ar_gaussian(5000, 3, 0.8, seed=2).values
        r = np.corrcoef(x, rowvar=False)
        assert r[0, 1] == pytest.approx(0.8, abs=0.03)
        assert r[0, 2] == pytest.approx(0.64, abs=0.04)

    def test_unit_marginal_variance(self):
        x = ks.ar_gaussian(5000, 4, 0.8, seed=3).values
        assert np.all(np.abs(x.var(axis=0) - 1.0) < 0.1)

    def test_same_seed_identical(self):
        a = ks.ar_gaussian(50, 20, 0.8, seed=9).values
        b = ks.ar_gaussian(50, 20, 0.8, seed=9).values
        np.testing.assert_array_equal(a, b)

    def test_rho_bounds(self):
        with pytest.raises(ArgumentError):
            ks.ar_gaussian(10, 2, 1.0, seed=0)

    @pytest.mark.parametrize("n, p", [(40.5, 5), (40, 5.5), (True, 5), (40, "5"), (np.int64(0), 5)])
    def test_non_integer_or_nonpositive_size_rejected(self, n, p):
        with pytest.raises(ArgumentError, match="must be an integer"):
            ks.ar_gaussian(n, p, 0.5, seed=0)

    def test_numpy_integer_sizes_accepted(self):
        a = ks.ar_gaussian(np.int64(12), np.int32(4), 0.5, seed=3).values
        np.testing.assert_array_equal(a, ks.ar_gaussian(12, 4, 0.5, seed=3).values)


class TestGenSim1:
    def test_constants(self):
        assert ks.SIM1_CONSTANTS == (2.0, 0.5, 3.0, 2.0)
        assert ks.SIM1_ACTIVE == (1, 2, 12, 22)

    def test_intercept_scale_value(self):
        # a = 4 log(n) / sqrt(n) at n = 200
        x = ks.ar_gaussian(200, 22, 0.8, seed=4)
        inst = ks.gen_sim1(x, 1, seed=0)
        assert inst.coeffs["a"] == pytest.approx(4 * math.log(200) / math.sqrt(200), abs=1e-6)
        assert inst.coeffs["a"] == pytest.approx(1.49859, abs=1e-4)

    @pytest.mark.parametrize("model_id", [1, 2, 3, 4])
    def test_shapes_and_active_set(self, model_id):
        x = ks.ar_gaussian(40, 25, 0.8, seed=5)
        inst = ks.gen_sim1(x, model_id, seed=6)
        assert inst.y.n == 40 and inst.y.p == 1
        assert inst.active == (1, 2, 12, 22)

    def test_model4_ignores_beta_stream(self, monkeypatch):
        def no_betas(*args):
            raise AssertionError("model 4 drew coefficients")

        x = ks.ar_gaussian(30, 22, 0.8, seed=7)
        want = ks.gen_sim1(x, 4, seed=0).y.values
        monkeypatch.setattr(simulation, "_draw_betas", no_betas)
        np.testing.assert_array_equal(ks.gen_sim1(x, 4, seed=0).y.values, want)

    @pytest.mark.parametrize("model_id", [1, 2, 3])
    def test_models_1_to_3_use_beta_stream(self, monkeypatch, model_id):
        # Other coefficients with the same noise stream change the response.
        x = ks.ar_gaussian(30, 22, 0.8, seed=7)
        a = ks.gen_sim1(x, model_id, seed=0)
        draw_betas = simulation._draw_betas
        monkeypatch.setattr(simulation, "_draw_betas",
                            lambda rng, count, n: -draw_betas(rng, count, n))
        b = ks.gen_sim1(x, model_id, seed=0)
        assert b.coeffs["betas"] == tuple(-v for v in a.coeffs["betas"])
        assert not np.array_equal(a.y.values, b.y.values)

    @pytest.mark.parametrize("gen", ["gen_sim1", "gen_sim2"])
    @pytest.mark.parametrize("kwargs", [{"beta_seed": 1}, {"noise_seed": 1}])
    def test_stream_seeds_are_not_keywords(self, gen, kwargs):
        x = ks.ar_gaussian(30, 22, 0.8, seed=7)
        with pytest.raises(TypeError):
            getattr(ks, gen)(x, 1, seed=0, **kwargs)

    def test_beta_magnitude_floor(self):
        # |beta| = a + |Z| >= a
        x = ks.ar_gaussian(60, 22, 0.8, seed=8)
        inst = ks.gen_sim1(x, 3, seed=9)
        a = inst.coeffs["a"]
        assert all(abs(b) >= a for b in inst.coeffs["betas"])

    def test_p_too_small_rejected(self):
        x = ks.ar_gaussian(30, 21, 0.8, seed=7)
        with pytest.raises(ArgumentError):
            ks.gen_sim1(x, 1, seed=0)

    def test_deterministic_per_seed(self):
        x = ks.ar_gaussian(30, 22, 0.8, seed=7)
        a = ks.gen_sim1(x, 2, seed=13)
        b = ks.gen_sim1(x, 2, seed=13)
        np.testing.assert_array_equal(a.y.values, b.y.values)


class TestGenSim2:
    def test_model1_fixed_coefficients_and_active(self):
        x = ks.ar_gaussian(50, 6, 0.8, seed=10)
        inst = ks.gen_sim2(x, 1, seed=11)
        assert inst.active == (1, 2)
        assert inst.coeffs["beta_head"][:2] == (0.8, 0.6)
        assert inst.y.p == 2

    def test_model2_beta_in_range_and_active(self):
        x = ks.ar_gaussian(50, 6, 0.8, seed=12)
        inst = ks.gen_sim2(x, 2, seed=13)
        assert inst.active == (1, 2, 3, 4)
        assert all(1.0 <= b <= 2.0 for b in inst.coeffs["beta_head"])

    def test_correlation_inside_open_interval(self):
        x = ks.ar_gaussian(200, 6, 0.8, seed=14)
        for model in (1, 2):
            inst = ks.gen_sim2(x, model, seed=15)
            y = inst.y.values
            # both columns standard normal margins
            assert abs(y[:, 0].std() - 1.0) < 0.25
            assert abs(y[:, 1].std() - 1.0) < 0.25

    def test_zero_correlation_sample_is_independent_pair(self):
        # a sample with b^T x = 0 has sigma = 0, so y2 equals its own noise
        x_vals = np.zeros((8, 6))
        x_vals[:, 4] = np.linspace(-1, 1, 8)  # inactive column keeps x non-constant
        inst = ks.gen_sim2(ks.DataMatrix(x_vals), 1, seed=16)
        rng = np.random.default_rng(np.random.SeedSequence(16, spawn_key=(2,)))
        z = rng.standard_normal((8, 2))
        np.testing.assert_allclose(inst.y.values[:, 1], z[:, 1], atol=1e-12)

    def test_p_too_small_rejected(self):
        x = ks.ar_gaussian(30, 3, 0.8, seed=7)
        with pytest.raises(ArgumentError):
            ks.gen_sim2(x, 1, seed=0)


class TestMinModelSize:
    def _result_with_ranking(self, ranking):
        p = len(ranking)
        scores = np.linspace(1.0, 0.1, p)[np.argsort(ranking)]
        return ks.ScreeningResult(
            scores=scores,
            ranking=np.asarray(ranking),
            selected=np.asarray(ranking[:1]),
            epsilon=None,
            method=ks.Method.DC,
            m=1,
        )

    def test_definition(self):
        res = self._result_with_ranking([4, 9, 1, 6, 2, 3, 7, 5, 8, 10])
        # features 4, 1, 7 sit at rank positions 1, 3, 7
        assert ks.min_model_size(res, [4, 1, 7]) == 7

    def test_best_case(self):
        res = self._result_with_ranking([2, 5, 1, 3, 4])
        assert ks.min_model_size(res, [2, 5]) == 2

    @pytest.mark.parametrize("seed", range(5))
    def test_prefix_scan_oracle(self, seed):
        rng = np.random.default_rng(seed)
        ranking = rng.permutation(10) + 1
        res = self._result_with_ranking(list(ranking))
        got = ks.min_model_size(res, [2, 5])
        assert got == min_size_prefix_scan(ranking, [2, 5])

    def test_bounds(self):
        res = self._result_with_ranking([3, 1, 2])
        with pytest.raises(ArgumentError):
            ks.min_model_size(res, [])
        with pytest.raises(ArgumentError):
            ks.min_model_size(res, [4])


class TestSpecAndDefaults:
    def test_d1_at_n200_is_37(self):
        spec = ks.SimulationSpec(suite="sim1", model_id=1, n=200, p=100, reps=1, seed=0)
        assert ks.default_d_values(spec) == (37, 74, 111)

    def test_sim2_model_specific_d(self):
        s1 = ks.SimulationSpec(suite="sim2", model_id=1, n=200, p=10, reps=1, seed=0)
        s2 = ks.SimulationSpec(suite="sim2", model_id=2, n=200, p=10, reps=1, seed=0)
        assert ks.default_d_values(s1) == (2, 4, 6)
        assert ks.default_d_values(s2) == (4, 8, 12)

    def test_invalid_specs(self):
        with pytest.raises(ArgumentError):
            ks.SimulationSpec(suite="sim3", model_id=1, n=10, p=30, reps=1, seed=0)
        with pytest.raises(ArgumentError):
            ks.SimulationSpec(suite="sim1", model_id=5, n=10, p=30, reps=1, seed=0)
        with pytest.raises(ArgumentError):
            ks.SimulationSpec(suite="sim1", model_id=1, n=10, p=10, reps=1, seed=0)
        with pytest.raises(ArgumentError):
            ks.SimulationSpec(suite="sim1", model_id=1, n=10, p=30, reps=0, seed=0)
        with pytest.raises(ArgumentError):
            ks.SimulationSpec(suite="sim1", model_id=1, n=3, p=30, reps=1, seed=0)
        with pytest.raises(ArgumentError):
            ks.SimulationSpec(suite="sim1", model_id=1, n=10, p=30, reps=1, seed=0, ar_rho=1.0)

    @pytest.mark.parametrize("field, value", [
        ("n", 40.5), ("n", "40"), ("p", 30.5), ("p", None), ("reps", 2.5), ("reps", True),
        ("model_id", 1.0), ("model_id", True),
    ])
    def test_non_integer_size_rejected(self, field, value):
        args = dict(suite="sim1", model_id=1, n=40, p=30, reps=2, seed=0)
        args[field] = value
        with pytest.raises(ArgumentError, match=f"{field} must be an integer"):
            ks.SimulationSpec(**args)

    def test_numpy_integer_sizes_accepted(self):
        spec = ks.SimulationSpec(suite="sim1", model_id=np.int64(1), n=np.int32(40),
                                 p=np.int64(30), reps=np.uint8(2), seed=np.int16(0))
        assert (spec.model_id, spec.n, spec.p, spec.reps) == (1, 40, 30, 2)

    @pytest.mark.parametrize("seed", [-1, 1.5, True, "0", None])
    def test_bad_seed_rejected(self, seed):
        with pytest.raises(ArgumentError):
            ks.SimulationSpec(suite="sim2", model_id=1, n=10, p=10, reps=1, seed=seed)

    def test_gcv_subsample_is_not_a_keyword(self):
        spec = ks.SimulationSpec(suite="sim2", model_id=1, n=10, p=10, reps=1, seed=0)
        with pytest.raises(TypeError):
            ks.run_suite(spec, ("kcca",), gcv_subsample=4)

    @pytest.mark.parametrize("methods", [("kcca",), ("dc",)])
    @pytest.mark.parametrize("epsilon", ["bogus", -1.0, 0.0, float("nan"), None])
    def test_bad_epsilon_rejected_before_the_pool_starts(self, monkeypatch, methods, epsilon):
        def boom(*args, **kwargs):
            raise AssertionError("run_suite started its pool before checking epsilon")

        monkeypatch.setattr(ks.simulation, "ProcessPoolExecutor", boom)
        spec = ks.SimulationSpec(suite="sim2", model_id=1, n=10, p=10, reps=2, seed=0)
        with pytest.raises(ArgumentError, match="epsilon"):
            ks.run_suite(spec, methods, epsilon=epsilon)

    @pytest.mark.parametrize("d_values", [
        (2.7, 4.2, 6.9), (2.7, True, 6.9), (2, 4.0, 6), (0, 4, 6), (2, "4", 6), (2, 1, 6),
        (2, 6, 4),
    ])
    def test_bad_d_values_rejected_before_the_pool_starts(self, monkeypatch, d_values):
        def boom(*args, **kwargs):
            raise AssertionError("run_suite started its pool before checking d_values")

        monkeypatch.setattr(ks.simulation, "ProcessPoolExecutor", boom)
        spec = ks.SimulationSpec(suite="sim1", model_id=1, n=20, p=25, reps=1, seed=0)
        with pytest.raises(ArgumentError, match="d value"):
            ks.run_suite(spec, ("sis",), d_values=d_values)

    def test_numpy_integer_d_values_reported_as_ints(self):
        spec = ks.SimulationSpec(suite="sim1", model_id=1, n=20, p=25, reps=1, seed=0)
        rep = ks.run_suite(spec, ("sis",), d_values=(np.int64(2), 4, np.int32(4)))
        assert rep.d_values == (2, 4, 4)
        assert all(type(d) is int for d in rep.d_values)

    @pytest.mark.parametrize("threads", [1.5, True, "2", None, 0])
    def test_bad_threads_rejected_before_the_pool_starts(self, monkeypatch, threads):
        def boom(*args, **kwargs):
            raise AssertionError("run_suite started its pool before checking threads")

        monkeypatch.setattr(ks.simulation, "ProcessPoolExecutor", boom)
        spec = ks.SimulationSpec(suite="sim2", model_id=1, n=10, p=10, reps=2, seed=0)
        with pytest.raises(ArgumentError, match="threads"):
            ks.run_suite(spec, ("dc",), threads=threads)

    def test_invalid_generator_arguments(self):
        x = ks.ar_gaussian(20, 25, 0.8, seed=0)
        with pytest.raises(ArgumentError):
            ks.ar_gaussian(0, 5, 0.5, seed=0)
        with pytest.raises(ArgumentError):
            ks.gen_sim1(x, 5, seed=0)
        with pytest.raises(ArgumentError):
            ks.gen_sim2(x, 3, seed=0)

    def test_metrics_report_validation(self):
        spec = ks.SimulationSpec(suite="sim1", model_id=1, n=20, p=25, reps=2, seed=0)
        good = dict(
            spec=spec,
            methods=(ks.Method.DC,),
            d_values=(2, 4, 6),
            s_quantiles={"dc": (1.0, 2.0, 3.0)},
            p_proportions={"dc": (0.1, 0.5, 1.0)},
            s_values={"dc": (4, 5)},
        )
        ks.MetricsReport(**good)
        with pytest.raises(ArgumentError):
            ks.MetricsReport(**{**good, "d_values": (6, 4, 2)})
        with pytest.raises(ArgumentError):
            ks.MetricsReport(**{**good, "s_quantiles": {"dc": (3.0, 2.0, 1.0)}})
        with pytest.raises(ArgumentError):
            ks.MetricsReport(**{**good, "p_proportions": {"dc": (0.5, 0.4, 1.0)}})


@pytest.fixture(scope="module")
def small_report():
    spec = ks.SimulationSpec(suite="sim1", model_id=1, n=50, p=25, reps=6, seed=33)
    return spec, ks.run_suite(spec, ("dc", "sis"), threads=2)


class TestRunSuite:

    def test_proportions_nested(self, small_report):
        _, rep = small_report
        for method in ("dc", "sis"):
            p1, p2, p3 = rep.p_proportions[method]
            assert 0.0 <= p1 <= p2 <= p3 <= 1.0

    def test_p_is_exact_count_ratio(self, small_report):
        spec, rep = small_report
        for method in ("dc", "sis"):
            s = np.asarray(rep.s_values[method])
            for d, got in zip(rep.d_values, rep.p_proportions[method]):
                assert got == np.count_nonzero(s <= d) / spec.reps

    def test_s_bounds(self, small_report):
        spec, rep = small_report
        for method in ("dc", "sis"):
            s = np.asarray(rep.s_values[method])
            assert np.all(s >= 4)  # |active| = 4
            assert np.all(s <= spec.p)

    def test_quantiles_match_numpy_linear(self, small_report):
        _, rep = small_report
        for method in ("dc", "sis"):
            s = np.asarray(rep.s_values[method], dtype=float)
            want = tuple(float(v) for v in np.quantile(s, (0.25, 0.5, 0.75)))
            assert rep.s_quantiles[method] == want

    def test_constant_sequence_quantiles(self):
        vals = np.array([7.0, 7.0, 7.0])
        q = np.quantile(vals, (0.25, 0.5, 0.75))
        assert tuple(q) == (7.0, 7.0, 7.0)

    def test_method_order_does_not_change_data(self, small_report):
        spec, rep = small_report
        swapped = ks.run_suite(spec, ("sis", "dc"), threads=1)
        assert swapped.s_values["dc"] == rep.s_values["dc"]
        assert swapped.s_values["sis"] == rep.s_values["sis"]

    def test_same_seed_identical_thread_counts(self, small_report):
        spec, rep = small_report
        again = ks.run_suite(spec, ("dc", "sis"), threads=1)
        assert again.s_values == rep.s_values
        assert again.s_quantiles == rep.s_quantiles
        assert again.p_proportions == rep.p_proportions

    def test_sis_rejected_on_sim2(self):
        spec = ks.SimulationSpec(suite="sim2", model_id=1, n=20, p=6, reps=2, seed=0)
        with pytest.raises(UnsupportedMethodError):
            ks.run_suite(spec, ("sis",))

    def test_to_rows_layout(self, small_report):
        spec, rep = small_report
        rows = rep.to_rows()
        assert len(rows) == 2 * 6
        assert rows[0] == ("sim1", 1, "dc", "S_q25", rep.s_quantiles["dc"][0])
        labels = [r[3] for r in rows[:6]]
        assert labels == ["S_q25", "S_q50", "S_q75", "P_d1", "P_d2", "P_d3"]

    def test_duplicate_methods_rejected(self):
        spec = ks.SimulationSpec(suite="sim1", model_id=1, n=20, p=25, reps=1, seed=0)
        with pytest.raises(ArgumentError):
            ks.run_suite(spec, ("dc", "dc"))

    def test_bad_suite_arguments(self):
        spec = ks.SimulationSpec(suite="sim1", model_id=1, n=20, p=25, reps=1, seed=0)
        with pytest.raises(ArgumentError):
            ks.run_suite(spec, ())
        with pytest.raises(ArgumentError):
            ks.run_suite(spec, ("dc",), threads=0)
        with pytest.raises(ArgumentError):
            ks.run_suite(spec, ("dc",), d_values=(1, 2))

    def test_blas_env_restored_after_run(self, monkeypatch):
        import os

        monkeypatch.setenv("OMP_NUM_THREADS", "2")
        spec = ks.SimulationSpec(suite="sim1", model_id=1, n=20, p=25, reps=1, seed=0)
        ks.run_suite(spec, ("sis",), threads=1)
        assert os.environ["OMP_NUM_THREADS"] == "2"


class TestReplicationWorker:
    def test_matches_run_suite_entries(self, small_report):
        from kscreen.measures import Method
        from kscreen.simulation import _replication_sizes

        spec, rep = small_report
        direct = _replication_sizes(spec, (Method.DC,), "auto", 2)
        assert direct["dc"] == rep.s_values["dc"][2]

    def test_kcca_path_in_process(self):
        from kscreen.measures import Method
        from kscreen.simulation import _replication_sizes

        spec = ks.SimulationSpec(suite="sim2", model_id=2, n=24, p=8, reps=1, seed=77)
        out = _replication_sizes(spec, (Method.KCCA, Method.HSIC), "auto", 0)
        assert 4 <= out["kcca"] <= 8 and 4 <= out["hsic"] <= 8

    def test_failure_names_replication_index(self):
        from kscreen.measures import Method
        from kscreen.simulation import _replication_sizes

        spec = ks.SimulationSpec(suite="sim1", model_id=1, n=20, p=25, reps=5, seed=0)
        with pytest.raises(ArgumentError, match="replication 3"):
            _replication_sizes(spec, (Method.KCCA,), -1.0, 3)

    def test_one_kernel_preparation_per_replication(self, monkeypatch):
        # kcca and hsic share every bandwidth, factor and centered stack:
        # p + 1 distance sums (the response's by _distance_sum, the p
        # columns' from one batched pass), one factor per predictor, and each
        # stack gram_block returns centered once, its cross product with the
        # response's centered factor formed once and read by both kernel
        # methods, with the GCV subsample drawn (p > 20).
        from kscreen import screening
        from kscreen.measures import Method
        from kscreen.simulation import _replication_sizes

        calls = {"bandwidth": 0, "factors": 0}
        expected, responses, kept = [], [], []
        scored = {"kcca": [], "hsic": []}

        def counting(key, fn, size=lambda *a: 1):
            def wrapped(*args, **kwargs):
                calls[key] += size(*args)
                return fn(*args, **kwargs)
            return wrapped

        def centering(factor, center=screening.center):
            responses.append(center(factor))
            return responses[-1]

        gram_block = screening.gram_block

        def building(samples, gammas):
            built = gram_block(samples, gammas)
            calls["factors"] += sum(len(pos) for pos, _ in built)
            (ly_c,) = responses
            for _, stack in built:
                ct = np.swapaxes(stack - stack.mean(axis=1, keepdims=True), 1, 2)
                expected.append(((ct @ ct.swapaxes(1, 2)).tobytes(), (ct @ ly_c).tobytes()))
            return built

        def kcca_scoring(g, cross, *args, stack_kcca=screening._stack_kcca):
            kept.append(cross)  # so that no other array can take its id
            scored["kcca"].append((g.tobytes(), cross.tobytes(), id(cross)))
            return stack_kcca(g, cross, *args)

        def hsic_scoring(cross, n, stack_hsic=screening._stack_hsic):
            kept.append(cross)
            scored["hsic"].append((cross.tobytes(), id(cross)))
            return stack_hsic(cross, n)

        monkeypatch.setattr(screening, "_distance_sum",
                            counting("bandwidth", screening._distance_sum))
        monkeypatch.setattr(screening, "_scalar_distance_sums",
                            counting("bandwidth", screening._scalar_distance_sums, len))
        monkeypatch.setattr(screening, "center", centering)
        monkeypatch.setattr(screening, "gram_block", building)
        monkeypatch.setattr(screening, "_stack_kcca", kcca_scoring)
        monkeypatch.setattr(screening, "_stack_hsic", hsic_scoring)
        monkeypatch.setattr(screening, "GCV_SUBSAMPLE", 20)
        p = 40
        spec = ks.SimulationSpec(suite="sim2", model_id=1, n=30, p=p, reps=1, seed=5)
        out = _replication_sizes(spec, (Method.KCCA, Method.HSIC, Method.DC), "auto", 0)
        assert set(out) == {"kcca", "hsic", "dc"}
        assert calls == {"bandwidth": p + 1, "factors": p} and len(responses) == 1
        # Each stack once, centered once, by each method, and one cross
        # product object shared by both.
        assert sorted(k[:2] for k in scored["kcca"]) == sorted(expected)
        assert sorted(h[0] for h in scored["hsic"]) == sorted(x for _, x in expected)
        assert sorted(k[2] for k in scored["kcca"]) == sorted(h[1] for h in scored["hsic"])

    def test_one_kernel_preparation_per_replication_across_merged_piles(self, monkeypatch):
        # As above, at a p where KCCA finishes the stacks of several builds
        # in one _stack_kcca call.  Each stack's cross product with the
        # response's centered factor is formed once: the factor counts the
        # matmuls that take it with a stack of factors.  Member by member,
        # KCCA reads the Grams and cross products of the stacks as built and
        # centered once, and the cross products HSIC read.
        from kscreen import screening
        from kscreen.measures import Method
        from kscreen.simulation import _replication_sizes

        calls = {"bandwidth": 0, "factors": 0, "cross": 0}
        responses, stacks = [], []
        members = {"built": [], "kcca": [], "hsic": []}  # each member's bytes

        class Counted(np.ndarray):
            def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
                if ufunc is np.matmul and inputs[-1] is self and np.ndim(inputs[0]) == 3:
                    calls["cross"] += 1
                inputs = [np.asarray(a) if isinstance(a, Counted) else a for a in inputs]
                return getattr(ufunc, method)(*inputs, **kwargs)

        def counting(key, fn, size=lambda *a: 1):
            def wrapped(*args, **kwargs):
                calls[key] += size(*args)
                return fn(*args, **kwargs)
            return wrapped

        def centering(factor, center=screening.center):
            responses.append(center(factor).view(Counted))
            return responses[-1]

        gram_block = screening.gram_block

        def building(samples, gammas):
            built = gram_block(samples, gammas)
            calls["factors"] += sum(len(pos) for pos, _ in built)
            ly_c = np.asarray(responses[0])
            for _, stack in built:
                ct = np.swapaxes(stack - stack.mean(axis=1, keepdims=True), 1, 2)
                members["built"].extend(
                    (g.tobytes(), x.tobytes()) for g, x in zip(ct @ ct.swapaxes(1, 2), ct @ ly_c))
            return built

        def kcca_scoring(g, cross, *args, stack_kcca=screening._stack_kcca):
            stacks.append("kcca")
            members["kcca"].extend((gm.tobytes(), xm.tobytes()) for gm, xm in zip(g, cross))
            return stack_kcca(g, cross, *args)

        def hsic_scoring(cross, n, stack_hsic=screening._stack_hsic):
            stacks.append("hsic")
            members["hsic"].extend(xm.tobytes() for xm in cross)
            return stack_hsic(cross, n)

        monkeypatch.setattr(screening, "_distance_sum",
                            counting("bandwidth", screening._distance_sum))
        monkeypatch.setattr(screening, "_scalar_distance_sums",
                            counting("bandwidth", screening._scalar_distance_sums, len))
        monkeypatch.setattr(screening, "center", centering)
        monkeypatch.setattr(screening, "gram_block", building)
        monkeypatch.setattr(screening, "_stack_kcca", kcca_scoring)
        monkeypatch.setattr(screening, "_stack_hsic", hsic_scoring)
        # 32-wide builds, so that the rest's piles span several builds; the
        # default budget builds all 100 at n = 30 at once.
        monkeypatch.setattr("kscreen.kernels._BUILD_BYTES", 32 * 8 * 30 * 30)
        p = 300  # GCV_SUBSAMPLE = 200 of them drawn, then four builds more
        spec = ks.SimulationSpec(suite="sim2", model_id=1, n=30, p=p, reps=1, seed=5)
        out = _replication_sizes(spec, (Method.KCCA, Method.HSIC, Method.DC), "auto", 0)
        assert set(out) == {"kcca", "hsic", "dc"} and len(responses) == 1
        built = stacks.count("hsic")
        assert calls == {"bandwidth": p + 1, "factors": p, "cross": built}
        assert stacks.count("kcca") < built  # some piles held several stacks
        assert sorted(members["kcca"]) == sorted(members["built"])
        assert sorted(members["hsic"]) == sorted(x for _, x in members["built"])

    def test_constant_column_warns_once_per_replication(self, monkeypatch):
        import warnings

        from kscreen import simulation
        from kscreen.measures import Method

        generate = simulation._generate_instance

        def with_constant_column(spec, rep_seed):
            inst = generate(spec, rep_seed)
            x = inst.x.values.copy()
            x[:, 5] = 1.0
            return simulation.ModelInstance(ks.DataMatrix(x), inst.y, inst.active, inst.coeffs)

        monkeypatch.setattr(simulation, "_generate_instance", with_constant_column)
        spec = ks.SimulationSpec(suite="sim1", model_id=1, n=30, p=25, reps=1, seed=0)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            simulation._replication_sizes(spec, (Method.KCCA, Method.HSIC, Method.DC, Method.SIS),
                                          "auto", 0)
        degenerate = [w for w in caught if issubclass(w.category, ks.DegenerateDataWarning)]
        assert len(degenerate) == 1 and "feature 6" in str(degenerate[0].message)
