import logging
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cogopt import benchmark as bm
from cogopt import gp, optimizers
from cogopt.errors import ConfigError, DegenerateInput, DuplicatePipelineInGroup
from cogopt.knowledge import ParameterSpec
from cogopt.rating import rate_pipelines

BOUNDS = (0.0, 1.0)


def make_model():
    X = np.linspace(0, 1, 12)
    y = np.sin(2 * np.pi * X) + 0.3 * X
    return gp.fit(gp.Dataset(X=X, y=y, bounds=BOUNDS), noise=True)


def rec(pipeline, instance="i0", budget=36, best_y=1.0, cpu=1.0, mem=100.0, rank=None):
    return bm.EvaluationRecord(pipeline=pipeline, instance=instance, budget=budget,
                               best_y=best_y, cpu_time=cpu, memory_bytes=mem, rank=rank)


class TestGenerateTestFunctions:
    def test_empty_set_is_valid(self):
        S = bm.generate_test_functions(make_model(), 0)
        assert len(S) == 0

    def test_deterministic(self):
        a = bm.generate_test_functions(make_model(), 3, master_seed=5)
        b = bm.generate_test_functions(make_model(), 3, master_seed=5)
        for ra, rb in zip(a, b):
            assert np.array_equal(ra.values, rb.values)

    def test_instances_equal_single_draws(self):
        model = make_model()
        S = bm.generate_test_functions(model, 3, master_seed=2)
        grid = gp.default_grid(BOUNDS)
        for i, inst in enumerate(S):
            one = gp.simulate_unconditional(model, grid, seed=bm.derive_seed(2, i))
            assert np.array_equal(inst.values, one.values) and inst.seed == one.seed

    def test_instances_differ_pairwise(self):
        S = bm.generate_test_functions(make_model(), 5, master_seed=1)
        for i in range(5):
            for j in range(i + 1, 5):
                diff = np.max(np.abs(S[i].values - S[j].values))
                assert diff > 0


class TestTuneThenBenchmark:
    def run(self, candidates=(("RandomSearch", ()),), **kw):
        kw.setdefault("tuning_budget", 2)
        kw.setdefault("bench_budget", 12)
        kw.setdefault("reps", 2)
        tune_on, bench_on = bm.generate_test_functions(make_model(), 2)
        return bm.tune_then_benchmark(list(candidates), tune_on, bench_on, BOUNDS, **kw)

    def test_no_parameters_means_no_tuning(self):
        records = self.run()
        assert all(r.tuned_params == {} for r in records)

    def test_tuning_budget_one_takes_single_sample(self):
        specs = (ParameterSpec("temp", "real", 100.0, 1.0, 10000.0),)
        records = self.run([("GeneralizedSA", specs)], tuning_budget=1)
        draw = np.random.default_rng(bm.derive_seed(0, 0, bm._TUNE_DRAW))
        assert records[0].tuned_params == {"temp": float(draw.uniform(1.0, 10000.0))}

    def test_one_record_at_the_bench_budget(self):
        assert [r.budget for r in self.run(bench_budget=36)] == [36]

    def test_records_are_one_campaign_of_the_tuned_pipelines(self):
        specs = (ParameterSpec("temp", "real", 100.0, 1.0, 10000.0),)
        candidates = [("RandomSearch", ()), ("GeneralizedSA", specs), ("HillClimber", ())]
        records = self.run(candidates, tuning_budget=3, seed=7)
        assert [r.pipeline for r in records] == [name for name, _ in candidates]
        assert {r.instance for r in records} == {"instance-1"}
        _, bench_on = bm.generate_test_functions(make_model(), 2)
        pipelines = [(r.pipeline, r.tuned_params) for r in records]
        campaign = bm.run_campaign(pipelines, {"instance-1": bench_on}, BOUNDS, 12,
                                   checkpoints=(12,), reps=2, master_seed=7)
        strip = lambda r: (r.pipeline, r.instance, r.budget, r.best_y, r.memory_bytes,
                           r.tuned_params)
        assert list(map(strip, records)) == list(map(strip, campaign))

    def test_a_refused_configuration_is_logged_and_skipped(self, monkeypatch, caplog):
        def picky(problem, seed, temp):
            if temp > 5000.0:
                raise ConfigError(f"temp {temp} too hot")
            return optimizers.random_search(problem, seed)

        monkeypatch.setitem(optimizers._RUNNERS, "Picky", picky)
        caplog.set_level(logging.INFO, logger="cogopt.benchmark")
        specs = (ParameterSpec("temp", "real", 100.0, 1.0, 10000.0),)
        records = self.run([("Picky", specs)], tuning_budget=20)
        logged = [r for r in caplog.records if r.name == "cogopt.benchmark"]
        assert logged and {r.levelno for r in logged} == {logging.INFO}
        assert all("Picky" in r.getMessage() and "temp" in r.getMessage()
                   and "too hot" in r.getMessage() for r in logged)
        assert len(logged) < 20 and records[0].tuned_params["temp"] <= 5000.0

    def test_a_candidate_whose_every_sample_is_refused_keeps_its_defaults(self, monkeypatch):
        ran = []

        def default_only(problem, seed, temp=None):  # refuses all but the spec's default
            ran.append(temp)
            if temp != 100.0:
                raise ConfigError(f"temp {temp} refused")
            return optimizers.random_search(problem, seed)

        monkeypatch.setitem(optimizers._RUNNERS, "DefaultOnly", default_only)
        specs = (ParameterSpec("temp", "real", 100.0, 1.0, 10000.0),)
        assert bm._tune("DefaultOnly", specs, make_model(), BOUNDS, tuning_budget=4, budget=12,
                        seed=0, index=0) == {"temp": 100.0}
        assert len(ran) == 4 and 100.0 not in ran
        records = self.run([("DefaultOnly", specs)], tuning_budget=3)
        assert records[0].tuned_params == {"temp": 100.0} and ran[-2:] == [100.0, 100.0]


class TestRankAlgorithms:
    def test_plain_ordering(self):
        records = [rec("A", best_y=0.1), rec("B", best_y=0.3), rec("C", best_y=0.2)]
        ranked = bm.rank_algorithms(records)
        assert [r.rank for r in ranked] == [1.0, 3.0, 2.0]

    def test_tie_mid_ranks(self):
        records = [rec("A", best_y=0.1), rec("B", best_y=0.1), rec("C", best_y=0.5)]
        ranked = bm.rank_algorithms(records)
        assert [r.rank for r in ranked] == [1.5, 1.5, 3.0]

    def test_singleton(self):
        ranked = bm.rank_algorithms([rec("A")])
        assert ranked[0].rank == 1.0

    def test_duplicate_pipeline_rejected(self):
        with pytest.raises(DuplicatePipelineInGroup):
            bm.rank_algorithms([rec("A"), rec("A")])

    def test_groups_are_independent(self):
        records = [rec("A", budget=6, best_y=0.5), rec("B", budget=6, best_y=0.1),
                   rec("A", budget=12, best_y=0.1), rec("B", budget=12, best_y=0.5)]
        ranked = bm.rank_algorithms(records)
        assert [r.rank for r in ranked] == [2.0, 1.0, 1.0, 2.0]

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(-100, 100, allow_nan=False), min_size=1, max_size=8))
    def test_rank_sum_property(self, values):
        records = [rec(f"P{i}", best_y=v) for i, v in enumerate(values)]
        ranked = bm.rank_algorithms(records)
        n = len(values)
        assert sum(r.rank for r in ranked) == pytest.approx(n * (n + 1) / 2)


@settings(max_examples=200, deadline=None)
@given(values=st.lists(st.sampled_from([-1.5, 0.0, 0.25, 2.0, np.inf]), min_size=1, max_size=12)
       | st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=12))
def test_average_ranks_equal_scipy_rankdata(values):
    from scipy.stats import rankdata
    values = np.array(values)
    assert np.array_equal(bm._average_ranks(values), rankdata(values, method="average"))


class TestPearson:
    def test_identity(self):
        res = bm.pearson_correlation([1, 2, 3, 4], [1, 2, 3, 4])
        assert res.r == pytest.approx(1.0)
        assert res.p_value == 0.0

    def test_reversal(self):
        res = bm.pearson_correlation([1, 2, 3], [3, 2, 1])
        assert res.r == pytest.approx(-1.0)

    def test_zero_variance(self):
        with pytest.raises(DegenerateInput):
            bm.pearson_correlation([1, 1, 1], [1, 2, 3])

    def test_too_short(self):
        with pytest.raises(DegenerateInput):
            bm.pearson_correlation([1, 2], [1, 2])

    def test_t_statistic_formula(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal(66)
        b = a + 0.5 * rng.standard_normal(66)
        res = bm.pearson_correlation(a, b)
        assert res.df == 64
        assert res.t_statistic == pytest.approx(res.r * math.sqrt(64 / (1 - res.r ** 2)))
        assert 0.0 <= res.p_value <= 1.0
        lo, hi = res.conf_int
        assert lo < res.r < hi

    def test_published_correlation_reproduces_its_t_value(self):
        # r = 0.823 with df = 64 corresponds to t ~ 11.575 (rounded r explains
        # the small residual)
        t = 0.823 * math.sqrt(64 / (1 - 0.823 ** 2))
        assert t == pytest.approx(11.575, abs=0.05)

    @settings(max_examples=100, deadline=None)
    @given(a=st.lists(st.floats(-10.0, 10.0), min_size=4, max_size=30), seed=st.integers(0, 99))
    def test_p_value_equals_scipy_t_tail(self, a, seed):
        from scipy.stats import t as t_dist
        a = np.array(a)
        b = a + np.random.default_rng(seed).standard_normal(a.size)
        try:
            res = bm.pearson_correlation(a, b)
        except DegenerateInput:
            return
        if np.isfinite(res.t_statistic):
            assert res.p_value == float(2.0 * t_dist.sf(abs(res.t_statistic), res.df))

    def test_symmetry_and_affine_invariance(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal(20)
        b = rng.standard_normal(20)
        r1 = bm.pearson_correlation(a, b).r
        assert bm.pearson_correlation(b, a).r == pytest.approx(r1)
        assert bm.pearson_correlation(3.0 * a + 7.0, b).r == pytest.approx(r1)


class TestCampaign:
    PIPELINES = [("RandomSearch", {}), ("HillClimber", {})]

    def objectives(self):
        S = bm.generate_test_functions(make_model(), 2, master_seed=3)
        return {"sim-0": S[0], "sim-1": S[1]}

    def test_record_count(self):
        objectives = self.objectives()
        records = bm.run_campaign(self.PIPELINES, objectives, BOUNDS,
                                  budget=36, checkpoints=(6, 12, 18, 24, 30, 36, 42), reps=2)
        assert len(records) == 2 * 2 * 6  # pipelines x instances x checkpoints <= budget
        for pid, _ in self.PIPELINES:
            for iname in objectives:
                mine = [r for r in records if (r.pipeline, r.instance) == (pid, iname)]
                assert [r.budget for r in mine] == [6, 12, 18, 24, 30, 36]
                ys = [r.best_y for r in mine]
                assert all(a >= b for a, b in zip(ys, ys[1:]))  # more budget never hurts

    def test_zero_reps_is_refused(self):
        with pytest.raises(ConfigError):
            bm.run_campaign(self.PIPELINES, self.objectives(), BOUNDS, budget=12, reps=0)

    def test_serial_parallel_equivalence(self):
        kw = dict(budget=12, checkpoints=(6, 12), reps=3, master_seed=9)
        serial = bm.run_campaign(self.PIPELINES, self.objectives(), BOUNDS, workers=1, **kw)
        parallel = bm.run_campaign(self.PIPELINES, self.objectives(), BOUNDS, workers=4, **kw)
        for a, b in zip(serial, parallel):
            assert (a.pipeline, a.instance, a.budget) == (b.pipeline, b.instance, b.budget)
            assert a.best_y == b.best_y
            assert a.memory_bytes == b.memory_bytes
            assert a.tuned_params == b.tuned_params

    def test_seed_derivation_is_stable(self):
        assert bm.derive_seed(0, 1, 2) == bm.derive_seed(0, 1, 2)
        assert bm.derive_seed(0, 1, 2) != bm.derive_seed(0, 2, 1)

    @settings(max_examples=10, deadline=None)
    @given(c=st.floats(-1e6, 1e6), lo=st.floats(-1e3, 1e3), width=st.floats(1e-3, 1e3))
    def test_constant_objective_ties_every_pipeline(self, c, lo, width):
        # a flat landscape: every pipeline finds c, so every rank ties and no
        # competitor improves on the baseline
        bounds = (lo, lo + width)
        flat = gp.Realization(grid=np.linspace(*bounds, 8), values=np.full(8, c), seed=0)
        pipelines = [(a, {}) for a in optimizers.ALGORITHMS]
        records = bm.rank_algorithms(bm.run_campaign(
            pipelines, {"sim-0": flat}, bounds, budget=12, checkpoints=(6, 12), reps=2))
        assert len(records) == len(pipelines) * 2
        assert all(r.best_y == c for r in records)
        assert {r.rank for r in records} == {(len(pipelines) + 1) / 2}
        table, p_best, _ = rate_pipelines(records, optimizers.BASELINE, (0.8, 0.1, 0.1))
        assert p_best is None and table.survivors == ()
        assert set(table.eliminated) == set(optimizers.ALGORITHMS) - {optimizers.BASELINE}


class TestCsvRoundTrip:
    def test_round_trip(self, tmp_path):
        records = bm.rank_algorithms([rec("A", best_y=0.125), rec("B", best_y=0.25)])
        path = tmp_path / "records.csv"
        bm.records_to_csv(records, path)
        back = bm.records_from_csv(path)
        for a, b in zip(records, back):
            assert a.pipeline == b.pipeline
            assert a.best_y == b.best_y
            assert a.rank == b.rank

    def test_malformed_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        from cogopt.errors import MalformedInput
        with pytest.raises(MalformedInput):
            bm.records_from_csv(path)
