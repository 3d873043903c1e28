import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cogopt.benchmark import EvaluationRecord
from cogopt.errors import MissingBaseline, SchemaError
from cogopt.rating import rate_pipelines, validate_weights

PAPER = (0.8, 0.1, 0.1)
RESOURCE_AWARE = (0.5, 0.25, 0.25)


def rec(pipeline, best_y, cpu, mem, instance="i0", budget=36):
    return EvaluationRecord(pipeline=pipeline, instance=instance, budget=budget,
                            best_y=best_y, cpu_time=cpu, memory_bytes=mem)


def forced_fixture():
    """Baseline at 1.0 with A improving 0.4 and B improving 0.2.

    mem ratios (A, B) = (2.0, 1.0), cpu ratios = (3.0, 1.5).
    """
    return [
        rec("Base", best_y=1.0, cpu=1.0, mem=100.0),
        rec("A", best_y=0.6, cpu=3.0, mem=200.0),
        rec("B", best_y=0.8, cpu=1.5, mem=100.0),
    ]


class TestWeights:
    def test_paper_scenario_ok(self):
        validate_weights("weights", PAPER)

    def test_zero_weight_rejected(self):
        with pytest.raises(SchemaError, match="^weights: .*strictly positive"):
            validate_weights("weights", (1.0, 0.0, 0.0))

    @pytest.mark.parametrize("weights", [(float("nan"), 0.5, 0.5), (0.5, float("nan"), 0.5)])
    def test_nan_is_refused(self, weights):
        # NaN fails `w <= 0` and `abs(sum - 1) > 1e-9` alike, so both checks must refuse it
        with pytest.raises(SchemaError, match="^weights: must be strictly positive"):
            validate_weights("weights", weights)

    def test_sum_must_be_one(self):
        with pytest.raises(SchemaError, match=r"^scenarios\[1\]: .*sum to 1"):
            validate_weights("scenarios[1]", (0.5, 0.3, 0.3))

    @pytest.mark.parametrize("weights", [(1.0,), (0.5, 0.5), (0.25, 0.25, 0.25, 0.25)])
    def test_exactly_three(self, weights):
        with pytest.raises(SchemaError, match=f"^weights: need three weights, got {len(weights)}"):
            validate_weights("weights", weights)


class TestRatePipelines:
    def test_forced_arithmetic_scenario_one(self):
        table, p_best, _ = rate_pipelines(forced_fixture(), "Base", PAPER)
        a, b = table.ratings["A"], table.ratings["B"]
        assert (a.norm_obj, a.norm_mem, a.norm_cpu) == (1.0, 0.0, 0.0)
        assert (b.norm_obj, b.norm_mem, b.norm_cpu) == (0.0, 1.0, 1.0)
        assert a.aggregate == pytest.approx(0.8)
        assert b.aggregate == pytest.approx(0.2)
        assert p_best == "A"

    def test_forced_arithmetic_scenario_two_tie_breaks_on_cpu(self):
        table, p_best, _ = rate_pipelines(forced_fixture(), "Base", RESOURCE_AWARE)
        assert table.ratings["A"].aggregate == pytest.approx(0.5)
        assert table.ratings["B"].aggregate == pytest.approx(0.5)
        assert p_best == "B"  # smaller cpu_ratio wins the tie

    def test_all_non_improvers_yield_no_winner(self):
        records = [
            rec("Base", best_y=1.0, cpu=1.0, mem=100.0),
            rec("A", best_y=1.2, cpu=1.0, mem=100.0),
            rec("B", best_y=1.0, cpu=1.0, mem=100.0),
        ]
        table, p_best, _ = rate_pipelines(records, "Base", PAPER)
        assert p_best is None
        assert table.survivors == ()
        assert set(table.eliminated) == {"A", "B"}

    def test_eliminated_exactly_the_non_improvers(self):
        records = forced_fixture() + [rec("C", best_y=1.5, cpu=0.5, mem=50.0)]
        table, p_best, _ = rate_pipelines(records, "Base", PAPER)
        assert table.eliminated == ("C",)
        assert set(table.survivors) == {"A", "B"}
        assert p_best != "C"

    def test_baseline_never_a_survivor(self):
        table, _, _ = rate_pipelines(forced_fixture(), "Base", PAPER)
        assert "Base" not in table.survivors
        assert "Base" not in table.ratings

    def test_missing_baseline(self):
        with pytest.raises(MissingBaseline):
            rate_pipelines([rec("A", 0.5, 1.0, 100.0)], "Base", PAPER)

    def test_lone_survivor_gets_unit_norms(self):
        records = [
            rec("Base", best_y=1.0, cpu=1.0, mem=100.0),
            rec("A", best_y=0.5, cpu=2.0, mem=300.0),
        ]
        table, p_best, _ = rate_pipelines(records, "Base", PAPER)
        a = table.ratings["A"]
        assert (a.norm_obj, a.norm_mem, a.norm_cpu) == (1.0, 1.0, 1.0)
        assert a.aggregate == pytest.approx(1.0)
        assert p_best == "A"

    def test_cpu_rescaling_leaves_winner_unchanged(self):
        records = forced_fixture()
        scaled = [
            EvaluationRecord(pipeline=r.pipeline, instance=r.instance, budget=r.budget,
                             best_y=r.best_y, cpu_time=17.0 * r.cpu_time,
                             memory_bytes=r.memory_bytes)
            for r in records
        ]
        for weights in (PAPER, RESOURCE_AWARE):
            _, p1, _ = rate_pipelines(records, "Base", weights)
            _, p2, _ = rate_pipelines(scaled, "Base", weights)
            assert p1 == p2

    def test_groups_averaged_across_instances(self):
        records = forced_fixture() + [
            rec("Base", best_y=2.0, cpu=1.0, mem=100.0, instance="i1"),
            rec("A", best_y=1.0, cpu=3.0, mem=200.0, instance="i1"),
            rec("B", best_y=1.8, cpu=1.5, mem=100.0, instance="i1"),
        ]
        table, p_best, _ = rate_pipelines(records, "Base", PAPER)
        # improvements: A (0.4 + 0.5)/2, B (0.2 + 0.1)/2
        assert table.ratings["A"].improvement == pytest.approx(0.45)
        assert table.ratings["B"].improvement == pytest.approx(0.15)
        assert p_best == "A"

    def test_a_group_without_improvement_counts_in_the_mean(self):
        # A improves by 0.5 in one group and is worse in three; B improves by 0.3 in all four
        records = []
        for i, a in enumerate([0.5, 1.5, 1.5, 1.5]):
            records += [rec("Base", best_y=1.0, cpu=1.0, mem=100.0, instance=f"i{i}"),
                        rec("A", best_y=a, cpu=1.0, mem=100.0, instance=f"i{i}"),
                        rec("B", best_y=0.7, cpu=1.0, mem=100.0, instance=f"i{i}")]
        table, p_best, _ = rate_pipelines(records, "Base", PAPER)
        assert table.ratings["A"].aggregate == pytest.approx(0.25)
        assert table.ratings["B"].aggregate == pytest.approx(0.8)
        assert p_best == "B"

    def test_near_zero_baseline_uses_absolute_difference(self):
        records = [
            rec("Base", best_y=0.0, cpu=1.0, mem=100.0),
            rec("A", best_y=-0.3, cpu=1.0, mem=100.0),
        ]
        table, _, _ = rate_pipelines(records, "Base", PAPER)
        assert table.ratings["A"].improvement == pytest.approx(0.3)

    def test_kb_updates_cover_all_pipelines_within_unit_interval(self):
        records = forced_fixture() + [rec("C", best_y=1.5, cpu=0.5, mem=50.0)]
        _, _, updates = rate_pipelines(records, "Base", PAPER)
        assert {u.algorithm for u in updates} == {"Base", "A", "B", "C"}
        for u in updates:
            assert 0.0 <= u.performance <= 1.0
            assert 0.0 <= u.computational_effort <= 1.0
            assert 0.0 <= u.ram_usage <= 1.0

    def test_survivor_ranks_start_at_one(self):
        table, _, _ = rate_pipelines(forced_fixture(), "Base", PAPER)
        ranks = sorted(table.ratings[p].rank for p in table.survivors)
        assert ranks == [1.0, 2.0]


@st.composite
def rating_groups(draw):
    """Records in random (instance, budget) groups, each holding the baseline;
    any record, the baseline's included, may report zero CPU or zero memory.
    Nonzero values stay above a nanosecond and a byte."""
    others = [f"P{i}" for i in range(draw(st.integers(0, 4)))]
    cpu = st.one_of(st.just(0.0), st.floats(1e-9, 10.0))
    mem = st.one_of(st.just(0.0), st.floats(1.0, 1e6))
    records = []
    for instance in range(draw(st.integers(1, 3))):
        budgets = draw(st.lists(st.sampled_from([6, 12, 36]), min_size=1, max_size=3, unique=True))
        for budget in budgets:
            for p in ["Base"] + [p for p in others if draw(st.booleans())]:
                records.append(rec(p, best_y=draw(st.floats(-10.0, 10.0)), cpu=draw(cpu),
                                   mem=draw(mem), instance=f"i{instance}", budget=budget))
    return records


@settings(max_examples=200, deadline=None)
@given(records=rating_groups(),
       weights=st.sampled_from([PAPER, RESOURCE_AWARE]))
def test_rating_and_kb_update_fields_stay_in_unit_interval(records, weights):
    table, p_best, updates = rate_pipelines(records, "Base", weights)
    competitors = {r.pipeline for r in records} - {"Base"}
    assert set(table.ratings) == competitors
    assert set(table.survivors) | set(table.eliminated) == competitors
    assert not set(table.survivors) & set(table.eliminated)
    assert sorted(u.algorithm for u in updates) == sorted({r.pipeline for r in records})
    for r in table.ratings.values():
        for v in (r.norm_obj, r.norm_mem, r.norm_cpu, r.aggregate):
            assert 0.0 <= v <= 1.0
    for u in updates:
        for v in (u.performance, u.computational_effort, u.ram_usage):
            assert 0.0 <= v <= 1.0
    assert p_best is None or p_best in table.survivors


RATED_FIELDS = ("improvement", "mem_ratio", "cpu_ratio", "norm_obj", "norm_mem", "norm_cpu",
                "aggregate")


@settings(max_examples=200, deadline=None)
@given(records=rating_groups(),
       weights=st.sampled_from([PAPER, RESOURCE_AWARE]))
def test_rating_is_the_mean_of_the_one_group_ratings(records, weights):
    table, _, _ = rate_pipelines(records, "Base", weights)
    groups = {}
    for r in records:
        groups.setdefault((r.instance, r.budget), []).append(r)
    alone = [rate_pipelines(group, "Base", weights)[0] for group in groups.values()]
    for p, rating in table.ratings.items():
        ran = [t for t in alone if p in t.ratings]
        for name in RATED_FIELDS:
            mean = np.mean([getattr(t.ratings[p], name) for t in ran])
            assert getattr(rating, name) == pytest.approx(mean), name
    assert set(table.eliminated) == {
        p for p in table.ratings if all(p in t.eliminated for t in alone if p in t.ratings)}
