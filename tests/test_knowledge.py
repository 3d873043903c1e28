import inspect
import re
import string
from dataclasses import fields, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cogopt import optimizers
from cogopt.errors import SchemaError, UnknownAlgorithm, UnknownGoal
from cogopt.knowledge import (
    AGGREGATIONS,
    ALGORITHM_CLASSES,
    DIRECTIONS,
    METADATA_KEYS,
    OVERALL_GOALS,
    PARAM_KINDS,
    REACH_AIMS,
    AlgorithmCharacteristics,
    AlgorithmEntry,
    GoalSpec,
    KnowledgeBase,
    ParameterSpec,
    ResourceBudget,
    compose_pipelines,
    default_kb,
    determine_feasible,
    dump_kb,
    parse_kb,
    select_candidates,
    update_characteristics,
)

GOAL = GoalSpec("Optimization", ("f",), "mean", "minimize")

KB_DOC = """
caai_kb_version: 1
Optimization:
  minimize:
    mean:
      Algorithms:
        Kriging:
          parameter:
            designSize:
              type: int
              default: 7
              min: 3
              max: 12
          metadata:
            Class: Surrogate
            Reach aim: [optimization-min]
            Min training data: 5
            Prefer usage: true
            Avoid usage: false
            Performance: -1
            Computational Effort: -1
            RAM usage: -1
          input: raw data
          output: parameter proposal
"""


def entry(name, aim=("optimization-min",), min_training=0, prefer=False, avoid=False,
          effort=None):
    return AlgorithmEntry(
        name=name,
        parameters=(),
        metadata=AlgorithmCharacteristics(
            algorithm_class="Baseline",
            reach_aim=frozenset(aim),
            min_training_data=min_training,
            prefer_usage=prefer,
            avoid_usage=avoid,
            computational_effort=effort,
        ),
    )


def kriging(kb):
    return kb.entries_for(GOAL.path)["Kriging"]


def kb_of(*entries):
    return KnowledgeBase(goals={GOAL.path: {e.name: e for e in entries}})


class TestGoalSpec:
    def test_path_and_aim(self):
        assert GOAL.path == ("Optimization", "minimize", "mean")
        assert GOAL.aim == "optimization-min"
        g = GoalSpec("Optimization", ("f",), "mean", "maximize")
        assert g.aim == "optimization-max"

    def test_empty_signals_rejected(self):
        with pytest.raises(SchemaError):
            GoalSpec("Optimization", (), "mean", "minimize")

    def test_non_optimization_goal_is_refused(self):
        with pytest.raises(SchemaError, match="overall_goal"):
            GoalSpec("AnomalyDetection", ("f",), "mean", "minimize")

    def test_unknown_enums_rejected(self):
        with pytest.raises(SchemaError):
            GoalSpec("Optimize", ("f",), "mean", "minimize")
        with pytest.raises(SchemaError):
            GoalSpec("Optimization", ("f",), "median", "minimize")

    @pytest.mark.parametrize("aggregation", ["delta", "min", "max", "value"])
    def test_only_the_mean_runs(self, aggregation):
        # the plant computes one aggregate, the weighted mean of its signals
        with pytest.raises(SchemaError, match=f"^aggregation: .*{aggregation!r}"):
            GoalSpec("Optimization", ("f",), aggregation, "minimize")


class TestParsing:
    def test_min_training_data_parsed(self):
        kb = parse_kb(KB_DOC)
        e = kriging(kb)
        assert e.metadata.min_training_data == 5

    def test_unset_sentinel_maps_to_none(self):
        kb = parse_kb(KB_DOC)
        m = kriging(kb).metadata
        assert m.performance is None
        assert m.computational_effort is None
        assert m.ram_usage is None

    def test_min_above_max_rejected(self):
        with pytest.raises(SchemaError):
            ParameterSpec("p", "integer", default=5, min=10, max=3)

    def test_integer_kind_needs_integers(self):
        with pytest.raises(SchemaError):
            ParameterSpec("p", "integer", default=7.5, min=3, max=12)
        with pytest.raises(SchemaError):
            ParameterSpec("p", "integer", default=7, min=3.0, max=12)

    def test_categorical_default_must_be_member(self):
        with pytest.raises(SchemaError):
            ParameterSpec("t", "categorical", default="x", categories=("a", "b"))

    def test_missing_version_key_rejected(self):
        doc = KB_DOC.replace("caai_kb_version: 1", "")
        with pytest.raises(SchemaError):
            parse_kb(doc)

    def test_dynamic_field_out_of_range_rejected(self):
        with pytest.raises(SchemaError):
            AlgorithmCharacteristics(algorithm_class="Baseline", performance=1.5)

    @pytest.mark.parametrize("old, new, key", [
        ("Avoid usage: false", "Avoid usage: 'false'", "Avoid usage"),
        ("Min training data: 5", "Min Training Data: 5", "Min Training Data"),
        ("parameter:", "paramter:", "paramter"),
        ("max: 12", "maximum: 12", "maximum"),
        ("Min training data: 5", "Min training data: abc", "Min training data"),
        ("Performance: -1", "Performance: high", "Performance"),
        ("default: 7", "default: 7.5", "default"),
        ("Reach aim: [optimization-min]", "Reach aim: optimization-min", "Reach aim"),
        # keys deleted from the schema are unknown keys now
        ("Class: Surrogate", "Class: Surrogate\n            Input data: [continuous]", "Input data"),
        ("Class: Surrogate", "Class: Surrogate\n            Output data: [continuous]",
         "Output data"),
        ("Class: Surrogate", "Class: Surrogate\n            Use multithreads: false",
         "Use multithreads"),
        # a pipeline is one entry: raw data in, a parameter proposal out
        ("input: raw data", "input: preprocessed data", "input"),
        ("input: raw data", "input: null", "input"),
        ("output: parameter proposal", "output: preprocessed data", "output"),
    ])
    def test_bad_key_or_value_is_refused_by_name(self, old, new, key):
        assert KB_DOC.count(old) == 1
        with pytest.raises(SchemaError, match=re.escape(repr(key))):
            parse_kb(KB_DOC.replace(old, new))

    @pytest.mark.parametrize("name", ["Kriging", "KrigingSBO"])
    def test_parameter_block_must_be_a_mapping(self, name):
        # Kriging names no runner, KrigingSBO does: both are refused alike
        block = KB_DOC[KB_DOC.index("          parameter:"):KB_DOC.index("          metadata:")]
        doc = KB_DOC.replace(block, "          parameter: [designSize]\n").replace(
            "        Kriging:", f"        {name}:")
        with pytest.raises(SchemaError, match=f"algorithm '{name}' parameter: not a mapping"):
            parse_kb(doc)

    @pytest.mark.parametrize("aggregation", ["min", "max"])
    def test_goal_path_no_goal_can_reach_is_refused(self, aggregation):
        with pytest.raises(SchemaError, match=re.escape(
                f"goal path Optimization/minimize/{aggregation}: aggregation must be one of "
                "['mean']")):
            parse_kb(KB_DOC.replace("    mean:", f"    {aggregation}:"))

    def test_output_may_be_left_out(self):
        doc = KB_DOC.replace("          output: parameter proposal\n", "")
        assert "output" not in doc
        assert parse_kb(doc) == parse_kb(KB_DOC)


NAMES = st.text(string.ascii_letters, min_size=1, max_size=8)
DYNAMIC = st.none() | st.floats(0.0, 1.0)


def subsets(vocabulary):
    return st.frozensets(st.sampled_from(vocabulary))


@st.composite
def parameters(draw, name):
    kind = draw(st.sampled_from(PARAM_KINDS))
    if kind == "categorical":
        categories = tuple(draw(st.lists(NAMES, min_size=1, max_size=4)))
        return ParameterSpec(name, kind, draw(st.sampled_from(categories)), categories=categories)
    number = st.integers(-1000, 1000) if kind == "integer" else st.floats(-1e6, 1e6)
    lo, default, hi = sorted(draw(st.lists(number, min_size=3, max_size=3)))
    return ParameterSpec(name, kind, default, lo, hi)


@st.composite
def entries(draw, name):
    metadata = AlgorithmCharacteristics(
        algorithm_class=draw(st.sampled_from(ALGORITHM_CLASSES)),
        reach_aim=draw(subsets(REACH_AIMS)),
        min_training_data=draw(st.integers(0, 100)),
        prefer_usage=draw(st.booleans()),
        avoid_usage=draw(st.booleans()),
        performance=draw(DYNAMIC),
        computational_effort=draw(DYNAMIC),
        ram_usage=draw(DYNAMIC),
    )
    names = draw(st.lists(NAMES, max_size=3, unique=True))
    return AlgorithmEntry(name, tuple(draw(parameters(n)) for n in names), metadata)


@st.composite
def knowledge_bases(draw):
    paths = draw(st.lists(st.tuples(st.sampled_from(OVERALL_GOALS), st.sampled_from(DIRECTIONS),
                                    st.sampled_from(AGGREGATIONS)), max_size=3, unique=True))
    return KnowledgeBase(goals={
        path: {name: draw(entries(name)) for name in draw(st.lists(NAMES, max_size=3, unique=True))}
        for path in paths
    })


class TestRoundTrip:
    def test_parse_dump_identity(self):
        kb = parse_kb(KB_DOC)
        assert parse_kb(dump_kb(kb)) == kb

    @settings(max_examples=60, deadline=None)
    @given(kb=knowledge_bases())
    def test_generated_kb_round_trips(self, kb):
        assert parse_kb(dump_kb(kb)) == kb

    def test_each_metadata_field_has_one_yaml_key(self):
        keys = [key for key, *_ in METADATA_KEYS]
        attrs = [attr for _, attr, *_ in METADATA_KEYS]
        assert len(set(keys)) == len(keys)
        assert sorted(attrs) == sorted(f.name for f in fields(AlgorithmCharacteristics))

    def test_default_kb_round_trips(self):
        kb = default_kb()
        assert parse_kb(dump_kb(kb)) == kb

    def test_update_then_round_trip(self):
        kb = update_characteristics(parse_kb(KB_DOC), GOAL.path, "Kriging", 0.9, 0.4, 0.3)
        again = parse_kb(dump_kb(kb))
        m = kriging(again).metadata
        assert (m.performance, m.computational_effort, m.ram_usage) == (0.9, 0.4, 0.3)
        assert again == kb


class TestCompose:
    def test_each_entry_is_one_pipeline(self):
        kb = kb_of(entry("OptA"), entry("OptB"))
        assert [e.name for e in compose_pipelines(kb, GOAL.path)] == ["OptA", "OptB"]

    def test_unknown_goal(self):
        kb = kb_of(entry("Opt"))
        other = GoalSpec("Optimization", ("f",), "mean", "maximize")
        with pytest.raises(UnknownGoal):
            compose_pipelines(kb, other.path)


class TestFeasibility:
    def test_min_training_data_threshold(self):
        kb = kb_of(entry("Kriging", min_training=5))
        pipes = compose_pipelines(kb, GOAL.path)
        assert determine_feasible(pipes, GOAL, data_size=3) == []
        assert determine_feasible(pipes, GOAL, data_size=7) == pipes

    def test_aim_mismatch_excluded(self):
        kb = kb_of(entry("Maximizer", aim=("optimization-max",)))
        pipes = compose_pipelines(kb, GOAL.path)
        assert determine_feasible(pipes, GOAL, data_size=100) == []

    def test_monotone_in_data_size(self):
        kb = kb_of(entry("A", min_training=3), entry("B", min_training=8), entry("C"))
        pipes = compose_pipelines(kb, GOAL.path)
        sizes = [0, 2, 3, 5, 8, 13, 40]
        previous: set = set()
        for n in sizes:
            now = {e.name for e in determine_feasible(pipes, GOAL, n)}
            assert previous <= now
            previous = now


def test_each_goal_reads_its_own_entries():
    minimize, maximize = GOAL.path, ("Optimization", "maximize", "mean")
    kb = default_kb()
    sbo = kb.entries_for(minimize)["KrigingSBO"]
    strict = replace(sbo, metadata=replace(sbo.metadata, min_training_data=50))
    kb = KnowledgeBase(goals={minimize: {**kb.entries_for(minimize), "KrigingSBO": strict},
                              maximize: kb.entries_for(maximize)})
    for path, direction, feasible_at_13 in ((minimize, "minimize", False), (maximize, "maximize", True)):
        goal = GoalSpec("Optimization", ("f",), "mean", direction)
        ids = {e.name for e in determine_feasible(compose_pipelines(kb, path), goal, 13)}
        assert ("KrigingSBO" in ids) == feasible_at_13


class Rec:
    def __init__(self, pipeline, cpu_time):
        self.pipeline = pipeline
        self.cpu_time = cpu_time


class TestSelectCandidates:
    def test_truncation(self):
        kb = kb_of(entry("A"), entry("B"), entry("C"))
        pipes = compose_pipelines(kb, GOAL.path)
        out = select_candidates(pipes, ResourceBudget(max_parallel_pipelines=2), [])
        assert len(out) == 2

    def test_deadline_exclusion(self):
        kb = kb_of(entry("Slow"), entry("Fast"))
        pipes = compose_pipelines(kb, GOAL.path)
        history = [Rec("Slow", 30.0)]
        out = select_candidates(pipes, ResourceBudget(deadline=20.0), history)
        assert [e.name for e in out] == ["Fast"]

    def test_only_latest_record_counts(self):
        kb = kb_of(entry("A"))
        pipes = compose_pipelines(kb, GOAL.path)
        history = [Rec("A", 30.0), Rec("A", 1.0)]  # recovered after a slow run
        out = select_candidates(pipes, ResourceBudget(deadline=20.0), history)
        assert len(out) == 1

    def test_avoid_usage_is_hard_exclusion(self):
        kb = kb_of(entry("Avoided", avoid=True), entry("Normal"))
        pipes = compose_pipelines(kb, GOAL.path)
        out = select_candidates(pipes, ResourceBudget(), [])
        assert [e.name for e in out] == ["Normal"]

    def test_prefer_usage_sorts_first(self):
        kb = kb_of(entry("Plain", effort=0.1), entry("Preferred", prefer=True, effort=0.9))
        pipes = compose_pipelines(kb, GOAL.path)
        out = select_candidates(pipes, ResourceBudget(), [])
        assert [e.name for e in out] == ["Preferred", "Plain"]

    def test_subset_of_input(self):
        kb = kb_of(entry("A"), entry("B"), entry("C"), entry("D"), entry("E"))
        pipes = compose_pipelines(kb, GOAL.path)
        for limit in (1, 3, 10):
            out = select_candidates(pipes, ResourceBudget(max_parallel_pipelines=limit), [])
            assert set(e.name for e in out) <= set(e.name for e in pipes)
            assert len(out) <= limit


class TestUpdate:
    def test_sets_fields(self):
        kb = update_characteristics(parse_kb(KB_DOC), GOAL.path, "Kriging", 0.9, 0.4, 0.3)
        m = kriging(kb).metadata
        assert (m.performance, m.computational_effort, m.ram_usage) == (0.9, 0.4, 0.3)

    def test_other_fields_untouched(self):
        before = kriging(parse_kb(KB_DOC))
        after = kriging(update_characteristics(parse_kb(KB_DOC), GOAL.path, "Kriging", 0.5, 0.5, 0.5))
        assert after.parameters == before.parameters
        assert after.metadata.min_training_data == before.metadata.min_training_data

    def test_out_of_range_rejected(self):
        with pytest.raises(SchemaError):
            update_characteristics(parse_kb(KB_DOC), GOAL.path, "Kriging", 1.2, 0.4, 0.3)

    def test_unknown_algorithm(self):
        with pytest.raises(UnknownAlgorithm):
            update_characteristics(parse_kb(KB_DOC), GOAL.path, "Nope", 0.5, 0.5, 0.5)

    def test_original_kb_not_mutated(self):
        kb = parse_kb(KB_DOC)
        update_characteristics(kb, GOAL.path, "Kriging", 0.9, 0.4, 0.3)
        assert kriging(kb).metadata.performance is None

    def test_only_the_goal_paths_entry_changes(self):
        maximize = ("Optimization", "maximize", "mean")
        kb = update_characteristics(default_kb(), GOAL.path, "KrigingSBO", 0.9, 0.4, 0.3)
        assert kb.entries_for(GOAL.path)["KrigingSBO"].metadata.performance == 0.9
        assert kb.entries_for(maximize)["KrigingSBO"].metadata.performance is None

    def test_unknown_goal_path(self):
        with pytest.raises(UnknownGoal):
            update_characteristics(parse_kb(KB_DOC), ("Optimization", "maximize", "mean"),
                                   "Kriging", 0.5, 0.5, 0.5)


def test_default_kb_contents():
    kb = default_kb()
    entries = kb.entries_for(("Optimization", "minimize", "mean"))
    assert set(entries) == {"RandomSearch", "HillClimber", "GeneralizedSA",
                            "DifferentialEvolution", "KrigingSBO"}
    kriging = entries["KrigingSBO"]
    assert kriging.defaults["designSize"] == 7
    assert kriging.metadata.min_training_data == 5
    de = entries["DifferentialEvolution"]
    assert de.defaults == {"popsize": 5, "strategy": 2, "F": 0.8, "c": 0.5}


DEFAULT_ENTRIES = default_kb().entries_for(GOAL.path)


@pytest.mark.parametrize("name", sorted(DEFAULT_ENTRIES))
def test_default_entry_declares_its_runners_keyword_parameters(name):
    signature = inspect.signature(optimizers._RUNNERS[name]).parameters
    keywords = {n for n, p in signature.items() if p.default is not p.empty}
    assert {p.name for p in DEFAULT_ENTRIES[name].parameters} == keywords


def values(p: ParameterSpec):
    if p.kind == "categorical":
        return st.sampled_from(p.categories)
    if p.kind == "integer":
        return st.integers(p.min, p.max)
    return st.floats(p.min, p.max)


@pytest.mark.parametrize("name", [n for n, e in DEFAULT_ENTRIES.items() if e.parameters])
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_every_declared_value_runs_at_budget_36(name, data):
    # tuning skips a sampled configuration that raises, so a range the runner
    # refuses would only shrink the search, silently
    params = data.draw(st.fixed_dictionaries(
        {p.name: values(p) for p in DEFAULT_ENTRIES[name].parameters}))
    problem = optimizers.OptProblem(lambda x: (x - 0.3) ** 2, (0.0, 1.0), 36)
    assert optimizers.run_optimizer(name, problem, 0, params).evals_used == 36
