import pytest

from cogopt.errors import ConfigError, SchemaError, UnknownAlgorithm, UnknownGoal
from cogopt.knowledge import (
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
            Input data: [continuous]
            Output data: [continuous]
            Reach aim: [optimization-min]
            Use multithreads: false
            Min training data: 5
            Prefer usage: true
            Avoid usage: false
            Performance: -1
            Computational Effort: -1
            RAM usage: -1
          input: raw data
          output: parameter proposal
"""


def entry(name, input="raw data", output="parameter proposal", aim=("optimization-min",),
          min_training=0, prefer=False, avoid=False, effort=None):
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
        input=input,
        output=output,
    )


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

    def test_non_optimization_goal_parses_but_is_not_executable(self):
        g = GoalSpec("AnomalyDetection", ("f",), "mean", "minimize")
        with pytest.raises(ConfigError):
            g.aim

    def test_unknown_enums_rejected(self):
        with pytest.raises(SchemaError):
            GoalSpec("Optimize", ("f",), "mean", "minimize")
        with pytest.raises(SchemaError):
            GoalSpec("Optimization", ("f",), "median", "minimize")


class TestParsing:
    def test_min_training_data_parsed(self):
        kb = parse_kb(KB_DOC)
        e = kb.find("Kriging")
        assert e.metadata.min_training_data == 5

    def test_unset_sentinel_maps_to_none(self):
        kb = parse_kb(KB_DOC)
        m = kb.find("Kriging").metadata
        assert m.performance is None
        assert m.computational_effort is None
        assert m.ram_usage is None

    def test_min_above_max_rejected(self):
        with pytest.raises(SchemaError):
            ParameterSpec("p", "integer", default=5, min=10, max=3)

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


class TestRoundTrip:
    def test_parse_dump_identity(self):
        kb = parse_kb(KB_DOC)
        assert parse_kb(dump_kb(kb)) == kb

    def test_default_kb_round_trips(self):
        kb = default_kb()
        assert parse_kb(dump_kb(kb)) == kb

    def test_update_then_round_trip(self):
        kb = update_characteristics(parse_kb(KB_DOC), "Kriging", 0.9, 0.4, 0.3)
        again = parse_kb(dump_kb(kb))
        m = again.find("Kriging").metadata
        assert (m.performance, m.computational_effort, m.ram_usage) == (0.9, 0.4, 0.3)
        assert again == kb


class TestCompose:
    def test_two_stage_chain(self):
        kb = kb_of(
            entry("Opt", input="preprocessed data"),
            entry("Prep", input="raw data", output="preprocessed data"),
        )
        pipes = compose_pipelines(kb, GOAL)
        assert [p.stages for p in pipes] == [("Prep", "Opt")]
        assert pipes[0].pipeline_id == "Prep+Opt"
        assert pipes[0].terminal_stage == "Opt"

    def test_no_raw_data_consumer_gives_empty_list(self):
        kb = kb_of(entry("Opt", input="preprocessed data"))
        assert compose_pipelines(kb, GOAL) == []

    def test_two_optimizers_one_preprocessor(self):
        kb = kb_of(
            entry("OptA", input="preprocessed data"),
            entry("OptB", input="preprocessed data"),
            entry("Prep", input="raw data", output="preprocessed data"),
        )
        pipes = compose_pipelines(kb, GOAL)
        assert sorted(p.pipeline_id for p in pipes) == ["Prep+OptA", "Prep+OptB"]

    def test_unknown_goal(self):
        kb = kb_of(entry("Opt"))
        other = GoalSpec("Optimization", ("f",), "max", "minimize")
        with pytest.raises(UnknownGoal):
            compose_pipelines(kb, other)


class TestFeasibility:
    def test_min_training_data_threshold(self):
        kb = kb_of(entry("Kriging", min_training=5))
        pipes = compose_pipelines(kb, GOAL)
        assert determine_feasible(pipes, kb, GOAL, data_size=3) == []
        assert determine_feasible(pipes, kb, GOAL, data_size=7) == pipes

    def test_aim_mismatch_excluded(self):
        kb = kb_of(entry("Detector", aim=("anomaly-detection",)))
        pipes = compose_pipelines(kb, GOAL)
        assert determine_feasible(pipes, kb, GOAL, data_size=100) == []

    def test_monotone_in_data_size(self):
        kb = kb_of(entry("A", min_training=3), entry("B", min_training=8), entry("C"))
        pipes = compose_pipelines(kb, GOAL)
        sizes = [0, 2, 3, 5, 8, 13, 40]
        previous: set = set()
        for n in sizes:
            now = {p.pipeline_id for p in determine_feasible(pipes, kb, GOAL, n)}
            assert previous <= now
            previous = now


class Rec:
    def __init__(self, pipeline, cpu_time):
        self.pipeline = pipeline
        self.cpu_time = cpu_time


class TestSelectCandidates:
    def test_truncation(self):
        kb = kb_of(entry("A"), entry("B"), entry("C"))
        pipes = compose_pipelines(kb, GOAL)
        out = select_candidates(pipes, kb, ResourceBudget(max_parallel_pipelines=2), [])
        assert len(out) == 2

    def test_deadline_exclusion(self):
        kb = kb_of(entry("Slow"), entry("Fast"))
        pipes = compose_pipelines(kb, GOAL)
        history = [Rec("Slow", 30.0)]
        out = select_candidates(pipes, kb, ResourceBudget(deadline=20.0), history)
        assert [p.pipeline_id for p in out] == ["Fast"]

    def test_only_latest_record_counts(self):
        kb = kb_of(entry("A"))
        pipes = compose_pipelines(kb, GOAL)
        history = [Rec("A", 30.0), Rec("A", 1.0)]  # recovered after a slow run
        out = select_candidates(pipes, kb, ResourceBudget(deadline=20.0), history)
        assert len(out) == 1

    def test_avoid_usage_is_hard_exclusion(self):
        kb = kb_of(entry("Avoided", avoid=True), entry("Normal"))
        pipes = compose_pipelines(kb, GOAL)
        out = select_candidates(pipes, kb, ResourceBudget(), [])
        assert [p.pipeline_id for p in out] == ["Normal"]

    def test_prefer_usage_sorts_first(self):
        kb = kb_of(entry("Plain", effort=0.1), entry("Preferred", prefer=True, effort=0.9))
        pipes = compose_pipelines(kb, GOAL)
        out = select_candidates(pipes, kb, ResourceBudget(), [])
        assert [p.pipeline_id for p in out] == ["Preferred", "Plain"]

    def test_subset_of_input(self):
        kb = kb_of(entry("A"), entry("B"), entry("C"), entry("D"), entry("E"))
        pipes = compose_pipelines(kb, GOAL)
        for limit in (1, 3, 10):
            out = select_candidates(pipes, kb, ResourceBudget(max_parallel_pipelines=limit), [])
            assert set(p.pipeline_id for p in out) <= set(p.pipeline_id for p in pipes)
            assert len(out) <= limit


class TestUpdate:
    def test_sets_fields(self):
        kb = update_characteristics(parse_kb(KB_DOC), "Kriging", 0.9, 0.4, 0.3)
        m = kb.find("Kriging").metadata
        assert (m.performance, m.computational_effort, m.ram_usage) == (0.9, 0.4, 0.3)

    def test_other_fields_untouched(self):
        before = parse_kb(KB_DOC).find("Kriging")
        after = update_characteristics(parse_kb(KB_DOC), "Kriging", 0.5, 0.5, 0.5).find("Kriging")
        assert after.parameters == before.parameters
        assert after.metadata.min_training_data == before.metadata.min_training_data
        assert after.input == before.input

    def test_out_of_range_rejected(self):
        with pytest.raises(SchemaError):
            update_characteristics(parse_kb(KB_DOC), "Kriging", 1.2, 0.4, 0.3)

    def test_unknown_algorithm(self):
        with pytest.raises(UnknownAlgorithm):
            update_characteristics(parse_kb(KB_DOC), "Nope", 0.5, 0.5, 0.5)

    def test_original_kb_not_mutated(self):
        kb = parse_kb(KB_DOC)
        update_characteristics(kb, "Kriging", 0.9, 0.4, 0.3)
        assert kb.find("Kriging").metadata.performance is None


def test_default_kb_contents():
    kb = default_kb()
    entries = kb.entries_for(("Optimization", "minimize", "mean"))
    assert set(entries) == {"RandomSearch", "HillClimber", "GeneralizedSA",
                            "DifferentialEvolution", "KrigingSBO"}
    kriging = entries["KrigingSBO"]
    assert kriging.parameter("designSize").default == 7
    assert kriging.metadata.min_training_data == 5
    de = entries["DifferentialEvolution"]
    assert de.defaults == {"popsize": 5, "strategy": 2, "F": 0.8, "CR": 0.5, "c": 0.5}
