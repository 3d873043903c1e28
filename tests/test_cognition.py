import math
import time
from dataclasses import replace

import numpy as np
import pytest

from cogopt import cognition, optimizers
from cogopt.benchmark import EvaluationRecord, generate_test_functions, tune_then_benchmark
from cogopt.cognition import (
    CognitionConfig,
    CognitionState,
    bootstrap,
    create_initial_design,
    get_best_x,
    run_selection_cycle,
    step,
)
from cogopt.errors import ConfigError, SchemaError, SingularCovariance, UnknownGoal
from cogopt.knowledge import GoalSpec, KnowledgeBase, ResourceBudget, default_kb
from cogopt.plant import PlantAdapter, ProductionCycleRecord, VpsSimulator

GOAL = GoalSpec("Optimization", ("f1", "f2", "f3"), "mean", "minimize")


def record(x, value, cycle):
    return ProductionCycleRecord(x=x, f1=value, f2=value, f3=value,
                                 aggregate=value, timestamp=time.time(), cycle=cycle)


class ScriptedPlant(PlantAdapter):
    """Emits one pre-scripted production record per receive_new_data call."""

    def __init__(self, script, bounds=(0.0, 1.0)):
        self._bounds = bounds
        self._script = list(script)
        self._cycle = 0
        self.applications = []

    @property
    def bounds(self):
        return self._bounds

    def apply(self, x):
        self.applications.append(float(x))
        return record(float(x), math.nan, self._cycle)

    def receive_new_data(self, since):
        if not self._script:
            return []
        value = self._script.pop(0)
        self._cycle += 1
        return [record(0.5, value, self._cycle)]


class TestConfig:
    def test_invariants(self):
        with pytest.raises(SchemaError):
            CognitionConfig(s=1)
        with pytest.raises(SchemaError):
            CognitionConfig(theta=1)
        with pytest.raises(SchemaError):
            CognitionConfig(epsilon=-0.5)
        with pytest.raises(SchemaError, match="^reps:"):
            CognitionConfig(reps=0)
        with pytest.raises(SchemaError, match="^design_reps:"):
            CognitionConfig(design_reps=0)
        with pytest.raises(SchemaError, match="^master_seed: must be >= 0, got -1"):
            CognitionConfig(master_seed=-1)
        with pytest.raises(SchemaError, match="^weights: .*sum to 1"):
            CognitionConfig(weights=(0.8, 0.2, 0.2))

    def test_rating_weights_defaults(self):
        assert CognitionConfig().weights == (0.8, 0.1, 0.1)

    def test_epsilon_defaults_to_one_percent_of_range(self):
        cfg = CognitionConfig()
        assert cfg.resolved_epsilon((500.0, 7000.0)) == pytest.approx(65.0)
        assert CognitionConfig(epsilon=3.0).resolved_epsilon((0.0, 1.0)) == 3.0


class TestInitialDesign:
    def test_equidistant_grid(self):
        pts = create_initial_design(4, (0.0, 3.0))
        assert np.allclose(pts, [0.0, 1.0, 2.0, 3.0])

    def test_two_points_are_the_endpoints(self):
        pts = create_initial_design(2, (0.0, 1.0))
        assert np.allclose(pts, [0.0, 1.0])

    def test_twelve_distinct_settings(self):
        pts = create_initial_design(12, (500.0, 7000.0))
        assert pts.shape == (12,)
        assert len(np.unique(pts)) == 12


class TestBootstrap:
    def test_design_with_plant_reps(self):
        plant = VpsSimulator(noise_sd=0.0, seed=0)
        cfg = CognitionConfig(s=12, design_reps=3)
        state = bootstrap(CognitionState(), plant, cfg)
        assert len(state.d) == 36

    def test_minimal_design(self):
        plant = VpsSimulator(noise_sd=0.0, seed=0)
        state = bootstrap(CognitionState(), plant, CognitionConfig(s=2))
        assert len(state.d) == 2
        assert state.x == plant.bounds[1]


class TestGetBestX:
    def setup_state(self):
        plant = VpsSimulator(noise_sd=0.0, seed=1)
        cfg = CognitionConfig(s=8, bench_budget=20)
        state = bootstrap(CognitionState(), plant, cfg)
        return state, cfg, plant

    def test_none_returns_current_x(self):
        state, cfg, plant = self.setup_state()
        assert get_best_x(None, state, cfg, plant.bounds) == state.x

    def test_proposal_tracks_surrogate_minimum(self):
        state, cfg, plant = self.setup_state()
        state.latest["RandomSearch"] = EvaluationRecord("RandomSearch", "instance-1", 20,
                                                        best_y=0.0, cpu_time=0.1, memory_bytes=1.0)
        x = get_best_x("RandomSearch", state, cfg, plant.bounds)
        lo, hi = plant.bounds
        assert lo <= x <= hi
        # the proposal should not be worse on the surrogate than the median point
        from cogopt import gp
        data = cognition._dataset(state, plant.bounds)
        model = gp.fit(data, noise=True)
        mid = 0.5 * (lo + hi)
        assert gp.predict(model, x)[0][0] <= gp.predict(model, mid)[0][0] + 1e-9


class TestControlFlow:
    """Scripted Algorithm-1 traces with stubbed selection internals."""

    def run_steps(self, monkeypatch, script, proposals, theta=4, epsilon=0.01, n=None):
        plant = ScriptedPlant(script)
        cfg = CognitionConfig(theta=theta, epsilon=epsilon, master_seed=0)
        state = CognitionState()
        state.d = [record(0.5, 1.0, 0)]
        state.x = 0.5
        kb = default_kb()

        def fake_selection(state, kb, config, goal, bounds):
            state.p_best = "Stub"
            return kb, None

        it = iter(proposals)

        def fake_best_x(p_best, state, config, bounds, sign):
            return next(it, state.x)

        monkeypatch.setattr(cognition, "run_selection_cycle", fake_selection)
        monkeypatch.setattr(cognition, "get_best_x", fake_best_x)
        for _ in range(n if n is not None else len(script)):
            state, kb = step(state, plant, kb, cfg, GOAL)
        return state, plant

    def test_selection_schedule_with_single_stagnation_trigger(self, monkeypatch):
        # plateau over the first three cycles forces exactly one off-schedule
        # selection; the strict 10%-per-step descent afterwards keeps zeta low
        script = [1.0, 1.0, 1.0, 0.9, 0.85, 0.8, 0.75, 0.7, 0.65, 0.6]
        state, _ = self.run_steps(monkeypatch, script, proposals=[])
        ran = [e["iteration"] for e in state.log_entries if e["selection_ran"]]
        assert ran == [0, 3, 4, 8]
        off_schedule = [i for i in ran if i % 4 != 0]
        assert off_schedule == [3]
        # the stub rates nothing, so no entry records a rating
        assert all(e["selection"] is None for e in state.log_entries)

    def test_zeta_reset_after_selection(self, monkeypatch):
        script = [1.0, 1.0, 1.0, 0.9, 0.85, 0.8, 0.75, 0.7, 0.65, 0.6]
        state, _ = self.run_steps(monkeypatch, script, proposals=[])
        by_iter = {e["iteration"]: e for e in state.log_entries}
        assert by_iter[2]["zeta"] == 1      # trigger armed on the plateau
        assert by_iter[3]["zeta"] == 0      # consumed by the off-schedule cycle
        for e in state.log_entries:
            assert e["zeta"] in (0, 1)

    def test_epsilon_guard_suppresses_small_moves(self, monkeypatch):
        script = [0.9, 0.8, 0.7, 0.6]
        proposals = [0.6, 0.6005, 0.7, 0.7002]
        state, plant = self.run_steps(monkeypatch, script, proposals, epsilon=0.01)
        assert plant.applications == [0.6, 0.7]
        applied = [e["applied"] for e in state.log_entries]
        assert applied == [True, False, True, False]
        assert state.x == 0.7

    def test_performance_decrease_arms_trigger(self, monkeypatch):
        # steady improvement, then a sharply worse cycle
        script = [0.9, 0.8, 0.7, 0.6, 0.9]
        state, _ = self.run_steps(monkeypatch, script, proposals=[])
        assert state.log_entries[-1]["zeta"] == 1

    def test_data_accumulates_monotonically(self, monkeypatch):
        script = [0.9, 0.8, 0.7, 0.6]
        state, _ = self.run_steps(monkeypatch, script, proposals=[])
        assert len(state.d) == 1 + 4
        assert len(state.best_history) == 4
        assert state.best_history == sorted(state.best_history, reverse=True)

    def test_no_off_schedule_selection_once_data_stops(self, monkeypatch):
        # four cycles of data, then a silent plant: the flat best_history must
        # not re-run selection on unchanged data
        state, _ = self.run_steps(monkeypatch, [0.9, 0.8, 0.7, 0.6], proposals=[], n=12)
        ran = [e["iteration"] for e in state.log_entries if e["selection_ran"]]
        assert ran == [0, 4, 8]
        assert all(e["zeta"] == 0 for e in state.log_entries[4:])


@pytest.fixture(scope="module")
def cycle_result():
    plant = VpsSimulator(noise_sd=0.02, seed=0)
    cfg = CognitionConfig(s=6, theta=3, tuning_budget=2,
                          bench_budget=12, reps=2, master_seed=0)
    state = bootstrap(CognitionState(), plant, cfg)
    kb, _ = run_selection_cycle(state, default_kb(), cfg, GOAL, plant.bounds)
    return state, kb


class TestSelectionCycle:
    def test_records_cover_candidates_and_baseline(self, cycle_result):
        state, _ = cycle_result
        assert optimizers.BASELINE in state.latest
        assert len(state.latest) >= 3
        assert all(name == r.pipeline for name, r in state.latest.items())

    def test_all_records_share_one_benchmark_instance(self, cycle_result):
        state, _ = cycle_result
        assert {r.instance for r in state.latest.values()} == {"instance-1"}

    def test_kb_characteristics_updated(self, cycle_result):
        state, kb = cycle_result
        for pipeline in state.latest:
            m = kb.entries_for(GOAL.path)[pipeline].metadata
            assert m.performance is not None and 0.0 <= m.performance <= 1.0
            assert 0.0 <= m.computational_effort <= 1.0
            assert 0.0 <= m.ram_usage <= 1.0

    def test_p_best_is_a_benchmarked_pipeline_or_none(self, cycle_result):
        state, _ = cycle_result
        if state.p_best is not None:
            assert state.p_best in state.latest


def test_each_step_entry_records_the_cycle_it_rated():
    plant = VpsSimulator(noise_sd=0.02, seed=0)
    cfg = CognitionConfig(s=6, theta=3, tuning_budget=2, bench_budget=12, reps=2, master_seed=0)
    state, kb = bootstrap(CognitionState(), plant, cfg), default_kb()
    for _ in range(4):
        seen = dict(state.latest)
        state, kb = step(state, plant, kb, cfg, GOAL)
        entry = state.log_entries[-1]
        benchmarked = {p for p, r in state.latest.items()
                       if seen.get(p) is not r and p != optimizers.BASELINE}
        if not entry["selection_ran"]:
            assert entry["selection"] is None and not benchmarked
            continue
        sel = entry["selection"]
        survivors, eliminated = set(sel["survivors"]), set(sel["eliminated"])
        assert survivors | eliminated == benchmarked == set(sel["ratings"])
        assert not survivors & eliminated
        assert entry["p_best"] == (sel["survivors"][0] if sel["survivors"] else None)
    assert [e["selection"] is not None for e in state.log_entries] == \
        [e["selection_ran"] for e in state.log_entries]
    assert state.log_entries[0]["selection"] is not None


def test_latest_keeps_each_pipelines_record_from_the_last_cycle_that_ran_it(monkeypatch):
    # few candidates a cycle, and untested ones first: the second cycle runs others
    ran = []

    def spy(*args, **kwargs):
        ran.append(tune_then_benchmark(*args, **kwargs))
        return ran[-1]

    monkeypatch.setattr(cognition, "tune_then_benchmark", spy)
    plant = VpsSimulator(noise_sd=0.02, seed=0)
    cfg = CognitionConfig(s=6, tuning_budget=1, bench_budget=12, reps=1,
                          resources=ResourceBudget(max_parallel_pipelines=2))
    state, kb = bootstrap(CognitionState(), plant, cfg), default_kb()
    for iteration in range(2):
        state.iteration = iteration
        kb, _ = run_selection_cycle(state, kb, cfg, GOAL, plant.bounds)
    first, second = ({r.pipeline: r for r in records} for records in ran)
    assert first.keys() - second.keys()  # one that only the first cycle ran
    assert state.latest.keys() == first.keys() | second.keys()
    for name, rec in state.latest.items():
        assert rec is second.get(name, first.get(name))
    assert state.latest[optimizers.BASELINE] is not first[optimizers.BASELINE]


def test_a_cycle_draws_the_two_instances_it_runs(monkeypatch):
    drawn = []

    def spy(data, k, master_seed=0):
        drawn.append(k)
        return generate_test_functions(data, k, master_seed)

    monkeypatch.setattr(cognition, "generate_test_functions", spy)
    plant = VpsSimulator(noise_sd=0.02, seed=1)
    cfg = CognitionConfig(s=6, theta=3, tuning_budget=1, bench_budget=12, reps=1)
    state = bootstrap(CognitionState(), plant, cfg)
    run_selection_cycle(state, default_kb(), cfg, GOAL, plant.bounds)
    assert drawn == [2] and state.latest


def test_no_feasible_baseline_skips_the_cycle_before_any_work(monkeypatch):
    # the baseline needs more data than the loop holds, so no rating is possible
    state = CognitionState(d=[record(0.1 * i, 1.0, i) for i in range(6)], x=0.5)
    state.p_best = "HillClimber"
    entries = default_kb().entries_for(GOAL.path)
    base = entries[optimizers.BASELINE]
    strict = replace(base, metadata=replace(base.metadata, min_training_data=len(state.d) + 1))
    kb = KnowledgeBase(goals={GOAL.path: {**entries, optimizers.BASELINE: strict}})

    def no_work(*args, **kwargs):
        raise AssertionError("a cycle without a baseline simulated or benchmarked")

    monkeypatch.setattr(cognition, "generate_test_functions", no_work)
    monkeypatch.setattr(cognition, "tune_then_benchmark", no_work)
    kb_out, table = run_selection_cycle(state, kb, CognitionConfig(), GOAL, (0.0, 1.0))
    assert kb_out is kb and table is None
    assert state.latest == {} and state.p_best is None


def test_programming_error_in_an_optimizer_propagates(monkeypatch):
    def broken(problem, seed, **params):
        raise TypeError("unexpected argument")

    monkeypatch.setitem(optimizers._RUNNERS, optimizers.BASELINE, broken)
    plant = VpsSimulator(noise_sd=0.02, seed=0)
    cfg = CognitionConfig(s=6, theta=3, tuning_budget=2,
                          bench_budget=12, reps=2, master_seed=0)
    state = bootstrap(CognitionState(), plant, cfg)
    with pytest.raises(TypeError, match="unexpected argument"):
        step(state, plant, default_kb(), cfg, GOAL)


@pytest.mark.parametrize("direction", ["minimize", "maximize"])
def test_the_loop_moves_the_setting_in_the_goal_direction(direction):
    # a noise-free plant whose history ends at the goal's worst setting
    plant = VpsSimulator(noise_sd=0.0, seed=3)
    grid = np.linspace(*plant.bounds, 2001)
    truth = np.array([plant.ground_truth(x) for x in grid])
    worst = grid[np.argmin(truth) if direction == "maximize" else np.argmax(truth)]
    for x in np.linspace(*plant.bounds, 6):
        plant.apply(x)
    plant.apply(worst)
    # at budget 12 KrigingSBO's design (3 to 12 points) leaves it few guided
    # evaluations, so whether any pipeline beats the baseline is a toss-up
    cfg = CognitionConfig(s=6, theta=3, tuning_budget=2,
                          bench_budget=24, reps=2, master_seed=0)
    history = plant.receive_new_data(0)
    state = CognitionState(d=history, x=history[-1].x)
    goal = GoalSpec("Optimization", ("f1", "f2", "f3"), "mean", direction)
    kb = default_kb()
    for _ in range(2):
        state, kb = step(state, plant, kb, cfg, goal)
    assert state.p_best is not None
    # the applied setting lies in the goal's best quarter of the truth's range
    quarter = 0.25 * (truth.max() - truth.min())
    if direction == "maximize":
        assert plant.ground_truth(state.x) >= truth.max() - quarter
    else:
        assert plant.ground_truth(state.x) <= truth.min() + quarter


def test_a_goal_path_the_kb_lacks_leaves_the_loop():
    plant = ScriptedPlant([1.0])
    state = CognitionState(d=[record(0.2, 1.0, 0), record(0.8, 2.0, 1)], x=0.8)
    goal = GoalSpec("Optimization", ("f1",), "mean", "maximize")
    kb = KnowledgeBase(goals={p: e for p, e in default_kb().goals.items() if p != goal.path})
    with pytest.raises(UnknownGoal, match="maximize"):
        step(state, plant, kb, CognitionConfig(), goal)


@pytest.mark.parametrize("error, leaves", [(ConfigError, True), (UnknownGoal, True),
                                           (SingularCovariance, False)])
def test_configuration_errors_leave_the_loop_and_run_time_failures_do_not(
        monkeypatch, error, leaves):
    def failing_selection(state, kb, config, goal, bounds):
        raise error("from the selection cycle")

    monkeypatch.setattr(cognition, "run_selection_cycle", failing_selection)
    plant = ScriptedPlant([1.0])
    state = CognitionState(d=[record(0.5, 1.0, 0)], x=0.5)
    if leaves:
        with pytest.raises(error):
            step(state, plant, default_kb(), CognitionConfig(), GOAL)
    else:
        state, _ = step(state, plant, default_kb(), CognitionConfig(), GOAL)
        assert state.log_entries[-1]["selection_ran"] is False
