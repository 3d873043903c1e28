"""The closed-loop controller: initial design, periodic and stagnation-
triggered selection cycles, best-parameter extraction, and guarded
application of proposals to the plant.

Each step optionally runs a selection cycle (every `theta` iterations or
when the stagnation trigger fired), extracts the winning algorithm's
parameter proposal from a surrogate of the real process, applies it to the
plant only when it differs from the current setting by at least `epsilon`,
ingests new production data, and re-evaluates the stagnation trigger.
A selection cycle draws two instances from a GP of the process data, tunes
each candidate on one and benchmarks them all on the other through
`benchmark.run_campaign`, rates them, and updates the knowledge base.
The loop minimizes the goal's sign times the aggregate, so a maximize goal
maximizes it.

Each step appends one entry to `CognitionState.log_entries`, the one record
of the step: the setting, the latest observation, the winner, the trigger
and, under `selection`, the rated cycle's survivors, eliminated pipelines and
ratings (None when no cycle was rated in the step).
"""

from __future__ import annotations

import logging
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from . import gp, optimizers
from .benchmark import EvaluationRecord, derive_seed, generate_test_functions, tune_then_benchmark
from .errors import CogoptError, ConfigError, SchemaError, UnknownGoal
from .knowledge import (
    GoalSpec,
    KnowledgeBase,
    ResourceBudget,
    compose_pipelines,
    determine_feasible,
    select_candidates,
    update_characteristics,
)
from .plant import PlantAdapter, ProductionCycleRecord
from .rating import RatingTable, rate_pipelines, validate_weights

log = logging.getLogger("cogopt.cognition")


@dataclass
class CognitionConfig:
    s: int = 12                      # initial design size
    theta: int = 5                   # selection step size (cycles)
    epsilon: float | None = None     # application threshold; None -> 1% of range
    weights: tuple[float, float, float] = (0.8, 0.1, 0.1)  # rating (objective, memory, cpu)
    tuning_budget: int = 5
    bench_budget: int = 36
    reps: int = 10
    stagnation_delta: float = 0.01
    master_seed: int = 0
    design_reps: int = 1
    resources: ResourceBudget = field(default_factory=ResourceBudget)

    def __post_init__(self):
        # each message starts with its field, so the config loader can prefix the section
        if self.s < 2:
            raise SchemaError("s: the initial design size must be >= 2")
        if self.theta < 2:
            raise SchemaError("theta: the selection step size must be >= 2")
        if self.epsilon is not None and self.epsilon < 0:
            raise SchemaError("epsilon: must be >= 0")
        if self.reps < 1:
            raise SchemaError("reps: must be >= 1")
        if self.design_reps < 1:
            raise SchemaError("design_reps: must be >= 1")
        if self.master_seed < 0:
            raise SchemaError(f"master_seed: must be >= 0, got {self.master_seed}")
        validate_weights("weights", self.weights)

    def resolved_epsilon(self, bounds) -> float:
        if self.epsilon is not None:
            return self.epsilon
        return 0.01 * (bounds[1] - bounds[0])


@dataclass
class CognitionState:
    d: list[ProductionCycleRecord] = field(default_factory=list)
    x: float | None = None
    e: list[EvaluationRecord] = field(default_factory=list)
    zeta: int = 0
    iteration: int = 0
    p_best: str | None = None
    best_history: list[float] = field(default_factory=list)  # least sign * aggregate per step
    last_cycle: int = 0
    # algorithm -> parameters as last benchmarked
    tuned: dict[str, dict] = field(default_factory=dict)
    log_entries: list[dict] = field(default_factory=list)


def create_initial_design(s: int, bounds) -> np.ndarray:
    """`s` equidistant settings of the plant's one parameter within `bounds` = (lo, hi)."""
    lo, hi = np.asarray(bounds, dtype=float).reshape(2)
    return np.linspace(lo, hi, s)


def bootstrap(state: CognitionState, plant: PlantAdapter,
              config: CognitionConfig) -> CognitionState:
    """Fill the data list by applying the initial design."""
    for point in create_initial_design(config.s, plant.bounds):
        for _ in range(config.design_reps):
            plant.apply(float(point))
        state.x = float(point)
    state.d = plant.receive_new_data(state.last_cycle)
    state.last_cycle = max(r.cycle for r in state.d)
    state.best_history = []
    return state


def _dataset(state: CognitionState, bounds, sign: float = 1.0) -> gp.Dataset:
    """The process data with the response the loop minimizes, sign * aggregate."""
    return gp.Dataset(
        X=np.array([r.x for r in state.d]),
        y=sign * np.array([r.aggregate for r in state.d]),
        bounds=bounds,
    )


def run_selection_cycle(
    state: CognitionState,
    kb: KnowledgeBase,
    config: CognitionConfig,
    goal: GoalSpec,
    bounds,
) -> tuple[KnowledgeBase, RatingTable | None]:
    """Simulate, benchmark candidates, rate, and fold results into the KB.
    Returns the KB and the cycle's rating, None when the cycle is skipped."""
    feasible = determine_feasible(compose_pipelines(kb, goal.path), goal, data_size=len(state.d))
    # every rating group needs the baseline as its reference, so without one nothing runs
    baseline = next((e for e in feasible if e.name == optimizers.BASELINE), None)
    if baseline is None:
        log.warning("no feasible baseline; skipping this selection cycle")
        state.p_best = None
        return kb, None
    candidates = select_candidates(feasible, config.resources, state.e)
    if baseline not in candidates:
        candidates = [baseline] + candidates

    cycle_seed = derive_seed(config.master_seed, 0xC, state.iteration)
    data = _dataset(state, bounds, goal.sign)
    tune_on, bench_on = generate_test_functions(data, 2, master_seed=cycle_seed)
    records = tune_then_benchmark(
        [(entry.name, entry.parameters) for entry in candidates], tune_on, bench_on, bounds,
        tuning_budget=config.tuning_budget,
        bench_budget=config.bench_budget,
        reps=config.reps,
        seed=cycle_seed,
    )
    state.e.extend(records)

    table, p_best, updates = rate_pipelines(records, baseline.name, config.weights)
    state.p_best = p_best
    for rec in records:
        state.tuned[rec.pipeline] = rec.tuned_params
    for up in updates:
        kb = update_characteristics(
            kb, goal.path, up.algorithm, up.performance, up.computational_effort, up.ram_usage
        )
    return kb, table


def get_best_x(
    p_best: str | None,
    state: CognitionState,
    config: CognitionConfig,
    bounds,
    sign: float = 1.0,
) -> float:
    """Winning algorithm's proposal on the surrogate of the real process
    (of sign * aggregate), searched with the parameters it was benchmarked
    with."""
    if p_best is None or state.x is None:
        return state.x
    try:
        data = _dataset(state, bounds, sign)
        model = gp.fit(data, noise=True)
        objective = lambda x: float(gp.predict(model, x)[0][0])
        problem = optimizers.OptProblem(
            objective=objective, bounds=bounds, budget=config.bench_budget
        )
        res = optimizers.run_optimizer(
            p_best, problem, derive_seed(config.master_seed, 0xA, state.iteration),
            state.tuned[p_best]
        )
        return res.best_x
    except CogoptError as exc:
        log.warning("proposal search failed (%s); keeping current x", exc)
        return state.x


def step(
    state: CognitionState,
    plant: PlantAdapter,
    kb: KnowledgeBase,
    config: CognitionConfig,
    goal: GoalSpec,
) -> tuple[CognitionState, KnowledgeBase]:
    """One loop iteration; returns the advanced state and (possibly) new KB."""
    bounds = plant.bounds
    selection_ran, table = False, None
    if state.iteration % config.theta == 0 or state.zeta == 1:
        state.zeta = 0
        try:
            kb, table = run_selection_cycle(state, kb, config, goal, bounds)
            selection_ran = True
        except (UnknownGoal, ConfigError):
            raise  # a goal or setting the loop cannot serve fails every cycle alike
        except CogoptError as exc:
            log.error("selection cycle failed: %s", exc)

    x_best = get_best_x(state.p_best, state, config, bounds, goal.sign)
    applied = False
    epsilon = config.resolved_epsilon(bounds)
    if x_best is not None and abs(state.x - x_best) >= epsilon:
        try:
            plant.apply(x_best)
            state.x = x_best
            applied = True
        except CogoptError as exc:
            log.error("plant application failed: %s", exc)

    new = plant.receive_new_data(state.last_cycle)
    if new:
        state.d.extend(new)
        state.last_cycle = max(r.cycle for r in new)

    best_now = min(goal.sign * r.aggregate for r in state.d)
    state.best_history.append(best_now)

    # only new data can arm the trigger: selection on unchanged data repeats itself
    window = math.ceil(config.theta / 2)
    if new and len(state.best_history) > window:
        prev = state.best_history[-(window + 1)]
        rel = (prev - best_now) / max(abs(prev), 1e-12)
        stagnant = rel < config.stagnation_delta
        latest = goal.sign * new[-1].aggregate
        decreased = (latest - best_now) / max(abs(best_now), 1e-12) > config.stagnation_delta
        if stagnant or decreased:
            state.zeta = 1

    last = state.d[-1]
    state.log_entries.append({
        "iteration": state.iteration,
        "x": state.x,
        "objective": last.aggregate,
        "f1": last.f1,
        "f2": last.f2,
        "f3": last.f3,
        "p_best": state.p_best,
        "zeta": state.zeta,
        "selection_ran": selection_ran,
        "applied": applied,
        "selection": None if table is None else {
            "survivors": list(table.survivors),
            "eliminated": list(table.eliminated),
            "ratings": {pid: asdict(r) for pid, r in table.ratings.items()},
        },
    })
    state.iteration += 1
    return state, kb
