"""The closed-loop controller: initial design, periodic and stagnation-
triggered selection cycles, best-parameter extraction, and guarded
application of proposals to the plant.

Each step optionally runs a selection cycle (every `theta` iterations or
when the stagnation trigger fired), extracts the winning pipeline's
parameter proposal from a surrogate of the real process, applies it to the
plant only when it differs from the current setting by at least `epsilon`,
ingests new production data, and re-evaluates the stagnation trigger.
The loop minimizes the goal's sign times the aggregate, so a maximize goal
maximizes it.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from . import gp, optimizers
from .benchmark import EvaluationRecord, derive_seed, generate_test_functions, tune_then_benchmark
from .errors import RECOVERABLE, ConfigError, SchemaError, UnknownGoal
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
from .rating import RatingTable, RatingWeights, rate_pipelines

log = logging.getLogger("cogopt.cognition")


@dataclass
class CognitionConfig:
    s: int = 12                      # initial design size
    theta: int = 5                   # selection step size (cycles)
    epsilon: float | None = None     # application threshold; None -> 1% of range
    weights: RatingWeights = field(default_factory=RatingWeights)
    k_instances: int = 5
    tuning_budget: int = 5
    bench_budget: int = 36
    reps: int = 10
    stagnation_delta: float = 0.01
    master_seed: int = 0
    design_kind: str = "full_factorial"
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
        if self.k_instances < 2:
            raise SchemaError("k_instances: must be >= 2")
        if self.reps < 1:
            raise SchemaError("reps: must be >= 1")
        if self.design_reps < 1:
            raise SchemaError("design_reps: must be >= 1")

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
    # pipeline id -> (algorithm, parameters) as last benchmarked
    tuned: dict[str, tuple[str, dict]] = field(default_factory=dict)
    last_rating: RatingTable | None = None
    log_entries: list[dict] = field(default_factory=list)


def create_initial_design(s: int, bounds, kind: str = "full_factorial", seed: int = 0) -> np.ndarray:
    """`s` settings of the plant's one parameter within `bounds` = (lo, hi):
    equidistant by default, LHS optional."""
    lo, hi = np.asarray(bounds, dtype=float).reshape(2)
    if kind == "full_factorial":
        return np.linspace(lo, hi, s)
    if kind == "lhs":
        rng = np.random.default_rng(seed)
        return optimizers.latin_hypercube(rng, (lo, hi), s)
    raise SchemaError(f"unknown design kind {kind!r}")


def bootstrap(
    state: CognitionState,
    plant: PlantAdapter,
    config: CognitionConfig,
    historical: list[ProductionCycleRecord] | None = None,
) -> CognitionState:
    """Fill the data list either from history or by applying the design."""
    if historical:
        state.d = list(historical)
        state.x = historical[-1].x
        state.last_cycle = max(r.cycle for r in historical)
    else:
        design = create_initial_design(
            config.s, plant.bounds, config.design_kind, seed=config.master_seed
        )
        for point in design:
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
) -> KnowledgeBase:
    """Simulate, benchmark candidates, rate, and fold results into the KB."""
    cycle_seed = derive_seed(config.master_seed, 0xC, state.iteration)
    data = _dataset(state, bounds, goal.sign)
    S = generate_test_functions(data, config.k_instances, master_seed=cycle_seed)

    pipelines = compose_pipelines(kb, goal.path)
    feasible = determine_feasible(pipelines, goal, data_size=len(state.d))
    candidates = select_candidates(feasible, config.resources, state.e)
    # the baseline is always benchmarked: every rating group needs its reference
    baseline = next((p for p in candidates + feasible
                     if p.algorithm.name == optimizers.BASELINE), None)
    if baseline is not None and baseline not in candidates:
        candidates = [baseline] + candidates

    # one shared instance draw per cycle so all pipelines are comparable
    draw = np.random.default_rng(derive_seed(cycle_seed, 0xD))
    tune_idx = int(draw.integers(config.k_instances))
    others = [i for i in range(config.k_instances) if i != tune_idx]
    bench_idx = others[int(draw.integers(len(others)))]

    records = []
    for i, pipeline in enumerate(candidates):
        entry = pipeline.algorithm
        records.extend(tune_then_benchmark(
            pipeline.pipeline_id, entry.name, entry.parameters, S, bounds,
            tuning_budget=config.tuning_budget,
            bench_budget=config.bench_budget,
            reps=config.reps,
            seed=derive_seed(cycle_seed, i),
            tune_idx=tune_idx,
            bench_idx=bench_idx,
        ))
    state.e.extend(records)

    if baseline is None:
        log.warning("no baseline among candidates; skipping rating this cycle")
        state.p_best = None
        return kb
    table, p_best, updates = rate_pipelines(records, baseline.pipeline_id, config.weights)
    state.last_rating = table
    state.p_best = p_best
    algorithm_of = {p.pipeline_id: p.algorithm.name for p in candidates}
    for rec in records:
        state.tuned[rec.pipeline] = (algorithm_of[rec.pipeline], rec.tuned_params)
    for up in updates:
        algorithm = algorithm_of[up.algorithm]
        try:
            kb = update_characteristics(
                kb, goal.path, algorithm, up.performance, up.computational_effort, up.ram_usage
            )
        except RECOVERABLE as exc:
            log.warning("KB update for %s failed: %s", algorithm, exc)
    return kb


def get_best_x(
    p_best: str | None,
    state: CognitionState,
    config: CognitionConfig,
    bounds,
    sign: float = 1.0,
) -> float:
    """Winning pipeline's proposal on the surrogate of the real process
    (of sign * aggregate), searched by its algorithm with the parameters it
    was benchmarked with."""
    if p_best is None or state.x is None:
        return state.x
    try:
        data = _dataset(state, bounds, sign)
        model = gp.fit(data, noise=True)
        objective = lambda x: float(gp.predict(model, x)[0][0])
        algo, params = state.tuned[p_best]
        problem = optimizers.OptProblem(
            objective=objective, bounds=bounds, budget=config.bench_budget
        )
        res = optimizers.run_optimizer(
            algo, problem, derive_seed(config.master_seed, 0xA, state.iteration), params
        )
        return res.best_x
    except RECOVERABLE as exc:
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
    selection_ran = False
    if state.iteration % config.theta == 0 or state.zeta == 1:
        state.zeta = 0
        try:
            kb = run_selection_cycle(state, kb, config, goal, bounds)
            selection_ran = True
        except (UnknownGoal, ConfigError):
            raise  # a goal or setting the loop cannot serve fails every cycle alike
        except RECOVERABLE as exc:
            log.error("selection cycle failed: %s", exc)

    x_best = get_best_x(state.p_best, state, config, bounds, goal.sign)
    applied = False
    epsilon = config.resolved_epsilon(bounds)
    if x_best is not None and abs(state.x - x_best) >= epsilon:
        try:
            plant.apply(x_best)
            state.x = x_best
            applied = True
        except RECOVERABLE as exc:
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

    latest_record = state.d[-1] if state.d else None
    state.log_entries.append({
        "iteration": state.iteration,
        "x": state.x,
        "objective": latest_record.aggregate if latest_record else None,
        "f1": latest_record.f1 if latest_record else None,
        "f2": latest_record.f2 if latest_record else None,
        "f3": latest_record.f3 if latest_record else None,
        "p_best": state.p_best,
        "zeta": state.zeta,
        "selection_ran": selection_ran,
        "applied": applied,
    })
    state.iteration += 1
    return state, kb
