"""Tune-then-benchmark campaigns with resource metering, ranks, and statistics.

Every run derives its RNG seed from (master seed, pipeline index, instance
index, rep), so serial and parallel schedules produce identical records
(CPU time excepted, being wall-clock dependent).
"""

from __future__ import annotations

import csv
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.special import stdtr

from . import gp, optimizers
from .errors import (
    ConfigError,
    DegenerateInput,
    DuplicatePipelineInGroup,
    InstanceSetTooSmall,
    RECOVERABLE,
)
from .knowledge import ParameterSpec

DEFAULT_CHECKPOINTS = (6, 12, 18, 24, 30, 36)


@dataclass(frozen=True)
class EvaluationRecord:
    pipeline: str
    instance: str
    budget: int
    best_y: float
    cpu_time: float
    memory_bytes: float
    rank: float | None = None
    tuned_params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.budget <= 0:
            raise DegenerateInput("budget must be > 0")


def derive_seed(master_seed: int, *key: int) -> int:
    return int(np.random.SeedSequence((master_seed,) + key).generate_state(1)[0])


def generate_test_functions(
    data: gp.Dataset,
    k: int,
    master_seed: int = 0,
) -> tuple[gp.Realization, ...]:
    """Fit a GP to the process data and draw k unconditional instances.

    The instances share one sampler, so the grid's prior is factored once for
    all k draws.
    """
    model = gp.fit(data, noise=True)
    draw = gp.unconditional_sampler(model, gp.default_grid(data.bounds))
    return tuple(draw(derive_seed(master_seed, i)) for i in range(k))


def _checkpoint_slice(result: optimizers.OptResult, budget: int):
    i = min(budget, result.evals_used) - 1
    return (
        float(result.trace[i]),
        float(result.cpu_trace[i]),
        float(result.mem_trace[i]),
    )


def _average_checkpoints(pipeline: str, instance: str, runs, checkpoints,
                         params: dict) -> list[EvaluationRecord]:
    """One record per checkpoint budget, averaged over the repeated runs."""
    records = []
    for b in checkpoints:
        ys, cpus, mems = zip(*(_checkpoint_slice(r, b) for r in runs))
        records.append(EvaluationRecord(
            pipeline=pipeline, instance=instance, budget=b,
            best_y=float(np.mean(ys)),
            cpu_time=float(np.mean(cpus)),
            memory_bytes=float(np.mean(mems)),
            tuned_params=dict(params),
        ))
    return records


def run_single(
    algorithm: str,
    objective,
    bounds,
    budget: int,
    seed: int,
    params: dict | None = None,
) -> optimizers.OptResult:
    problem = optimizers.OptProblem(objective=objective, bounds=bounds, budget=budget)
    return optimizers.run_optimizer(algorithm, problem, seed, params)


def _sample_params(rng, specs: tuple[ParameterSpec, ...]) -> dict:
    out = {}
    for p in specs:
        if p.kind == "categorical":
            out[p.name] = p.categories[rng.integers(len(p.categories))]
        elif p.kind == "integer":
            out[p.name] = int(rng.integers(p.min, p.max + 1))
        else:
            out[p.name] = float(rng.uniform(p.min, p.max))
    return out


def tune_then_benchmark(
    pipeline_id: str,
    algorithm: str,
    param_specs: tuple[ParameterSpec, ...],
    S: tuple[gp.Realization, ...],
    bounds,
    tuning_budget: int,
    bench_budget: int,
    tune_idx: int,
    bench_idx: int,
    reps: int = 10,
    seed: int = 0,
) -> list[EvaluationRecord]:
    """Random-search tuning on instance `tune_idx`, metered benchmarking on `bench_idx`.

    Tuning samples `tuning_budget` configurations (each scored by one seeded
    run on the tuning instance); the winner is then run `reps` times on the
    benchmark instance and averaged into one record at `bench_budget`.
    Pipelines benchmarked against each other share the two indices, so their
    records fall into the same rank groups.
    """
    if len(S) < 2:
        raise InstanceSetTooSmall("need >= 2 instances to tune and benchmark separately")
    if tune_idx == bench_idx:
        raise InstanceSetTooSmall("tuning and benchmark instances must differ")
    rng = np.random.default_rng(derive_seed(seed, 0xB))

    tuned = {}
    if param_specs:
        best_score = np.inf
        for j in range(tuning_budget):
            params = _sample_params(rng, param_specs)
            try:
                res = run_single(algorithm, S[tune_idx], bounds, bench_budget,
                                 derive_seed(seed, 1, j), params)
            except RECOVERABLE:
                continue  # an infeasible sampled config just scores nothing
            if res.best_y < best_score:
                best_score = res.best_y
                tuned = params

    runs = [
        run_single(algorithm, S[bench_idx], bounds, bench_budget,
                   derive_seed(seed, 2, rep), tuned)
        for rep in range(reps)
    ]
    return _average_checkpoints(pipeline_id, f"instance-{bench_idx}", runs, (bench_budget,), tuned)


def run_campaign(
    pipelines: list[tuple[str, str, dict]],
    objectives: dict[str, object],
    bounds,
    budget: int,
    checkpoints: tuple[int, ...] = DEFAULT_CHECKPOINTS,
    reps: int = 10,
    master_seed: int = 0,
    workers: int = 1,
) -> list[EvaluationRecord]:
    """Run every (pipeline, objective, rep) combination and average over reps.

    `pipelines` holds (pipeline_id, algorithm, params) triples; `objectives`
    maps instance ids to callables.  Results are schedule-independent because
    seeds derive from indices and both maps return results in task order.
    """
    if reps < 1:
        raise ConfigError("reps must be >= 1")
    checkpoints = tuple(b for b in checkpoints if b <= budget)
    inames = sorted(objectives)
    tasks = [
        (algo, objectives[iname], derive_seed(master_seed, pi, ii, rep), params)
        for pi, (_, algo, params) in enumerate(pipelines)
        for ii, iname in enumerate(inames)
        for rep in range(reps)
    ]

    def work(task):
        algo, objective, seed, params = task
        return run_single(algo, objective, bounds, budget, seed, params)

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(work, tasks))
    else:
        results = list(map(work, tasks))

    # the reps of one (pipeline, instance) pair are one slice of the results
    slices = (results[j:j + reps] for j in range(0, len(results), reps))
    records = [rec for pid, _, params in pipelines for iname in inames
               for rec in _average_checkpoints(pid, iname, next(slices), checkpoints, params)]
    position = {pid: i for i, (pid, _, _) in enumerate(pipelines)}
    records.sort(key=lambda r: (r.instance, r.budget, position[r.pipeline]))
    return records


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks, ties sharing the mean of their positions.

    The same values as `scipy.stats.rankdata(values, method="average")`: a
    stable sort, one group per run of equal values, and all ranks NaN when any
    value is NaN.
    """
    values = np.asarray(values, dtype=float).ravel()
    if np.isnan(values).any():
        return np.full(values.size, np.nan)
    order = np.argsort(values, kind="stable")
    sorted_vals = values[order]
    starts = np.flatnonzero(np.r_[True, sorted_vals[1:] != sorted_vals[:-1]])
    counts = np.diff(starts, append=values.size)
    ranks = np.empty(values.size)
    ranks[order] = np.repeat(starts + 1.0 + (counts - 1) / 2, counts)
    return ranks


def rank_algorithms(records: list[EvaluationRecord]) -> list[EvaluationRecord]:
    """Assign within-(instance, budget) best_y ranks; rank 1 is best, ties mid-ranked."""
    groups: dict[tuple[str, int], list[int]] = {}
    for i, rec in enumerate(records):
        key = (rec.instance, rec.budget)
        groups.setdefault(key, []).append(i)
    out = list(records)
    for key, idxs in groups.items():
        names = [records[i].pipeline for i in idxs]
        if len(set(names)) != len(names):
            raise DuplicatePipelineInGroup(f"duplicate pipeline in group {key}")
        ranks = _average_ranks([records[i].best_y for i in idxs])
        for i, r in zip(idxs, ranks):
            out[i] = replace(records[i], rank=float(r))
    return out


@dataclass(frozen=True)
class CorrelationResult:
    r: float
    t_statistic: float
    p_value: float
    df: int
    conf_int: tuple[float, float]


def pearson_correlation(a, b) -> CorrelationResult:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.size != b.size or a.size < 3:
        raise DegenerateInput("need two equally sized samples of length >= 3")
    if np.var(a) == 0 or np.var(b) == 0:
        raise DegenerateInput("zero variance input")
    r = float(np.corrcoef(a, b)[0, 1])
    r = max(min(r, 1.0), -1.0)
    df = a.size - 2
    if abs(r) == 1.0:
        t_stat, p = np.inf, 0.0
    else:
        t_stat = r * np.sqrt(df / (1.0 - r * r))
        p = float(2.0 * stdtr(df, -abs(t_stat)))  # two-sided Student t tail
    # Fisher-z 95% confidence interval
    if abs(r) == 1.0:
        ci = (r, r)
    else:
        z = np.arctanh(r)
        se = 1.0 / np.sqrt(a.size - 3)
        ci = (float(np.tanh(z - 1.959963985 * se)), float(np.tanh(z + 1.959963985 * se)))
    return CorrelationResult(r=r, t_statistic=float(t_stat), p_value=p, df=df, conf_int=ci)


CSV_FIELDS = ("pipeline", "instance", "budget", "best_y", "cpu_time", "memory_bytes", "rank")


def records_to_csv(records: list[EvaluationRecord], path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(CSV_FIELDS)
        for r in records:
            w.writerow([r.pipeline, r.instance, r.budget,
                        repr(r.best_y), repr(r.cpu_time), repr(r.memory_bytes),
                        "" if r.rank is None else repr(r.rank)])


def records_from_csv(path) -> list[EvaluationRecord]:
    from .errors import MalformedInput
    records = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or not set(CSV_FIELDS) <= set(reader.fieldnames):
            raise MalformedInput(f"{path}: expected columns {CSV_FIELDS}")
        for row in reader:
            records.append(EvaluationRecord(
                pipeline=row["pipeline"], instance=row["instance"],
                budget=int(row["budget"]), best_y=float(row["best_y"]),
                cpu_time=float(row["cpu_time"]), memory_bytes=float(row["memory_bytes"]),
                rank=float(row["rank"]) if row["rank"] else None,
            ))
    return records
