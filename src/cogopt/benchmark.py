"""Tune-then-benchmark campaigns with resource metering, ranks, and statistics.

`run_campaign` is the one routine that benchmarks: the standalone campaign
runs it on k instances, and the selection cycle's `tune_then_benchmark` on
the instance it did not tune on.  Every run derives its RNG seed from
(master seed, pipeline index, instance index, rep), so serial and parallel
schedules produce identical records (CPU time excepted, being wall-clock
dependent).
"""

from __future__ import annotations

import csv
import io
import logging
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.special import stdtr

from . import gp, optimizers
from .errors import (CogoptError, ConfigError, DegenerateInput, DuplicatePipelineInGroup,
                     MalformedInput, read_text)
from .knowledge import ParameterSpec

log = logging.getLogger("cogopt.benchmark")

DEFAULT_CHECKPOINTS = (6, 12, 18, 24, 30, 36)
# the third seed key of a tuning stream; run_campaign puts the instance index there
_TUNE_DRAW, _TUNE_RUN = 0xB, 0xC


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
    model: gp.GPModel,
    k: int,
    master_seed: int = 0,
) -> tuple[gp.Realization, ...]:
    """k unconditional instances drawn from `model`, a GP fitted to the process data.

    The instances share one sampler, so the grid's prior is factored once for
    all k draws.
    """
    draw = gp.unconditional_sampler(model, gp.default_grid(model.data.bounds))
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


def _tune(algorithm: str, specs: tuple[ParameterSpec, ...], objective, bounds,
          tuning_budget: int, budget: int, seed: int, index: int) -> dict:
    """The best of `tuning_budget` sampled configurations, each scored by one run; the
    specs' defaults when no sampled configuration runs."""
    tuned, best = {p.name: p.default for p in specs}, np.inf
    if not specs:
        return tuned
    rng = np.random.default_rng(derive_seed(seed, index, _TUNE_DRAW))
    for j in range(tuning_budget):
        params = _sample_params(rng, specs)
        try:
            res = run_single(algorithm, objective, bounds, budget,
                             derive_seed(seed, index, _TUNE_RUN, j), params)
        except CogoptError as exc:  # an infeasible sampled config just scores nothing
            log.info("tuning %s: skipped %s: %s", algorithm, params, exc)
            continue
        if res.best_y < best:
            best, tuned = res.best_y, params
    return tuned


def tune_then_benchmark(
    candidates: list[tuple[str, tuple[ParameterSpec, ...]]],
    tune_on,
    bench_on,
    bounds,
    tuning_budget: int,
    bench_budget: int,
    reps: int = 10,
    seed: int = 0,
) -> list[EvaluationRecord]:
    """Tune each (algorithm, parameter specs) candidate on `tune_on`, then
    benchmark the tuned pipelines in one `run_campaign` on `bench_on`, named
    "instance-1": one record per pipeline at `bench_budget`, averaged over
    `reps`.  Candidate i's benchmark runs are keyed (seed, i, 0, rep), its
    tuning streams (seed, i, _TUNE_DRAW) and (seed, i, _TUNE_RUN, j).
    """
    pipelines = [(algorithm, _tune(algorithm, specs, tune_on, bounds, tuning_budget,
                                   bench_budget, seed, i))
                 for i, (algorithm, specs) in enumerate(candidates)]
    return run_campaign(pipelines, {"instance-1": bench_on}, bounds, bench_budget,
                        checkpoints=(bench_budget,), reps=reps, master_seed=seed)


def run_campaign(
    pipelines: list[tuple[str, dict]],
    objectives: dict[str, object],
    bounds,
    budget: int,
    checkpoints: tuple[int, ...] = DEFAULT_CHECKPOINTS,
    reps: int = 10,
    master_seed: int = 0,
    workers: int = 1,
) -> list[EvaluationRecord]:
    """Run every (pipeline, objective, rep) combination and average over reps.

    `pipelines` holds (algorithm, params) pairs; `objectives` maps instance
    ids to callables.  Results are schedule-independent because seeds derive
    from indices and both maps return results in task order.
    """
    if reps < 1:
        raise ConfigError("reps must be >= 1")
    checkpoints = tuple(b for b in checkpoints if b <= budget)
    inames = sorted(objectives)
    tasks = [
        (algo, objectives[iname], derive_seed(master_seed, pi, ii, rep), params)
        for pi, (algo, params) in enumerate(pipelines)
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
    records = [rec for algo, params in pipelines for iname in inames
               for rec in _average_checkpoints(algo, iname, next(slices), checkpoints, params)]
    position = {algo: i for i, (algo, _) in enumerate(pipelines)}
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
    """The records of a `records_to_csv` file; a SchemaError names a file that cannot be read
    as UTF-8 text, and a MalformedInput the file, line and column of a cell that is not a
    number."""
    records = []
    reader = csv.DictReader(io.StringIO(read_text(path)))
    if reader.fieldnames is None or not set(CSV_FIELDS) <= set(reader.fieldnames):
        raise MalformedInput(f"{path}: expected columns {CSV_FIELDS}")

    def number(row, column, kind=float):
        try:
            return kind(row[column])
        except (TypeError, ValueError):  # TypeError: a short row's missing cell
            raise MalformedInput(f"{path}, line {reader.line_num}, column {column}: "
                                 f"not a number: {row[column]!r}") from None

    for row in reader:
        records.append(EvaluationRecord(
            pipeline=row["pipeline"], instance=row["instance"],
            budget=number(row, "budget", int), best_y=number(row, "best_y"),
            cpu_time=number(row, "cpu_time"), memory_bytes=number(row, "memory_bytes"),
            rank=number(row, "rank") if row["rank"] else None,
        ))
    return records
