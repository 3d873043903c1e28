"""Campaign orchestration and report generation (tables as CSV, summary text).

The standalone campaign benchmarks the portfolio on the plant's ground-truth
objective and on unconditional simulation instances generated from the
process data; reports compare per-budget performance ranks between the two
objective types and re-rate the field under configurable weight scenarios.
"""

from __future__ import annotations

import csv

import numpy as np

from . import benchmark
from .benchmark import EvaluationRecord, pearson_correlation, rank_algorithms, run_campaign
from .errors import DegenerateInput, MalformedInput
from .knowledge import KnowledgeBase, compose_pipelines
from .optimizers import BASELINE
from .plant import VpsSimulator
from .rating import rate_pipelines

GROUND_TRUTH = "ground-truth"
SIM_PREFIX = "sim-"


def portfolio_from_kb(kb: KnowledgeBase, goal_path) -> list[tuple[str, dict]]:
    """(algorithm, default parameters) of the goal's entries, by name."""
    return [(e.name, e.defaults)
            for e in sorted(compose_pipelines(kb, goal_path), key=lambda e: e.name)]


def build_objectives(plant: VpsSimulator, k_instances: int, master_seed: int) -> dict:
    """Ground-truth objective plus k unconditional simulations of the seed aggregate."""
    S = benchmark.generate_test_functions(plant.config.aggregate_data, k_instances,
                                          master_seed=master_seed)
    objectives = {GROUND_TRUTH: plant.ground_truth_objective()}
    for i, inst in enumerate(S):
        objectives[f"{SIM_PREFIX}{i}"] = inst
    return objectives


def campaign(plant: VpsSimulator, kb: KnowledgeBase, goal_path, *,
             budget: int = 36, checkpoints=benchmark.DEFAULT_CHECKPOINTS,
             reps: int = 10, k_instances: int = 5, master_seed: int = 0,
             workers: int = 1) -> list[EvaluationRecord]:
    objectives = build_objectives(plant, k_instances, master_seed)
    pipelines = portfolio_from_kb(kb, goal_path)
    records = run_campaign(pipelines, objectives, plant.bounds, budget,
                           checkpoints=tuple(checkpoints), reps=reps,
                           master_seed=master_seed, workers=workers)
    return rank_algorithms(records)


def _is_sim(instance: str) -> bool:
    return instance.startswith(SIM_PREFIX)


def mean_ranks(records: list[EvaluationRecord], sim: bool) -> dict[tuple[str, int], float]:
    """Mean rank per (pipeline, budget) over one objective type."""
    acc: dict[tuple[str, int], list[float]] = {}
    for rec in records:
        if _is_sim(rec.instance) != sim or rec.rank is None:
            continue
        acc.setdefault((rec.pipeline, rec.budget), []).append(rec.rank)
    return {k: float(np.mean(v)) for k, v in acc.items()}


def rank_correlation(records: list[EvaluationRecord]) -> benchmark.CorrelationResult:
    """Pearson correlation of ground-truth vs simulation per-budget ranks."""
    gt = mean_ranks(records, sim=False)
    sm = mean_ranks(records, sim=True)
    keys = sorted(set(gt) & set(sm))
    if len(keys) < 3:
        raise MalformedInput("not enough paired rank observations")
    return pearson_correlation([gt[k] for k in keys], [sm[k] for k in keys])


def scenario_tables(records: list[EvaluationRecord], scenarios):
    """(weights, table, p_best) per (objective, memory, cpu) weight scenario, rated on the
    simulations."""
    sim_records = [r for r in records if _is_sim(r.instance)] or records
    out = []
    for weights in scenarios:
        table, p_best, _ = rate_pipelines(sim_records, BASELINE, weights)
        out.append((weights, table, p_best))
    return out


def write_rank_csv(records: list[EvaluationRecord], sim: bool, path) -> None:
    ranks = mean_ranks(records, sim=sim)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["pipeline", "budget", "mean_rank", "baseline"])
        for (pid, budget), r in sorted(ranks.items()):
            w.writerow([pid, budget, repr(r), pid == BASELINE])


def write_scenario_csv(table, path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["pipeline", "improvement", "mem_ratio", "cpu_ratio",
                    "norm_obj", "norm_mem", "norm_cpu", "aggregate", "rank", "status"])
        for pid, r in sorted(table.ratings.items()):
            status = "survivor" if pid in table.survivors else "eliminated"
            w.writerow([pid, repr(r.improvement), repr(r.mem_ratio), repr(r.cpu_ratio),
                        repr(r.norm_obj), repr(r.norm_mem), repr(r.norm_cpu),
                        repr(r.aggregate), "" if r.rank is None else repr(r.rank), status])


def write_trajectories_csv(records: list[EvaluationRecord], path) -> None:
    """Ground-truth best-objective / memory / cpu per algorithm and budget."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["pipeline", "budget", "best_y", "memory_bytes", "cpu_time"])
        for rec in sorted((r for r in records if not _is_sim(r.instance)),
                          key=lambda r: (r.pipeline, r.budget)):
            w.writerow([rec.pipeline, rec.budget, repr(rec.best_y),
                        repr(rec.memory_bytes), repr(rec.cpu_time)])


def summary_text(records: list[EvaluationRecord], tables) -> str:
    """The rank correlation of `records` and the winner of each (weights, table, p_best)
    from `scenario_tables`."""
    lines = []
    try:
        corr = rank_correlation(records)
        lines.append(
            f"rank correlation ground-truth vs simulations: r={corr.r:.3f} "
            f"CI95=[{corr.conf_int[0]:.3f}, {corr.conf_int[1]:.3f}] "
            f"t={corr.t_statistic:.3f} p={corr.p_value:.3g} df={corr.df}"
        )
    except (MalformedInput, DegenerateInput) as exc:
        lines.append(f"rank correlation unavailable: {exc}")
    for w, table, p_best in tables:
        if p_best is None:
            lines.append(f"scenario {w}: empty survivor set (baseline is the fallback)")
        else:
            lines.append(f"scenario {w}: best pipeline {p_best} "
                         f"(aggregate {table.ratings[p_best].aggregate:.3f})")
    return "\n".join(lines)
