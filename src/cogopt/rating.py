"""Baseline-relative, weighted, normalized aggregate rating of pipelines.

Within each (instance, budget) group, each competitor's objective value is
turned into a relative improvement over the baseline; non-improvers are
eliminated.  Memory and CPU are expressed as ratios to the baseline.  Each
factor is min-max normalized among the group's survivors (best -> 1,
worst -> 0), aggregated with the configured weights, averaged across groups,
and ranked.  The winner becomes the applied pipeline; the normalized factors
feed back into the knowledge base as dynamic algorithm characteristics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .benchmark import EvaluationRecord
from .errors import ConstraintViolation, MissingBaseline


@dataclass(frozen=True)
class RatingWeights:
    w_objective: float = 0.8
    w_memory: float = 0.1
    w_cpu: float = 0.1

    def __post_init__(self):
        validate_weights((self.w_objective, self.w_memory, self.w_cpu))

    def as_tuple(self):
        return (self.w_objective, self.w_memory, self.w_cpu)


def validate_weights(weights) -> None:
    weights = tuple(float(w) for w in weights)
    if any(w <= 0.0 for w in weights):
        raise ConstraintViolation(f"weights must be strictly positive, got {weights}")
    if abs(sum(weights) - 1.0) > 1e-9:
        raise ConstraintViolation(f"weights must sum to 1, got sum {sum(weights)}")


@dataclass(frozen=True)
class PipelineRating:
    pipeline: str
    improvement: float
    mem_ratio: float
    cpu_ratio: float
    norm_obj: float
    norm_mem: float
    norm_cpu: float
    aggregate: float
    rank: float | None = None


@dataclass(frozen=True)
class RatingTable:
    ratings: dict[str, PipelineRating]
    survivors: tuple[str, ...]
    eliminated: tuple[str, ...]


@dataclass(frozen=True)
class KbUpdate:
    algorithm: str
    performance: float
    computational_effort: float
    ram_usage: float


def _improvement(y_base: float, y: float) -> float:
    # guard near-zero baselines: fall back to the absolute difference
    denom = abs(y_base)
    if denom < 1e-12:
        return y_base - y
    return (y_base - y) / denom


def _minmax(values: np.ndarray, larger_is_better: bool) -> np.ndarray:
    if values.size <= 1:
        return np.ones(values.size)
    lo, hi = float(values.min()), float(values.max())
    if hi - lo < 1e-15:
        return np.ones(values.size)
    norm = (values - lo) / (hi - lo)
    return norm if larger_is_better else 1.0 - norm


def _normalize(rows: dict[str, dict], pids: list[str]) -> dict[str, dict]:
    """Each factor min-max normalized among `pids` (best -> 1, worst -> 0)."""
    imp = _minmax(np.array([rows[p]["improvement"] for p in pids]), larger_is_better=True)
    mem = _minmax(np.array([rows[p]["mem_ratio"] for p in pids]), larger_is_better=False)
    cpu = _minmax(np.array([rows[p]["cpu_ratio"] for p in pids]), larger_is_better=False)
    return {p: {"norm_obj": a, "norm_mem": b, "norm_cpu": c}
            for p, a, b, c in zip(pids, imp, mem, cpu)}


def _mean_rows(rowlist: list[dict]) -> dict[str, float]:
    return {k: float(np.mean([r[k] for r in rowlist])) for k in rowlist[0]}


# the normalized scores of a pipeline that never improved on the baseline
_ELIMINATED = {"norm_obj": 0.0, "norm_mem": 0.0, "norm_cpu": 0.0, "aggregate": 0.0}


def rate_pipelines(
    records: list[EvaluationRecord],
    baseline_id: str,
    weights: RatingWeights,
):
    """Returns (RatingTable, p_best or None, list of KbUpdate).

    The baseline is never a survivor candidate.  KB updates cover every
    benchmarked pipeline (baseline included) using norms over the whole
    field, so eliminated algorithms still receive their characteristics.
    """
    groups: dict[tuple[str, int], dict[str, EvaluationRecord]] = {}
    for rec in records:
        groups.setdefault((rec.instance, rec.budget), {})[rec.pipeline] = rec

    per_pipeline: dict[str, list[dict]] = {}
    raw_per_pipeline: dict[str, list[dict]] = {}
    update_rows: dict[str, list[dict]] = {}
    for key, group in groups.items():
        if baseline_id not in group:
            raise MissingBaseline(f"group {key} lacks baseline {baseline_id!r}")
        rows = _raw_rows(group, baseline_id)
        for pid, row in rows.items():
            raw_per_pipeline.setdefault(pid, []).append(row)
        # survivor normalization: competitors that actually improved
        surv = [pid for pid, r in rows.items() if pid != baseline_id and r["improvement"] > 0.0]
        for p, norms in _normalize(rows, surv).items():
            agg = (weights.w_objective * norms["norm_obj"] + weights.w_memory * norms["norm_mem"]
                   + weights.w_cpu * norms["norm_cpu"])
            per_pipeline.setdefault(p, []).append({**rows[p], **norms, "aggregate": agg})
        # whole-field normalization feeds the knowledge-base update
        for p, norms in _normalize(rows, list(rows)).items():
            update_rows.setdefault(p, []).append(norms)
        for p in rows:
            per_pipeline.setdefault(p, [])

    ratings: dict[str, PipelineRating] = {}
    survivors = []
    eliminated = []
    for pid, rowlist in per_pipeline.items():
        if pid == baseline_id:
            continue
        if rowlist:
            survivors.append(pid)
        else:
            rowlist = [{**r, **_ELIMINATED} for r in raw_per_pipeline[pid]]
            eliminated.append(pid)
        ratings[pid] = PipelineRating(pipeline=pid, **_mean_rows(rowlist))

    # rank survivors: larger aggregate first; ties favor frugal resource use
    order = sorted(
        survivors,
        key=lambda p: (-ratings[p].aggregate, ratings[p].cpu_ratio, ratings[p].mem_ratio, p),
    )
    for i, pid in enumerate(order, start=1):
        ratings[pid] = PipelineRating(**{**ratings[pid].__dict__, "rank": float(i)})

    table = RatingTable(
        ratings=ratings,
        survivors=tuple(order),
        eliminated=tuple(sorted(eliminated)),
    )
    p_best = order[0] if order else None

    updates = []
    for pid, rowlist in update_rows.items():
        mean = _mean_rows(rowlist)
        updates.append(KbUpdate(
            algorithm=pid,
            performance=mean["norm_obj"],
            computational_effort=1.0 - mean["norm_cpu"],
            ram_usage=1.0 - mean["norm_mem"],
        ))
    return table, p_best, updates


def _raw_rows(group: dict[str, EvaluationRecord], baseline_id: str) -> dict[str, dict]:
    base = group[baseline_id]
    return {
        pid: {
            "improvement": 0.0 if pid == baseline_id else _improvement(base.best_y, rec.best_y),
            "mem_ratio": rec.memory_bytes / base.memory_bytes if base.memory_bytes else 1.0,
            "cpu_ratio": rec.cpu_time / base.cpu_time if base.cpu_time else 1.0,
        }
        for pid, rec in group.items()
    }

