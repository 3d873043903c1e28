"""Baseline-relative, weighted, normalized aggregate rating of pipelines.

Within each (instance, budget) group, each competitor's objective value is
turned into a relative improvement over the baseline; non-improvers get zero
norms in that group.  Memory and CPU are expressed as ratios to the baseline.
Each factor is min-max normalized among the group's improvers (best -> 1,
worst -> 0) and aggregated with the configured weights.  Each competitor is
rated by its mean over every group it ran in; one that improved in no group
is eliminated, and the rest are ranked.  The winner becomes the applied
pipeline; the normalized factors feed back into the knowledge base as dynamic
algorithm characteristics.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .benchmark import EvaluationRecord
from .errors import MissingBaseline, SchemaError


def validate_weights(name: str, weights) -> None:
    """Every weight triple, the rating's (objective, memory, cpu) and the plant's
    per-curve weights alike: three positive numbers summing to 1.  The
    SchemaError starts with `name`, so the config loader can prefix the section."""
    weights = tuple(float(w) for w in weights)
    if len(weights) != 3:
        raise SchemaError(f"{name}: need three weights, got {len(weights)}")
    # written so that NaN fails both comparisons
    if not all(w > 0.0 for w in weights):
        raise SchemaError(f"{name}: must be strictly positive, got {weights}")
    if not abs(sum(weights) - 1.0) <= 1e-9:
        raise SchemaError(f"{name}: must sum to 1, got sum {sum(weights)}")


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


# the norms of a pipeline in a group where it did not improve on the baseline
_ELIMINATED = {"norm_obj": 0.0, "norm_mem": 0.0, "norm_cpu": 0.0}


def rate_pipelines(
    records: list[EvaluationRecord],
    baseline_id: str,
    weights: tuple[float, float, float],
):
    """Returns (RatingTable, p_best or None, list of KbUpdate).

    `weights` is the (objective, memory, cpu) triple.  A competitor is rated
    by its mean over every group it ran in, a group where it did not improve
    on the baseline counting with zero norms and aggregate.  It survives when
    it improved in some group and is eliminated otherwise.  The baseline is
    never a survivor candidate.  KB updates cover every benchmarked pipeline
    (baseline included) using norms over the whole field, so eliminated
    algorithms still receive their characteristics.
    """
    groups: dict[tuple[str, int], dict[str, EvaluationRecord]] = {}
    for rec in records:
        groups.setdefault((rec.instance, rec.budget), {})[rec.pipeline] = rec

    w_obj, w_mem, w_cpu = weights
    # per pipeline, one (rating row, whole-field norms) per group it ran in
    rows: dict[str, list[tuple[dict, dict]]] = {}
    improved: set[str] = set()  # the competitors that beat the baseline in some group
    for key, group in groups.items():
        if baseline_id not in group:
            raise MissingBaseline(f"group {key} lacks baseline {baseline_id!r}")
        raw = _raw_rows(group, baseline_id)
        surv_norms = _normalize(raw, [p for p, r in raw.items()
                                      if p != baseline_id and r["improvement"] > 0.0])
        improved.update(surv_norms)
        field_norms = _normalize(raw, list(raw))
        for p, row in raw.items():
            n = surv_norms.get(p, _ELIMINATED)
            agg = w_obj * n["norm_obj"] + w_mem * n["norm_mem"] + w_cpu * n["norm_cpu"]
            rows.setdefault(p, []).append(({**row, **n, "aggregate": agg}, field_norms[p]))

    ratings = {p: PipelineRating(pipeline=p, **_mean_rows([row for row, _ in prows]))
               for p, prows in rows.items() if p != baseline_id}
    # rank survivors: larger aggregate first; ties favor frugal resource use
    order = sorted(improved, key=lambda p: (-ratings[p].aggregate, ratings[p].cpu_ratio,
                                            ratings[p].mem_ratio, p))
    for i, p in enumerate(order, start=1):
        ratings[p] = replace(ratings[p], rank=float(i))

    updates = []
    for p, prows in rows.items():
        mean = _mean_rows([norms for _, norms in prows])
        updates.append(KbUpdate(algorithm=p, performance=mean["norm_obj"],
                                computational_effort=1.0 - mean["norm_cpu"],
                                ram_usage=1.0 - mean["norm_mem"]))
    table = RatingTable(ratings=ratings, survivors=tuple(order),
                        eliminated=tuple(sorted(set(ratings) - improved)))
    return table, order[0] if order else None, updates


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

