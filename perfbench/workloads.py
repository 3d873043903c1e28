"""The benchmark's four workloads, driven through cogopt's public API.

Each workload has a set-up (plant simulator and knowledge base, built from the
seed), a body that is timed, output checks, and quality observations.  The
sizes are the dataclass defaults; the self-tests shrink them.

- ``campaign``: the paper's portfolio campaign at the published size.  Most
  of its time is KrigingSBO's ``gp.fit``, so GP work shows here.
- ``campaign-parallel``: the same input with two workers; the fixed-size
  scaling check of the parallel map in ``benchmark.run_campaign``.
- ``screening``: the four cheap optimizers at budget 200.  Optimizer and
  metering overhead dominate and ``gp.fit`` runs only while generating test
  functions, so a GP-only change must not move it.
- ``loop``: bootstrap plus twelve steps of the closed cognition loop, the
  only workload that reaches ``cognition``, ``knowledge``, ``rating`` and
  ``plant.apply``.
"""

from __future__ import annotations

import copy
import time
from dataclasses import dataclass, field

import numpy as np

from cogopt import benchmark, cognition, knowledge, optimizers, plant, report
from cogopt.knowledge import GoalSpec, KnowledgeBase

GOAL = GoalSpec("Optimization", ("f1", "f2", "f3"), "mean", "minimize")
GOAL_PATH = GOAL.path
NOISE_SD = 0.02
GT_GRID = 8193            # dense grid for the ground-truth minimum


@dataclass
class Context:
    """What set-up builds and the body consumes."""

    plant: plant.VpsSimulator
    kb: KnowledgeBase
    seed: int


@dataclass
class Check:
    name: str
    ok: bool
    detail: str = ""


def ground_truth_min(sim: plant.VpsSimulator) -> float:
    lo, hi = sim.bounds
    return min(sim.ground_truth(x) for x in np.linspace(lo, hi, GT_GRID))


def without(kb: KnowledgeBase, dropped: tuple[str, ...]) -> KnowledgeBase:
    """A copy of ``kb`` with the ``dropped`` algorithms removed from every goal."""
    return KnowledgeBase(goals={
        path: {name: e for name, e in entries.items() if name not in dropped}
        for path, entries in kb.goals.items()
    })


@dataclass(frozen=True)
class CampaignWorkload:
    name: str
    budget: int = 36
    checkpoints: tuple[int, ...] = benchmark.DEFAULT_CHECKPOINTS
    reps: int = 10
    k_instances: int = 5
    workers: int = 1
    dropped: tuple[str, ...] = ()
    # compare with a serial re-run of the ground-truth instance (parallel only)
    check_serial: bool = False

    def setup(self, seed: int) -> Context:
        sim = plant.VpsSimulator(noise_sd=NOISE_SD, seed=seed)
        return Context(plant=sim, kb=without(knowledge.default_kb(), self.dropped), seed=seed)

    def body(self, ctx: Context):
        """Returns ((records, rank correlation r), step times); a campaign is one step."""
        t0 = time.perf_counter()
        records = report.campaign(ctx.plant, ctx.kb, GOAL_PATH, budget=self.budget,
                                  checkpoints=self.checkpoints, reps=self.reps,
                                  k_instances=self.k_instances, master_seed=ctx.seed,
                                  workers=self.workers)
        corr = report.rank_correlation(records)
        return (records, corr.r), [time.perf_counter() - t0]

    def expected_spans(self) -> set[str]:
        algos = {name for name in knowledge.default_kb().entries_for(GOAL_PATH)
                 if name not in self.dropped}
        return {"plant.construct", "knowledge.default_kb", "report.campaign",
                "report.build_objectives", "report.rank_correlation",
                "benchmark.generate_test_functions", "benchmark.run_campaign",
                "benchmark.run_single", "benchmark.rank_algorithms", "gp.fit",
                "gp.predict", "gp.simulate_unconditional", "gp.simulate_conditional",
                } | {f"optimizers.{a}" for a in algos}

    def check(self, ctx: Context, output) -> list[Check]:
        records, _ = output
        checks = check_records(records, ctx, self)
        if self.check_serial:
            checks.append(check_serial_equal(records, ctx, self))
        return checks

    def quality(self, ctx: Context, output) -> dict:
        records, r = output
        final = [rec.best_y for rec in records
                 if rec.instance == report.GROUND_TRUTH and rec.budget == max(self.checkpoints)]
        return {"rank_corr_r": float(r),
                "gt_regret": float(np.mean(final)) - ground_truth_min(ctx.plant)}


def check_records(records, ctx: Context, wl: CampaignWorkload) -> list[Check]:
    pipelines = sorted(ctx.kb.entries_for(GOAL_PATH))
    instances = [report.GROUND_TRUTH] + [f"{report.SIM_PREFIX}{i}" for i in range(wl.k_instances)]
    budgets = [b for b in wl.checkpoints if b <= wl.budget]
    want = {(p, i, b) for p in pipelines for i in instances for b in budgets}
    keys = [(r.pipeline, r.instance, r.budget) for r in records]
    present = Check("records_present", set(keys) == want and len(keys) == len(want)
                    and all(r.rank is not None for r in records),
                    f"{len(set(keys) & want)}/{len(want)} records, {len(keys)} rows")

    series: dict[tuple[str, str], list] = {}
    for r in records:
        series.setdefault((r.pipeline, r.instance), []).append((r.budget, r.best_y))
    rising = [k for k, pts in series.items()
              if any(b > a for (_, a), (_, b) in zip(sorted(pts), sorted(pts)[1:]))]
    monotone = Check("best_y_monotone", not rising, f"increasing: {rising[:3]}")

    mem = {r.memory_bytes for r in records if r.pipeline == optimizers.BASELINE}
    baseline_mem = Check("baseline_memory_constant", len(mem) == 1, f"values: {sorted(mem)[:3]}")
    return [present, monotone, baseline_mem]


def check_serial_equal(records, ctx: Context, wl: CampaignWorkload) -> Check:
    """Records on the ground-truth instance equal a serial re-run of it.

    Seeds derive from (pipeline index, instance index, rep) and the ground
    truth sorts first among instance names, so a serial campaign over the
    ground truth alone reproduces the same runs at a sixth of the cost.
    """
    objectives = {report.GROUND_TRUTH: ctx.plant.ground_truth_objective()}
    serial = benchmark.rank_algorithms(benchmark.run_campaign(
        report.portfolio_from_kb(ctx.kb, GOAL_PATH), objectives,
        np.array([ctx.plant.bounds], dtype=float), wl.budget,
        checkpoints=tuple(wl.checkpoints), reps=wl.reps, master_seed=ctx.seed, workers=1))
    key = lambda r: (r.pipeline, r.budget)
    par = sorted((r for r in records if r.instance == report.GROUND_TRUTH), key=key)
    serial = sorted(serial, key=key)
    fields = lambda r: (r.pipeline, r.budget, r.best_y, r.memory_bytes, r.rank)
    diff = [fields(a) for a, b in zip(par, serial) if fields(a) != fields(b)]
    ok = len(par) == len(serial) and not diff
    return Check("parallel_equals_serial", ok, f"{len(par)} vs {len(serial)} rows, differing: {diff[:2]}")


@dataclass(frozen=True)
class LoopWorkload:
    name: str
    steps: int = 12
    config: cognition.CognitionConfig = field(default_factory=cognition.CognitionConfig)

    def setup(self, seed: int) -> Context:
        sim = plant.VpsSimulator(noise_sd=NOISE_SD, seed=seed)
        return Context(plant=sim, kb=knowledge.default_kb(), seed=seed)

    def body(self, ctx: Context):
        """Bootstrap and run the steps on a fresh copy of the plant."""
        sim = copy.deepcopy(ctx.plant)
        state = cognition.bootstrap(cognition.CognitionState(), sim, self.config)
        kb = ctx.kb
        times, sizes = [], []
        for _ in range(self.steps):
            t0 = time.perf_counter()
            state, kb = cognition.step(state, sim, kb, self.config, GOAL)
            times.append(time.perf_counter() - t0)
            sizes.append(len(state.d))
        return (state, sim, sizes), times

    def expected_spans(self) -> set[str]:
        return {"plant.construct", "plant.apply", "knowledge.default_kb",
                "cognition.bootstrap", "cognition.step", "cognition.run_selection_cycle",
                "cognition.get_best_x", "knowledge.compose_pipelines",
                "knowledge.determine_feasible", "knowledge.select_candidates",
                "knowledge.update_characteristics", "rating.rate_pipelines",
                "benchmark.generate_test_functions", "benchmark.tune_then_benchmark",
                "benchmark.run_single", "gp.fit", "gp.predict",
                "gp.simulate_unconditional", "gp.simulate_conditional",
                } | {f"optimizers.{a}" for a in optimizers.ALGORITHMS}

    def check(self, ctx: Context, output) -> list[Check]:
        state, sim, _ = output
        lo, hi = sim.bounds
        entries = state.log_entries
        logged = Check("one_log_entry_per_step",
                       [e["iteration"] for e in entries] == list(range(self.steps)),
                       f"{len(entries)} entries for {self.steps} steps")
        xs = [e["x"] for e in entries] + [r.x for r in sim.records]
        known = [x for x in xs if x is not None]
        inside = Check("x_within_bounds", len(known) == len(xs) and all(lo <= x <= hi for x in xs),
                       f"{len(xs) - len(known)} missing, range [{min(known, default=None)}, "
                       f"{max(known, default=None)}]")
        return [logged, inside]

    def quality(self, ctx: Context, output) -> dict:
        state, sim, _ = output
        return {"rank_corr_r": 0.0,
                "gt_regret": sim.ground_truth(state.x) - ground_truth_min(sim)}

    def decisions(self, output) -> list[dict]:
        """Per step: whether selection ran, the winner, whether it applied, data size."""
        state, _, sizes = output
        return [{"step": e["iteration"], "selection_ran": e["selection_ran"],
                 "p_best": e["p_best"], "applied": e["applied"], "data_size": n}
                for e, n in zip(state.log_entries, sizes)]


WORKLOADS = {
    "campaign": CampaignWorkload("campaign"),
    "campaign-parallel": CampaignWorkload("campaign-parallel", workers=2, check_serial=True),
    "screening": CampaignWorkload("screening", budget=200, checkpoints=(50, 100, 200),
                                  reps=20, dropped=("KrigingSBO",)),
    "loop": LoopWorkload("loop"),
}
