"""End-to-end acceptance checks for the whole engine.

Each test records one PASS/FAIL line; conftest prints the collected verdicts
after the run so they survive pytest's output capture.  The heavy portfolio
campaign (ten master seeds, full budget) is computed once and shared by the
first three criteria.
"""

import json
import math
import sys
import time

import numpy as np
import pytest
import yaml
from click.testing import CliRunner

from cogopt import cognition, gp, report
from cogopt.benchmark import EvaluationRecord, run_campaign
from cogopt.cli import default_config_doc, main
from cogopt.cognition import CognitionConfig, CognitionState, bootstrap, run_selection_cycle, step
from cogopt.knowledge import GoalSpec, default_kb, dump_kb, parse_kb
from cogopt.optimizers import differential_evolution, hill_climber, random_search, OptProblem
from cogopt.plant import VpsSimulator
from cogopt.rating import rate_pipelines

GOAL = GoalSpec("Optimization", ("f1", "f2", "f3"), "mean", "minimize")
GOAL_PATH = ("Optimization", "minimize", "mean")
N_SEEDS = 10


VERDICTS: list[str] = []


def verdict(num: int, ok: bool, text: str) -> None:
    line = f"[acceptance {num:02d}] {'PASS' if ok else 'FAIL'}: {text}"
    VERDICTS.append(line)
    print(line, file=sys.__stdout__, flush=True)
    assert ok, text


@pytest.fixture(scope="module")
def campaigns():
    """Full portfolio campaign per master seed, plus the wall-clock spent."""
    kb = default_kb()
    t0 = time.time()
    out = {}
    for seed in range(N_SEEDS):
        plant = VpsSimulator(noise_sd=0.02, seed=seed)
        out[seed] = report.campaign(plant, kb, GOAL_PATH, budget=36, reps=10,
                                    k_instances=5, master_seed=seed)
    return out, time.time() - t0


@pytest.mark.slow
def test_01_simulation_fidelity(campaigns):
    records_by_seed, elapsed = campaigns
    good = 0
    rs = []
    for records in records_by_seed.values():
        corr = report.rank_correlation(records)
        rs.append(corr.r)
        if corr.r >= 0.5 and corr.p_value < 0.01:
            good += 1
    ok = good >= 8 and elapsed <= 300.0
    verdict(1, ok,
            f"rank correlation >= 0.5 with p < 0.01 for {good}/{N_SEEDS} seeds "
            f"(r in [{min(rs):.3f}, {max(rs):.3f}]), campaign took {elapsed:.0f}s")


@pytest.mark.slow
def test_02_surrogate_dominance(campaigns):
    records_by_seed, _ = campaigns
    budgets = (18, 24, 30, 36)  # the checkpoints at or above budget 15
    good = 0
    for records in records_by_seed.values():
        gt = [r for r in records if r.instance == report.GROUND_TRUTH]

        def mean_y(pipeline, budget):
            return np.mean([r.best_y for r in gt
                            if r.pipeline == pipeline and r.budget == budget])

        if all(mean_y("KrigingSBO", b) < mean_y("RandomSearch", b) for b in budgets):
            good += 1
    verdict(2, good >= 8,
            f"KrigingSBO beats RandomSearch at every budget >= 15 for {good}/{N_SEEDS} seeds")


@pytest.mark.slow
def test_03_memory_shape(campaigns):
    records_by_seed, _ = campaigns
    records = records_by_seed[0]
    gt = [r for r in records if r.instance == report.GROUND_TRUTH]

    def mem(pipeline, budget):
        return [r.memory_bytes for r in gt
                if r.pipeline == pipeline and r.budget == budget][0]

    kriging_grows = mem("KrigingSBO", 36) >= 3.0 * mem("KrigingSBO", 12)
    rs_mem = {r.memory_bytes for r in records if r.pipeline == "RandomSearch"}
    verdict(3, kriging_grows and len(rs_mem) == 1,
            f"KrigingSBO memory 36/12 ratio {mem('KrigingSBO', 36) / mem('KrigingSBO', 12):.1f}, "
            f"RandomSearch memory constant across budgets: {len(rs_mem) == 1}")


def test_04_baseline_filtering():
    def rec(pipeline, best_y, instance, budget):
        return EvaluationRecord(pipeline=pipeline, instance=instance, budget=budget,
                                best_y=best_y, cpu_time=1.0, memory_bytes=100.0)

    records = []
    for instance in ("i0", "i1"):
        for budget in (12, 36):
            records += [
                rec("Base", 1.0, instance, budget),
                rec("Good", 0.5, instance, budget),
                rec("Worse", 1.5, instance, budget),  # never improves anywhere
            ]
    table, p_best, _ = rate_pipelines(records, "Base", (0.8, 0.1, 0.1))
    verdict(4, "Worse" in table.eliminated and p_best != "Worse" and p_best == "Good",
            f"non-improving pipeline eliminated (eliminated={list(table.eliminated)}, "
            f"winner={p_best})")


def test_05_weight_scenarios():
    def rec(pipeline, best_y, cpu, mem):
        return EvaluationRecord(pipeline=pipeline, instance="i0", budget=36,
                                best_y=best_y, cpu_time=cpu, memory_bytes=mem)

    records = [rec("Base", 1.0, 1.0, 100.0),
               rec("A", 0.6, 3.0, 200.0),
               rec("B", 0.8, 1.5, 100.0)]
    _, p1, _ = rate_pipelines(records, "Base", (0.8, 0.1, 0.1))
    _, p2, _ = rate_pipelines(records, "Base", (0.5, 0.25, 0.25))
    verdict(5, p1 == "A" and p2 == "B",
            f"objective-heavy weights select {p1}, resource-aware weights select {p2}")


def test_06_gp_simulation_oracles():
    X = np.linspace(0, 1, 12)
    y = np.sin(2 * np.pi * X) + 0.3 * X
    ds = gp.Dataset(X=X, y=y, bounds=(0.0, 1.0))
    model = gp.fit(ds)

    tol = 1e-3 * (y.max() - y.min())
    interp_err = 0.0
    for seed in range(5):
        r = gp.simulate_conditional(model, gp.default_grid(ds.bounds, 128), seed=seed)
        vals = np.array([r(x) for x in X])
        interp_err = max(interp_err, float(np.max(np.abs(vals - y))))

    grid = np.linspace(0, 1, 15)
    draws = np.stack([
        gp.simulate_unconditional(model, grid, seed=s).values for s in range(40000)
    ])
    emp = np.cov(draws.T, bias=True) + np.outer(
        draws.mean(axis=0) - model.mean, draws.mean(axis=0) - model.mean
    )
    want = gp.kernel(grid, grid, model.lengthscale, model.signal_var)
    mask = want >= 0.1 * model.signal_var
    cov_err = float(np.max(np.abs(emp[mask] - want[mask]) / want[mask]))
    verdict(6, interp_err <= tol and cov_err < 0.15,
            f"conditional draws match data within {interp_err:.2e} (tol {tol:.2e}), "
            f"unconditional covariance error {cov_err:.1%} (< 15%)")


def test_07_control_flow(monkeypatch):
    from test_cognition import ScriptedPlant, record

    plant = ScriptedPlant([1.0, 1.0, 1.0, 0.9, 0.85, 0.8, 0.75, 0.7, 0.65, 0.6])
    cfg = CognitionConfig(theta=4, epsilon=0.01, master_seed=0)
    state = CognitionState()
    state.d = [record(0.5, 1.0, 0)]
    state.x = 0.5
    kb = default_kb()

    proposals = iter([0.8, 0.8004])  # one real move, then a sub-epsilon nudge

    def fake_selection(state, kb, config, goal, bounds):
        state.p_best = "Stub"
        return kb, None

    monkeypatch.setattr(cognition, "run_selection_cycle", fake_selection)
    monkeypatch.setattr(cognition, "get_best_x",
                        lambda p, s, c, b, sign: next(proposals, s.x))
    for _ in range(10):
        state, kb = step(state, plant, kb, cfg, GOAL)

    ran = [e["iteration"] for e in state.log_entries if e["selection_ran"]]
    off_schedule = [i for i in ran if i % 4 != 0]
    zeta_after = all(e["zeta"] == 0 for e in state.log_entries if e["selection_ran"])
    applied = [e["iteration"] for e in state.log_entries if e["applied"]]
    ok = (ran == [0, 3, 4, 8] and off_schedule == [3]
          and zeta_after and applied == [0] and plant.applications == [0.8])
    verdict(7, ok,
            f"selection at {ran} with one stagnation-triggered cycle at {off_schedule}, "
            f"epsilon guard applied only iteration {applied}")


def test_08_knowledge_update_round_trip():
    plant = VpsSimulator(noise_sd=0.02, seed=0)
    cfg = CognitionConfig(s=6, theta=3, tuning_budget=2,
                          bench_budget=12, reps=2, master_seed=0)
    state = bootstrap(CognitionState(), plant, cfg)
    kb, _ = run_selection_cycle(state, default_kb(), cfg, GOAL, plant.bounds)

    benchmarked = {r.pipeline for r in state.e}
    fields_ok = True
    for name in benchmarked:
        m = kb.entries_for(GOAL_PATH)[name].metadata
        for v in (m.performance, m.computational_effort, m.ram_usage):
            fields_ok = fields_ok and v is not None and 0.0 <= v <= 1.0
    round_trip = parse_kb(dump_kb(kb)) == kb
    verdict(8, fields_ok and round_trip and len(benchmarked) >= 3,
            f"{len(benchmarked)} benchmarked algorithms carry characteristics in "
            f"[0,1]; saved knowledge base round-trips losslessly: {round_trip}")


def strip_volatile(entry: dict) -> dict:
    """Drop wall-clock and CPU-derived keys for determinism comparisons.

    The rating aggregate carries a CPU-weighted component, so it is volatile
    by construction and dropped alongside the raw cpu/time fields.
    """
    return {
        k: (strip_volatile(v) if isinstance(v, dict) else v)
        for k, v in entry.items()
        if "cpu" not in k and "time" not in k and k != "aggregate"
    }


def test_strip_volatile_removes_cpu_and_time_keys():
    entry = {"iteration": 1, "cpu_time": 0.5, "timestamp": 9.0,
             "ratings": {"A": {"cpu_ratio": 2.0, "aggregate": 0.8, "rank": 1.0}}}
    # the aggregate mixes in the CPU factor, so it counts as volatile too
    assert strip_volatile(entry) == {"iteration": 1, "ratings": {"A": {"rank": 1.0}}}


def test_09_determinism(tmp_path):
    runner = CliRunner()
    res = runner.invoke(main, ["init", str(tmp_path)])
    assert res.exit_code == 0, res.output
    doc = default_config_doc()
    doc["cycles"] = 2
    doc["cognition"].update(s=6, theta=3, tuning_budget=2,
                            bench_budget=12, reps=2, design_reps=1)
    cfg = tmp_path / "config.yaml"
    cfg.write_text(yaml.safe_dump(doc))

    logs = []
    for name in ("a", "b"):
        out = tmp_path / name
        res = runner.invoke(main, ["--config", str(cfg), "--out", str(out), "run"])
        assert res.exit_code == 0, res.output
        lines = (out / "runlog.jsonl").read_text().splitlines()
        logs.append([strip_volatile(json.loads(l)) for l in lines])
    runs_identical = logs[0] == logs[1]

    objectives = {
        f"sim-{i}": gp.Realization(
            grid=np.linspace(0, 1, 32),
            values=np.sin(np.linspace(0, 1, 32) * (3 + i)), seed=i)
        for i in range(2)
    }
    pipelines = [("RandomSearch", {}), ("DifferentialEvolution", {})]
    kw = dict(budget=12, checkpoints=(6, 12), reps=3, master_seed=4)
    serial = run_campaign(pipelines, objectives, (0.0, 1.0), workers=1, **kw)
    parallel = run_campaign(pipelines, objectives, (0.0, 1.0), workers=4, **kw)
    schedule_free = all(
        (a.pipeline, a.instance, a.budget, a.best_y, a.memory_bytes)
        == (b.pipeline, b.instance, b.budget, b.best_y, b.memory_bytes)
        for a, b in zip(serial, parallel)
    )
    verdict(9, runs_identical and schedule_free,
            f"repeated runs identical without cpu/time fields: {runs_identical}; "
            f"serial and parallel campaigns agree: {schedule_free}")


def test_10_optimizer_oracles():
    quad = OptProblem(objective=lambda x: (x - 0.3) ** 2,
                      bounds=(0.0, 1.0), budget=60)
    hc = hill_climber(quad, 0)
    hc_ok = abs(hc.best_x - 0.3) < 1e-3

    sphere = lambda x: float(np.sum(x * x))
    de_hits = sum(
        differential_evolution(
            OptProblem(objective=sphere, bounds=(-1.0, 1.0), budget=60), s
        ).best_y < 0.05
        for s in range(50)
    )
    rs_hits = sum(
        random_search(
            OptProblem(objective=sphere, bounds=(-1.0, 1.0), budget=100), s
        ).best_y < 0.01
        for s in range(100)
    )
    ok = hc_ok and de_hits >= 45 and rs_hits >= 95
    verdict(10, ok,
            f"hill climber |x-0.3| = {abs(hc.best_x - 0.3):.1e}, "
            f"DE sphere hits {de_hits}/50, random search hits {rs_hits}/100")
