"""Self-tests of the benchmark at a tiny size (budget 12, two reps, two steps).

They check that every metric named in BENCHMARK.json is emitted with its
unit, that every tracer wrapper fires on the workloads expected to reach it,
that corrupted outputs fail the checks, and that the seed drives the inputs.
"""

import dataclasses
import json
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
for p in (str(ROOT / "src"), str(HERE)):
    if p not in sys.path:
        sys.path.insert(0, p)

import run  # noqa: E402
import workloads  # noqa: E402
from cogopt import cognition, report  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def tiny(name: str):
    wl = workloads.WORKLOADS[name]
    if isinstance(wl, workloads.LoopWorkload):
        config = cognition.CognitionConfig(reps=2, bench_budget=16, tuning_budget=2)
        return dataclasses.replace(wl, steps=2, config=config)
    if name == "screening":
        return dataclasses.replace(wl, budget=20, checkpoints=(10, 20), reps=2)
    return dataclasses.replace(wl, budget=12, checkpoints=(6, 12), reps=2, k_instances=3)


@pytest.fixture(scope="module")
def traced():
    """One traced tiny run per workload."""
    return {name: run.measure(tiny(name), 0, 0.0, True, time.perf_counter())
            for name in workloads.WORKLOADS}


def test_spec_names_defined_workloads():
    names = [w["name"] for w in SPEC["workloads"]]
    assert set(names) <= set(workloads.WORKLOADS) and len(names) == len(set(names))


def test_untraced_run_emits_every_end_to_end_metric_with_its_unit():
    result, detail = run.measure(tiny("screening"), 0, 0.0, False, time.perf_counter())
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == want
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert detail["facts"]["seed"] == 0 and detail["facts"]["nproc"] >= 1


@pytest.mark.parametrize("name", ["campaign", "campaign-parallel", "screening", "loop"])
def test_traced_run_emits_every_per_layer_metric_and_fires_every_wrapper(traced, name):
    result, detail = traced[name]
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    # span_fired checks are part of the traced run's checks
    assert result["correct"], detail["observations"]["failed_checks"]
    assert result["failed"] == 0
    fired = {s["name"] for s in detail["spans"]}
    assert tiny(name).expected_spans() <= fired


def test_gp_fit_reaches_screening_only_in_setup_and_test_generation(traced):
    """KrigingSBO is out of screening, so gp.fit runs 3 times in set-up and once after."""
    value = lambda name, metric: traced[name][0]["metrics"][metric]["value"]
    assert value("screening", "optimizers.KrigingSBO.runs") == 0
    assert value("screening", "gp.fit.calls") == 4
    assert value("campaign", "gp.fit.calls") > 4 + value("campaign", "optimizers.KrigingSBO.runs")


def test_every_pool_worker_span_has_a_parent(traced):
    spans = traced["campaign-parallel"][1]["spans"]
    assert all(s["parent"] is not None for s in spans if s["name"] not in ("setup", "body"))


def test_parallel_records_equal_serial_records():
    wl = tiny("campaign-parallel")
    ctx = wl.setup(3)
    serial = dataclasses.replace(wl, workers=1).body(ctx)[0][0]
    parallel = wl.body(ctx)[0][0]
    fields = lambda r: (r.pipeline, r.instance, r.budget, r.best_y, r.memory_bytes, r.rank)
    assert [fields(r) for r in serial] == [fields(r) for r in parallel]
    assert workloads.check_serial_equal(parallel, ctx, wl).ok


def test_corrupted_campaign_records_fail_the_checks():
    wl = tiny("campaign")
    ctx = wl.setup(0)
    (records, r), _ = wl.body(ctx)
    assert all(c.ok for c in wl.check(ctx, (records, r)))

    i = max(range(len(records)), key=lambda j: records[j].budget)
    rising = list(records)
    rising[i] = dataclasses.replace(records[i], best_y=records[i].best_y + 1.0)
    failed = {c.name for c in wl.check(ctx, (rising, r)) if not c.ok}
    assert "best_y_monotone" in failed

    assert "records_present" in {c.name for c in wl.check(ctx, (records[1:], r)) if not c.ok}

    j = next(j for j, rec in enumerate(records) if rec.pipeline == "RandomSearch")
    grown = list(records)
    grown[j] = dataclasses.replace(records[j], memory_bytes=records[j].memory_bytes + 8)
    assert "baseline_memory_constant" in {c.name for c in wl.check(ctx, (grown, r)) if not c.ok}


def test_parallel_check_detects_a_changed_record():
    wl = tiny("campaign-parallel")
    ctx = wl.setup(0)
    (records, _), _ = wl.body(ctx)
    i = next(i for i, rec in enumerate(records) if rec.instance == report.GROUND_TRUTH)
    changed = list(records)
    changed[i] = dataclasses.replace(records[i], best_y=records[i].best_y - 1e-9)
    assert not workloads.check_serial_equal(changed, ctx, wl).ok


def test_corrupted_loop_output_fails_the_checks():
    wl = tiny("loop")
    ctx = wl.setup(0)
    (state, sim, sizes), times = wl.body(ctx)
    assert len(times) == wl.steps
    assert all(c.ok for c in wl.check(ctx, (state, sim, sizes)))
    state.log_entries[-1]["x"] = sim.bounds[1] + 1.0
    assert "x_within_bounds" in {c.name for c in wl.check(ctx, (state, sim, sizes)) if not c.ok}
    state.log_entries.pop()
    assert "one_log_entry_per_step" in {c.name for c in wl.check(ctx, (state, sim, sizes)) if not c.ok}


def test_seed_drives_the_generated_inputs():
    wl = tiny("campaign")
    a, a2, b = wl.setup(0), wl.setup(0), wl.setup(1)
    xs = np.linspace(*a.plant.bounds, 64)
    curve = lambda ctx: [ctx.plant.ground_truth(x) for x in xs]
    assert curve(a) == curve(a2)
    assert curve(a) != curve(b)
    objs = lambda ctx: report.build_objectives(ctx.plant, wl.k_instances, ctx.seed)
    sim0, sim1 = objs(a)["sim-0"], objs(b)["sim-0"]
    assert not np.array_equal(sim0.values, sim1.values)


def test_bare_directory_fails_without_a_result(tmp_path):
    """Without src/ next to it the command exits non-zero and prints no result."""
    import shutil
    import subprocess

    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "campaign",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_blas_limit_sets_every_loaded_openblas_and_reports_what_it_found():
    found = run.limit_blas_threads(1)
    if not found:
        pytest.skip("no OpenBLAS loaded in this process")
    try:
        assert all(n >= 1 for n in found.values())
        assert set(run.limit_blas_threads(1).values()) == {1}
    finally:
        run.limit_blas_threads(max(found.values()))
