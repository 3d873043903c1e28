"""Run one benchmark workload against the cogopt sources in this checkout.

    python3 perfbench/run.py --workload campaign --seed 0 --seconds 40 --trace 0

The program under test is imported from ``src/`` next to this directory, never
from an installed copy; without it the command fails before measuring.

Every loaded OpenBLAS runs on one thread (see ``limit_blas_threads``).
``--trace 0`` measures the end-to-end metrics: set-up time (median of the
set-up in this process and in two fresh interpreters), then workload bodies
back to back until the next one would end after ``--seconds`` (always at
least one), reporting medians.  ``--trace 1`` sets up with every layer
wrapped by ``tracer.Tracer``, runs one untraced body and then one traced
body; it reports the per-layer metrics and the tracing overhead, and writes
the spans to ``perfbench/out/``.

Every run checks the outputs.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the line
before it holds machine facts and unbounded observations.  The exit code is
non-zero when a check failed.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import logging
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_SAMPLES = 3           # in-process set-up plus two fresh interpreters
SETUP_TIMEOUT_S = 60
BLAS_THREADS = 1


def import_program():
    """Import cogopt from this checkout's src/, then the workload definitions.

    Returns the workloads module and the BLAS thread counts found before
    ``limit_blas_threads`` set them to ``BLAS_THREADS``.
    """
    if not (SRC / "cogopt" / "__init__.py").is_file():
        raise SystemExit(f"error: no cogopt sources at {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import cogopt
    if not Path(cogopt.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: cogopt imported from {cogopt.__file__}, not {SRC}")
    import workloads
    return workloads, limit_blas_threads(BLAS_THREADS)


# --- BLAS threads -------------------------------------------------------------

# Thread-count entry points of OpenBLAS builds: numpy's and scipy's wheels
# each load their own, with a symbol prefix and, for 64-bit ints, a suffix.
_OPENBLAS_PREFIXES = ("scipy_openblas", "openblas")
_OPENBLAS_SUFFIXES = ("64_", "")


def _openblas_libraries() -> list[str]:
    """Paths of the OpenBLAS libraries loaded in this process (/proc/self/maps, read only)."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {ln.split()[-1] for ln in fh if "openblas" in ln.lower()}
    except OSError:
        return []
    return sorted(p for p in paths if p.startswith("/"))


def _openblas_call(lib, verb: str, *args):
    for prefix in _OPENBLAS_PREFIXES:
        for suffix in _OPENBLAS_SUFFIXES:
            fn = getattr(lib, f"{prefix}_{verb}_num_threads{suffix}", None)
            if fn is not None:
                return fn(*args)
    return None


def limit_blas_threads(n: int) -> dict:
    """Run every loaded OpenBLAS on ``n`` threads; returns {library: threads found}.

    The workloads factor matrices of at most a few thousand rows from one
    thread.  On a shared host, OpenBLAS helper threads make those calls wait
    for whichever core the scheduler lends them, which adds run-to-run noise
    without making a body faster (a ``campaign`` body takes the same wall
    time on one thread).  The environment variables are left as found.
    """
    found = {}
    for path in _openblas_libraries():
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        threads = _openblas_call(lib, "get")
        if threads is not None:
            _openblas_call(lib, "set", ctypes.c_int(n))
            found[Path(path).name] = threads
    return found


# --- machine and run facts ----------------------------------------------------

def steal_ticks() -> int | None:
    """Steal ticks of all CPUs from /proc/stat (read only)."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8]) if fields[0] == "cpu" and len(fields) > 8 else None
    except OSError:
        return None


def machine_facts(seed: int, blas_threads_found: dict) -> dict:
    import numpy
    import scipy
    model = None
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh
                          if ln.startswith("model name")), None)
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy without mode="dicts": report unknown
        blas = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cpu_model": model,
        "blas": blas,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "blas_threads_found": blas_threads_found,
        "blas_threads_used": BLAS_THREADS,
        "seed": seed,
    }


# --- set-up -------------------------------------------------------------------

def setup_in_child(workload: str, seed: int) -> float:
    """Import plus set-up time measured inside a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--setup-only"],
        capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, cwd=ROOT, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


class WarningCounter(logging.Handler):
    """Counts WARNING and ERROR records from the cogopt.* loggers."""

    def __init__(self):
        super().__init__(level=logging.WARNING)
        self.count = 0

    def emit(self, record):
        self.count += 1


# --- metrics ------------------------------------------------------------------

def median(values) -> float:
    """The lower median: always one of the measured values, never a mean of two.

    A body is only ever slowed, by the host or, on ``loop``, by a selection
    cycle that tunes KrigingSBO again, so of two middle values the smaller
    one is the typical body.
    """
    return float(statistics.median_low(values))


def end_to_end(setup_samples, bodies) -> dict:
    return {
        "setup_s": (median(setup_samples), "s"),
        "wall_s": (median(b["wall"] for b in bodies), "s"),
        "cpu_s": (median(b["cpu"] for b in bodies), "s"),
        "step_p50_s": (median(t for b in bodies for t in b["steps"]), "s"),
        "step_max_s": (median(max(b["steps"]) for b in bodies), "s"),
    }


ALGORITHMS = ("RandomSearch", "HillClimber", "GeneralizedSA", "DifferentialEvolution", "KrigingSBO")

# Stats reported per span name: calls (or runs), inclusive and self seconds,
# the median call in ms, and sums of the span attributes the tracer records.
SPAN_STATS = {
    "gp.fit": ("calls", "s", "self_s", "p50_ms", "rows"),
    "gp.predict": ("calls", "points", "s"),
    "gp.simulate_unconditional": ("calls", "points", "s"),
    "gp.simulate_conditional": ("calls", "s", "self_s"),
    **{f"optimizers.{a}": ("runs", "evals", "s", "self_s") for a in ALGORITHMS},
    "benchmark.run_campaign": ("s", "self_s"),
    "benchmark.run_single": ("calls", "failed"),
    "benchmark.generate_test_functions": ("calls", "s"),
    "benchmark.tune_then_benchmark": ("calls", "s"),
    "benchmark.rank_algorithms": ("s",),
    "rating.rate_pipelines": ("calls", "s"),
    "knowledge.select_candidates": ("calls",),
    "knowledge.update_characteristics": ("calls",),
    "cognition.run_selection_cycle": ("calls", "s", "self_s"),
    "cognition.get_best_x": ("calls", "s"),
    "plant.apply": ("calls",),
    "report.build_objectives": ("s",),
    "report.rank_correlation": ("s",),
}


def _stat(row: dict, stat: str):
    if stat in ("calls", "runs"):
        return row["calls"], "count"
    if stat in ("s", "self_s"):
        return row[stat], "s"
    if stat == "p50_ms":
        return (1e3 * median(row["durations"]) if row["durations"] else 0.0), "ms"
    return row["attrs"].get("error" if stat == "failed" else stat, 0), "count"


def per_layer(tr, quality: dict, applied: int, wall_u: float, wall_t: float) -> dict:
    rows = tr.summary()
    empty = {"calls": 0, "s": 0.0, "self_s": 0.0, "durations": [], "attrs": {}}
    m = {f"{name}.{stat}": _stat(rows.get(name, empty), stat)
         for name, stats in SPAN_STATS.items() for stat in stats}
    noisy = [s.duration for s in tr.spans if s.name == "gp.fit" and s.attrs.get("noise")]
    select = rows.get("knowledge.select_candidates", empty)["attrs"]
    m.update({
        "gp.fit.noise.calls": (len(noisy), "count"),
        "gp.fit.noise.s": (sum(noisy), "s"),
        "rating.no_winner": (rows.get("rating.rate_pipelines", empty)["attrs"].get("no_winner", 0), "count"),
        "knowledge.candidates": (select.get("candidates", 0), "count"),
        "knowledge.excluded": (select.get("excluded", 0), "count"),
        "cognition.selection_stale": (tr.stale_selection_cycles(), "count"),
        "cognition.applied": (applied, "count"),
        "plant.construct_s": (rows.get("plant.construct", empty)["s"], "s"),
    })
    m.update({f"layer.{layer}.self_s": (v, "s") for layer, v in tr.layer_self_times().items()})
    m.update({
        "trace.spans": (len(tr.spans), "count"),
        "trace.wall_s": (wall_t, "s"),
        "trace.untraced_wall_s": (wall_u, "s"),
        "trace.overhead_s": (wall_t - wall_u, "s"),
        "quality.rank_corr_r": (quality["rank_corr_r"], "1"),
        "quality.gt_regret": (quality["gt_regret"], "obj"),
    })
    return m


# --- the run ------------------------------------------------------------------

def run_body(wl, ctx) -> dict:
    gc.collect()  # start every body from the same heap, outside the timing
    c0, w0 = time.process_time(), time.perf_counter()
    output, steps = wl.body(ctx)
    wall, cpu = time.perf_counter() - w0, time.process_time() - c0
    return {"output": output, "wall": wall, "cpu": cpu, "steps": steps}


def measure(wl, seed: int, seconds: float, trace: bool, clock_start: float,
            more_setups=lambda: [], blas_found: dict | None = None) -> tuple[dict, dict]:
    """Set up and run one workload; returns (result line, facts and observations).

    ``clock_start`` is when the import of the program began, so the first
    set-up sample covers import plus set-up; ``more_setups`` returns further
    samples (each from a fresh interpreter) for the untraced run.
    """
    import tracer as tracer_mod
    import workloads

    steal_before = steal_ticks()
    tr = tracer_mod.Tracer() if trace else None
    if tr is None:
        ctx = wl.setup(seed)
    else:
        with tr.installed(), tr.span("setup"):
            ctx = wl.setup(seed)
    setup_samples = [time.perf_counter() - clock_start]
    if tr is None:
        setup_samples += more_setups()

    warnings = WarningCounter()
    logging.getLogger("cogopt").addHandler(warnings)
    probe = tracer_mod.Tracer(
        [t for t in tracer_mod.TARGETS if t.span == "benchmark.run_single"])
    bodies = []
    try:
        with probe.installed():
            start = time.perf_counter()
            while True:
                bodies.append(run_body(wl, ctx))
                elapsed = time.perf_counter() - start
                if trace or elapsed + median(b["wall"] for b in bodies) > seconds:
                    break
        if tr is not None:
            with tr.installed(), tr.span("body"):
                traced = run_body(wl, ctx)
    finally:
        logging.getLogger("cogopt").removeHandler(warnings)

    ran = bodies + ([traced] if tr is not None else [])
    checks = [c for b in ran for c in wl.check(ctx, b["output"])]
    if tr is not None:
        seen = {s.name for s in tr.spans}
        checks += [workloads.Check(f"span_fired:{name}", name in seen)
                   for name in sorted(wl.expected_spans())]
    final = ran[-1]
    quality = wl.quality(ctx, final["output"])
    decisions = wl.decisions(final["output"]) if hasattr(wl, "decisions") else []

    singles = [s for t in (probe, tr) if t is not None for s in t.spans
               if s.name == "benchmark.run_single"]
    failed_checks = [c for c in checks if not c.ok]
    attempted = len(singles) + sum(len(b["steps"]) for b in ran) + len(checks)
    failed = (sum("error" in s.attrs for s in singles) + warnings.count
              + len(failed_checks))

    if tr is None:
        metrics = end_to_end(setup_samples, bodies)
    else:
        applied = sum(d["applied"] for d in decisions)
        metrics = per_layer(tr, quality, applied, bodies[0]["wall"], traced["wall"])

    facts = machine_facts(seed, blas_found or {})
    facts.update(workload=wl.name, trace=int(trace), seconds=seconds,
                 steal_ticks_before=steal_before, steal_ticks_after=steal_ticks())
    observations = {
        "bodies": len(bodies),
        "walls_s": [b["wall"] for b in bodies],
        "cpus_s": [b["cpu"] for b in bodies],
        "setup_samples_s": setup_samples,
        "failed_frac": failed / attempted,
        "quality": quality,
        "loop_decisions": decisions,
        "failed_checks": [{"name": c.name, "detail": c.detail} for c in failed_checks],
    }
    result = {
        "correct": not failed_checks,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    detail = {"facts": facts, "observations": observations}
    if tr is not None:
        detail["spans"] = tr.to_json()
    return result, detail


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="print this interpreter's import plus set-up seconds and exit")
    args = ap.parse_args(argv)

    clock_start = time.perf_counter()
    workloads, blas_found = import_program()
    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; "
                         f"choose from {sorted(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload]
    if args.setup_only:
        wl.setup(args.seed)
        print(repr(time.perf_counter() - clock_start))
        return 0

    more = lambda: [setup_in_child(args.workload, args.seed) for _ in range(SETUP_SAMPLES - 1)]
    result, detail = measure(wl, args.seed, args.seconds, bool(args.trace), clock_start,
                             more, blas_found)
    if args.trace:
        OUT.mkdir(exist_ok=True)
        path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps({**detail, "metrics": result["metrics"]}))
        detail["observations"]["trace_file"] = str(path.relative_to(ROOT))
    detail.pop("spans", None)
    for c in detail["observations"]["failed_checks"]:
        print(f"check failed: {c['name']}: {c['detail']}", file=sys.stderr)
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
