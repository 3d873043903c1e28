"""In-memory span tracer that times cogopt's layers from outside the package.

The tracer replaces public functions of ``cogopt`` with timing wrappers for
the length of a ``with tracer.installed():`` block.  A module that did
``from .benchmark import run_campaign`` holds its own reference, so a wrapper
must be bound under every name that points at the original function: the
tracer scans every loaded ``cogopt.*`` module for such aliases and rebinds
them all (patching only ``benchmark.run_campaign`` would miss the call that
``report.campaign`` makes).

Each call records a span (name, start, end, parent, attributes).  Spans stay
in memory until the run ends.  A span's self time is its duration minus the
part of it that its child spans cover, so a layer's self time is the time
spent in its own code rather than in the layers it calls.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import sys
import threading
import time
from dataclasses import dataclass, field

LAYERS = ("gp", "optimizers", "benchmark", "rating", "knowledge", "cognition", "plant", "report")


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


# --- per-target annotations: (bound arguments, result) -> span attributes ----

def _fit_attrs(args, result):
    return {"rows": int(args["data"].n), "noise": bool(args.get("noise", False))}


def _predict_attrs(args, result):
    return {"points": int(len(result[0]))}


def _grid_attrs(args, result):
    return {"points": int(len(result.grid))}


def _optimizer_attrs(args, result):
    return {"evals": int(result.evals_used)}


def _winner_attrs(args, result):
    return {"no_winner": result[1] is None}


def _candidate_attrs(args, result):
    return {"candidates": len(result), "excluded": len(args["feasible"]) - len(result)}


def _cycle_attrs(args, result):
    return {"data_size": len(args["state"].d)}


@dataclass(frozen=True)
class Target:
    """One public callable to wrap: ``module.attr`` (``attr`` may be Class.method)."""

    module: str
    attr: str
    span: str                       # span name; "{algorithm}" is filled from the call
    annotate: object = None         # (bound args, result) -> dict of span attributes


TARGETS = (
    Target("cogopt.gp", "fit", "gp.fit", _fit_attrs),
    Target("cogopt.gp", "predict", "gp.predict", _predict_attrs),
    Target("cogopt.gp", "simulate_unconditional", "gp.simulate_unconditional", _grid_attrs),
    Target("cogopt.gp", "simulate_conditional", "gp.simulate_conditional", _grid_attrs),
    Target("cogopt.optimizers", "run_optimizer", "optimizers.{algorithm}", _optimizer_attrs),
    Target("cogopt.benchmark", "run_campaign", "benchmark.run_campaign"),
    Target("cogopt.benchmark", "run_single", "benchmark.run_single"),
    Target("cogopt.benchmark", "generate_test_functions", "benchmark.generate_test_functions"),
    Target("cogopt.benchmark", "tune_then_benchmark", "benchmark.tune_then_benchmark"),
    Target("cogopt.benchmark", "rank_algorithms", "benchmark.rank_algorithms"),
    Target("cogopt.rating", "rate_pipelines", "rating.rate_pipelines", _winner_attrs),
    Target("cogopt.knowledge", "default_kb", "knowledge.default_kb"),
    Target("cogopt.knowledge", "compose_pipelines", "knowledge.compose_pipelines"),
    Target("cogopt.knowledge", "determine_feasible", "knowledge.determine_feasible"),
    Target("cogopt.knowledge", "select_candidates", "knowledge.select_candidates", _candidate_attrs),
    Target("cogopt.knowledge", "update_characteristics", "knowledge.update_characteristics"),
    Target("cogopt.cognition", "bootstrap", "cognition.bootstrap"),
    Target("cogopt.cognition", "step", "cognition.step"),
    Target("cogopt.cognition", "run_selection_cycle", "cognition.run_selection_cycle", _cycle_attrs),
    Target("cogopt.cognition", "get_best_x", "cognition.get_best_x"),
    Target("cogopt.plant", "VpsSimulator.__init__", "plant.construct"),
    Target("cogopt.plant", "VpsSimulator.apply", "plant.apply"),
    Target("cogopt.report", "campaign", "report.campaign"),
    Target("cogopt.report", "build_objectives", "report.build_objectives"),
    Target("cogopt.report", "rank_correlation", "report.rank_correlation"),
)


def _resolve(target: Target):
    """(owner object, attribute name, original callable) for a target."""
    owner = importlib.import_module(target.module)
    *path, name = target.attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name, getattr(owner, name)


class Tracer:
    """Records spans of wrapped cogopt calls; thread-safe for pool workers."""

    def __init__(self, targets=TARGETS):
        self.targets = tuple(targets)
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_stack: list[int] = []

    # --- recording --------------------------------------------------------

    def _stack(self) -> list[int]:
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> int:
        stack = self._stack()
        # a pool worker's first span hangs under the span the main thread is in
        parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
        span = Span(name=name, start=time.perf_counter(), parent=parent)
        with self._lock:
            self.spans.append(span)
            idx = len(self.spans) - 1
        stack.append(idx)
        return idx

    def close(self, idx: int, **attrs) -> None:
        span = self.spans[idx]
        span.end = time.perf_counter()
        if attrs:
            span.attrs.update(attrs)
        stack = self._stack()
        if stack and stack[-1] == idx:
            stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    def _wrap(self, target: Target, fn):
        sig = inspect.signature(fn)
        tracer = self

        def wrapper(*args, **kwargs):
            bound = None
            name = target.span
            if target.annotate is not None or "{" in name:
                bound = sig.bind(*args, **kwargs).arguments
                if "{" in name:
                    name = name.format(**bound)
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.close(idx, error=type(exc).__name__)
                raise
            attrs = target.annotate(bound, result) if target.annotate else {}
            tracer.close(idx, **attrs)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # --- patching ---------------------------------------------------------

    @contextlib.contextmanager
    def installed(self):
        """Bind a wrapper under every name that refers to a target callable."""
        restore = []
        try:
            for target in self.targets:
                owner, name, fn = _resolve(target)
                wrapper = self._wrap(target, fn)
                if isinstance(owner, type):
                    restore.append((owner, name, fn))
                    setattr(owner, name, wrapper)
                    continue
                for mod in [m for k, m in list(sys.modules.items())
                            if m is not None and (k == "cogopt" or k.startswith("cogopt."))]:
                    for alias, value in list(vars(mod).items()):
                        if value is fn:
                            restore.append((mod, alias, fn))
                            setattr(mod, alias, wrapper)
            yield self
        finally:
            for owner, name, fn in reversed(restore):
                setattr(owner, name, fn)

    # --- analysis ---------------------------------------------------------

    def self_times(self) -> list[float]:
        """Each span's duration minus the union of its children's intervals."""
        children: dict[int, list[tuple[float, float]]] = {}
        for span in self.spans:
            if span.parent is not None:
                children.setdefault(span.parent, []).append((span.start, span.end))
        out = []
        for i, span in enumerate(self.spans):
            covered, cur_lo, cur_hi = 0.0, None, None
            for lo, hi in sorted(children.get(i, ())):
                lo, hi = max(lo, span.start), min(hi, span.end)
                if hi <= lo:
                    continue
                if cur_hi is None or lo > cur_hi:
                    if cur_hi is not None:
                        covered += cur_hi - cur_lo
                    cur_lo, cur_hi = lo, hi
                else:
                    cur_hi = max(cur_hi, hi)
            if cur_hi is not None:
                covered += cur_hi - cur_lo
            out.append(span.duration - covered)
        return out

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, inclusive and self seconds, durations, attribute sums."""
        out: dict[str, dict] = {}
        for span, self_s in zip(self.spans, self.self_times()):
            row = out.setdefault(span.name, {"calls": 0, "s": 0.0, "self_s": 0.0,
                                             "durations": [], "attrs": {}})
            row["calls"] += 1
            row["s"] += span.duration
            row["self_s"] += self_s
            row["durations"].append(span.duration)
            for key, value in span.attrs.items():
                if isinstance(value, (bool, int, float)):
                    row["attrs"][key] = row["attrs"].get(key, 0) + value
                else:
                    row["attrs"][key] = row["attrs"].get(key, 0) + 1
        return out

    def layer_self_times(self) -> dict[str, float]:
        totals = dict.fromkeys(LAYERS, 0.0)
        for span, self_s in zip(self.spans, self.self_times()):
            layer = span.name.split(".", 1)[0]
            if layer in totals:
                totals[layer] += self_s
        return totals

    def stale_selection_cycles(self) -> int:
        """Selection cycles that saw no new plant data since the previous one."""
        sizes = [s.attrs["data_size"] for s in self.spans
                 if s.name == "cognition.run_selection_cycle" and "data_size" in s.attrs]
        return sum(1 for prev, cur in zip(sizes, sizes[1:]) if cur == prev)

    def to_json(self) -> list[dict]:
        return [{"name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
                 **({"attrs": s.attrs} if s.attrs else {})} for s in self.spans]
