"""Declarative goal model, algorithm knowledge base, and pipeline composition.

The knowledge base is a YAML document with the hierarchy

    <overall goal> -> <direction> -> <feature> -> Algorithms -> <name> ->
        {parameter, metadata, input, output}

Dynamic characteristics (performance, computational effort, RAM usage) are
serialized as -1 while unset and live in [0, 1] once the cognition loop has
benchmarked the algorithm.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import yaml

from .errors import ConfigError, ParseError, SchemaError, UnknownAlgorithm, UnknownGoal

KB_VERSION_KEY = "caai_kb_version"
KB_VERSION = 1

OVERALL_GOALS = ("Optimization", "AnomalyDetection", "ConditionMonitoring", "PredictiveMaintenance")
AGGREGATIONS = ("mean", "delta", "min", "max", "value")
DIRECTIONS = ("minimize", "maximize")
PARAM_KINDS = ("integer", "real", "categorical")
DATA_KINDS = ("continuous", "discrete", "hybrid", "timed-automata", "neural-net", "preprocessed", "raw")
REACH_AIMS = ("optimization-min", "optimization-max", "condition-monitoring", "anomaly-detection", "diagnosis")
ALGORITHM_CLASSES = ("HillClimber", "Trajectory", "Population", "Surrogate", "Baseline")

RAW_DATA = "raw data"
PARAMETER_PROPOSAL = "parameter proposal"


@dataclass(frozen=True)
class GoalSpec:
    """Four-stage declarative goal: what to do, on which signals, how."""

    overall_goal: str
    signals: tuple[str, ...]
    aggregation: str
    direction: str

    def __post_init__(self):
        if self.overall_goal not in OVERALL_GOALS:
            raise SchemaError(f"unknown overall goal {self.overall_goal!r}")
        if not self.signals:
            raise SchemaError("goal needs at least one signal")
        if self.aggregation not in AGGREGATIONS:
            raise SchemaError(f"unknown aggregation {self.aggregation!r}")
        if self.direction not in DIRECTIONS:
            raise SchemaError(f"unknown direction {self.direction!r}")

    @property
    def path(self) -> tuple[str, str, str]:
        return (self.overall_goal, self.direction, self.aggregation)

    @property
    def aim(self) -> str:
        """The reach-aim an algorithm must declare to serve this goal."""
        if self.overall_goal != "Optimization":
            raise ConfigError(f"goal {self.overall_goal!r} is not executable in this engine")
        return "optimization-min" if self.direction == "minimize" else "optimization-max"


@dataclass(frozen=True)
class ParameterSpec:
    name: str
    kind: str
    default: object
    min: float | None = None
    max: float | None = None
    categories: tuple = ()

    def __post_init__(self):
        if self.kind not in PARAM_KINDS:
            raise SchemaError(f"parameter {self.name!r}: unknown kind {self.kind!r}")
        if self.kind == "categorical":
            if not self.categories:
                raise SchemaError(f"parameter {self.name!r}: categorical without categories")
            if self.default not in self.categories:
                raise SchemaError(f"parameter {self.name!r}: default not in categories")
        else:
            if self.min is None or self.max is None:
                raise SchemaError(f"parameter {self.name!r}: numeric kind needs min and max")
            if not (self.min <= self.default <= self.max):
                raise SchemaError(
                    f"parameter {self.name!r}: need min <= default <= max, "
                    f"got {self.min} <= {self.default} <= {self.max}"
                )


@dataclass(frozen=True)
class AlgorithmCharacteristics:
    algorithm_class: str
    input_data: frozenset = frozenset({"continuous"})
    output_data: frozenset = frozenset({"continuous"})
    reach_aim: frozenset = frozenset()
    use_multithreads: bool = False
    min_training_data: int = 0
    prefer_usage: bool = False
    avoid_usage: bool = False
    performance: float | None = None
    computational_effort: float | None = None
    ram_usage: float | None = None

    def __post_init__(self):
        if self.algorithm_class not in ALGORITHM_CLASSES:
            raise SchemaError(f"unknown algorithm class {self.algorithm_class!r}")
        for name, values, legal in (
            ("input_data", self.input_data, DATA_KINDS),
            ("output_data", self.output_data, DATA_KINDS),
            ("reach_aim", self.reach_aim, REACH_AIMS),
        ):
            for v in values:
                if v not in legal:
                    raise SchemaError(f"unknown {name} value {v!r}")
        if self.min_training_data < 0:
            raise SchemaError("min_training_data must be >= 0")
        for name, v in (
            ("performance", self.performance),
            ("computational_effort", self.computational_effort),
            ("ram_usage", self.ram_usage),
        ):
            if v is not None and not (0.0 <= v <= 1.0):
                raise SchemaError(f"{name} must be UNSET or in [0, 1], got {v}")


@dataclass(frozen=True)
class AlgorithmEntry:
    name: str
    parameters: tuple[ParameterSpec, ...]
    metadata: AlgorithmCharacteristics
    input: str
    output: str

    def __post_init__(self):
        if not self.input:
            raise SchemaError(f"algorithm {self.name!r}: empty input designation")
        if not self.output:
            raise SchemaError(f"algorithm {self.name!r}: empty output designation")

    def parameter(self, name: str) -> ParameterSpec:
        for p in self.parameters:
            if p.name == name:
                return p
        raise KeyError(name)

    @property
    def defaults(self) -> dict:
        return {p.name: p.default for p in self.parameters}


@dataclass(frozen=True)
class KnowledgeBase:
    """Immutable registry goal-path -> algorithm name -> entry."""

    goals: dict[tuple[str, str, str], dict[str, AlgorithmEntry]]

    def entries_for(self, path: tuple[str, str, str]) -> dict[str, AlgorithmEntry]:
        try:
            return self.goals[tuple(path)]
        except KeyError:
            raise UnknownGoal(f"no knowledge for goal path {'/'.join(path)}") from None

    def find(self, algorithm: str) -> AlgorithmEntry:
        for entries in self.goals.values():
            if algorithm in entries:
                return entries[algorithm]
        raise UnknownAlgorithm(algorithm)


@dataclass(frozen=True)
class PipelineTemplate:
    """An executable chain of algorithm stages, first stage consumes raw data."""

    stages: tuple[str, ...]

    def __post_init__(self):
        if not self.stages:
            raise SchemaError("pipeline needs at least one stage")

    @property
    def pipeline_id(self) -> str:
        return "+".join(self.stages)

    @property
    def terminal_stage(self) -> str:
        """The final (optimizer) stage of the chain."""
        return self.stages[-1]


@dataclass(frozen=True)
class ResourceBudget:
    max_parallel_pipelines: int = 4
    deadline: float = 60.0


# ---------------------------------------------------------------------------
# YAML (de)serialization

_UNSET = -1


def _unset_to_none(v):
    return None if v == _UNSET else float(v)


def _none_to_unset(v):
    return _UNSET if v is None else v


def _parse_parameter(name, block) -> ParameterSpec:
    if not isinstance(block, dict) or "type" not in block:
        raise SchemaError(f"parameter {name!r}: missing type")
    kind = {"int": "integer", "integer": "integer", "real": "real",
            "float": "real", "categorical": "categorical"}.get(block["type"])
    if kind is None:
        raise SchemaError(f"parameter {name!r}: unknown type {block['type']!r}")
    if "default" not in block:
        raise SchemaError(f"parameter {name!r}: missing default")
    return ParameterSpec(
        name=name,
        kind=kind,
        default=block["default"],
        min=block.get("min"),
        max=block.get("max"),
        categories=tuple(block.get("categories", ())),
    )


def _parse_metadata(name, block) -> AlgorithmCharacteristics:
    if not isinstance(block, dict):
        raise SchemaError(f"algorithm {name!r}: metadata is not a mapping")
    missing = {"Class", "Reach aim", "Performance", "Computational Effort", "RAM usage"} - set(block)
    if missing:
        raise SchemaError(f"algorithm {name!r}: metadata missing {sorted(missing)}")
    return AlgorithmCharacteristics(
        algorithm_class=block["Class"],
        input_data=frozenset(block.get("Input data", ["continuous"])),
        output_data=frozenset(block.get("Output data", ["continuous"])),
        reach_aim=frozenset(block["Reach aim"]),
        use_multithreads=bool(block.get("Use multithreads", False)),
        min_training_data=int(block.get("Min training data", 0)),
        prefer_usage=bool(block.get("Prefer usage", False)),
        avoid_usage=bool(block.get("Avoid usage", False)),
        performance=_unset_to_none(block["Performance"]),
        computational_effort=_unset_to_none(block["Computational Effort"]),
        ram_usage=_unset_to_none(block["RAM usage"]),
    )


def _parse_entry(name, block) -> AlgorithmEntry:
    if not isinstance(block, dict):
        raise SchemaError(f"algorithm {name!r}: entry is not a mapping")
    if "input" not in block or not block["input"]:
        raise SchemaError(f"algorithm {name!r}: missing input designation")
    if "metadata" not in block:
        raise SchemaError(f"algorithm {name!r}: missing metadata")
    params = tuple(
        _parse_parameter(pname, pblock)
        for pname, pblock in (block.get("parameter") or {}).items()
    )
    return AlgorithmEntry(
        name=name,
        parameters=params,
        metadata=_parse_metadata(name, block["metadata"]),
        input=block["input"],
        output=block.get("output", PARAMETER_PROPOSAL),
    )


def load_kb(path) -> KnowledgeBase:
    """Load and fully validate a knowledge base document."""
    with open(path, "r") as fh:
        text = fh.read()
    return parse_kb(text)


def parse_kb(text: str) -> KnowledgeBase:
    try:
        doc = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ParseError(f"malformed KB document: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError("KB document is not a mapping")
    if doc.get(KB_VERSION_KEY) != KB_VERSION:
        raise SchemaError(f"missing or unsupported {KB_VERSION_KEY} (expected {KB_VERSION})")

    goals: dict[tuple[str, str, str], dict[str, AlgorithmEntry]] = {}
    for goal, sub in doc.items():
        if goal == KB_VERSION_KEY:
            continue
        if goal not in OVERALL_GOALS:
            raise SchemaError(f"unknown overall goal {goal!r}")
        for direction, feat_block in (sub or {}).items():
            if direction not in DIRECTIONS:
                raise SchemaError(f"unknown direction {direction!r} under {goal!r}")
            for feature, algos_block in (feat_block or {}).items():
                if not isinstance(algos_block, dict) or "Algorithms" not in algos_block:
                    raise SchemaError(f"goal path {goal}/{direction}/{feature}: missing Algorithms")
                entries = {
                    name: _parse_entry(name, block)
                    for name, block in (algos_block["Algorithms"] or {}).items()
                }
                goals[(goal, direction, feature)] = entries
    return KnowledgeBase(goals=goals)


def _dump_parameter(p: ParameterSpec) -> dict:
    block = {"type": {"integer": "int", "real": "real", "categorical": "categorical"}[p.kind],
             "default": p.default}
    if p.kind == "categorical":
        block["categories"] = list(p.categories)
    else:
        block["min"] = p.min
        block["max"] = p.max
    return block


def _dump_entry(e: AlgorithmEntry) -> dict:
    m = e.metadata
    return {
        "parameter": {p.name: _dump_parameter(p) for p in e.parameters},
        "metadata": {
            "Class": m.algorithm_class,
            "Input data": sorted(m.input_data),
            "Output data": sorted(m.output_data),
            "Reach aim": sorted(m.reach_aim),
            "Use multithreads": m.use_multithreads,
            "Min training data": m.min_training_data,
            "Prefer usage": m.prefer_usage,
            "Avoid usage": m.avoid_usage,
            "Performance": _none_to_unset(m.performance),
            "Computational Effort": _none_to_unset(m.computational_effort),
            "RAM usage": _none_to_unset(m.ram_usage),
        },
        "input": e.input,
        "output": e.output,
    }


def dump_kb(kb: KnowledgeBase) -> str:
    doc: dict = {KB_VERSION_KEY: KB_VERSION}
    for (goal, direction, feature), entries in kb.goals.items():
        doc.setdefault(goal, {}).setdefault(direction, {})[feature] = {
            "Algorithms": {name: _dump_entry(e) for name, e in entries.items()}
        }
    return yaml.safe_dump(doc, sort_keys=False)


def save_kb(kb: KnowledgeBase, path) -> None:
    with open(path, "w") as fh:
        fh.write(dump_kb(kb))


# ---------------------------------------------------------------------------
# Pipeline composition and filtering


def compose_pipelines(kb: KnowledgeBase, goal: GoalSpec) -> list[PipelineTemplate]:
    """Chain algorithm stages backwards until raw data is reached.

    Final stages are the entries emitting a parameter proposal; every other
    entry can serve as an intermediate stage when its output matches the
    required input of the following stage.
    """
    entries = kb.entries_for(goal.path)

    def resolve(entry: AlgorithmEntry, seen: frozenset) -> list[tuple[str, ...]]:
        if entry.input == RAW_DATA:
            return [(entry.name,)]
        chains = []
        for candidate in entries.values():
            if candidate.name in seen or candidate.output != entry.input:
                continue
            for prefix in resolve(candidate, seen | {candidate.name}):
                chains.append(prefix + (entry.name,))
        return chains

    pipelines = []
    for entry in entries.values():
        if entry.output != PARAMETER_PROPOSAL:
            continue
        for chain in resolve(entry, frozenset({entry.name})):
            pipelines.append(PipelineTemplate(stages=chain))
    return pipelines


def determine_feasible(
    pipelines: list[PipelineTemplate],
    kb: KnowledgeBase,
    goal: GoalSpec,
    data_size: int,
) -> list[PipelineTemplate]:
    """Apply the hard criteria: aim coverage, I/O chaining, training-data size."""
    aim = goal.aim
    feasible = []
    for pipeline in pipelines:
        stages = [kb.find(name) for name in pipeline.stages]
        ok = stages[0].input == RAW_DATA
        for prev, cur in zip(stages, stages[1:]):
            ok = ok and prev.output == cur.input
        for stage in stages:
            ok = ok and aim in stage.metadata.reach_aim
            ok = ok and data_size >= stage.metadata.min_training_data
        if ok:
            feasible.append(pipeline)
    return feasible


def select_candidates(
    feasible: list[PipelineTemplate],
    kb: KnowledgeBase,
    resources: ResourceBudget,
    history: list,
) -> list[PipelineTemplate]:
    """Soft selection: drop avoided/over-deadline pipelines, order, truncate.

    `history` carries EvaluationRecord-like objects with `pipeline` and
    `cpu_time` attributes; only the most recent record per pipeline counts.
    """
    latest: dict[str, object] = {}
    for rec in history:
        latest[rec.pipeline] = rec

    def effort(pipeline: PipelineTemplate) -> float:
        v = kb.find(pipeline.terminal_stage).metadata.computational_effort
        # untested algorithms sort first so the loop gathers evidence early
        return -1.0 if v is None else v

    kept = []
    for pipeline in feasible:
        stages = [kb.find(name) for name in pipeline.stages]
        if any(s.metadata.avoid_usage for s in stages):
            continue
        rec = latest.get(pipeline.pipeline_id)
        if rec is not None and rec.cpu_time > resources.deadline:
            continue
        prefer = any(s.metadata.prefer_usage for s in stages)
        kept.append((not prefer, effort(pipeline), pipeline.pipeline_id, pipeline))
    kept.sort(key=lambda t: t[:3])
    return [t[3] for t in kept[: resources.max_parallel_pipelines]]


def update_characteristics(
    kb: KnowledgeBase,
    algorithm: str,
    performance: float,
    effort: float,
    ram: float,
) -> KnowledgeBase:
    """Return a new KB with the three dynamic fields of `algorithm` replaced."""
    for v in (performance, effort, ram):
        if not (0.0 <= v <= 1.0):
            raise SchemaError(f"characteristic value {v} outside [0, 1]")
    found = False
    goals = {}
    for path, entries in kb.goals.items():
        new_entries = dict(entries)
        if algorithm in new_entries:
            found = True
            e = new_entries[algorithm]
            new_entries[algorithm] = replace(
                e,
                metadata=replace(
                    e.metadata,
                    performance=performance,
                    computational_effort=effort,
                    ram_usage=ram,
                ),
            )
        goals[path] = new_entries
    if not found:
        raise UnknownAlgorithm(algorithm)
    return KnowledgeBase(goals=goals)


# ---------------------------------------------------------------------------
# Default portfolio template


def default_kb() -> KnowledgeBase:
    """The bundled five-optimizer portfolio under the optimization goal."""
    aim = frozenset({"optimization-min", "optimization-max"})

    def entry(name, cls, params, min_training=0):
        return AlgorithmEntry(
            name=name,
            parameters=params,
            metadata=AlgorithmCharacteristics(
                algorithm_class=cls,
                input_data=frozenset({"continuous"}),
                output_data=frozenset({"continuous"}),
                reach_aim=aim,
                min_training_data=min_training,
            ),
            input=RAW_DATA,
            output=PARAMETER_PROPOSAL,
        )

    i = lambda n, d, lo, hi: ParameterSpec(n, "integer", d, lo, hi)
    r = lambda n, d, lo, hi: ParameterSpec(n, "real", d, lo, hi)

    entries = {
        "RandomSearch": entry("RandomSearch", "Baseline", ()),
        "HillClimber": entry("HillClimber", "HillClimber", (i("lmm", 5, 1, 20),)),
        "GeneralizedSA": entry(
            "GeneralizedSA", "Trajectory",
            (r("temp", 100.0, 1.0, 10000.0), r("qv", 2.5, 1.01, 2.99), r("qa", -1.0, -5.0, 0.0)),
        ),
        "DifferentialEvolution": entry(
            "DifferentialEvolution", "Population",
            (i("popsize", 5, 4, 50), i("strategy", 2, 1, 5),
             r("F", 0.8, 0.0, 2.0), r("CR", 0.5, 0.0, 1.0), r("c", 0.5, 0.0, 1.0)),
        ),
        "KrigingSBO": entry(
            "KrigingSBO", "Surrogate",
            (i("designSize", 7, 3, 12),
             ParameterSpec("designType", "categorical", "Lhd", categories=("Lhd", "Uniform"))),
            min_training=5,
        ),
    }
    goals = {
        ("Optimization", "minimize", "mean"): entries,
        ("Optimization", "maximize", "mean"): entries,
    }
    return KnowledgeBase(goals=goals)
