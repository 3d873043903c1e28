"""Declarative goal model, algorithm knowledge base, and candidate selection.

The knowledge base is a YAML document with the hierarchy

    <overall goal> -> <direction> -> <aggregation> -> Algorithms -> <name> ->
        {parameter, metadata, input, output}

A pipeline is one algorithm entry and is named after it: every entry consumes
raw data and emits a parameter proposal, so `input` and `output` each have one
legal value.

Dynamic characteristics (performance, computational effort, RAM usage) are
serialized as -1 while unset and live in [0, 1] once the cognition loop has
benchmarked the algorithm.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, replace

import yaml

from . import optimizers
from .errors import ParseError, SchemaError, UnknownAlgorithm, UnknownGoal, read_text

KB_VERSION_KEY = "caai_kb_version"
KB_VERSION = 1

OVERALL_GOALS = ("Optimization",)
AGGREGATIONS = ("mean",)  # the plant computes one aggregate, the mean of its signals
DIRECTIONS = ("minimize", "maximize")
# YAML spelling of a parameter type -> ParameterSpec kind; dump_kb writes each kind's first spelling
PARAM_TYPES = {"int": "integer", "integer": "integer", "real": "real", "float": "real",
               "categorical": "categorical"}
PARAM_KINDS = tuple(dict.fromkeys(PARAM_TYPES.values()))
REACH_AIMS = ("optimization-min", "optimization-max")
ALGORITHM_CLASSES = ("HillClimber", "Trajectory", "Population", "Surrogate", "Baseline")


@dataclass(frozen=True)
class GoalSpec:
    """Four-stage declarative goal: what to do, on which signals, how."""

    overall_goal: str
    signals: tuple[str, ...]
    aggregation: str
    direction: str

    def __post_init__(self):
        # each message starts with its field, so the config loader can prefix the section
        if self.overall_goal not in OVERALL_GOALS:
            raise SchemaError(f"overall_goal: must be one of {list(OVERALL_GOALS)}, "
                              f"got {self.overall_goal!r}")
        if not self.signals:
            raise SchemaError("signals: a goal needs at least one signal")
        if self.aggregation not in AGGREGATIONS:
            raise SchemaError(f"aggregation: must be one of {list(AGGREGATIONS)}, "
                              f"got {self.aggregation!r}")
        if self.direction not in DIRECTIONS:
            raise SchemaError(f"direction: unknown direction {self.direction!r}")

    @property
    def path(self) -> tuple[str, str, str]:
        return (self.overall_goal, self.direction, self.aggregation)

    @property
    def aim(self) -> str:
        """The reach-aim an algorithm must declare to serve this goal."""
        return "optimization-min" if self.direction == "minimize" else "optimization-max"

    @property
    def sign(self) -> float:
        """1 to minimize, -1 to maximize: the loop minimizes sign * the aggregate."""
        return 1.0 if self.direction == "minimize" else -1.0


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
            if self.kind == "integer" and not all(
                    isinstance(v, int) for v in (self.default, self.min, self.max)):
                raise SchemaError(f"parameter {self.name!r}: integer kind needs integer "
                                  f"default, min and max, got {self.default}, {self.min}, {self.max}")
            if not (self.min <= self.default <= self.max):
                raise SchemaError(
                    f"parameter {self.name!r}: need min <= default <= max, "
                    f"got {self.min} <= {self.default} <= {self.max}"
                )


@dataclass(frozen=True)
class AlgorithmCharacteristics:
    algorithm_class: str
    reach_aim: frozenset = frozenset()
    min_training_data: int = 0
    prefer_usage: bool = False
    avoid_usage: bool = False
    performance: float | None = None
    computational_effort: float | None = None
    ram_usage: float | None = None

    def __post_init__(self):
        if self.algorithm_class not in ALGORITHM_CLASSES:
            raise SchemaError(f"unknown algorithm class {self.algorithm_class!r}")
        for v in self.reach_aim:
            if v not in REACH_AIMS:
                raise SchemaError(f"unknown reach_aim value {v!r}")
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


@dataclass(frozen=True)
class ResourceBudget:
    max_parallel_pipelines: int = 4  # a cycle needs the baseline and one competitor
    deadline: float = 60.0  # limit on the CPU seconds of a pipeline's latest record

    def __post_init__(self):
        # each message starts with its field, so the config loader can prefix the section
        if self.max_parallel_pipelines < 2:
            raise SchemaError(f"max_parallel_pipelines: must be >= 2, got {self.max_parallel_pipelines}")
        if not self.deadline > 0.0:  # written so that NaN fails
            raise SchemaError(f"deadline: must be > 0, got {self.deadline}")


# ---------------------------------------------------------------------------
# YAML (de)serialization

_UNSET = -1

# Each metadata key once: its YAML name, its AlgorithmCharacteristics field, its
# YAML type and whether a document must hold it. An absent optional key takes the
# field's default; dump_kb writes the keys in this order. A YAML list is a set of
# names, and a number is a dynamic characteristic, -1 while unset.
METADATA_KEYS = (
    ("Class", "algorithm_class", str, True),
    ("Reach aim", "reach_aim", list, True),
    ("Min training data", "min_training_data", int, False),
    ("Prefer usage", "prefer_usage", bool, False),
    ("Avoid usage", "avoid_usage", bool, False),
    ("Performance", "performance", float, True),
    ("Computational Effort", "computational_effort", float, True),
    ("RAM usage", "ram_usage", float, True),
)

# YAML type -> (YAML value to field value, field value to YAML value)
_SAME = (lambda v: v, lambda v: v)
_CONVERT = {
    list: (frozenset, sorted),
    float: (lambda v: None if v == _UNSET else float(v), lambda v: _UNSET if v is None else v),
}

# the YAML values each type accepts; a YAML boolean is never a number
_SCALARS = {bool: ((bool,), "true or false"), int: ((int,), "an integer"),
            float: ((int, float), "a number"), str: ((str,), "a string"), list: ((list,), "a list")}


def _mapping(what: str, block, required: set, optional: set | None) -> dict:
    """`block` if it is a mapping holding every `required` key and no unknown one;
    `optional` None admits any other key."""
    if not isinstance(block, dict):
        raise SchemaError(f"{what}: not a mapping")
    unknown = set() if optional is None else set(block) - required - optional
    for problem, keys in (("missing", required - set(block)), ("unknown key(s)", unknown)):
        if keys:
            raise SchemaError(f"{what}: {problem} {sorted(map(str, keys))}")
    return block


def _scalar(what: str, block: dict, key: str, kind: type):
    v = block.get(key)
    types, expected = _SCALARS[kind]
    if not isinstance(v, types) or (kind is not bool and isinstance(v, bool)):
        raise SchemaError(f"{what}: {key!r} must be {expected}, got {v!r}")
    return v


def _parse_parameter(name, block) -> ParameterSpec:
    what = f"parameter {name!r}"
    block = _mapping(what, block, {"type", "default"}, {"min", "max", "categories"})
    kind = PARAM_TYPES.get(block["type"])
    if kind is None:
        raise SchemaError(f"{what}: unknown type {block['type']!r}")
    if kind != "categorical":
        for key in ("default", "min", "max"):
            _scalar(what, block, key, int if kind == "integer" else float)
    return ParameterSpec(
        name=name,
        kind=kind,
        default=block["default"],
        min=block.get("min"),
        max=block.get("max"),
        categories=tuple(block.get("categories", ())),
    )


def _parse_metadata(name, block) -> AlgorithmCharacteristics:
    what = f"algorithm {name!r} metadata"
    block = _mapping(what, block, {key for key, *_, required in METADATA_KEYS if required},
                     {key for key, *_, required in METADATA_KEYS if not required})
    return AlgorithmCharacteristics(**{
        attr: _CONVERT.get(kind, _SAME)[0](_scalar(what, block, key, kind))
        for key, attr, kind, _ in METADATA_KEYS if key in block
    })


# the one value each designation may take: no entry consumes another entry's output
DESIGNATIONS = {"input": "raw data", "output": "parameter proposal"}


def _parse_entry(name, block) -> AlgorithmEntry:
    what = f"algorithm {name!r}"
    block = _mapping(what, block, {"input", "metadata"}, {"parameter", "output"})
    for key, value in DESIGNATIONS.items():
        if block.get(key, value) != value:
            raise SchemaError(f"{what}: {key!r} must be {value!r}, got {block[key]!r}")
    runner = optimizers._RUNNERS.get(name)
    # an entry naming no runner fails when it runs, so it may name any parameter
    takes = None if runner is None else set(inspect.signature(runner).parameters) - {"problem", "seed"}
    pblocks = _mapping(f"{what} parameter", block.get("parameter") or {}, set(), takes)
    return AlgorithmEntry(
        name=name,
        parameters=tuple(_parse_parameter(pname, pblock) for pname, pblock in pblocks.items()),
        metadata=_parse_metadata(name, block["metadata"]),
    )


def load_kb(path) -> KnowledgeBase:
    """Load and fully validate a knowledge base document."""
    return parse_kb(read_text(path))


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
            raise SchemaError(f"unknown overall goal {goal!r}: goal.overall_goal takes only "
                              f"{list(OVERALL_GOALS)}")
        for direction, feat_block in (sub or {}).items():
            if direction not in DIRECTIONS:
                raise SchemaError(f"unknown direction {direction!r} under {goal!r}")
            for aggregation, algos_block in (feat_block or {}).items():
                path = f"goal path {goal}/{direction}/{aggregation}"
                if aggregation not in AGGREGATIONS:
                    raise SchemaError(f"{path}: aggregation must be one of {list(AGGREGATIONS)}")
                if not isinstance(algos_block, dict) or "Algorithms" not in algos_block:
                    raise SchemaError(f"{path}: missing Algorithms")
                entries = {
                    name: _parse_entry(name, block)
                    for name, block in (algos_block["Algorithms"] or {}).items()
                }
                goals[(goal, direction, aggregation)] = entries
    return KnowledgeBase(goals=goals)


def _dump_parameter(p: ParameterSpec) -> dict:
    block = {"type": next(t for t, kind in PARAM_TYPES.items() if kind == p.kind),
             "default": p.default}
    if p.kind == "categorical":
        block["categories"] = list(p.categories)
    else:
        block["min"] = p.min
        block["max"] = p.max
    return block


def _dump_entry(e: AlgorithmEntry) -> dict:
    return {
        "parameter": {p.name: _dump_parameter(p) for p in e.parameters},
        "metadata": {key: _CONVERT.get(kind, _SAME)[1](getattr(e.metadata, attr))
                     for key, attr, kind, _ in METADATA_KEYS},
        **DESIGNATIONS,
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
# Candidate filtering


def compose_pipelines(kb: KnowledgeBase, goal_path) -> list[AlgorithmEntry]:
    """The goal path's entries, each one pipeline."""
    return list(kb.entries_for(goal_path).values())


def determine_feasible(
    pipelines: list[AlgorithmEntry],
    goal: GoalSpec,
    data_size: int,
) -> list[AlgorithmEntry]:
    """Apply the hard criteria: aim coverage and training-data size."""
    aim = goal.aim
    return [e for e in pipelines
            if aim in e.metadata.reach_aim and data_size >= e.metadata.min_training_data]


def select_candidates(
    feasible: list[AlgorithmEntry],
    resources: ResourceBudget,
    latest: dict,
) -> list[AlgorithmEntry]:
    """Soft selection: drop avoided/over-deadline entries, order, truncate.

    `latest` maps a pipeline to its latest EvaluationRecord-like object, one with a
    `cpu_time` attribute.
    """
    late = {name for name, rec in latest.items() if rec.cpu_time > resources.deadline}

    def order(e: AlgorithmEntry):
        effort = e.metadata.computational_effort
        # untested algorithms sort first so the loop gathers evidence early
        return (not e.metadata.prefer_usage, -1.0 if effort is None else effort, e.name)

    kept = sorted((e for e in feasible if not e.metadata.avoid_usage and e.name not in late),
                  key=order)
    return kept[: resources.max_parallel_pipelines]


def update_characteristics(
    kb: KnowledgeBase,
    goal_path,
    algorithm: str,
    performance: float,
    effort: float,
    ram: float,
) -> KnowledgeBase:
    """Return a new KB with the three dynamic fields of the goal path's `algorithm` replaced."""
    for v in (performance, effort, ram):
        if not (0.0 <= v <= 1.0):
            raise SchemaError(f"characteristic value {v} outside [0, 1]")
    entries = kb.entries_for(goal_path)
    if algorithm not in entries:
        raise UnknownAlgorithm(algorithm)
    e = entries[algorithm]
    metadata = replace(e.metadata, performance=performance, computational_effort=effort, ram_usage=ram)
    return KnowledgeBase(goals={**kb.goals,
                                tuple(goal_path): {**entries, algorithm: replace(e, metadata=metadata)}})


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
                reach_aim=aim,
                min_training_data=min_training,
            ),
        )

    i = lambda n, d, lo, hi: ParameterSpec(n, "integer", d, lo, hi)
    r = lambda n, d, lo, hi: ParameterSpec(n, "real", d, lo, hi)

    entries = {
        "RandomSearch": entry("RandomSearch", "Baseline", ()),
        "HillClimber": entry("HillClimber", "HillClimber", ()),
        "GeneralizedSA": entry(
            "GeneralizedSA", "Trajectory",
            (r("temp", 100.0, 1.0, 10000.0), r("qv", 2.5, 1.01, 2.99), r("qa", -1.0, -5.0, 0.0)),
        ),
        "DifferentialEvolution": entry(
            "DifferentialEvolution", "Population",
            (i("popsize", 5, 4, 50), i("strategy", 2, 1, 5),
             r("F", 0.8, 0.0, 2.0), r("c", 0.5, 0.0, 1.0)),
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
