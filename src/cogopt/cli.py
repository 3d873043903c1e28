"""Command-line front end: init, run, benchmark, report, simulate.

Exit codes: 0 on success, 2 for configuration problems, 3 for runtime
failures.  Log verbosity follows the CAAI_LOG_LEVEL environment variable
(error, info, debug).
"""

from __future__ import annotations

import dataclasses
import json
import logging
import os
import sys
import types
import typing
from dataclasses import dataclass, field
from pathlib import Path

import click
import yaml

from . import benchmark, cognition, gp, report
from .errors import (CogoptError, ConfigError, MalformedInput, ParseError, SchemaError,
                     UnknownGoal, read_text)
from .knowledge import GoalSpec, KnowledgeBase, default_kb, load_kb, save_kb
from .plant import SIGNALS, PlantConfig, VpsSimulator
from .rating import validate_weights

CONFIG_ERRORS = (ConfigError, SchemaError, ParseError, UnknownGoal)


def _setup_logging():
    levels = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}
    level = levels.get(os.environ.get("CAAI_LOG_LEVEL", "error").lower(), logging.ERROR)
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")


@dataclass(frozen=True)
class RatingConfig:
    scenarios: tuple[tuple[float, float, float], ...] = ((0.8, 0.1, 0.1), (0.5, 0.25, 0.25))

    def __post_init__(self):
        for i, weights in enumerate(self.scenarios):
            validate_weights(f"scenarios[{i}]", weights)


@dataclass(frozen=True)
class CampaignConfig:
    budget: int = 36
    checkpoints: tuple[int, ...] = benchmark.DEFAULT_CHECKPOINTS
    reps: int = 10
    k_instances: int = 5

    def __post_init__(self):
        # the loader prefixes the section: "campaign.checkpoints: ..."
        if not any(b <= self.budget for b in self.checkpoints):
            raise SchemaError(f"checkpoints: need one at or below the budget {self.budget}, "
                              f"got {list(self.checkpoints)}")


@dataclass(frozen=True)
class RunConfig:
    """Each field is a YAML key with its default, and a section a nested mapping."""

    kb: str = "kb.yaml"
    output_dir: str = "out"
    cycles: int = 36
    goal: GoalSpec = field(default_factory=lambda: GoalSpec("Optimization", SIGNALS, "mean", "minimize"))
    plant: PlantConfig = field(default_factory=PlantConfig)
    cognition: cognition.CognitionConfig = field(default_factory=cognition.CognitionConfig)
    rating: RatingConfig = field(default_factory=RatingConfig)
    campaign: CampaignConfig = field(default_factory=CampaignConfig)

    def __post_init__(self):
        if self.cycles < 0:
            raise SchemaError(f"cycles: must be >= 0, got {self.cycles}")
        if sorted(self.goal.signals) != sorted(SIGNALS):
            raise SchemaError(f"goal.signals: must name the plant's signals {list(SIGNALS)} "
                              f"once each, got {list(self.goal.signals)}")


def _to_doc(value):
    if dataclasses.is_dataclass(value):
        return {f.name: _to_doc(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, tuple):
        return [_to_doc(v) for v in value]
    return value


def default_config_doc() -> dict:
    return _to_doc(RunConfig())


def _check(hint, value, key: str):
    """`value` as type `hint`, or a ConfigError naming `key`."""
    args = typing.get_args(hint)
    if isinstance(hint, types.UnionType):  # the optional fields: `X | None`
        if value is None:
            return None
        return _check(next(a for a in args if a is not type(None)), value, key)
    if typing.get_origin(hint) is tuple and isinstance(value, (list, tuple)):
        hints = args[:1] * len(value) if args[-1] is Ellipsis else args
        if len(hints) == len(value):
            return tuple(_check(h, v, f"{key}[{i}]") for i, (h, v) in enumerate(zip(hints, value)))
    elif hint is float and type(value) in (int, float):
        return float(value)
    elif type(value) is hint:
        return value
    raise ConfigError(f"{key}: expected {hint.__name__ if isinstance(hint, type) else hint}, got {value!r}")


def _overlay(obj, doc, prefix: str = ""):
    """`obj` with the mapping `doc` laid over its fields, checked against their types."""
    if doc is None:
        return obj
    if not isinstance(doc, dict):
        raise ConfigError(f"{prefix.rstrip('.') or 'config'}: expected a mapping, got {doc!r}")
    hints = typing.get_type_hints(type(obj))
    changes = {}
    for key, value in doc.items():
        if key not in hints:
            raise ConfigError(f"{prefix}{key}: unknown key (`cogopt init` writes every key)")
        old = getattr(obj, key)
        if dataclasses.is_dataclass(old):
            changes[key] = _overlay(old, value, f"{prefix}{key}.")
        else:
            changes[key] = _check(hints[key], value, prefix + key)
    try:
        return dataclasses.replace(obj, **changes)
    except SchemaError as exc:  # a field's own check, "field: reason"
        raise SchemaError(f"{prefix}{exc}") from exc


def load_config(path, seed_override: int | None = None, out_override: str | None = None) -> RunConfig:
    try:
        doc = yaml.safe_load(read_text(path))
    except yaml.YAMLError as exc:
        raise ParseError(f"malformed config: {exc}") from exc
    base = Path(path).parent
    plant = doc.get("plant") if isinstance(doc, dict) else None
    if isinstance(plant, dict) and isinstance(plant.get("seed_data"), str):  # PlantConfig reads it
        doc = dict(doc, plant=dict(plant, seed_data=str(base / plant["seed_data"])))
    cfg = _overlay(RunConfig(), doc)
    if seed_override is not None:
        cfg = _overlay(cfg, {"plant": {"seed": seed_override},
                              "cognition": {"master_seed": seed_override}})
    return dataclasses.replace(cfg, kb=str(base / cfg.kb),
                               output_dir=out_override or cfg.output_dir)


def _load_served_kb(cfg: RunConfig, budget_key: str, budget: int) -> KnowledgeBase:
    """The configured KB, refused with an error naming the goal when it cannot serve it, or
    naming `budget_key` when `budget` does not exceed an entry's default design size."""
    kb = load_kb(cfg.kb)
    for name, entry in kb.entries_for(cfg.goal.path).items():  # UnknownGoal for a missing path
        design = entry.defaults.get("designSize")
        if design is not None and budget <= design:
            raise ConfigError(f"{budget_key}: must exceed {name}'s designSize default {design}, "
                              f"got {budget}")
    return kb


@click.group()
@click.option("--config", "config_path", type=click.Path(), default="config.yaml",
              help="Path to the run configuration YAML.")
@click.option("--seed", type=int, default=None, help="Override master and plant seeds.")
@click.option("--out", type=click.Path(), default=None, help="Override the output directory.")
@click.option("--force", is_flag=True, help="Overwrite existing output files.")
@click.pass_context
def main(ctx, config_path, seed, out, force):
    """Online algorithm selection for closed-loop process optimization."""
    _setup_logging()
    ctx.ensure_object(dict)
    ctx.obj.update(config_path=config_path, seed=seed, out=out, force=force)


def _guarded(ctx, fn):
    try:
        fn()
    except CONFIG_ERRORS as exc:
        click.echo(f"configuration error: {exc}", err=True)
        sys.exit(2)
    except (CogoptError, OSError) as exc:
        click.echo(f"runtime error: {exc}", err=True)
        sys.exit(3)


@main.command()
@click.argument("directory", type=click.Path(), default=".")
@click.pass_context
def init(ctx, directory):
    """Write a template knowledge base and run configuration into DIRECTORY."""

    def body():
        d = Path(directory)
        d.mkdir(parents=True, exist_ok=True)
        kb_file = d / "kb.yaml"
        cfg_file = d / "config.yaml"
        if (kb_file.exists() or cfg_file.exists()) and not ctx.obj["force"]:
            raise ConfigError(f"{kb_file} or {cfg_file} exists; use --force to overwrite")
        save_kb(default_kb(), kb_file)
        with open(cfg_file, "w") as fh:
            yaml.safe_dump(default_config_doc(), fh, sort_keys=False)
        click.echo(f"wrote {kb_file} and {cfg_file}")

    _guarded(ctx, body)


def _prepare_out(cfg: RunConfig) -> Path:
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


@main.command()
@click.option("--cycles", type=int, default=None, help="Number of loop cycles to run.")
@click.option("--theta", type=int, default=None, help="Selection step size.")
@click.option("--epsilon", type=float, default=None, help="Application threshold.")
@click.pass_context
def run(ctx, cycles, theta, epsilon):
    """Bootstrap the plant and execute the closed optimization loop."""

    def body():
        cfg = load_config(ctx.obj["config_path"], ctx.obj["seed"], ctx.obj["out"])
        flags = {"theta": theta, "epsilon": epsilon}
        cfg = _overlay(cfg, {"cycles": cfg.cycles if cycles is None else cycles,
                              "cognition": {k: v for k, v in flags.items() if v is not None}})
        kb = _load_served_kb(cfg, "cognition.bench_budget", cfg.cognition.bench_budget)
        plant = VpsSimulator(cfg.plant)
        out = _prepare_out(cfg)
        log_path = out / "runlog.jsonl"
        if log_path.exists() and not ctx.obj["force"]:
            raise ConfigError(f"{log_path} exists; use --force to overwrite")

        with open(log_path, "w") as fh:
            def write(entry):
                fh.write(json.dumps(entry) + "\n")
                fh.flush()  # a crashed run leaves every record made so far

            state = cognition.CognitionState()
            cognition.bootstrap(state, plant, cfg.cognition)
            write({
                "type": "bootstrap",
                "design_size": cfg.cognition.s,
                "cycles_recorded": len(state.d),
                "x": state.x,
            })
            for _ in range(cfg.cycles):
                state, kb = cognition.step(state, plant, kb, cfg.cognition, cfg.goal)
                write(dict(state.log_entries[-1], type="cycle"))
        save_kb(kb, out / "kb_final.yaml")
        click.echo(f"wrote {log_path} and {out / 'kb_final.yaml'}")

    _guarded(ctx, body)


@main.command("benchmark")
@click.pass_context
def benchmark_cmd(ctx):
    """Standalone portfolio campaign on ground truth and simulation instances."""

    def body():
        cfg = load_config(ctx.obj["config_path"], ctx.obj["seed"], ctx.obj["out"])
        if cfg.goal.direction == "maximize":
            raise ConfigError("goal.direction: the campaign ranks by least best_y, "
                              "so it cannot benchmark a maximize goal")
        kb = _load_served_kb(cfg, "campaign.budget", cfg.campaign.budget)
        plant = VpsSimulator(cfg.plant)
        out = _prepare_out(cfg)
        records = report.campaign(
            plant, kb, cfg.goal.path, master_seed=cfg.cognition.master_seed,
            **dataclasses.asdict(cfg.campaign),
        )
        benchmark.records_to_csv(records, out / "campaign.csv")
        report.write_rank_csv(records, sim=False, path=out / "ranks_ground_truth.csv")
        report.write_rank_csv(records, sim=True, path=out / "ranks_simulation.csv")
        click.echo(f"wrote {out / 'campaign.csv'} and rank tables")

    _guarded(ctx, body)


@main.command("report")
@click.argument("records_csv", type=click.Path(exists=True))
@click.pass_context
def report_cmd(ctx, records_csv):
    """Correlation, weight-scenario rank tables, and resource trajectories."""

    def body():
        cfg = load_config(ctx.obj["config_path"], ctx.obj["seed"], ctx.obj["out"])
        out = _prepare_out(cfg)
        records = benchmark.records_from_csv(records_csv)
        if not records:
            raise MalformedInput(f"{records_csv}: no records")
        tables = report.scenario_tables(records, cfg.rating.scenarios)
        for i, (_, table, _) in enumerate(tables, start=1):
            report.write_scenario_csv(table, out / f"scenario_{i}.csv")
        report.write_trajectories_csv(records, out / "trajectories.csv")
        click.echo(report.summary_text(records, tables))

    _guarded(ctx, body)


@main.command()
@click.option("-k", "--instances", type=int, default=None, help="Number of simulation instances.")
@click.pass_context
def simulate(ctx, instances):
    """Dump the ground-truth curve and simulation instances as CSV."""

    def body():
        cfg = load_config(ctx.obj["config_path"], ctx.obj["seed"], ctx.obj["out"])
        plant = VpsSimulator(cfg.plant)
        out = _prepare_out(cfg)
        k = instances if instances is not None else cfg.campaign.k_instances
        objectives = report.build_objectives(plant, k, cfg.cognition.master_seed)
        grid = gp.default_grid(plant.bounds)
        path = out / "simulations.csv"
        with open(path, "w") as fh:
            fh.write("instance,x,y\n")
            for name, obj in objectives.items():
                for x in grid:
                    fh.write(f"{name},{float(x)!r},{float(obj(x))!r}\n")
        click.echo(f"wrote {path}")

    _guarded(ctx, body)


if __name__ == "__main__":
    main()
