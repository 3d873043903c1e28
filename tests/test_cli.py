import csv
import dataclasses
import json
import math
import re
import string
import warnings
from pathlib import Path

import pytest
import yaml
from click.testing import CliRunner
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from cogopt import cli, cognition, report
from cogopt.benchmark import EvaluationRecord, rank_algorithms, records_to_csv
from cogopt.cli import RunConfig, default_config_doc, load_config, main
from cogopt.knowledge import load_kb
from cogopt.optimizers import ALGORITHMS
from cogopt.plant import VpsSimulator, load_seed_dataset
from cogopt.rating import rate_pipelines


@pytest.fixture()
def runner():
    return CliRunner()


def write_project(directory: Path, **overrides) -> Path:
    """A small, fast run configuration plus the template knowledge base."""
    runner = CliRunner()
    res = runner.invoke(main, ["--config", "unused", "init", str(directory)])
    assert res.exit_code == 0, res.output
    doc = default_config_doc()
    doc["cycles"] = 2
    doc["cognition"].update(s=6, theta=3, tuning_budget=2,
                            bench_budget=12, reps=2, design_reps=1)
    doc["campaign"].update(budget=12, checkpoints=[6, 12], reps=2, k_instances=2)
    for key, value in overrides.items():
        if isinstance(value, dict) and key in doc:
            doc[key].update(value)
        else:
            doc[key] = value
    cfg = directory / "config.yaml"
    cfg.write_text(yaml.safe_dump(doc))
    return cfg


class TestInit:
    def test_writes_loadable_templates(self, runner, tmp_path):
        res = runner.invoke(main, ["init", str(tmp_path)])
        assert res.exit_code == 0
        kb = load_kb(tmp_path / "kb.yaml")
        entries = kb.entries_for(("Optimization", "minimize", "mean"))
        assert entries["KrigingSBO"].defaults["designSize"] == 7
        cfg = load_config(tmp_path / "config.yaml")
        assert cfg.cycles == 36

    def test_the_template_goal_names_the_plant_signals(self, runner, tmp_path):
        assert runner.invoke(main, ["init", str(tmp_path)]).exit_code == 0
        doc = yaml.safe_load((tmp_path / "config.yaml").read_text())
        leaves = lambda d: sum(leaves(v) if isinstance(v, dict) else 1 for v in d.values())
        assert leaves(doc) == 28 and "weights" not in doc["plant"]
        assert "resources" in doc["cognition"] and "resources" not in doc
        assert doc["goal"]["signals"] == ["f1", "f2", "f3"]
        res = runner.invoke(main, ["--config", str(tmp_path / "config.yaml"),
                                   "--out", str(tmp_path / "o"), "run", "--cycles", "0"])
        assert res.exit_code == 0, res.output

    def test_template_loads_as_the_defaults(self, runner, tmp_path):
        assert runner.invoke(main, ["init", str(tmp_path)]).exit_code == 0
        cfg = load_config(tmp_path / "config.yaml")
        expected = dataclasses.replace(RunConfig(), kb=str(tmp_path / "kb.yaml"))
        for f in dataclasses.fields(RunConfig):
            assert getattr(cfg, f.name) == getattr(expected, f.name), f.name

    def test_refuses_to_overwrite(self, runner, tmp_path):
        assert runner.invoke(main, ["init", str(tmp_path)]).exit_code == 0
        res = runner.invoke(main, ["init", str(tmp_path)])
        assert res.exit_code == 2
        res = runner.invoke(main, ["--force", "init", str(tmp_path)])
        assert res.exit_code == 0


class TestRun:
    def test_writes_runlog_and_final_kb(self, runner, tmp_path):
        cfg = write_project(tmp_path)
        out = tmp_path / "out"
        res = runner.invoke(main, ["--config", str(cfg), "--out", str(out), "run"])
        assert res.exit_code == 0, res.output
        lines = [json.loads(l) for l in (out / "runlog.jsonl").read_text().splitlines()]
        assert lines[0]["type"] == "bootstrap"
        cycles = [l for l in lines if l["type"] == "cycle"]
        assert len(cycles) == 2
        assert [c["iteration"] for c in cycles] == [0, 1]
        kb = load_kb(out / "kb_final.yaml")
        assert "RandomSearch" in kb.entries_for(("Optimization", "minimize", "mean"))

    def test_runlog_holds_one_line_per_step_entry(self, runner, tmp_path, monkeypatch):
        real_step, states = cognition.step, []

        def step(*args):
            state, kb = real_step(*args)
            states.append(state)
            return state, kb

        monkeypatch.setattr(cognition, "step", step)
        cfg = write_project(tmp_path)
        out = tmp_path / "out"
        res = runner.invoke(main, ["--config", str(cfg), "--out", str(out),
                                   "run", "--cycles", "2"])
        assert res.exit_code == 0, res.output
        lines = [json.loads(l) for l in (out / "runlog.jsonl").read_text().splitlines()]
        assert [l.pop("type") for l in lines] == ["bootstrap", "cycle", "cycle"]
        assert lines[1:] == json.loads(json.dumps(states[-1].log_entries))
        assert lines[1]["selection_ran"] and lines[1]["selection"]["ratings"]

    def test_zero_cycles_gives_bootstrap_only_log(self, runner, tmp_path):
        cfg = write_project(tmp_path)
        out = tmp_path / "out"
        res = runner.invoke(main, ["--config", str(cfg), "--out", str(out),
                                   "run", "--cycles", "0"])
        assert res.exit_code == 0, res.output
        lines = [json.loads(l) for l in (out / "runlog.jsonl").read_text().splitlines()]
        assert [l["type"] for l in lines] == ["bootstrap"]

    def test_refuses_existing_runlog(self, runner, tmp_path):
        cfg = write_project(tmp_path)
        out = tmp_path / "out"
        args = ["--config", str(cfg), "--out", str(out), "run", "--cycles", "0"]
        assert runner.invoke(main, args).exit_code == 0
        assert runner.invoke(main, args).exit_code == 2
        assert runner.invoke(main, ["--force"] + args[:-3] + ["run", "--cycles", "0"]).exit_code == 0

    def test_crashed_run_leaves_its_records(self, runner, tmp_path, monkeypatch):
        real_step, calls = cognition.step, []

        def step(*args):
            calls.append(1)
            if len(calls) == 2:
                raise RuntimeError("crash in the second cycle")
            return real_step(*args)

        monkeypatch.setattr(cognition, "step", step)
        cfg = write_project(tmp_path)
        out = tmp_path / "out"
        res = runner.invoke(main, ["--config", str(cfg), "--out", str(out), "run"])
        assert res.exit_code != 0
        lines = [json.loads(l) for l in (out / "runlog.jsonl").read_text().splitlines()]
        assert [l["type"] for l in lines] == ["bootstrap", "cycle"]

    def test_seed_override_changes_trajectory(self, runner, tmp_path):
        cfg = write_project(tmp_path, plant={"noise_sd": 0.05})
        logs = {}
        for seed in (1, 2):
            out = tmp_path / f"out{seed}"
            res = runner.invoke(main, ["--config", str(cfg), "--seed", str(seed),
                                       "--out", str(out), "run"])
            assert res.exit_code == 0, res.output
            logs[seed] = (out / "runlog.jsonl").read_text()
        assert logs[1] != logs[2]


class TestBenchmark:
    def test_campaign_and_rank_tables(self, runner, tmp_path):
        cfg = write_project(tmp_path)
        out = tmp_path / "bench"
        res = runner.invoke(main, ["--config", str(cfg), "--out", str(out), "benchmark"])
        assert res.exit_code == 0, res.output
        with open(out / "campaign.csv") as fh:
            rows = list(csv.DictReader(fh))
        # 5 algorithms x (1 ground truth + 2 sims) x 2 checkpoints
        assert len(rows) == 5 * 3 * 2
        with open(out / "ranks_ground_truth.csv") as fh:
            ranks = list(csv.DictReader(fh))
        assert any(r["pipeline"] == "RandomSearch" and r["baseline"] == "True" for r in ranks)
        per_budget: dict = {}
        for r in ranks:
            per_budget.setdefault(r["budget"], []).append(float(r["mean_rank"]))
        for vals in per_budget.values():
            assert sum(vals) == pytest.approx(5 * 6 / 2)

    def test_maximize_goal_is_refused(self, runner, tmp_path):
        # the campaign ranks by least best_y, so it would rank a maximize goal backwards
        cfg = write_project(tmp_path, goal={"direction": "maximize"})
        out = tmp_path / "bench"
        res = runner.invoke(main, ["--config", str(cfg), "--out", str(out), "benchmark"])
        assert res.exit_code == 2, res.output
        assert "maximize" in res.output
        assert not (out / "campaign.csv").exists()


class TestReport:
    @pytest.fixture()
    def campaign_dir(self, runner, tmp_path):
        cfg = write_project(tmp_path)
        out = tmp_path / "bench"
        res = runner.invoke(main, ["--config", str(cfg), "--out", str(out), "benchmark"])
        assert res.exit_code == 0, res.output
        return cfg, out

    def test_scenarios_and_trajectories(self, runner, campaign_dir, tmp_path):
        cfg, bench = campaign_dir
        out = tmp_path / "rep"
        res = runner.invoke(main, ["--config", str(cfg), "--out", str(out),
                                   "report", str(bench / "campaign.csv")])
        assert res.exit_code == 0, res.output
        assert (out / "scenario_1.csv").exists()
        assert (out / "scenario_2.csv").exists()
        assert (out / "trajectories.csv").exists()
        assert "rank correlation" in res.output
        assert "scenario (0.8, 0.1, 0.1)" in res.output
        assert "scenario (0.5, 0.25, 0.25)" in res.output

    def test_report_is_replayable(self, runner, campaign_dir, tmp_path):
        cfg, bench = campaign_dir
        outputs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            res = runner.invoke(main, ["--config", str(cfg), "--out", str(out),
                                       "report", str(bench / "campaign.csv")])
            assert res.exit_code == 0
            outputs.append((res.output, (out / "scenario_1.csv").read_text(),
                            (out / "trajectories.csv").read_text()))
        assert outputs[0] == outputs[1]

    def test_each_scenario_is_rated_once(self, runner, campaign_dir, tmp_path, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return rate_pipelines(*args, **kwargs)

        monkeypatch.setattr(report, "rate_pipelines", counting)
        cfg, bench = campaign_dir
        res = runner.invoke(main, ["--config", str(cfg), "--out", str(tmp_path / "rep"),
                                   "report", str(bench / "campaign.csv")])
        assert res.exit_code == 0, res.output
        assert len(calls) == len(load_config(cfg).rating.scenarios)

    def test_tied_ranks_leave_the_correlation_unavailable(self, runner, tmp_path):
        # two pipelines equal everywhere: every mean rank is 1.5, so the ranks have no variance
        cfg = write_project(tmp_path)
        records = rank_algorithms([
            EvaluationRecord(pipeline, instance, budget, 0.5, 0.1, 64.0)
            for pipeline in ("RandomSearch", "HillClimber")
            for instance in (report.GROUND_TRUTH, "sim-0") for budget in (6, 12, 18)])
        records_to_csv(records, tmp_path / "tied.csv")
        out = tmp_path / "rep"
        res = runner.invoke(main, ["--config", str(cfg), "--out", str(out),
                                   "report", str(tmp_path / "tied.csv")])
        assert res.exit_code == 0, res.output
        assert "rank correlation unavailable: zero variance input" in res.output
        assert (out / "scenario_2.csv").exists()

    @pytest.mark.parametrize("column, value", [("budget", "abc"), ("best_y", "n/a"),
                                               ("rank", "first")])
    def test_non_numeric_cell_is_a_runtime_error(self, runner, tmp_path, column, value):
        cfg = write_project(tmp_path)
        row = {"pipeline": "RandomSearch", "instance": "sim-0", "budget": "12", "best_y": "0.5",
               "cpu_time": "0.1", "memory_bytes": "64.0", "rank": "1.0", column: value}
        bad = tmp_path / "bad.csv"
        bad.write_text(",".join(row) + "\n" + ",".join(row.values()) + "\n")
        res = runner.invoke(main, ["--config", str(cfg), "--out", str(tmp_path / "x"),
                                   "report", str(bad)])
        assert res.exit_code == 3, res.output
        assert f"{bad}, line 2, column {column}: not a number: {value!r}" in res.output

    def test_malformed_csv_is_a_runtime_error(self, runner, tmp_path):
        cfg = write_project(tmp_path)
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n1,2\n")
        res = runner.invoke(main, ["--config", str(cfg), "--out", str(tmp_path / "x"),
                                   "report", str(bad)])
        assert res.exit_code == 3


class TestSimulate:
    def test_writes_instances(self, runner, tmp_path):
        cfg = write_project(tmp_path)
        out = tmp_path / "sim"
        res = runner.invoke(main, ["--config", str(cfg), "--out", str(out),
                                   "simulate", "-k", "2"])
        assert res.exit_code == 0, res.output
        with open(out / "simulations.csv") as fh:
            rows = list(csv.DictReader(fh))
        names = {r["instance"] for r in rows}
        assert names == {report.GROUND_TRUTH, "sim-0", "sim-1"}


class TestErrors:
    def test_missing_config_is_a_config_error(self, runner, tmp_path):
        res = runner.invoke(main, ["--config", str(tmp_path / "nope.yaml"), "run"])
        assert res.exit_code == 2
        assert f"{tmp_path / 'nope.yaml'}: cannot read it as UTF-8 text" in res.output

    def test_malformed_config(self, runner, tmp_path):
        cfg = tmp_path / "config.yaml"
        cfg.write_text("cycles: [unclosed\n")
        res = runner.invoke(main, ["--config", str(cfg), "run"])
        assert res.exit_code == 2

    def test_misspelt_kb_key_is_a_config_error(self, runner, tmp_path):
        cfg = write_project(tmp_path)
        kb = tmp_path / "kb.yaml"
        kb.write_text(kb.read_text().replace("Avoid usage:", "Avoid Usage:", 1))
        res = runner.invoke(main, ["--config", str(cfg), "--out", str(tmp_path / "o"), "run"])
        assert res.exit_code == 2
        assert "'Avoid Usage'" in res.output

    @pytest.mark.parametrize("line", ["Input data: [continuous]", "Output data: [continuous]",
                                      "Use multithreads: false"])
    def test_deleted_kb_key_is_a_config_error(self, runner, tmp_path, line):
        # an older kb.yaml may still hold a key the schema has since dropped
        cfg = write_project(tmp_path)
        kb = tmp_path / "kb.yaml"
        key = line.split(":")[0]
        assert key not in kb.read_text()
        indent = "\n            "
        kb.write_text(kb.read_text().replace("Avoid usage:", f"{line}{indent}Avoid usage:", 1))
        res = runner.invoke(main, ["--config", str(cfg), "--out", str(tmp_path / "o"), "run"])
        assert res.exit_code == 2
        assert repr(key) in res.output

    @pytest.mark.parametrize("key, value", [("input", "preprocessed data"),
                                            ("output", "filtered data")])
    def test_chained_kb_entry_is_a_config_error(self, runner, tmp_path, key, value):
        # the first entry in an init kb.yaml is the baseline's
        cfg = write_project(tmp_path)
        kb = tmp_path / "kb.yaml"
        kb.write_text(re.sub(rf"{key}: .*", f"{key}: {value}", kb.read_text(), count=1))
        res = runner.invoke(main, ["--config", str(cfg), "--out", str(tmp_path / "o"), "run"])
        assert res.exit_code == 2
        assert f"algorithm 'RandomSearch': {key!r}" in res.output

    @pytest.mark.parametrize("command", [["run", "--cycles", "1"], ["benchmark"]])
    @pytest.mark.parametrize("name, param, block", [
        ("HillClimber", "lmm", {"type": "int", "default": 5, "min": 1, "max": 20}),
        ("DifferentialEvolution", "CR", {"type": "real", "default": 0.5, "min": 0.0, "max": 1.0}),
    ] + [(name, "foo", {"type": "real", "default": 0.5, "min": 0.0, "max": 1.0})
         for name in ALGORITHMS])
    def test_parameter_the_optimizer_does_not_take_is_refused(self, runner, tmp_path, command,
                                                              name, param, block):
        # an older kb.yaml may still declare HillClimber's lmm or DifferentialEvolution's CR
        cfg = write_project(tmp_path)
        kb = tmp_path / "kb.yaml"
        doc = yaml.safe_load(kb.read_text())
        doc["Optimization"]["minimize"]["mean"]["Algorithms"][name]["parameter"][param] = block
        kb.write_text(yaml.safe_dump(doc))
        res = runner.invoke(main, ["--config", str(cfg), "--out", str(tmp_path / "o")] + command)
        assert res.exit_code == 2, res.output
        assert f"algorithm {name!r} parameter: unknown key(s) [{param!r}]" in res.output

    @pytest.mark.parametrize("command", ["run", "benchmark"])
    @pytest.mark.parametrize("goal, named", [({"overall_goal": "AnomalyDetection"},
                                              "goal.overall_goal: must be one of ['Optimization'], "
                                              "got 'AnomalyDetection'"),
                                             ({"aggregation": "max"}, "goal.aggregation")])
    def test_goal_the_kb_cannot_serve_is_refused(self, runner, tmp_path, command, goal, named):
        cfg = write_project(tmp_path, goal=goal)
        res = runner.invoke(main, ["--config", str(cfg), "--out", str(tmp_path / "o"), command])
        assert res.exit_code == 2, res.output
        assert named in res.output

    @pytest.mark.parametrize("command", ["run", "benchmark"])
    def test_kb_section_for_another_goal_is_refused(self, runner, tmp_path, command):
        cfg = write_project(tmp_path)
        kb = tmp_path / "kb.yaml"
        doc = yaml.safe_load(kb.read_text())
        doc["AnomalyDetection"] = doc["Optimization"]
        kb.write_text(yaml.safe_dump(doc))
        res = runner.invoke(main, ["--config", str(cfg), "--out", str(tmp_path / "o"), command])
        assert res.exit_code == 2, res.output
        assert "'AnomalyDetection': goal.overall_goal takes only ['Optimization']" in res.output

    @pytest.mark.parametrize("command", ["run", "benchmark"])
    def test_kb_path_no_goal_can_reach_is_refused(self, runner, tmp_path, command):
        cfg = write_project(tmp_path)
        kb = tmp_path / "kb.yaml"
        doc = yaml.safe_load(kb.read_text())
        doc["Optimization"]["minimize"]["max"] = doc["Optimization"]["minimize"]["mean"]
        kb.write_text(yaml.safe_dump(doc))
        res = runner.invoke(main, ["--config", str(cfg), "--out", str(tmp_path / "o"), command])
        assert res.exit_code == 2, res.output
        assert ("goal path Optimization/minimize/max: aggregation must be one of ['mean']"
                in res.output)

    @pytest.mark.parametrize("command, section, key, extra", [
        (["run", "--cycles", "1"], "cognition", "bench_budget", {}),
        (["benchmark"], "campaign", "budget", {"checkpoints": [3]}),
    ])
    @pytest.mark.parametrize("budget", [4, 7])
    def test_budget_within_a_design_size_is_refused_before_the_plant_runs(
            self, runner, tmp_path, monkeypatch, command, section, key, extra, budget):
        def no_plant(config):
            raise AssertionError("the plant was built")

        monkeypatch.setattr(cli, "VpsSimulator", no_plant)
        cfg = write_project(tmp_path, **{section: {key: budget, **extra}})
        res = runner.invoke(main, ["--config", str(cfg), "--out", str(tmp_path / "o")] + command)
        assert res.exit_code == 2, res.output
        assert (f"{section}.{key}: must exceed KrigingSBO's designSize default 7, "
                f"got {budget}") in res.output

    def test_budget_check_reads_the_kb_default(self, runner, tmp_path):
        cfg = write_project(tmp_path, cognition={"bench_budget": 4})
        kb = tmp_path / "kb.yaml"
        doc = yaml.safe_load(kb.read_text())
        doc["Optimization"]["minimize"]["mean"]["Algorithms"]["KrigingSBO"]["parameter"][
            "designSize"]["default"] = 3
        kb.write_text(yaml.safe_dump(doc))
        res = runner.invoke(main, ["--config", str(cfg), "--out", str(tmp_path / "o"),
                                   "run", "--cycles", "0"])
        assert res.exit_code == 0, res.output

    def test_missing_kb_file(self, runner, tmp_path):
        cfg = write_project(tmp_path)
        (tmp_path / "kb.yaml").unlink()
        res = runner.invoke(main, ["--config", str(cfg), "--out", str(tmp_path / "o"), "run"])
        assert res.exit_code == 2
        assert f"{tmp_path / 'kb.yaml'}: cannot read it as UTF-8 text" in res.output

    @pytest.mark.parametrize("role", ["config", "kb", "report"])
    @pytest.mark.parametrize("body", [None, b"\xff\xfe\x00x"], ids=["directory", "not-utf8"])
    def test_an_input_that_cannot_be_read_is_a_config_error_naming_it(self, runner, tmp_path,
                                                                      role, body):
        cfg = write_project(tmp_path, **({"kb": "bad"} if role == "kb" else {}))
        bad = tmp_path / "bad"
        if body is None:
            bad.mkdir()
        else:
            bad.write_bytes(body)
        command = ["report", str(bad)] if role == "report" else ["run", "--cycles", "0"]
        res = runner.invoke(main, ["--config", str(bad if role == "config" else cfg),
                                   "--out", str(tmp_path / "o")] + command)
        assert res.exit_code == 2, res.output
        assert f"{bad}: cannot read it as UTF-8 text" in res.output

    @pytest.mark.parametrize("section", [None, "goal", "plant", "cognition", "cognition.resources",
                                         "rating", "campaign"])
    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(key=st.text(string.ascii_lowercase + "_", min_size=1, max_size=12))
    def test_unknown_key_is_refused(self, runner, tmp_path, section, key):
        doc = default_config_doc()
        known = doc
        for part in [] if section is None else section.split("."):
            known = known[part]
        assume(key not in known)
        known[key] = 1
        cfg = tmp_path / "config.yaml"
        cfg.write_text(yaml.safe_dump(doc))
        res = runner.invoke(main, ["--config", str(cfg), "--out", str(tmp_path / "o"),
                                   "simulate", "-k", "2"])
        assert res.exit_code == 2, res.output
        dotted = key if section is None else f"{section}.{key}"
        assert f"{dotted}: unknown key" in res.output

    @pytest.mark.parametrize("key, value, named", [
        ("cycles", "abc", "cycles"),
        ("plant", [1, 2], "plant"),
        ("cognition", {"resources": {"memory_cap": 1 << 30}}, "cognition.resources.memory_cap"),
        ("cognition", {"workers": 1}, "cognition.workers"),
        ("cognition", {"sim_method": "decomposition"}, "cognition.sim_method"),
        ("cognition", {"reps": 0}, "cognition.reps"),
        ("cognition", {"design_reps": 0}, "cognition.design_reps"),
        ("cognition", {"k_instances": 5}, "cognition.k_instances"),
        ("goal", {"direction": "sideways"}, "goal.direction"),
        ("campaign", {"checkpoints": [24, 36]}, "campaign.checkpoints"),
        ("campaign", {"workers": 2}, "campaign.workers"),
        ("cycles", -1, "cycles"),
        ("cognition", {"design_kind": "full_factorial"}, "cognition.design_kind"),
        ("cognition", {"weights": [0.5, 0.5, 0.0]}, "cognition.weights"),
        ("cognition", {"weights": [0.8, math.nan, 0.1]}, "cognition.weights"),
        ("rating", {"scenarios": [[0.8, 0.1, math.nan]]}, "rating.scenarios[0]"),
        ("cognition", {"master_seed": -1}, "cognition.master_seed"),
        ("rating", {"scenarios": [[0.8, 0.1, 0.1], [0.5, 0.5, 0.5]]}, "rating.scenarios[1]"),
    ])
    def test_bad_config_value(self, runner, tmp_path, key, value, named):
        cfg = write_project(tmp_path, **{key: value})
        res = runner.invoke(main, ["--config", str(cfg), "--out", str(tmp_path / "o"),
                                   "simulate", "-k", "2"])
        assert res.exit_code == 2, res.output
        assert f"{named}:" in res.output

    @pytest.mark.parametrize("flag", [["--theta", "0"], ["--epsilon", "-5"], ["--cycles", "-1"]])
    def test_bad_run_flag(self, runner, tmp_path, flag):
        cfg = write_project(tmp_path)
        res = runner.invoke(main, ["--config", str(cfg), "--out", str(tmp_path / "o"),
                                   "run", "--cycles", "1"] + flag)
        assert res.exit_code == 2, res.output
        assert flag[0][2:] in res.output

    @pytest.mark.parametrize("plant, message", [
        ({"noise_sd": -1.0}, "plant.noise_sd: must be a finite number >= 0, got -1.0"),
        ({"noise_sd": math.nan}, "plant.noise_sd: must be a finite number >= 0, got nan"),
        ({"seed": -1}, "plant.seed: must be >= 0, got -1"),
        ({"bounds": [7000, 500]}, "plant.bounds: need lo < hi at most 1e+150 apart"),
        ({"bounds": [500, math.inf]}, "plant.bounds: need lo < hi at most 1e+150 apart"),
        ({"bounds": [-1e200, 1e200]}, "plant.bounds: need lo < hi at most 1e+150 apart"),
        ({"bounds": [0, 100]},
         "plant.bounds: [0.0, 100.0] do not contain the settings [500.0, 7000.0]"),
    ])
    def test_bad_plant_setting_is_refused_naming_the_key(self, runner, tmp_path, plant, message):
        cfg = write_project(tmp_path, plant=plant)
        res = runner.invoke(main, ["--config", str(cfg), "--out", str(tmp_path / "o"),
                                   "run", "--cycles", "0"])
        assert res.exit_code == 2, res.output
        assert message in res.output

    @pytest.mark.parametrize("section, value, message", [
        ("plant", {"weights": [0.5, 0.25, 0.25]}, "plant.weights: unknown key"),
        ("goal", {"signals": ["banana"]},
         "goal.signals: must name the plant's signals ['f1', 'f2', 'f3'] once each, got ['banana']"),
        ("goal", {"signals": ["f1"]}, "goal.signals: must name the plant's signals"),
        ("goal", {"signals": ["f1", "f1", "f2"]}, "goal.signals: must name the plant's signals"),
        ("goal", {"signals": ["energy", "processing_time", "corn_amount"]},  # an old template's
         "goal.signals: must name the plant's signals"),
        ("resources", {"deadline": 5.0}, "resources: unknown key"),  # the old layout's section
        ("cognition", {"resources": {"max_parallel_pipelines": 1}},
         "cognition.resources.max_parallel_pipelines: must be >= 2"),
        ("cognition", {"resources": {"max_parallel_pipelines": 0}},
         "cognition.resources.max_parallel_pipelines: must be >= 2"),
        ("cognition", {"resources": {"max_parallel_pipelines": -1}},
         "cognition.resources.max_parallel_pipelines: must be >= 2"),
        ("cognition", {"resources": {"deadline": -5.0}},
         "cognition.resources.deadline: must be > 0, got -5.0"),
        ("cognition", {"resources": {"deadline": 0}},
         "cognition.resources.deadline: must be > 0, got 0.0"),
        ("cognition", {"resources": {"deadline": math.nan}},
         "cognition.resources.deadline: must be > 0, got nan"),
        # NaN compares false with every change, so the stagnation trigger would never fire
        ("cognition", {"stagnation_delta": math.nan},
         "cognition.stagnation_delta: must be a finite number >= 0, got nan"),
        ("cognition", {"stagnation_delta": math.inf},
         "cognition.stagnation_delta: must be a finite number >= 0, got inf"),
        ("cognition", {"stagnation_delta": -0.01},
         "cognition.stagnation_delta: must be a finite number >= 0, got -0.01"),
        # no tuning run would leave a candidate on its optimizer's keyword defaults
        ("cognition", {"tuning_budget": -3}, "cognition.tuning_budget: must be >= 1, got -3"),
        ("cognition", {"tuning_budget": 0}, "cognition.tuning_budget: must be >= 1, got 0"),
    ])
    def test_a_setting_the_loop_cannot_serve_is_refused(self, runner, tmp_path, section, value,
                                                        message):
        cfg = write_project(tmp_path, **{section: value})
        res = runner.invoke(main, ["--config", str(cfg), "--out", str(tmp_path / "o"),
                                   "run", "--cycles", "0"])
        assert res.exit_code == 2, res.output
        assert message in res.output

    @pytest.mark.parametrize("value, message", [
        ({"checkpoints": [-5, 6]}, "campaign.checkpoints: each must be >= 1, got [-5, 6]"),
        ({"checkpoints": [0, 12]}, "campaign.checkpoints: each must be >= 1, got [0, 12]"),
        ({"reps": 0}, "campaign.reps: must be >= 1, got 0"),
    ])
    def test_a_setting_the_campaign_cannot_serve_is_refused_at_load(self, runner, tmp_path,
                                                                    monkeypatch, value, message):
        def no_plant(*args, **kwargs):
            raise AssertionError("a refused setting built the plant")

        monkeypatch.setattr(cli, "VpsSimulator", no_plant)
        cfg = write_project(tmp_path, campaign=value)
        res = runner.invoke(main, ["--config", str(cfg), "--out", str(tmp_path / "o"),
                                   "benchmark"])
        assert res.exit_code == 2, res.output
        assert message in res.output

    def test_the_goal_signals_may_come_in_any_order(self, runner, tmp_path):
        cfg = write_project(tmp_path, goal={"signals": ["f3", "f1", "f2"]})
        res = runner.invoke(main, ["--config", str(cfg), "--out", str(tmp_path / "o"),
                                   "run", "--cycles", "0"])
        assert res.exit_code == 0, res.output

    def test_negative_seed_flag_is_refused(self, runner, tmp_path):
        cfg = write_project(tmp_path)
        res = runner.invoke(main, ["--config", str(cfg), "--out", str(tmp_path / "o"),
                                   "--seed", "-1", "run", "--cycles", "0"])
        assert res.exit_code == 2, res.output
        assert "plant.seed: must be >= 0, got -1" in res.output

    def test_bad_seed_file_names_the_key_file_and_line(self, runner, tmp_path):
        (tmp_path / "seed.csv").write_text("x,f1,f2,f3,rep\n500,0.6,0.7,0.2,1\n7000,a,0.7,0.2,1\n")
        cfg = write_project(tmp_path, plant={"seed_data": "seed.csv"})
        res = runner.invoke(main, ["--config", str(cfg), "--out", str(tmp_path / "o"),
                                   "run", "--cycles", "0"])
        assert res.exit_code == 2, res.output
        assert f"plant.seed_data: {tmp_path / 'seed.csv'} line 3: " in res.output

    @pytest.mark.parametrize("name, body", [("seeds", None), ("seed.csv", b"\xff\xfe\x00x")])
    def test_a_seed_file_that_cannot_be_read_names_the_key(self, runner, tmp_path, name, body):
        # a directory, or a file that is not UTF-8 text
        if body is None:
            (tmp_path / name).mkdir()
        else:
            (tmp_path / name).write_bytes(body)
        cfg = write_project(tmp_path, plant={"seed_data": name})
        res = runner.invoke(main, ["--config", str(cfg), "--out", str(tmp_path / "o"),
                                   "run", "--cycles", "0"])
        assert res.exit_code == 2, res.output
        assert f"plant.seed_data: {tmp_path / name}: cannot read it as UTF-8 text" in res.output

    def test_seed_data_is_read_next_to_the_config(self, runner, tmp_path):
        # the config's directory is not the working directory, as for `kb`
        rows = load_seed_dataset()
        rows[:, 1] += 0.5
        with open(tmp_path / "seed.csv", "w", newline="") as fh:
            csv.writer(fh).writerows([["x", "f1", "f2", "f3", "rep"]] + rows.tolist())
        cfg = write_project(tmp_path, plant={"seed_data": "seed.csv"})
        loaded = load_config(cfg)
        assert loaded.plant.seed_data == str(tmp_path / "seed.csv")
        assert loaded.plant.curve_data[0].y.tolist() == rows[:, 1].tolist()
        res = runner.invoke(main, ["--config", str(cfg), "--out", str(tmp_path / "o"),
                                   "run", "--cycles", "0"])
        assert res.exit_code == 0, res.output

    def test_log_level_env_accepted(self, runner, tmp_path, monkeypatch):
        monkeypatch.setenv("CAAI_LOG_LEVEL", "debug")
        res = runner.invoke(main, ["init", str(tmp_path)])
        assert res.exit_code == 0


def _edge_floats(*common):
    return st.one_of(st.sampled_from(common + (math.nan, math.inf, -math.inf)), st.floats())


@st.composite
def plant_sections(draw):
    """`plant` sections with reversed, infinite, NaN and very wide bounds, negative and NaN
    noise and negative seeds, next to valid ones."""
    section = {}
    if draw(st.booleans()):
        section["bounds"] = [draw(_edge_floats(-1e200, -4e149, 0.0, 499.5, 500.0, 7000.0)),
                             draw(_edge_floats(7000.0, 8000.0, 4e149, 1e200, 500.0))]
    if draw(st.booleans()):
        section["noise_sd"] = draw(_edge_floats(-1.0, 0.0, 0.02, 1e300))
    if draw(st.booleans()):
        section["seed"] = draw(st.integers(-2, 2))
    return section


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(section=plant_sections())
def test_a_plant_section_builds_the_plant_or_is_refused(tmp_path, section):
    doc = default_config_doc()
    doc["plant"].update(section)
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(doc))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            plant = VpsSimulator(load_config(path).plant)
        except cli.CONFIG_ERRORS:
            return
    lo, hi = plant.bounds
    assert math.isfinite(plant.ground_truth((lo + hi) / 2))
