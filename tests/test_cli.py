import csv
import dataclasses
import json
import string
from pathlib import Path

import pytest
import yaml
from click.testing import CliRunner
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from cogopt import cognition, report
from cogopt.cli import RunConfig, default_config_doc, load_config, main
from cogopt.knowledge import load_kb


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
    doc["cognition"].update(s=6, theta=3, k_instances=3, tuning_budget=2,
                            bench_budget=12, reps=2, design_reps=1)
    doc["campaign"].update(budget=12, checkpoints=[6, 12], reps=2, k_instances=2)
    for key, value in overrides.items():
        if isinstance(value, dict):
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
        assert [l["type"] for l in lines if l["type"] != "selection"] == ["bootstrap", "cycle"]

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

    @pytest.mark.parametrize("command", ["run", "benchmark"])
    @pytest.mark.parametrize("goal, named", [({"overall_goal": "AnomalyDetection"}, "AnomalyDetection"),
                                             ({"aggregation": "max"}, "Optimization/minimize/max")])
    def test_goal_the_kb_cannot_serve_is_refused(self, runner, tmp_path, command, goal, named):
        cfg = write_project(tmp_path, goal=goal)
        res = runner.invoke(main, ["--config", str(cfg), "--out", str(tmp_path / "o"), command])
        assert res.exit_code == 2, res.output
        assert named in res.output

    def test_missing_kb_file(self, runner, tmp_path):
        cfg = write_project(tmp_path)
        (tmp_path / "kb.yaml").unlink()
        res = runner.invoke(main, ["--config", str(cfg), "--out", str(tmp_path / "o"), "run"])
        assert res.exit_code == 2

    @pytest.mark.parametrize("section", [None, "goal", "plant", "cognition", "resources",
                                         "rating", "campaign"])
    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(key=st.text(string.ascii_lowercase + "_", min_size=1, max_size=12))
    def test_unknown_key_is_refused(self, runner, tmp_path, section, key):
        doc = default_config_doc()
        known = doc if section is None else doc[section]
        assume(key not in known and (section, key) != ("cognition", "resources"))
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
        ("resources", {"memory_cap": 1 << 30}, "resources.memory_cap"),
        ("cognition", {"workers": 1}, "cognition.workers"),
        ("cognition", {"sim_method": "decomposition"}, "cognition.sim_method"),
        ("cognition", {"reps": 0}, "cognition.reps"),
        ("cognition", {"design_reps": 0}, "cognition.design_reps"),
        ("goal", {"direction": "sideways"}, "goal.direction"),
        ("campaign", {"checkpoints": [24, 36]}, "campaign.checkpoints"),
        ("cycles", -1, "cycles"),
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

    def test_log_level_env_accepted(self, runner, tmp_path, monkeypatch):
        monkeypatch.setenv("CAAI_LOG_LEVEL", "debug")
        res = runner.invoke(main, ["init", str(tmp_path)])
        assert res.exit_code == 0


def test_strip_volatile_removes_cpu_and_time_keys():
    entry = {"iteration": 1, "cpu_time": 0.5, "timestamp": 9.0,
             "ratings": {"A": {"cpu_ratio": 2.0, "aggregate": 0.8, "rank": 1.0}}}
    out = report.strip_volatile(entry)
    # the aggregate mixes in the CPU factor, so it counts as volatile too
    assert out == {"iteration": 1, "ratings": {"A": {"rank": 1.0}}}
