import csv
import json
import time
from types import SimpleNamespace

import pytest

from detdec import cli, deserialize, envs
from detdec.cli import EXIT_BUDGET, EXIT_ERROR, EXIT_OK, HISTORY_COLUMNS, RunConfig, main, run_solve
from detdec.evaluation import evaluate


def _gen_instance(tmp_path, name="inst.json", seed=42, edges=3):
    path = tmp_path / name
    code = main([
        "gen", "mactp", "--n", "3", "--agents", "2", "--edges", str(edges),
        "--seed", str(seed), "--out", str(path),
    ])
    assert code == EXIT_OK
    return path


FAST_ARGS = ["--epsilon", "1e-3", "--node-budget", "1500", "--max-rounds", "6",
             "--episodes", "2000"]


class TestGen:
    def test_mactp_descriptor_fields(self, tmp_path):
        path = _gen_instance(tmp_path, edges=5)
        doc = json.loads(path.read_text())
        assert doc["family"] == "mactp"
        assert len(doc["stochastic"]) == 5
        assert doc["prng"] == "splitmix64/v1"

    def test_repeat_is_byte_identical(self, tmp_path):
        a = _gen_instance(tmp_path, "a.json")
        b = _gen_instance(tmp_path, "b.json")
        assert a.read_bytes() == b.read_bytes()

    def test_collecting_records_support(self, tmp_path):
        path = tmp_path / "c.json"
        code = main([
            "gen", "collecting", "--h", "4", "--w", "3", "--agents", "2",
            "--boxes", "2", "--seed", "7", "--out", str(path),
        ])
        assert code == EXIT_OK
        doc = json.loads(path.read_text())
        assert doc["belief_support"] == 30

    def test_default_out_root(self, tmp_path, monkeypatch):
        monkeypatch.setenv("DETDEC_OUT", str(tmp_path))
        code = main(["gen", "mactp", "--n", "2", "--agents", "1", "--edges", "1", "--seed", "3"])
        assert code == EXIT_OK
        assert (tmp_path / "mactp-n2-a1-e1-s3.json").exists()


class TestSolve:
    def test_artifacts_and_exit_code(self, tmp_path):
        inst = _gen_instance(tmp_path)
        out = tmp_path / "run"
        code = main(["solve", str(inst), "--out", str(out), *FAST_ARGS])
        assert code == EXIT_OK
        for name in ("config.json", "instance.json", "policy.json", "history.csv", "report.json"):
            assert (out / name).exists(), name
        report = json.loads((out / "report.json").read_text())
        assert report["converged"] is True
        assert report["equilibrium_gap"] <= 1e-6 + 1e-3 + 1e-9
        assert report["final_value"] >= report["init_value"] - 1e-12
        if cli.resource is None:
            assert report["peak_rss_mb"] is None
        else:  # an interpreter with numpy loaded holds tens of MB, not KiB or TB
            assert 20 < report["peak_rss_mb"] < 2**16
        with open(out / "history.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert list(rows[0]) == HISTORY_COLUMNS
        assert "solver_status" in HISTORY_COLUMNS
        statuses = {"converged", "node_budget", "time_budget", "stalled"}
        assert all(row["solver_status"] in statuses for row in rows)

    @pytest.mark.parametrize("platform, mb", [("linux", 3 * 2**10), ("darwin", 3.0)])
    def test_peak_rss_units(self, monkeypatch, platform, mb):
        # ru_maxrss is KiB on Linux and bytes on macOS
        usage = SimpleNamespace(ru_maxrss=3 * 2**20)
        monkeypatch.setattr(cli, "resource", SimpleNamespace(RUSAGE_SELF=0, getrusage=lambda who: usage))
        monkeypatch.setattr(cli.sys, "platform", platform)
        assert cli.peak_rss_mb() == mb
        monkeypatch.setattr(cli, "resource", None)
        assert cli.peak_rss_mb() is None

    def test_init_only_skips_loop(self, tmp_path):
        inst = _gen_instance(tmp_path)
        out = tmp_path / "run-init"
        code = main(["solve", str(inst), "--out", str(out), "--algo", "init-only", *FAST_ARGS])
        assert code == EXIT_OK
        report = json.loads((out / "report.json").read_text())
        assert report["algo"] == "init-only"
        assert report["rounds"] == 0
        with open(out / "history.csv") as fh:
            assert len(list(csv.reader(fh))) == 1  # header only

    def test_budget_exhaustion_exit_code(self, tmp_path):
        inst = _gen_instance(tmp_path, edges=5, seed=29)
        out = tmp_path / "tight"
        code = main([
            "solve", str(inst), "--out", str(out), "--algo", "init-only",
            "--epsilon", "1e-9", "--node-budget", "2", "--episodes", "0",
        ])
        assert code == EXIT_BUDGET

    def test_quiet_round_with_a_wide_gap_exits_with_budget_code(self, tmp_path):
        # both round-1 calls stop on the node budget and neither is accepted
        inst = _gen_instance(tmp_path, seed=1)
        out = tmp_path / "wide"
        code = main(["solve", str(inst), "--out", str(out), "--node-budget", "5", "--episodes", "0"])
        assert code == EXIT_BUDGET
        report = json.loads((out / "report.json").read_text())
        with open(out / "history.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert report["rounds"] == 1 and report["converged"] is False
        assert not any(row["accepted"] == "True" for row in rows)
        gaps = [float(row["solver_ub"]) - float(row["pre_value"]) for row in rows]
        assert report["equilibrium_gap"] == max(gaps) > 1e-6 + 1e-3

    def test_rerun_reproduces_policy_and_history(self, tmp_path):
        inst = _gen_instance(tmp_path)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            assert main(["solve", str(inst), "--out", str(out), *FAST_ARGS]) == EXIT_OK
        assert (out_a / "policy.json").read_bytes() == (out_b / "policy.json").read_bytes()
        # the wall-clock column is measurement, not computation; drop it
        def stripped(path):
            with open(path) as fh:
                rows = list(csv.reader(fh))
            k = rows[0].index("seconds")
            return [row[:k] + row[k + 1:] for row in rows]
        assert stripped(out_a / "history.csv") == stripped(out_b / "history.csv")
        assert (out_a / "config.json").read_bytes() == (out_b / "config.json").read_bytes()

    def test_config_roundtrip(self, tmp_path):
        inst = _gen_instance(tmp_path)
        out = tmp_path / "run"
        main(["solve", str(inst), "--out", str(out), *FAST_ARGS])
        config = RunConfig.from_json((out / "config.json").read_text())
        assert config.instance == str(inst)
        assert config.node_budget == 1500

    def test_missing_instance_is_error(self, tmp_path):
        assert main(["solve", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o")]) == EXIT_ERROR

    def test_bad_descriptor_is_user_error(self, tmp_path, capsys):
        inst = _gen_instance(tmp_path)
        doc = json.loads(inst.read_text())
        for bad in ({**doc, "weights": 5}, {**doc, "format": 99}, [doc]):
            inst.write_text(json.dumps(bad))
            code = main(["solve", str(inst), "--out", str(tmp_path / "o")])
            assert code == EXIT_ERROR
            assert "instance descriptor" in capsys.readouterr().err

    @pytest.mark.parametrize("option", ["--mdp-tol", "--epsilon", "--time-budget"])
    def test_non_finite_parameter_is_named(self, tmp_path, capsys, option):
        inst = _gen_instance(tmp_path)
        out = tmp_path / "o"
        t0 = time.perf_counter()
        code = main(["solve", str(inst), "--out", str(out), option, "nan"])
        assert code == EXIT_ERROR
        assert time.perf_counter() - t0 < 5.0  # rejected up front, not after a long run
        name = option[2:].replace("-", "_")
        assert f"error: {name} must be a finite positive number" in capsys.readouterr().err
        assert not (out / "config.json").exists()

    @pytest.mark.parametrize("option, value", [
        ("--episodes", "-1"), ("--horizon", "0"), ("--node-budget", "0"), ("--max-rounds", "0"),
        ("--state-cap", "0"),
    ])
    def test_bad_run_setting_fails_before_solve(self, tmp_path, capsys, option, value):
        inst = _gen_instance(tmp_path)
        out = tmp_path / "o"
        code = main(["solve", str(inst), "--out", str(out), option, value])
        assert code == EXIT_ERROR
        name = option[2:].replace("-", "_")
        assert f"error: {name} must be an integer" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["1", "1.5"])
    def test_gamma_outside_unit_interval_is_named(self, tmp_path, capsys, value):
        inst = _gen_instance(tmp_path)
        out = tmp_path / "o"
        assert main(["solve", str(inst), "--out", str(out), "--gamma", value]) == EXIT_ERROR
        assert "error: gamma must lie in (0, 1)" in capsys.readouterr().err
        assert not out.exists()

    def test_state_cap_violation_is_error(self, tmp_path, capsys):
        inst = _gen_instance(tmp_path)
        code = main(["solve", str(inst), "--out", str(tmp_path / "o"), "--state-cap", "10"])
        assert code == EXIT_ERROR
        assert "state_cap" in capsys.readouterr().err


class TestEval:
    def _solved(self, tmp_path):
        inst = _gen_instance(tmp_path)
        out = tmp_path / "run"
        main(["solve", str(inst), "--out", str(out), *FAST_ARGS])
        return inst, out / "policy.json"

    def test_exact_flag(self, tmp_path, capsys):
        inst, policy = self._solved(tmp_path)
        report_path = tmp_path / "eval.json"
        code = main(["eval", str(inst), str(policy), "--exact", "--episodes", "1000",
                     "--seed", "5", "--out", str(report_path)])
        assert code == EXIT_OK
        doc = json.loads(report_path.read_text())
        assert doc["exact_value"] is not None
        assert doc["mc_mean"] is not None

    def test_out_report_adds_time_and_memory(self, tmp_path):
        inst, policy = self._solved(tmp_path)
        report_path = tmp_path / "eval.json"
        assert main(["eval", str(inst), str(policy), "--exact", "--episodes", "1000",
                     "--seed", "5", "--out", str(report_path)]) == EXIT_OK
        doc = json.loads(report_path.read_text())
        seconds, peak = doc.pop("seconds"), doc.pop("peak_rss_mb")
        assert seconds > 0
        assert peak is None or peak > 0
        model = envs.load_model(str(inst))
        expected = evaluate(model, deserialize(policy.read_text()), exact=True, episodes=1000, seed=5)
        assert doc == expected.to_dict()

    @pytest.mark.parametrize("settings, name", [
        (["--episodes", "0", "--horizon", "-5"], "horizon"),
        (["--episodes", "-1"], "episodes"),
    ])
    def test_bad_setting_fails_before_evaluation(self, tmp_path, capsys, settings, name):
        inst, policy = self._solved(tmp_path)
        capsys.readouterr()
        code = main(["eval", str(inst), str(policy), "--exact", *settings])
        assert code == EXIT_ERROR
        captured = capsys.readouterr()
        assert f"error: {name} must be an integer" in captured.err
        assert "exact value" not in captured.out

    def test_reproducible_mc(self, tmp_path):
        inst, policy = self._solved(tmp_path)
        outs = []
        for name in ("e1.json", "e2.json"):
            path = tmp_path / name
            main(["eval", str(inst), str(policy), "--episodes", "5000", "--seed", "9",
                  "--out", str(path)])
            outs.append(json.loads(path.read_text()))
        assert outs[0]["mc_mean"] == outs[1]["mc_mean"]

    def test_agent_count_mismatch_is_schema_error(self, tmp_path):
        inst, _ = self._solved(tmp_path)
        bad = tmp_path / "bad-policy.json"
        bad.write_text('{"agents": [{"initial": 0, "nodes": [{"action": 0, "fallback": 0, "transitions": {}}]}]}')
        assert main(["eval", str(inst), str(bad)]) == EXIT_ERROR

    def test_action_out_of_space_is_schema_error(self, tmp_path):
        inst, _ = self._solved(tmp_path)
        bad = tmp_path / "bad-policy.json"
        doc = {"agents": [
            {"initial": 0, "nodes": [{"action": 9, "fallback": 0, "transitions": {}}]},
            {"initial": 0, "nodes": [{"action": 0, "fallback": 0, "transitions": {}}]},
        ]}
        bad.write_text(json.dumps(doc))
        assert main(["eval", str(inst), str(bad)]) == EXIT_ERROR


class TestBench:
    def test_matrix_rows_and_aggregates(self, tmp_path):
        inst = _gen_instance(tmp_path)
        out = tmp_path / "bench.csv"
        code = main([
            "bench", "--instance", str(inst), "--algos", "idpp,init-only",
            "--seeds", "2", "--out", str(out),
            "--epsilon", "1e-3", "--node-budget", "800", "--max-rounds", "3",
        ])
        assert code == EXIT_OK
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        runs = [r for r in rows if r["kind"] == "run"]
        aggs = [r for r in rows if r["kind"] == "aggregate"]
        assert len(runs) == 4  # 2 seeds x 2 algos
        assert len(aggs) == 2  # one per algo
        for agg in aggs:
            assert agg["exact_mean"] != ""
            assert agg["seconds_mean"] != ""

    def test_unknown_algo_is_error(self, tmp_path):
        inst = _gen_instance(tmp_path)
        assert main(["bench", "--instance", str(inst), "--algos", "magic"]) == EXIT_ERROR

    @pytest.mark.parametrize("flag, value, field", [
        ("--seeds", "0", "seeds"), ("--seeds", "-3", "seeds"), ("--workers", "0", "workers"),
        ("--workers", "-1", "workers"), ("--algos", "", "algos"), ("--algos", " , ", "algos"),
    ])
    def test_empty_matrix_is_error(self, tmp_path, capsys, flag, value, field):
        inst = _gen_instance(tmp_path)
        out = tmp_path / "bench.csv"
        assert main(["bench", "--instance", str(inst), "--out", str(out), flag, value]) == EXIT_ERROR
        assert capsys.readouterr().err.startswith(f"error: {field} must")
        assert not out.exists()

    def test_parallel_workers_match_sequential(self, tmp_path):
        inst = _gen_instance(tmp_path, edges=2)
        args = ["bench", "--instance", str(inst), "--algos", "init-only", "--seeds", "2",
                "--node-budget", "400", "--epsilon", "1e-2"]
        out_seq, out_par = tmp_path / "seq.csv", tmp_path / "par.csv"
        assert main([*args, "--out", str(out_seq)]) == EXIT_OK
        assert main([*args, "--out", str(out_par), "--workers", "2"]) == EXIT_OK

        def values(path):
            with open(path) as fh:
                return [(r["kind"], r["seed"], r["exact_value"]) for r in csv.DictReader(fh)]

        assert values(out_seq) == values(out_par)

    def test_failed_cells_are_rows_for_any_worker_count(self, tmp_path):
        inst = _gen_instance(tmp_path, edges=2)
        args = ["bench", "--instance", str(inst), "--algos", "idpp,init-only", "--seeds", "2",
                "--state-cap", "10"]
        out_seq, out_par = tmp_path / "seq.csv", tmp_path / "par.csv"
        assert main([*args, "--out", str(out_seq), "--workers", "1"]) == EXIT_OK
        assert main([*args, "--out", str(out_par), "--workers", "2"]) == EXIT_OK
        with open(out_seq) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4
        assert all(r["converged"] == "error:ResourceLimitError" for r in rows)
        assert out_seq.read_text() == out_par.read_text()
