import json
from pathlib import Path

import pytest

from conftest import toy_dict
from iesgame import scenario_cli as cli


def run_cli(argv):
    return cli.main(argv)


class TestRunVerb:
    def test_mode3_run_writes_bundle(self, toy_path, tmp_path, capsys):
        out_dir = tmp_path / "out"
        code = run_cli(["run", "--scenario", str(toy_path), "--mode", "3",
                        "--out", str(out_dir), "--mc-samples", "20000"])
        assert code == cli.EXIT_OK
        summary = json.loads((out_dir / "summary.json").read_text())
        assert summary["status"] == "OPTIMAL"
        assert summary["validation_passed"] is True
        assert (out_dir / "periods.csv").exists()
        assert (out_dir / "validation.json").exists()
        printed = json.loads(capsys.readouterr().out)
        assert printed["f1"] == summary["f1"]

    def test_summary_totals_match_period_table(self, toy_path, tmp_path):
        import csv
        out_dir = tmp_path / "out"
        run_cli(["run", "--scenario", str(toy_path), "--mode", "3",
                 "--out", str(out_dir), "--no-validate"])
        with (out_dir / "periods.csv").open(newline="") as fh:
            rows = list(csv.DictReader(fh))
        summary = json.loads((out_dir / "summary.json").read_text())
        absorbed = sum(float(r["p_res"]) for r in rows)
        assert absorbed == pytest.approx(summary["absorbed_renewables"],
                                         abs=1e-9)

    def test_schema_error_exit_code(self, tmp_path):
        bad = tmp_path / "broken.json"
        bad.write_text("{ not json")
        out_dir = tmp_path / "out"
        code = run_cli(["run", "--scenario", str(bad), "--out", str(out_dir)])
        assert code == cli.EXIT_SCHEMA
        summary = json.loads((out_dir / "summary.json").read_text())
        assert summary["status"] == "SCHEMA_ERROR"
        assert summary["reason"]

    def test_missing_field_exit_code(self, tmp_path):
        data = toy_dict()
        del data["confidence"]
        path = tmp_path / "incomplete.json"
        path.write_text(json.dumps(data))
        code = run_cli(["run", "--scenario", str(path),
                        "--out", str(tmp_path / "o")])
        assert code == cli.EXIT_SCHEMA

    def test_infeasible_exit_code(self, tmp_path):
        data = toy_dict()
        data["fixed_load_mw"] = [1.45, 2.2, 1.6]
        path = tmp_path / "tight.json"
        path.write_text(json.dumps(data))
        code = run_cli(["run", "--scenario", str(path), "--mode", "2",
                        "--out", str(tmp_path / "o")])
        assert code == cli.EXIT_INFEASIBLE
        summary = json.loads((tmp_path / "o" / "summary.json").read_text())
        assert "balance_with_relaxed_reserves" in summary["reason"]

    def test_static_infeasibility_is_schema_error(self, tmp_path):
        # capacity 2.5 MW against a 3.0 MW peak: refused while building
        data = toy_dict()
        data["fixed_load_mw"] = [1.4, 3.0, 1.6]
        path = tmp_path / "short.json"
        path.write_text(json.dumps(data))
        code = run_cli(["run", "--scenario", str(path), "--mode", "2",
                        "--out", str(tmp_path / "o")])
        assert code == cli.EXIT_SCHEMA
        summary = json.loads((tmp_path / "o" / "summary.json").read_text())
        assert "capacity" in summary["reason"]

    def test_rerun_same_seed_byte_identical(self, toy_path, tmp_path):
        dirs = [tmp_path / "a", tmp_path / "b"]
        for d in dirs:
            run_cli(["run", "--scenario", str(toy_path), "--mode", "3",
                     "--out", str(d), "--seed", "9", "--mc-samples", "20000"])
        assert (dirs[0] / "periods.csv").read_bytes() == \
            (dirs[1] / "periods.csv").read_bytes()

    def test_too_few_mc_samples_refused_before_solving(self, toy_path,
                                                       tmp_path, monkeypatch):
        def no_build(*args, **kwargs):
            raise AssertionError("built a model for a refused run")
        monkeypatch.setattr(cli, "build_bundle", no_build)
        out_dir = tmp_path / "o"
        code = run_cli(["run", "--scenario", str(toy_path), "--mode", "3",
                        "--out", str(out_dir), "--mc-samples", "100"])
        assert code == cli.EXIT_SCHEMA
        summary = json.loads((out_dir / "summary.json").read_text())
        assert summary["status"] == "SCHEMA_ERROR"
        assert "mc_samples=100" in summary["reason"]

    def test_unknown_backend(self, toy_path, tmp_path):
        code = run_cli(["run", "--scenario", str(toy_path),
                        "--backend", "nope", "--out", str(tmp_path / "o")])
        assert code == cli.EXIT_SCHEMA

    def test_time_limit_exit_code(self, case1_path, tmp_path):
        # the district-scale single-level program cannot prove optimality
        # inside 10 ms
        code = run_cli(["run", "--scenario", str(case1_path), "--mode", "3",
                        "--time-limit", "0.01", "--out", str(tmp_path / "o")])
        assert code == cli.EXIT_TIME_LIMIT
        summary = json.loads((tmp_path / "o" / "summary.json").read_text())
        assert summary["status"] == "TIME_LIMIT"


    def test_summary_reports_dual_bound_and_nodes(self, case1_path, tmp_path):
        out_dir = tmp_path / "o"
        code = run_cli(["run", "--scenario", str(case1_path), "--mode", "3",
                        "--out", str(out_dir), "--no-validate"])
        assert code == cli.EXIT_OK
        summary = json.loads((out_dir / "summary.json").read_text())
        nodes = summary["mip_node_count"]
        assert isinstance(nodes, int) and nodes >= 0
        # a maximization's dual bound sits at or above its objective
        objective, bound = summary["objective"], summary["mip_dual_bound"]
        assert bound >= objective - 1e-9 * abs(objective)
        assert bound - objective <= 1e-4 * abs(bound) + 1e-6


class TestCompareVerb:
    def test_two_modes_table(self, toy_path, tmp_path, capsys):
        out_dir = tmp_path / "cmp"
        code = run_cli(["compare", "--scenario", str(toy_path),
                        "--modes", "1,3", "--out", str(out_dir),
                        "--mc-samples", "20000"])
        assert code == cli.EXIT_OK
        lines = (out_dir / "comparison.csv").read_text().splitlines()
        assert len(lines) == 3  # header + one row per mode
        assert (out_dir / "mode1" / "summary.json").exists()
        assert (out_dir / "mode3" / "summary.json").exists()

    def test_partial_failure_keeps_table(self, tmp_path):
        # transport floor breaks mode 2 at build; mode 1 ignores pipelines
        data = toy_dict()
        data["pipelines"][0]["mass_flow_kg_s"] = 40.0
        path = tmp_path / "p.json"
        path.write_text(json.dumps(data))
        out_dir = tmp_path / "cmp"
        code = run_cli(["compare", "--scenario", str(path),
                        "--modes", "1,2", "--out", str(out_dir),
                        "--mc-samples", "20000"])
        assert code == cli.EXIT_ERROR
        text = (out_dir / "comparison.csv").read_text()
        assert "FAILED" in text
        rows = text.splitlines()
        assert len(rows) == 3

    def test_single_mode_degenerate_table(self, toy_path, tmp_path):
        out_dir = tmp_path / "cmp1"
        code = run_cli(["compare", "--scenario", str(toy_path),
                        "--modes", "3", "--out", str(out_dir),
                        "--mc-samples", "20000"])
        assert code == cli.EXIT_OK
        assert len((out_dir / "comparison.csv").read_text().splitlines()) == 2


class TestSweepVerb:
    def test_theta_sweep_monotone(self, toy_path, tmp_path):
        import csv
        out_dir = tmp_path / "sw"
        code = run_cli(["sweep", "--scenario", str(toy_path),
                        "--param", "theta", "--values", "100,200",
                        "--out", str(out_dir), "--mc-samples", "20000"])
        assert code == cli.EXIT_OK
        with (out_dir / "sweep_theta.csv").open(newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        assert float(rows[0]["total_heat_cut"]) >= float(
            rows[1]["total_heat_cut"]) - 1e-9

    def test_confidence_sweep_single_value(self, toy_path, tmp_path):
        out_dir = tmp_path / "sw1"
        code = run_cli(["sweep", "--scenario", str(toy_path),
                        "--param", "confidence", "--values", "0.9",
                        "--out", str(out_dir), "--mc-samples", "20000"])
        assert code == cli.EXIT_OK
        lines = (out_dir / "sweep_confidence.csv").read_text().splitlines()
        assert len(lines) == 2

    def test_bad_param_rejected(self, toy_path, tmp_path):
        with pytest.raises(SystemExit):
            run_cli(["sweep", "--scenario", str(toy_path),
                     "--param", "bogus", "--values", "1",
                     "--out", str(tmp_path)])


class TestValidateVerb:
    def test_round_trip(self, toy_path, tmp_path, capsys):
        out_dir = tmp_path / "run"
        run_cli(["run", "--scenario", str(toy_path), "--mode", "3",
                 "--out", str(out_dir), "--mc-samples", "20000"])
        capsys.readouterr()
        code = run_cli(["validate", "--scenario", str(toy_path),
                        "--run-dir", str(out_dir), "--mc-samples", "20000"])
        assert code == cli.EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["passed"] is True

    def test_sweep_output_round_trip(self, toy_path, tmp_path, capsys):
        # theta 100 differs from the scenario file's 150, so the rebuild
        # must take theta from summary.json
        out_dir = tmp_path / "sw"
        code = run_cli(["sweep", "--scenario", str(toy_path),
                        "--param", "theta", "--values", "100",
                        "--out", str(out_dir), "--mc-samples", "20000"])
        assert code == cli.EXIT_OK
        summary = json.loads((out_dir / "theta_100.0" / "summary.json")
                             .read_text())
        assert summary["theta"] == 100.0
        assert summary["n_segments"] == 8
        capsys.readouterr()
        code = run_cli(["validate", "--scenario", str(toy_path),
                        "--run-dir", str(out_dir / "theta_100.0"),
                        "--mc-samples", "20000"])
        assert code == cli.EXIT_OK
        assert json.loads(capsys.readouterr().out)["passed"] is True

    def test_segment_count_round_trip(self, toy_path, tmp_path, capsys):
        out_dir = tmp_path / "seg"
        run_cli(["run", "--scenario", str(toy_path), "--mode", "3",
                 "--segments", "2", "--out", str(out_dir), "--no-validate"])
        capsys.readouterr()
        code = run_cli(["validate", "--scenario", str(toy_path),
                        "--run-dir", str(out_dir), "--mc-samples", "20000"])
        assert code == cli.EXIT_OK

    def test_too_few_mc_samples_refused(self, toy_path, tmp_path, capsys):
        out_dir = tmp_path / "run"
        run_cli(["run", "--scenario", str(toy_path), "--mode", "3",
                 "--out", str(out_dir), "--no-validate"])
        capsys.readouterr()
        code = run_cli(["validate", "--scenario", str(toy_path),
                        "--run-dir", str(out_dir), "--mc-samples", "100"])
        assert code == cli.EXIT_SCHEMA
        assert "mc_samples=100" in capsys.readouterr().err

    def test_missing_run_dir(self, toy_path, tmp_path):
        code = run_cli(["validate", "--scenario", str(toy_path),
                        "--run-dir", str(tmp_path / "nowhere")])
        assert code == cli.EXIT_SCHEMA


class TestOracleVerb:
    def test_oracle_run(self, toy_path, tmp_path, capsys):
        code = run_cli(["oracle", "--scenario", str(toy_path),
                        "--step", "18.5", "--gamma-step", "9.5",
                        "--out", str(tmp_path / "orc")])
        assert code == cli.EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["n_evaluations"] > 0
        assert (tmp_path / "orc" / "oracle.json").exists()

    def test_oracle_size_refusal(self, tmp_path, toy_path):
        code = run_cli(["oracle", "--scenario", str(toy_path),
                        "--step", "7.0"])
        assert code == cli.EXIT_ORACLE_SIZE


class TestEnvOverrides:
    def test_env_seed_used(self, toy_path, tmp_path, monkeypatch):
        monkeypatch.setenv("IES_SEED", "33")
        out_dir = tmp_path / "env"
        run_cli(["run", "--scenario", str(toy_path), "--mode", "1",
                 "--out", str(out_dir), "--mc-samples", "20000"])
        summary = json.loads((out_dir / "summary.json").read_text())
        assert summary["seed"] == 33
