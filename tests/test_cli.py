import csv
import hashlib
import json
import math
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest
from scipy.optimize._highspy import _core as _highs

from conftest import toy_dict
from iesgame import game_model as gm
from iesgame import kkt_reformulation as kkt
from iesgame import prob_sequences as ps
from iesgame import scenario_cli as cli
from iesgame import solve_engine as se


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

    def test_infinite_limits_write_strict_json(self, toy_path, tmp_path,
                                               capsys):
        out_dir = tmp_path / "out"
        code = run_cli(["run", "--scenario", str(toy_path), "--mode", "1",
                        "--out", str(out_dir), "--time-limit", "inf",
                        "--gap", "inf", "--no-validate"])
        assert code == cli.EXIT_OK

        def refuse(token):
            raise ValueError(f"{token} is not RFC 8259 JSON")

        for text in ((out_dir / "summary.json").read_text(),
                     capsys.readouterr().out):
            summary = json.loads(text, parse_constant=refuse)
            assert summary["time_limit"] is None
            assert summary["gap_tolerance"] is None
        code = run_cli(["validate", "--scenario", str(toy_path),
                        "--run-dir", str(out_dir), "--mc-samples", "20000"])
        assert code == cli.EXIT_OK

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

    @pytest.mark.parametrize("units", ["tp_units", "chp_units"])
    def test_negative_quadratic_cost_is_schema_error(self, units, tmp_path):
        # a convex cost under maximization would need adjacency binaries
        # in its PWL secant; the scenario check refuses it instead
        data = toy_dict()
        data[units][0]["cost_a"] = -0.01
        path = tmp_path / "convex.json"
        path.write_text(json.dumps(data))
        code = run_cli(["run", "--scenario", str(path), "--mode", "3",
                        "--out", str(tmp_path / "o")])
        assert code == cli.EXIT_SCHEMA
        summary = json.loads((tmp_path / "o" / "summary.json").read_text())
        assert summary["status"] == "SCHEMA_ERROR"
        assert "cost_a" in summary["reason"]

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

    @pytest.mark.parametrize("flag, value", [
        ("--seed", "-1"), ("--gap", "-1"), ("--gap", "nan"),
        ("--time-limit", "-5"), ("--time-limit", "nan")])
    def test_bad_run_settings_refused_before_building(
            self, flag, value, toy_path, tmp_path, monkeypatch):
        # HiGHS would swap a bad gap or time limit for its defaults and a
        # negative seed would crash the Monte Carlo check after the solve;
        # refused before building, the older run's solution goes too
        out_dir = tmp_path / "o"
        argv = ["run", "--scenario", str(toy_path), "--out", str(out_dir),
                "--mc-samples", "20000"]
        assert run_cli(argv + ["--mode", "3"]) == cli.EXIT_OK

        def no_build(*args, **kwargs):
            raise AssertionError("built a model for a refused run")
        monkeypatch.setattr(cli, "build_bundle", no_build)
        assert run_cli(argv + ["--mode", "2", flag, value]) == cli.EXIT_SCHEMA
        assert sorted(p.name for p in out_dir.iterdir()) == ["summary.json"]
        summary = json.loads((out_dir / "summary.json").read_text())
        assert (summary["mode"], summary["status"]) == (2, "SCHEMA_ERROR")
        setting = flag[2:].replace("-", "_")
        assert summary["reason"].startswith(f"{setting}={value}")

    def test_time_limit_exit_code(self, case1_path, tmp_path):
        # no solve of the district-scale single-level program, not even of
        # its LP relaxation (about 15 ms), ends inside a zero time limit
        code = run_cli(["run", "--scenario", str(case1_path), "--mode", "3",
                        "--time-limit", "0", "--out", str(tmp_path / "o")])
        assert code == cli.EXIT_TIME_LIMIT
        summary = json.loads((tmp_path / "o" / "summary.json").read_text())
        assert summary["status"] == "TIME_LIMIT"


    def test_summary_reports_dual_bound_and_nodes(self, case1_path, tmp_path):
        out_dir = tmp_path / "o"
        code = run_cli(["run", "--scenario", str(case1_path), "--mode", "3",
                        "--out", str(out_dir), "--no-validate"])
        assert code == cli.EXIT_OK
        summary = json.loads((out_dir / "summary.json").read_text())
        # the relaxation of case1 mode 3 rounds to a MILP optimum, so no
        # branch-and-bound node is run
        assert summary["relaxation_exact"] is True
        assert summary["mip_node_count"] == 0
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

    def test_bad_settings_give_schema_error_rows(self, toy_path, tmp_path):
        out_dir = tmp_path / "cmp"
        code = run_cli(["compare", "--scenario", str(toy_path),
                        "--modes", "1,3", "--out", str(out_dir),
                        "--time-limit", "-1"])
        assert code == cli.EXIT_ERROR
        text = (out_dir / "comparison.csv").read_text()
        assert text.count("SCHEMA_ERROR") == 2

    def test_single_mode_degenerate_table(self, toy_path, tmp_path):
        out_dir = tmp_path / "cmp1"
        code = run_cli(["compare", "--scenario", str(toy_path),
                        "--modes", "3", "--out", str(out_dir),
                        "--mc-samples", "20000"])
        assert code == cli.EXIT_OK
        assert len((out_dir / "comparison.csv").read_text().splitlines()) == 2

    def test_malformed_modes_exit_code(self, toy_path, tmp_path, capsys):
        out_dir = tmp_path / "cmp"
        code = run_cli(["compare", "--scenario", str(toy_path),
                        "--modes", "1,x", "--out", str(out_dir)])
        assert code == cli.EXIT_SCHEMA
        err = capsys.readouterr().err
        assert "--modes" in err and len(err.strip().splitlines()) == 1
        assert not out_dir.exists()

    @pytest.mark.parametrize("modes", ["9", "0,3", "1,1"])
    def test_bad_mode_refused_at_parse(self, modes, toy_path, tmp_path,
                                       capsys):
        # a mode outside 1-4 would fail at build and a repeated one would
        # overwrite its run directory; both are refused before any run
        out_dir = tmp_path / "cmp"
        code = run_cli(["compare", "--scenario", str(toy_path),
                        "--modes", modes, "--out", str(out_dir)])
        assert code == cli.EXIT_SCHEMA
        err = capsys.readouterr().err
        assert "--modes" in err and len(err.strip().splitlines()) == 1
        assert not out_dir.exists()


    def test_refused_rerun_leaves_no_stale_table(self, toy_path, tmp_path):
        out_dir = tmp_path / "cmp"
        argv = ["compare", "--scenario", str(toy_path), "--out", str(out_dir),
                "--mc-samples", "20000", "--modes"]
        assert run_cli(argv + ["1,2"]) == cli.EXIT_OK
        assert (out_dir / "comparison.csv").exists()
        assert run_cli(argv + ["1,9"]) == cli.EXIT_SCHEMA
        assert not (out_dir / "comparison.csv").exists()

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

    def test_malformed_values_exit_code(self, toy_path, tmp_path, capsys):
        out_dir = tmp_path / "sw"
        code = run_cli(["sweep", "--scenario", str(toy_path),
                        "--param", "theta", "--values", "abc",
                        "--out", str(out_dir)])
        assert code == cli.EXIT_SCHEMA
        err = capsys.readouterr().err
        assert "--values" in err and len(err.strip().splitlines()) == 1
        assert not out_dir.exists()

    def test_duplicate_values_refused(self, toy_path, tmp_path, capsys):
        # 150 and 150.0 would both run into theta_150.0
        out_dir = tmp_path / "sw"
        code = run_cli(["sweep", "--scenario", str(toy_path),
                        "--param", "theta", "--values", "150,200,150.0",
                        "--out", str(out_dir)])
        assert code == cli.EXIT_SCHEMA
        err = capsys.readouterr().err
        assert "--values" in err and len(err.strip().splitlines()) == 1
        assert not out_dir.exists()

    def test_negative_seed_gives_schema_error_rows(self, toy_path, tmp_path):
        out_dir = tmp_path / "sw"
        code = run_cli(["sweep", "--scenario", str(toy_path), "--param",
                        "theta", "--values", "120,150", "--seed", "-2",
                        "--out", str(out_dir)])
        assert code == cli.EXIT_ERROR
        text = (out_dir / "sweep_theta.csv").read_text()
        assert text.count("SCHEMA_ERROR") == 2

    def test_bad_param_rejected(self, toy_path, tmp_path):
        with pytest.raises(SystemExit):
            run_cli(["sweep", "--scenario", str(toy_path),
                     "--param", "bogus", "--values", "1",
                     "--out", str(tmp_path)])


    def test_refused_rerun_leaves_no_stale_table(self, toy_path, tmp_path):
        out_dir = tmp_path / "sw"
        argv = ["sweep", "--scenario", str(toy_path), "--param", "theta",
                "--out", str(out_dir), "--mc-samples", "20000", "--values"]
        assert run_cli(argv + ["60"]) == cli.EXIT_OK
        assert (out_dir / "sweep_theta.csv").exists()
        assert run_cli(argv + ["60,abc"]) == cli.EXIT_SCHEMA
        assert not (out_dir / "sweep_theta.csv").exists()

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
        # theta 100 differs from the scenario file's 150, so validate
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

    def test_confidence_override_round_trip(self, toy_path, tmp_path,
                                            capsys):
        # the run's 0.8 differs from the scenario file's 0.9, so validate
        # must take the confidence from summary.json
        out_dir = tmp_path / "run"
        code = run_cli(["run", "--scenario", str(toy_path), "--mode", "3",
                        "--confidence", "0.8", "--out", str(out_dir),
                        "--mc-samples", "20000"])
        assert code == cli.EXIT_OK
        summary_path = out_dir / "summary.json"
        summary = json.loads(summary_path.read_text())
        assert summary["confidence"] == 0.8
        validate = ["validate", "--scenario", str(toy_path),
                    "--run-dir", str(out_dir), "--mc-samples", "20000"]
        assert run_cli(validate) == cli.EXIT_OK
        # reserves sized for 0.8 do not cover 0.95
        summary["confidence"] = 0.95
        summary_path.write_text(json.dumps(summary))
        capsys.readouterr()
        assert run_cli(validate) == cli.EXIT_VALIDATION
        payload = json.loads(capsys.readouterr().out)
        assert any(v["check"] == "reserve_coverage"
                   for v in payload["violations"])

    def test_failed_rerun_leaves_no_stale_solution(self, toy_path, tmp_path,
                                                   capsys):
        # a refused run into the directory of a finished one must not
        # leave the older run's solution beside its own failed summary
        out_dir = tmp_path / "run"
        argv = ["run", "--scenario", str(toy_path), "--mode", "3",
                "--out", str(out_dir)]
        assert run_cli(argv + ["--mc-samples", "20000"]) == cli.EXIT_OK
        assert run_cli(argv + ["--mc-samples", "5"]) == cli.EXIT_SCHEMA
        assert sorted(p.name for p in out_dir.iterdir()) == ["summary.json"]
        capsys.readouterr()
        code = run_cli(["validate", "--scenario", str(toy_path),
                        "--run-dir", str(out_dir), "--mc-samples", "20000"])
        assert code == cli.EXIT_SCHEMA
        assert "records no solution to revalidate (status SCHEMA_ERROR)" \
            in capsys.readouterr().err

    def test_failed_summary_refused(self, toy_path, toy_run):
        # a failure summary beside a solution left by an older run
        summary_path = toy_run / "summary.json"
        summary = json.loads(summary_path.read_text())
        summary_path.write_text(json.dumps(
            {"status": "INFEASIBLE", "mode": summary["mode"],
             "reason": "infeasible at stage full_model"}))
        with pytest.raises(ValueError, match=r"status INFEASIBLE"):
            cli.revalidate(str(toy_path), str(toy_run), 20000, 0)

    @pytest.mark.parametrize("text", ["[]", '"OPTIMAL"', "null", "3"])
    def test_summary_not_an_object_refused(self, text, toy_path, toy_run,
                                           capsys):
        (toy_run / "summary.json").write_text(text)
        code = run_cli(["validate", "--scenario", str(toy_path),
                        "--run-dir", str(toy_run), "--mc-samples", "20000"])
        assert code == cli.EXIT_SCHEMA
        assert "summary.json is not a JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize("bound", ["missing", None, math.nan, math.inf,
                                       -1e-3, "0.1", True])
    def test_unusable_pwl_error_bound_refused(self, bound, toy_path, toy_run,
                                              capsys):
        summary_path = toy_run / "summary.json"
        summary = json.loads(summary_path.read_text())
        if bound == "missing":
            del summary["pwl_error_bound"]
        else:
            summary["pwl_error_bound"] = bound
        summary_path.write_text(json.dumps(summary))  # NaN and inf as such
        code = run_cli(["validate", "--scenario", str(toy_path),
                        "--run-dir", str(toy_run), "--mc-samples", "20000"])
        assert code == cli.EXIT_SCHEMA
        assert "pwl_error_bound=" in capsys.readouterr().err

    @pytest.mark.parametrize("field", ["mode", "f1", "f2", "objective"])
    @pytest.mark.parametrize("value", [None, "3", True, math.inf])
    def test_unusable_summary_field_refused(self, field, value, toy_path,
                                            toy_run, capsys):
        # a non-finite float is written as null; neither it nor a string
        # or a boolean reaches the checks
        summary_path = toy_run / "summary.json"
        summary = json.loads(summary_path.read_text())
        summary[field] = value
        summary_path.write_text(json.dumps(summary))  # inf as such
        code = run_cli(["validate", "--scenario", str(toy_path),
                        "--run-dir", str(toy_run), "--mc-samples", "20000"])
        assert code == cli.EXIT_SCHEMA
        assert f"{field}=" in capsys.readouterr().err

    @pytest.mark.parametrize("field", ["theta", "confidence"])
    @pytest.mark.parametrize("value", [[1.0], True, "0.9", math.inf])
    def test_unusable_override_refused(self, field, value, toy_path, toy_run,
                                       capsys):
        # the run's theta and confidence override the scenario file's; a
        # list, a boolean, a string or an infinity is refused, not read as
        # a number
        summary_path = toy_run / "summary.json"
        summary = json.loads(summary_path.read_text())
        summary[field] = value
        summary_path.write_text(json.dumps(summary))  # inf as such
        code = run_cli(["validate", "--scenario", str(toy_path),
                        "--run-dir", str(toy_run), "--mc-samples", "20000"])
        assert code == cli.EXIT_SCHEMA
        assert f"{field}={value!r} is not a finite number" \
            in capsys.readouterr().err

    @pytest.mark.parametrize("field", ["theta", "confidence"])
    @pytest.mark.parametrize("value", [None, "missing"])
    def test_absent_override_falls_back_to_scenario(self, field, value,
                                                    toy_path, toy_run):
        # the toy run used the scenario file's values, so falling back to
        # them re-validates it
        summary_path = toy_run / "summary.json"
        summary = json.loads(summary_path.read_text())
        if value == "missing":
            del summary[field]
        else:
            summary[field] = value
        summary_path.write_text(json.dumps(summary))
        code = run_cli(["validate", "--scenario", str(toy_path),
                        "--run-dir", str(toy_run), "--mc-samples", "20000"])
        assert code == cli.EXIT_OK

    def test_non_finite_cell_flagged(self, toy_path, toy_run, capsys):
        # every p_tp_0 cell NaN: each is flagged, and so is every check it
        # enters, however it is combined; the NaN pipe columns of a run
        # without transport stay unflagged
        table = toy_run / "periods.csv"
        with table.open(newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert all(row["t_sw_0"] == "nan" for row in rows)
        with table.open("w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=rows[0].keys())
            writer.writeheader()
            writer.writerows({**row, "p_tp_0": "nan"} for row in rows)
        code = run_cli(["validate", "--scenario", str(toy_path),
                        "--run-dir", str(toy_run), "--mc-samples", "20000"])
        assert code == cli.EXIT_VALIDATION
        violations = json.loads(capsys.readouterr().out)["violations"]
        assert [v["detail"] for v in violations if v["check"] == "finite"] \
            == ["p_tp[0, 0]", "p_tp[0, 1]", "p_tp[0, 2]"]
        flagged = {v["check"] for v in violations}
        assert {"tp_bounds", "tp_reserve", "tp_ramp", "electric_balance"} <= flagged

    @pytest.mark.parametrize("recorded_bound", ["kept", 0.0])
    def test_objective_off_profit_flagged(self, recorded_bound, toy_path,
                                          toy_run, capsys):
        # the MILP objective may differ from the exact profit by the PWL
        # bound plus tolerance; a recorded 0 tightens the check, never
        # switches it off
        summary_path = toy_run / "summary.json"
        summary = json.loads(summary_path.read_text())
        if recorded_bound != "kept":
            summary["pwl_error_bound"] = recorded_bound
        summary["objective"] = (summary["f1"] + summary["pwl_error_bound"]
                                + 1e-3 * max(abs(summary["f1"]), 1.0) + 1.0)
        summary_path.write_text(json.dumps(summary))
        code = run_cli(["validate", "--scenario", str(toy_path),
                        "--run-dir", str(toy_run), "--mc-samples", "20000"])
        assert code == cli.EXIT_VALIDATION
        checks = [v["check"] for v in json.loads(capsys.readouterr().out)
                  ["violations"]]
        assert checks == ["pwl_gap"]

    def test_revalidate_builds_no_program(self, toy_path, tmp_path,
                                          monkeypatch):
        # every mode re-verifies from its run files alone, to the same
        # findings the run recorded
        run_dirs = {}
        for mode in cli.MODES:
            run_dirs[mode] = tmp_path / f"mode{mode}"
            out = cli.run_pipeline(cli.RunManifest(
                scenario=str(toy_path), mode=mode, out_dir=str(run_dirs[mode]),
                seed=4, mc_samples=20000))
            assert out.exit_code == cli.EXIT_OK

        def refuse(*args, **kwargs):
            raise AssertionError("revalidate built a program")

        monkeypatch.setattr(gm, "build_leader", refuse)
        for module in (kkt, cli, se):
            monkeypatch.setattr(module, "assemble_single_level", refuse)
        for mode, run_dir in run_dirs.items():
            report, _ = cli.revalidate(str(toy_path), str(run_dir), 20000, 4)
            recorded = json.loads((run_dir / "validation.json").read_text())
            assert json.loads(cli._json_text({
                "violations": [vars(v) for v in report.violations],
                "reserve_mc": report.reserve_mc})) == recorded, mode

    def test_missing_run_dir(self, toy_path, tmp_path):
        code = run_cli(["validate", "--scenario", str(toy_path),
                        "--run-dir", str(tmp_path / "nowhere")])
        assert code == cli.EXIT_SCHEMA

    @pytest.mark.parametrize("mode, column, check, detail", [
        (2, "t_sw_0", "temp_bounds", "pipe=0 t=0"),
        (4, "mu", "price_bounds", "t=0")])
    def test_wrong_schedule_reported(self, mode, column, check, detail,
                                     case2_path, tmp_path, capsys):
        # a supply temperature at the return temperature, or a price above
        # its band, is a wrong schedule: reported as one, not refused as an
        # unreadable run
        run_dir = tmp_path / "run"
        out = cli.run_pipeline(cli.RunManifest(
            scenario=str(case2_path), mode=mode, out_dir=str(run_dir),
            mc_samples=20000))
        assert out.exit_code == cli.EXIT_OK
        table = run_dir / "periods.csv"
        with table.open(newline="") as fh:
            rows = list(csv.DictReader(fh))
        mu_max = json.loads(case2_path.read_text())["prices"]["mu_max"]
        rows[0][column] = rows[0]["t_rw_0"] if column == "t_sw_0" else repr(mu_max + 1.0)
        with table.open("w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=rows[0].keys())
            writer.writeheader()
            writer.writerows(rows)
        code = run_cli(["validate", "--scenario", str(case2_path),
                        "--run-dir", str(run_dir), "--mc-samples", "20000"])
        assert code == cli.EXIT_VALIDATION
        violations = json.loads(capsys.readouterr().out)["violations"]
        assert (check, detail) in {(v["check"], v["detail"]) for v in violations}

    def test_short_row_refused(self, toy_path, toy_run, capsys):
        # a row cut to its first 5 cells is refused, naming the first
        # cell it lacks, rather than failing on the missing values
        table = toy_run / "periods.csv"
        lines = table.read_text().splitlines(keepends=True)
        lines[-1] = ",".join(lines[-1].split(",")[:5]) + "\n"
        table.write_text("".join(lines))
        code = run_cli(["validate", "--scenario", str(toy_path),
                        "--run-dir", str(toy_run), "--mc-samples", "20000"])
        assert code == cli.EXIT_SCHEMA
        assert "periods.csv row 2 has no shift_load cell" in capsys.readouterr().err

    @pytest.mark.parametrize("kept", [1, 0])
    def test_short_period_table_refused(self, kept, toy_path, toy_run,
                                        capsys):
        # a table cut short, down to its header, names its row count
        # rather than failing on mismatched array shapes
        table = toy_run / "periods.csv"
        lines = table.read_text().splitlines(keepends=True)
        table.write_text("".join(lines[:1 + kept]))
        code = run_cli(["validate", "--scenario", str(toy_path),
                        "--run-dir", str(toy_run), "--mc-samples", "20000"])
        assert code == cli.EXIT_SCHEMA
        assert f"periods.csv has {kept} rows for a 3-period horizon" \
            in capsys.readouterr().err

    @pytest.fixture
    def toy_run(self, toy_path, tmp_path, capsys):
        out_dir = tmp_path / "run"
        code = run_cli(["run", "--scenario", str(toy_path), "--mode", "1",
                        "--out", str(out_dir), "--mc-samples", "20000"])
        assert code == cli.EXIT_OK
        capsys.readouterr()
        return out_dir

    def test_summary_describes_run(self, toy_path, toy_run):
        summary = json.loads((toy_run / "summary.json").read_text())
        assert summary["mc_samples"] == 20000
        assert summary["scenario_sha256"] == \
            hashlib.sha256(toy_path.read_bytes()).hexdigest()
        assert set(summary["versions"]) == {"iesgame", "python", "numpy",
                                            "scipy", "highs"}
        assert summary["versions"]["python"] == sys.version.split()[0]
        assert summary["versions"]["highs"] == _highs._Highs().version()

    def test_summary_records_solve_overrides(self, toy_path, tmp_path):
        out_dir = tmp_path / "run"
        code = run_cli(["run", "--scenario", str(toy_path), "--mode", "1",
                        "--out", str(out_dir), "--no-validate",
                        "--gap", "1e-3", "--time-limit", "60"])
        assert code == cli.EXIT_OK
        summary = json.loads((out_dir / "summary.json").read_text())
        assert (summary["gap_tolerance"], summary["time_limit"]) == (1e-3, 60.0)

    def test_matching_scenario_hash_validates(self, toy_path, toy_run):
        code = run_cli(["validate", "--scenario", str(toy_path),
                        "--run-dir", str(toy_run), "--mc-samples", "20000"])
        assert code == cli.EXIT_OK

    def test_changed_scenario_refused(self, toy_path, toy_run, capsys):
        # the same scenario, reformatted: equal content, other bytes
        toy_path.write_text(json.dumps(json.loads(toy_path.read_text()),
                                       indent=1))
        code = run_cli(["validate", "--scenario", str(toy_path),
                        "--run-dir", str(toy_run), "--mc-samples", "20000"])
        assert code == cli.EXIT_SCHEMA
        assert "sha256" in capsys.readouterr().err

    def test_run_dir_without_hash_validates(self, toy_path, toy_run):
        summary_path = toy_run / "summary.json"
        summary = json.loads(summary_path.read_text())
        for key in ("scenario_sha256", "mc_samples", "versions"):
            del summary[key]
        summary_path.write_text(json.dumps(summary))
        toy_path.write_text(toy_path.read_text() + "\n")
        code = run_cli(["validate", "--scenario", str(toy_path),
                        "--run-dir", str(toy_run), "--mc-samples", "20000"])
        assert code == cli.EXIT_OK


class TestDrawsAhead:
    """`run_pipeline` and `revalidate` make the Monte Carlo draws on a
    helper thread that lives only for the call, on every path out."""

    @pytest.fixture
    def helpers(self, monkeypatch):
        threads = []
        reserve_draws = se.reserve_draws

        def recorded(*args):
            threads.append(threading.get_ident())
            return reserve_draws(*args)
        monkeypatch.setattr(se, "reserve_draws", recorded)
        return threads

    @pytest.mark.parametrize("fixed_load, code, drawn", [
        ([1.4, 1.8, 1.6], cli.EXIT_OK, 1),
        ([1.4, 3.0, 1.6], cli.EXIT_SCHEMA, 1),  # refused while building
        ([1.45, 2.2, 1.6], cli.EXIT_INFEASIBLE, 1),
        (None, cli.EXIT_SCHEMA, 0),  # a scenario file that is no JSON
    ], ids=["ok", "build_error", "infeasible", "unreadable"])
    def test_run_joins_its_helper(self, fixed_load, code, drawn, tmp_path,
                                  helpers):
        data = toy_dict()
        data["fixed_load_mw"] = fixed_load
        path = tmp_path / "toy.json"
        path.write_text(json.dumps(data) if fixed_load else "{ not json")
        before = threading.active_count()
        out = cli.run_pipeline(cli.RunManifest(
            scenario=str(path), mode=2, out_dir=str(tmp_path / "o"),
            mc_samples=20_000))
        assert out.exit_code == code
        assert threading.active_count() == before
        assert len(helpers) == drawn
        assert threading.get_ident() not in helpers

    @pytest.mark.parametrize("short_row", [False, True])
    def test_validate_joins_its_helper(self, short_row, toy_path, tmp_path,
                                       helpers):
        out_dir = tmp_path / "run"
        assert cli.run_pipeline(cli.RunManifest(
            scenario=str(toy_path), mode=1, out_dir=str(out_dir),
            run_validation=False)).exit_code == cli.EXIT_OK
        if short_row:
            table = out_dir / "periods.csv"
            lines = table.read_text().splitlines(keepends=True)
            lines[-1] = ",".join(lines[-1].split(",")[:5]) + "\n"
            table.write_text("".join(lines))
        before = threading.active_count()
        code = run_cli(["validate", "--scenario", str(toy_path),
                        "--run-dir", str(out_dir), "--mc-samples", "20000"])
        assert code == (cli.EXIT_SCHEMA if short_row else cli.EXIT_OK)
        assert threading.active_count() == before
        assert len(helpers) == 1 and helpers[0] != threading.get_ident()

    def test_concurrent_validations_keep_their_own_draws(self, case2_path,
                                                         tmp_path):
        # four callers at once, each with its helper, switching threads
        # every microsecond: every report equals the one made alone
        out_dir = tmp_path / "run"
        assert cli.run_pipeline(cli.RunManifest(
            scenario=str(case2_path), mode=3, out_dir=str(out_dir),
            run_validation=False)).exit_code == cli.EXIT_OK
        seeds, got = range(30, 34), {}

        def call(seed):
            got[seed] = cli.revalidate(str(case2_path), str(out_dir), 20_000,
                                       seed)[0].reserve_mc
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            callers = [threading.Thread(target=call, args=(s,))
                       for s in seeds]
            for caller in callers:
                caller.start()
            for caller in callers:
                caller.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(caller.is_alive() for caller in callers)
        for s in seeds:
            alone = cli.revalidate(str(case2_path), str(out_dir), 20_000, s)
            assert got[s] == alone[0].reserve_mc

    @pytest.mark.parametrize("validate", [False, True])
    def test_nothing_drawn_without_validation(self, validate, case2_path,
                                              tmp_path, monkeypatch):
        draws = []

        def counted(*args):
            draws.append(len(args[0]))
            return mc_draws(*args)
        mc_draws = ps.mc_draws
        monkeypatch.setattr(ps, "mc_draws", counted)
        monkeypatch.setattr(se, "mc_draws", counted)
        out = cli.run_pipeline(cli.RunManifest(
            scenario=str(case2_path), mode=1, out_dir=str(tmp_path),
            run_validation=validate))
        assert out.exit_code == cli.EXIT_OK
        # with validation, one draw of the whole day, made ahead
        assert draws == ([24] if validate else [])


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

    @pytest.mark.parametrize("steps", [
        ["--step", "0"], ["--step", "-1"], ["--step", "nan"],
        ["--step", "inf"], ["--step", "18.5", "--gamma-step", "0"],
        ["--step", "18.5", "--gamma-step", "-9.5"]])
    def test_bad_step_exit_code(self, steps, toy_path, capsys):
        code = run_cli(["oracle", "--scenario", str(toy_path)] + steps)
        assert code == cli.EXIT_SCHEMA
        assert "must be a positive finite number" in capsys.readouterr().err

    @pytest.mark.parametrize("steps, exit_code", [
        (["--step", "7.0"], cli.EXIT_ORACLE_SIZE),
        (["--step", "0"], cli.EXIT_SCHEMA)])
    def test_failed_rerun_leaves_no_stale_result(self, steps, exit_code,
                                                 toy_path, tmp_path):
        out_dir = tmp_path / "orc"
        argv = ["oracle", "--scenario", str(toy_path), "--out", str(out_dir)]
        assert run_cli(argv + ["--step", "18.5", "--gamma-step", "9.5"]) \
            == cli.EXIT_OK
        assert (out_dir / "oracle.json").exists()
        assert run_cli(argv + steps) == exit_code
        assert not (out_dir / "oracle.json").exists()


class TestEnvOverrides:
    def test_env_seed_used(self, toy_path, tmp_path, monkeypatch):
        monkeypatch.setenv("IES_SEED", "33")
        out_dir = tmp_path / "env"
        run_cli(["run", "--scenario", str(toy_path), "--mode", "1",
                 "--out", str(out_dir), "--mc-samples", "20000"])
        summary = json.loads((out_dir / "summary.json").read_text())
        assert summary["seed"] == 33

    def test_env_negative_seed_refused(self, toy_path, tmp_path,
                                       monkeypatch):
        monkeypatch.setenv("IES_SEED", "-1")
        out_dir = tmp_path / "env"
        code = run_cli(["run", "--scenario", str(toy_path), "--mode", "1",
                        "--out", str(out_dir), "--mc-samples", "20000"])
        assert code == cli.EXIT_SCHEMA
        summary = json.loads((out_dir / "summary.json").read_text())
        assert "seed=-1" in summary["reason"]

    @pytest.mark.parametrize("var, value", [("MC_SAMPLES", "abc"),
                                            ("SEED", "1.5")])
    def test_malformed_value_run(self, var, value, toy_path, tmp_path,
                                 monkeypatch, capsys):
        monkeypatch.setenv(f"IES_{var}", value)
        code = run_cli(["run", "--scenario", str(toy_path),
                        "--out", str(tmp_path / "o")])
        assert code == cli.EXIT_SCHEMA
        err = capsys.readouterr().err
        assert f"IES_{var}" in err and len(err.strip().splitlines()) == 1
        assert not (tmp_path / "o").exists()

    def test_malformed_value_validate(self, toy_path, tmp_path, monkeypatch,
                                      capsys):
        monkeypatch.setenv("IES_SEED", "1.5")
        code = run_cli(["validate", "--scenario", str(toy_path),
                        "--run-dir", str(tmp_path)])
        assert code == cli.EXIT_SCHEMA
        assert "IES_SEED" in capsys.readouterr().err


def test_run_and_validate_leave_scipy_stats_unimported(toy_path, tmp_path):
    # scipy.stats costs about half a second to import, and neither the
    # solve nor the Monte Carlo check needs it; case2 mode 1 covers the
    # PV laws, which toy3 lacks
    case2 = Path(cli.__file__).parent / "scenarios" / "case2_real.json"
    script = f"""
import sys
from iesgame import scenario_cli as cli
for scenario, mode in (({str(toy_path)!r}, "3"), ({str(case2)!r}, "1")):
    out = {str(tmp_path)!r} + "/m" + mode
    assert cli.main(["run", "--scenario", scenario, "--mode", mode,
                     "--out", out, "--mc-samples", "20000"]) == 0
    assert cli.main(["validate", "--scenario", scenario, "--run-dir", out,
                     "--mc-samples", "20000"]) == 0
print("scipy.stats" in sys.modules)
"""
    src = Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip().splitlines()[-1] == "False"
