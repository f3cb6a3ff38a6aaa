"""Self-tests of the benchmark: each workload at minimal size reports every
metric named in BENCHMARK.json, a wrong reference objective is counted as
a failed op, and the entry point refuses to run without a source tree.

    python3 -m pytest bench/test_bench.py
"""
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
MINIMAL = workloads.Size(pairs=(("case1_like", 2),), n_deviations=2,
                         setup_repeats=1)


@pytest.mark.parametrize("trace", [False, True], ids=["e2e", "traced"])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_minimal_run_reports_every_metric(name, trace, tmp_path):
    run = workloads.run(name, seed=1, seconds=0, trace=trace,
                        scratch=tmp_path, import_s=0.0, size=MINIMAL)
    assert run.attempted >= 1
    assert run.failed == 0
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(run.metrics) == {m["name"] for m in declared}
    for metric in declared:
        assert workloads.unit(metric["name"]) == metric["unit"]
        assert math.isfinite(run.metrics[metric["name"]])


def test_model_sizes_match_known_case2_mode3():
    sizes = workloads.model_sizes()
    assert [sizes[f"model_ir.{k}.case2_real.m3"]
            for k in ("vars", "rows", "nnz", "binaries")] == [3510, 2361,
                                                              14657, 1085]


def test_wrong_reference_objective_fails_ops(tmp_path):
    refs = workloads.reference_objectives()
    refs["case1_like.m2"] *= 1.01
    run = workloads.run("run-modes", seed=1, seconds=0, trace=False,
                        scratch=tmp_path, import_s=0.0, size=MINIMAL,
                        references=refs)
    assert run.failed_ops_ratio > 0


def test_tracer_restores_every_binding(tmp_path):
    from scipy.optimize import milp

    from iesgame import scenario_cli, solve_engine
    from iesgame.config import ScenarioConfig
    from iesgame.kkt_reformulation import assemble_single_level

    workloads.run("run-modes", seed=1, seconds=0, trace=True,
                  scratch=tmp_path, import_s=0.0, size=MINIMAL)
    assert solve_engine.milp is milp
    assert scenario_cli.assemble_single_level is assemble_single_level
    assert solve_engine.assemble_single_level is assemble_single_level
    assert not hasattr(ScenarioConfig.joint_sequence, "__wrapped__")


def test_refuses_to_run_without_source_tree(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", "revalidate",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
