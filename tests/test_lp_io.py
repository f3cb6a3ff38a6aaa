import numpy as np
import pytest

from iesgame.lp_io import parse_solution, write_lp
from iesgame.model_ir import ModelIR, PwlObjTerm


def sample_ir():
    ir = ModelIR("sample", "max")
    ir.add_variable("x", 0.0, 4.0)
    ir.add_variable("y", -1.5, 3.0)
    ir.add_variable("b", 0.0, 1.0, binary=True)
    ir.add_obj_linear("x", 1.0)
    ir.add_obj_linear("y", -2.5)
    ir.add_row("cap", {"x": 1.0, "y": 1.0}, "<=", 5.0)
    ir.add_row("link", {"x": 1.0, "b": -4.0}, ">=", -2.0)
    ir.add_row("fix", {"y": 2.0}, "==", 1.0)
    return ir


class TestWriter:
    def test_structure(self):
        text = write_lp(sample_ir())
        assert text.startswith("\\ sample\nMaximize\n obj: 1 x - 2.5 y\n")
        assert " cap: 1 x + 1 y <= 5" in text
        assert " link: 1 x - 4 b >= -2" in text
        assert " fix: 2 y = 1" in text
        assert " -1.5 <= y <= 3" in text
        assert "Binaries\n b\nEnd" in text

    def test_byte_identical_across_builds(self):
        assert write_lp(sample_ir()) == write_lp(sample_ir())

    def test_quadratic_rejected(self):
        ir = sample_ir()
        ir.add_obj_quad("x", -1.0)
        with pytest.raises(ValueError, match="PWL"):
            write_lp(ir)

    def test_pwl_lowered_automatically(self):
        ir = sample_ir()
        ir.add_obj_pwl(PwlObjTerm("x", (0.0, 2.0, 4.0), (0.0, -4.0, -16.0)))
        text = write_lp(ir)
        assert "lam_0_x_0" in text

    def test_min_sense(self):
        ir = ModelIR("m", "min")
        ir.add_variable("x", 0.0, 1.0)
        ir.add_obj_linear("x", 1.0)
        ir.add_row("r", {"x": 1.0}, ">=", 0.5)
        assert "Minimize" in write_lp(ir)


class TestSolutionParser:
    def test_skips_headers_and_comments(self):
        text = """* Solver: AcmeMip 3.1 found OPTIMAL
# objective sections and notes
objective value = 9.5
\\ another comment
x 4.0
y = -1.25
b   1
status optimal
"""
        values = parse_solution(text, known={"x", "y", "b"})
        assert values == {"x": 4.0, "y": -1.25, "b": 1.0}

    def test_unknown_names_dropped(self):
        values = parse_solution("x 1\nslack_1 0.5\n", known={"x"})
        assert values == {"x": 1.0}

    def test_without_filter_keeps_pairs(self):
        values = parse_solution("x 1\nnoise not_a_number\n")
        assert values == {"x": 1.0}

    def test_empty_text(self):
        assert parse_solution("") == {}


class TestExternalBackend:
    def test_stub_solver_round_trip(self, tmp_path, monkeypatch):
        from iesgame.solve_engine import ExternalLpBackend
        stub = tmp_path / "stub.py"
        stub.write_text(
            "import sys\n"
            "lp, sol = sys.argv[1], sys.argv[2]\n"
            "assert open(lp).read().startswith('\\\\ sample')\n"
            "open(sol, 'w').write('* stub header\\nx 4\\ny 0.5\\nb 1\\n')\n")
        backend = ExternalLpBackend(f"python3 {stub} {{lp}} {{sol}}")
        res = backend.solve(sample_ir(), 30.0, 1e-4)
        assert res.status == "OPTIMAL"
        assert res.values["x"] == 4.0
        assert res.objective == pytest.approx(4.0 - 2.5 * 0.5)
        # a solution file carries no dual bound or node count
        assert res.bound is None and res.node_count is None

    @pytest.mark.parametrize("banner, status", [
        ("Status: TIME LIMIT reached", "TIME_LIMIT"),
        ("Status: UNBOUNDED", "UNBOUNDED"),
        ("Status: solver ERROR", "ERROR"),
        ("Status: INFEASIBLE", "INFEASIBLE"),
    ])
    def test_status_banner_reported(self, tmp_path, banner, status):
        from iesgame.solve_engine import ExternalLpBackend
        stub = tmp_path / "stub.py"
        stub.write_text(
            "import sys\n"
            f"open(sys.argv[2], 'w').write({banner!r} + '\\nx 4\\ny 0.5\\nb 1\\n')\n")
        backend = ExternalLpBackend(f"python3 {stub} {{lp}} {{sol}}")
        res = backend.solve(sample_ir(), 30.0, 1e-4)
        assert res.status == status
        assert not res.values

    def test_missing_variable_outside_zero_is_error(self, tmp_path):
        from iesgame.solve_engine import ExternalLpBackend
        ir = sample_ir()
        ir.add_variable("t_sw", 90.0, 100.0)
        ir.add_row("t_cap", {"t_sw": 1.0}, "<=", 95.0)
        stub = tmp_path / "stub.py"
        stub.write_text(
            "import sys\n"
            "open(sys.argv[2], 'w').write('x 4\\ny 0.5\\nb 1\\n')\n")
        backend = ExternalLpBackend(f"python3 {stub} {{lp}} {{sol}}")
        res = backend.solve(ir, 30.0, 1e-4)
        assert res.status == "ERROR"
        assert not res.values

    def test_missing_command_rejected(self, monkeypatch):
        from iesgame.solve_engine import ExternalLpBackend
        monkeypatch.delenv("IES_SOLVER_CMD", raising=False)
        with pytest.raises(ValueError, match="IES_SOLVER_CMD"):
            ExternalLpBackend()

    def test_env_selection(self, monkeypatch):
        from iesgame import solve_engine as se
        monkeypatch.setenv("IES_BACKEND", "scipy")
        assert se.get_backend().name == "scipy"
        monkeypatch.setenv("IES_BACKEND", "bogus")
        with pytest.raises(ValueError, match="bogus"):
            se.get_backend()
