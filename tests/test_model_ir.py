import numpy as np
import pytest

from iesgame.model_ir import ModelIR, PwlObjTerm


def tiny_model():
    ir = ModelIR("tiny", "max")
    ir.add_variable("x", 0.0, 4.0)
    ir.add_variable("b", 0.0, 1.0, binary=True)
    ir.add_obj_linear("x", 1.0)
    ir.add_row("cap", {"x": 1.0, "b": 2.0}, "<=", 5.0)
    return ir


class TestConstruction:
    def test_duplicate_variable(self):
        ir = tiny_model()
        with pytest.raises(ValueError):
            ir.add_variable("x", 0.0, 1.0)

    def test_duplicate_row(self):
        ir = tiny_model()
        with pytest.raises(ValueError):
            ir.add_row("cap", {"x": 1.0}, "<=", 1.0)

    def test_infinite_bounds_rejected(self):
        ir = ModelIR()
        with pytest.raises(ValueError):
            ir.add_variable("y", 0.0, float("inf"))

    def test_inverted_bounds_rejected(self):
        ir = ModelIR()
        with pytest.raises(ValueError):
            ir.add_variable("y", 2.0, 1.0)

    def test_unknown_reference_caught(self):
        ir = tiny_model()
        ir.add_row("bad", {"ghost": 1.0}, "<=", 1.0)
        with pytest.raises(ValueError, match="ghost"):
            ir.validate()

    def test_constant_row_rejected(self):
        ir = tiny_model()
        with pytest.raises(ValueError):
            ir.add_row("const", {"x": 0.0}, "<=", 1.0)

    def test_objective_evaluation(self):
        ir = tiny_model()
        ir.obj_const = 3.0
        assert ir.compile().objective([2.0, 1.0]) == pytest.approx(3.0 + 2.0)


class TestPwlLowering:
    def test_concave_term_lowers_for_max(self):
        ir = ModelIR("pwl", "max")
        ir.add_variable("x", 0.0, 4.0)
        bps = (0.0, 2.0, 4.0)
        ir.add_obj_pwl(PwlObjTerm("x", bps, tuple(-v * v for v in bps)))
        low = ir.lower_pwl()
        assert not low.obj_pwl
        lam = [n for n in low.variables if n.startswith("lam_")]
        assert len(lam) == 3
        names = {r.name for r in low.rows}
        assert "pwl_sum_0_x" in names and "pwl_link_0_x" in names

    def test_convex_term_rejected_for_max(self):
        ir = ModelIR("pwl", "max")
        ir.add_variable("x", 0.0, 4.0)
        bps = (0.0, 2.0, 4.0)
        ir.add_obj_pwl(PwlObjTerm("x", bps, tuple(v * v for v in bps)))
        with pytest.raises(ValueError, match="concave"):
            ir.lower_pwl()

    def test_convex_term_lowers_for_min(self):
        ir = ModelIR("pwl", "min")
        ir.add_variable("x", 0.0, 4.0)
        bps = (0.0, 2.0, 4.0)
        ir.add_obj_pwl(PwlObjTerm("x", bps, tuple(v * v for v in bps)))
        assert not ir.lower_pwl().obj_pwl

    def test_interpolated_objective_matches(self):
        ir = ModelIR("pwl", "max")
        ir.add_variable("x", 0.0, 4.0)
        bps = (0.0, 2.0, 4.0)
        ir.add_obj_pwl(PwlObjTerm("x", bps, (0.0, -4.0, -16.0)))
        # x = 1 is halfway between the first two breakpoints; the chord
        # there gives -2 (not the exact -1)
        compiled = ir.compile()
        assert compiled.var_names == ["x", "lam_0_x_0", "lam_0_x_1", "lam_0_x_2"]
        assert compiled.objective([1.0, 0.5, 0.5, 0.0]) == pytest.approx(-2.0)

    def test_breakpoints_must_increase(self):
        with pytest.raises(ValueError):
            PwlObjTerm("x", (0.0, 0.0, 1.0), (0.0, 0.0, 1.0))


class TestLpRoundTrip:
    def test_pwl_model_solves_to_quadratic_optimum(self):
        # max 3x - x^2 on [0, 4]: true optimum 2.25 at x = 1.5
        from iesgame.solve_engine import ScipyMilpBackend
        ir = ModelIR("quad", "max")
        ir.add_variable("x", 0.0, 4.0)
        ir.add_variable("pad", 0.0, 1.0)
        ir.add_obj_linear("x", 3.0)
        bps = tuple(np.linspace(0.0, 4.0, 9))
        ir.add_obj_pwl(PwlObjTerm("x", bps, tuple(-v * v for v in bps)))
        ir.add_row("pad_row", {"pad": 1.0}, "<=", 1.0)
        res = ScipyMilpBackend().solve(ir, 10.0, 1e-9)
        # chord error bound: w^2/4 with w = 0.5
        assert res.objective == pytest.approx(2.25, abs=0.5 ** 2 / 4 + 1e-9)
