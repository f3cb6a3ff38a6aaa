from pathlib import Path

import numpy as np
import pytest

from iesgame.lp_io import write_lp
from iesgame.model_ir import ModelIR, PwlObjTerm

BENCH_INPUTS = Path(__file__).resolve().parents[1] / "bench" / "inputs"


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

    @pytest.mark.parametrize("with_pwl", [False, True], ids=["plain", "pwl"])
    def test_compile_validates_once(self, monkeypatch, with_pwl):
        # `lower_pwl` validates the model it rewrites, so compiling walks
        # the rows once either way, and still refuses a dangling reference
        ir = tiny_model()
        if with_pwl:
            ir.add_obj_pwl(PwlObjTerm("x", (0.0, 2.0, 4.0),
                                      (0.0, -4.0, -16.0)))
        calls = []
        validate = ModelIR.validate

        def spy(model):
            calls.append(model)
            validate(model)

        monkeypatch.setattr(ModelIR, "validate", spy)
        ir.compile()
        assert len(calls) == 1
        ir.add_row("bad", {"ghost": 1.0}, "<=", 1.0)
        with pytest.raises(ValueError, match="ghost"):
            ir.compile()
        if with_pwl:
            with pytest.raises(ValueError, match="ghost"):
                ir.lower_pwl()

    def test_constant_row_rejected(self):
        ir = tiny_model()
        with pytest.raises(ValueError):
            ir.add_row("const", {"x": 0.0}, "<=", 1.0)

    def test_objective_evaluation(self):
        ir = tiny_model()
        ir.obj_const = 3.0
        assert ir.compile().objective([2.0, 1.0]) == pytest.approx(3.0 + 2.0)


def refusal(call) -> str:
    with pytest.raises(ValueError) as info:
        call()
    return str(info.value)


class TestArrayFirst:
    @pytest.mark.parametrize("block, single", [
        # a family added with add_block, and its first bad column alone
        (("a b", 2, 0.0, 1.0), ("a b_0", 0.0, 1.0)),
        (("a\tb", 2, 0.0, 1.0), ("a\tb_0", 0.0, 1.0)),
        (("x", 3, 0.0, [1.0, np.inf, 2.0]), ("x_1", 0.0, np.inf)),
        (("x", 3, [0.0, np.nan, 0.0], 1.0), ("x_1", np.nan, 1.0)),
        (("x", 3, [0.0, 2.0, 3.0], 1.0), ("x_1", 2.0, 1.0)),
    ])
    def test_block_refuses_as_add_variable(self, block, single):
        ir = tiny_model()
        message = refusal(lambda: ir.add_block(*block))
        assert message == refusal(lambda: tiny_model().add_variable(*single))
        assert list(ir.variables) == ["x", "b"]  # nothing added

    def test_duplicates_refused_as_add_variable(self):
        ir = tiny_model()
        ir.add_variable("x_1", 0.0, 1.0)
        message = refusal(lambda: ir.add_block("x", 3, 0.0, 1.0))
        assert message == refusal(lambda: ir.add_variable("x_1", 0.0, 1.0))
        assert message == "variable x_1 declared twice"
        assert refusal(lambda: ir.add_columns(["u", "v", "u"], 0.0, 1.0)) \
            == "variable u declared twice"
        assert refusal(lambda: ir.add_columns([""], 0.0, 1.0)) \
            == refusal(lambda: ir.add_variable("", 0.0, 1.0))
        assert list(ir.variables) == ["x", "b", "x_1"]

    def test_curvature_names_the_one_bad_term(self):
        # 60 concave terms with 3 to 9 breakpoints and convex terms 37 and
        # 50 among them: the batched check names the first one's variable
        ir = ModelIR("many", "max")
        for j in range(62):
            var = ir.add_variable(f"v{j}", 0.0, 4.0)
            bps = tuple(np.linspace(0.0, 4.0, 3 + j % 7))
            sign = 1.0 if j in (37, 50) else -1.0
            ir.add_obj_pwl(PwlObjTerm(var, bps, tuple(sign * b * b for b in bps)))
        with pytest.raises(ValueError, match="PWL term on v37 is not concave"):
            ir.lower_pwl()
        del ir.obj_pwl[50], ir.obj_pwl[37]
        assert len(ir.lower_pwl().rows) == 60

    def test_row_keeps_its_column_order(self):
        ir = ModelIR("order", "max")
        ir.add_block("v", 4, 0.0, 1.0)
        ir.add_row("r", {"v_2": 1.0, "v_0": 2.0, "v_3": 0.0, "v_1": 3.0}, "<=", 5.0)
        ir.add_rows(2, [("f", [(["v_3", "v_1"], 1.0), (["v_0", "v_0"], [4.0, 0.0]),
                               (["v_2", "v_2"], 5.0)], ">=", [1.0, 2.0])])
        a = ir.compile().a
        assert a.indices.tolist() == [2, 0, 1, 3, 0, 2, 1, 2]
        assert a.data.tolist() == [1.0, 2.0, 3.0, 1.0, 4.0, 5.0, 1.0, 5.0]
        assert a.indptr.tolist() == [0, 3, 6, 8]

    def test_families_match_rows_added_one_by_one(self):
        # rows of families added together interleave period by period,
        # with add_row's zero dropping and refusals; add_row_list adds
        # the same rows in one call
        one, many = ModelIR("same", "max"), ModelIR("same", "max")
        for ir in (one, many):
            ir.add_block("p", 3, 0.0, 2.0)
            ir.add_block("q", 3, -1.0, 1.0)
        up = [0.5, 0.0, 1.5]
        for t in range(3):
            one.add_row(f"a_{t}", {f"p_{t}": 1.0, f"q_{t}": up[t]}, "<=", 2.0)
            one.add_row(f"b_{t}", {f"q_{t}": -1.0}, "==", float(t))
        many.add_rows(3, [("a", [(["p_0", "p_1", "p_2"], 1.0),
                                 (["q_0", "q_1", "q_2"], up)], "<=", 2.0),
                          ("b", [(["q_0", "q_1", "q_2"], -1.0)], "==", [0, 1, 2])])
        listed = ModelIR("same", "max")
        listed.add_block("p", 3, 0.0, 2.0)
        listed.add_block("q", 3, -1.0, 1.0)
        listed.add_row_list([(row.name, row.coeffs, row.sense, row.rhs)
                             for row in one.rows])
        assert write_lp(many) == write_lp(one) == write_lp(listed)
        assert many.rows == one.rows == listed.rows
        assert refusal(lambda: many.add_rows(1, [("z", [(["p_0"], 0.0)], "<=", 1.0)])) \
            == refusal(lambda: one.add_row("z_0", {"p_0": 0.0}, "<=", 1.0))
        assert refusal(lambda: many.add_rows(3, [("a", [(["p_0"] * 3, 1.0)], "<=", 1.0)])) \
            == "row a_0 declared twice"


class TestPwlLowering:
    def test_concave_term_lowers_for_max(self):
        ir = ModelIR("pwl", "max")
        ir.add_variable("x", 0.0, 4.0)
        bps = (0.0, 2.0, 4.0)
        ir.add_obj_pwl(PwlObjTerm("x", bps, tuple(-v * v for v in bps)))
        low = ir.lower_pwl()
        assert not low.obj_pwl
        assert [n for n in low.variables if n != "x"] == ["pwl_d_0_x_0",
                                                          "pwl_d_0_x_1"]
        assert low.variables["pwl_d_0_x_1"].ub == 2.0
        assert low.obj_linear == {"pwl_d_0_x_0": -2.0, "pwl_d_0_x_1": -6.0}
        (link,) = low.rows
        assert link.name == "pwl_link_0_x" and link.rhs == 0.0
        assert link.coeffs == {"pwl_d_0_x_0": 1.0, "pwl_d_0_x_1": 1.0,
                               "x": -1.0}

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
        assert compiled.var_names == ["x", "pwl_d_0_x_0", "pwl_d_0_x_1"]
        assert compiled.objective([1.0, 1.0, 0.0]) == pytest.approx(-2.0)
        # a full first segment plus half the second: chord value -10
        assert compiled.objective([3.0, 2.0, 1.0]) == pytest.approx(-10.0)

    @pytest.mark.parametrize("sense, sign, x_bounds", [
        ("max", -1.0, (-1.0, 6.0)),  # concave term under max
        ("min", 1.0, (-1.0, 6.0)),   # convex term under min
        ("max", -1.0, (1.3, 4.2)),   # bounds inside the breakpoint range
    ])
    def test_lowering_is_exact_at_fixed_points(self, sense, sign, x_bounds):
        """With x fixed, the lowered model's optimum is the chord value."""
        from iesgame.solve_engine import ScipyMilpBackend
        bps = np.array([-1.0, 0.5, 1.0, 2.5, 4.0, 6.0])
        vals = sign * (bps ** 2 - 3.0 * bps + 1.0)
        rng = np.random.default_rng(7)
        for x in rng.uniform(*x_bounds, size=6):
            ir = ModelIR("exact", sense)
            ir.add_variable("x", *x_bounds)
            ir.add_row("fix", {"x": 1.0}, "==", float(x))
            ir.add_obj_pwl(PwlObjTerm("x", tuple(bps), tuple(vals)))
            res = ScipyMilpBackend().solve(ir, 10.0, 1e-9)
            assert res.values["x"] == pytest.approx(x, abs=1e-12)
            assert res.objective == pytest.approx(np.interp(x, bps, vals),
                                                  abs=1e-9)

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


@pytest.mark.parametrize("case, sizes", [
    ("case1_like", (2521, 1204, 4704, 72)),
    ("case2_real", (2113, 1108, 4056, 72)),
])
def test_mode3_compiled_size(case, sizes):
    """Columns, rows, nonzeros and binaries of the mode-3 program: a
    change to any formulation or to the PWL lowering shows here."""
    from iesgame.config import load_scenario
    from iesgame.scenario_cli import build_bundle
    m = build_bundle(load_scenario(BENCH_INPUTS / f"{case}.json"), 3).ir.compile()
    assert (len(m.var_names), m.a.shape[0], m.a.nnz,
            int(m.integrality.sum())) == sizes
