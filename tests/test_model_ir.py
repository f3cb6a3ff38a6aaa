from pathlib import Path

import numpy as np
import pytest

from conftest import model_digest
from iesgame.kkt_reformulation import apply_pwl
from iesgame.model_ir import ModelIR

BENCH_INPUTS = Path(__file__).resolve().parents[1] / "bench" / "inputs"


def tiny_model():
    ir = ModelIR("tiny")
    ir.add_columns(["x"], 0.0, 4.0)
    ir.add_columns(["b"], 0.0, 1.0, binary=True)
    ir.add_obj_linear("x", 1.0)
    ir.add_row_list([("cap", {"x": 1.0, "b": 2.0}, "<=", 5.0)])
    return ir


class TestConstruction:
    def test_duplicate_variable(self):
        ir = tiny_model()
        with pytest.raises(ValueError):
            ir.add_columns(["x"], 0.0, 1.0)

    def test_duplicate_row(self):
        ir = tiny_model()
        with pytest.raises(ValueError):
            ir.add_row_list([("cap", {"x": 1.0}, "<=", 1.0)])

    def test_infinite_bounds_rejected(self):
        ir = ModelIR()
        with pytest.raises(ValueError):
            ir.add_columns(["y"], 0.0, float("inf"))

    def test_inverted_bounds_rejected(self):
        ir = ModelIR()
        with pytest.raises(ValueError):
            ir.add_columns(["y"], 2.0, 1.0)

    def test_unknown_reference_caught(self):
        ir = tiny_model()
        ir.add_row_list([("bad", {"ghost": 1.0}, "<=", 1.0)])
        with pytest.raises(ValueError, match="ghost"):
            ir.validate()

    @pytest.mark.parametrize("with_pwl", [False, True], ids=["plain", "pwl"])
    def test_compile_validates_once(self, monkeypatch, with_pwl):
        # compiling walks the rows once, with secant columns or without,
        # and still refuses a dangling reference
        ir = tiny_model()
        if with_pwl:
            ir.add_obj_quad("x", -1.0)
            apply_pwl(ir, 2)
        calls = []
        validate = ModelIR.validate

        def spy(model):
            calls.append(model)
            validate(model)

        monkeypatch.setattr(ModelIR, "validate", spy)
        ir.compile()
        assert len(calls) == 1
        ir.add_row_list([("bad", {"ghost": 1.0}, "<=", 1.0)])
        with pytest.raises(ValueError, match="ghost"):
            ir.compile()

    def test_constant_row_rejected(self):
        ir = tiny_model()
        with pytest.raises(ValueError):
            ir.add_row_list([("const", {"x": 0.0}, "<=", 1.0)])

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
        # (name, lb, ub)
        (("a b", 2, 0.0, 1.0), ("a b_0", 0.0, 1.0)),
        (("a\tb", 2, 0.0, 1.0), ("a\tb_0", 0.0, 1.0)),
        (("x", 3, 0.0, [1.0, np.inf, 2.0]), ("x_1", 0.0, np.inf)),
        (("x", 3, [0.0, np.nan, 0.0], 1.0), ("x_1", np.nan, 1.0)),
        (("x", 3, [0.0, 2.0, 3.0], 1.0), ("x_1", 2.0, 1.0)),
    ])
    def test_block_refuses_as_add_variable(self, block, single):
        ir = tiny_model()
        message = refusal(lambda: ir.add_block(*block))
        name, lb, ub = single
        assert message == refusal(lambda: tiny_model().add_columns([name], lb, ub))
        assert list(ir.variables) == ["x", "b"]  # nothing added

    def test_duplicates_refused_as_add_variable(self):
        ir = tiny_model()
        ir.add_columns(["x_1"], 0.0, 1.0)
        message = refusal(lambda: ir.add_block("x", 3, 0.0, 1.0))
        assert message == refusal(lambda: ir.add_columns(["x_1"], 0.0, 1.0))
        assert message == "variable x_1 declared twice"
        assert refusal(lambda: ir.add_columns(["u", "v", "u"], 0.0, 1.0)) \
            == "variable u declared twice"
        assert refusal(lambda: ir.add_columns([""], 0.0, 1.0)) == "bad variable name ''"
        assert list(ir.variables) == ["x", "b", "x_1"]

    def test_curvature_names_the_one_bad_term(self):
        # 60 concave terms and convex terms 37 and 50 among them: the sign
        # check names the first one's variable and adds nothing
        ir = ModelIR("many")
        ir.add_columns([f"v{j}" for j in range(62)], 0.0, 4.0)
        for j in range(62):
            ir.add_obj_quad(f"v{j}", 1.0 if j in (37, 50) else -1.0)
        with pytest.raises(ValueError, match="quadratic term on v37 is not concave"):
            apply_pwl(ir, 4)
        assert len(ir.variables) == 62 and len(ir.obj_quad) == 62
        del ir.obj_quad["v50"], ir.obj_quad["v37"]
        apply_pwl(ir, 4)
        assert len(ir.rows) == 60 and len(ir.variables) == 62 + 60 * 4

    def test_row_keeps_its_column_order(self):
        ir = ModelIR("order")
        ir.add_block("v", 4, 0.0, 1.0)
        ir.add_row_list([("r", {"v_2": 1.0, "v_0": 2.0, "v_3": 0.0, "v_1": 3.0}, "<=", 5.0)])
        ir.add_rows(2, [("f", [(["v_3", "v_1"], 1.0), (["v_0", "v_0"], [4.0, 0.0]),
                               (["v_2", "v_2"], 5.0)], ">=", [1.0, 2.0])])
        a = ir.compile().a
        assert a.indices.tolist() == [2, 0, 1, 3, 0, 2, 1, 2]
        assert a.data.tolist() == [1.0, 2.0, 3.0, 1.0, 4.0, 5.0, 1.0, 5.0]
        assert a.indptr.tolist() == [0, 3, 6, 8]

    def test_families_match_rows_added_one_by_one(self):
        # rows of families added together interleave period by period,
        # with add_row_list's zero dropping and refusals, whether it gets
        # one row per call or all of them in one call
        one, many = ModelIR("same"), ModelIR("same")
        for ir in (one, many):
            ir.add_block("p", 3, 0.0, 2.0)
            ir.add_block("q", 3, -1.0, 1.0)
        up = [0.5, 0.0, 1.5]
        for t in range(3):
            one.add_row_list([(f"a_{t}", {f"p_{t}": 1.0, f"q_{t}": up[t]}, "<=", 2.0)])
            one.add_row_list([(f"b_{t}", {f"q_{t}": -1.0}, "==", float(t))])
        many.add_rows(3, [("a", [(["p_0", "p_1", "p_2"], 1.0),
                                 (["q_0", "q_1", "q_2"], up)], "<=", 2.0),
                          ("b", [(["q_0", "q_1", "q_2"], -1.0)], "==", [0, 1, 2])])
        listed = ModelIR("same")
        listed.add_block("p", 3, 0.0, 2.0)
        listed.add_block("q", 3, -1.0, 1.0)
        listed.add_row_list([(row.name, row.coeffs, row.sense, row.rhs)
                             for row in one.rows])
        assert model_digest(many.compile()) == model_digest(one.compile()) \
            == model_digest(listed.compile())
        assert many.rows == one.rows == listed.rows
        assert refusal(lambda: many.add_rows(1, [("z", [(["p_0"], 0.0)], "<=", 1.0)])) \
            == refusal(lambda: one.add_row_list([("z_0", {"p_0": 0.0}, "<=", 1.0)]))
        assert refusal(lambda: many.add_rows(3, [("a", [(["p_0"] * 3, 1.0)], "<=", 1.0)])) \
            == "row a_0 declared twice"


def secant_model(coef: float, lb: float = 0.0, ub: float = 4.0,
                 n_segments: int = 2) -> ModelIR:
    """A model of x in [lb, ub] whose objective is the `n_segments`-piece
    secant of coef*x^2."""
    ir = ModelIR("pwl")
    ir.add_columns(["x"], lb, ub)
    ir.add_obj_quad("x", coef)
    apply_pwl(ir, n_segments)
    return ir


class TestPwlLowering:
    def test_concave_term_lowers_for_max(self):
        ir = secant_model(-1.0)
        assert not ir.obj_quad
        assert [n for n in ir.variables if n != "x"] == ["pwl_d_0_x_0",
                                                         "pwl_d_0_x_1"]
        assert ir.variables["pwl_d_0_x_1"].ub == 2.0
        assert ir.obj_linear == {"pwl_d_0_x_0": -2.0, "pwl_d_0_x_1": -6.0}
        (link,) = ir.rows
        assert link.name == "pwl_link_0_x" and link.rhs == 0.0
        assert link.coeffs == {"pwl_d_0_x_0": 1.0, "pwl_d_0_x_1": 1.0,
                               "x": -1.0}

    def test_convex_term_rejected_for_max(self):
        with pytest.raises(ValueError, match="concave"):
            secant_model(1.0)

    def test_interpolated_objective_matches(self):
        compiled = secant_model(-1.0).compile()
        # x = 1 is halfway between the first two breakpoints; the chord
        # there gives -2 (not the exact -1)
        assert compiled.var_names == ["x", "pwl_d_0_x_0", "pwl_d_0_x_1"]
        assert compiled.objective([1.0, 1.0, 0.0]) == pytest.approx(-2.0)
        # a full first segment plus half the second: chord value -10
        assert compiled.objective([3.0, 2.0, 1.0]) == pytest.approx(-10.0)

    @pytest.mark.parametrize("x_bounds", [(-1.0, 6.0), (1.3, 4.2)])
    def test_lowering_is_exact_at_fixed_points(self, x_bounds):
        """With x fixed, the optimum is the chord value of -x^2 there."""
        from iesgame.solve_engine import ScipyMilpBackend
        bps = np.linspace(*x_bounds, 6)
        rng = np.random.default_rng(7)
        for x in rng.uniform(*x_bounds, size=6):
            ir = ModelIR("exact")
            ir.add_columns(["x"], *x_bounds)
            ir.add_row_list([("fix", {"x": 1.0}, "==", float(x))])
            ir.add_obj_quad("x", -1.0)
            apply_pwl(ir, 5)
            res = ScipyMilpBackend().solve(ir.compile(), 10.0, 1e-9)
            assert res.values["x"] == pytest.approx(x, abs=1e-12)
            assert res.objective == pytest.approx(np.interp(x, bps, -bps ** 2),
                                                  abs=1e-9)


class TestLpRoundTrip:
    def test_pwl_model_solves_to_quadratic_optimum(self):
        # max 3x - x^2 on [0, 4]: true optimum 2.25 at x = 1.5
        from iesgame.solve_engine import ScipyMilpBackend
        ir = ModelIR("quad")
        ir.add_columns(["x", "pad"], 0.0, [4.0, 1.0])
        ir.add_obj_linear("x", 3.0)
        ir.add_obj_quad("x", -1.0)
        ir.add_row_list([("pad_row", {"pad": 1.0}, "<=", 1.0)])
        apply_pwl(ir, 8)
        res = ScipyMilpBackend().solve(ir.compile(), 10.0, 1e-9)
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
