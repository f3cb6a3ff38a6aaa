import dataclasses

import numpy as np
import pytest

from conftest import toy_dict
from iesgame import game_model as gm
from iesgame import kkt_reformulation as kkt
from iesgame import solve_engine as se
from iesgame.config import load_scenario, scenario_from_dict
from iesgame.model_ir import ModelIR
from iesgame.scenario_cli import build_bundle


@pytest.fixture(scope="module")
def solved_toy():
    cfg = scenario_from_dict(toy_dict())
    bundle = build_bundle(cfg, 3)
    out = se.solve(bundle, se.SolveOptions(time_limit=60))
    assert out.result.status == se.OPTIMAL
    return cfg, bundle, out


def secant(coef: float, lo: float, hi: float, n_segments: int):
    """The `n_segments`-piece secant of coef*x^2 on [lo, hi], as
    `apply_pwl` emits it: its breakpoints, its values there and its error
    bound."""
    ir = ModelIR("secant")
    ir.add_columns(["x"], lo, hi)
    ir.obj_quad["x"] = coef  # as given: `add_obj_quad` stores no zero
    bound = kkt.apply_pwl(ir, n_segments)
    widths = ir.bounds([f"pwl_d_0_x_{k}" for k in range(n_segments)])[1]
    breakpoints = lo + np.concatenate(([0.0], np.cumsum(widths)))
    slopes = [ir.obj_linear[f"pwl_d_0_x_{k}"] for k in range(n_segments)]
    values = ir.obj_const + np.concatenate(([0.0], np.cumsum(slopes * widths)))
    return breakpoints, values, bound


class TestPwlQuadratic:
    def test_zero_coefficient(self):
        _, values, bound = secant(0.0, 0.0, 4.0, 8)
        assert bound == 0.0 and not values.any()

    def test_two_segment_error_bound(self):
        # chord under parabola: worst gap w^2/4 at segment midpoints
        breakpoints, values, bound = secant(-1.0, 0.0, 4.0, 2)
        assert bound == pytest.approx(1.0)
        xs = np.linspace(0.0, 4.0, 1001)
        interp = np.interp(xs, breakpoints, values)
        gap = np.max(np.abs(interp + xs ** 2))
        assert gap == pytest.approx(1.0, abs=1e-6)

    def test_unit_scale_error(self):
        # published small-unit quadratic coefficient over its 0.45 MW range
        _, _, bound = secant(-12.0, 0.0, 0.45, 8)
        assert bound == pytest.approx(12.0 * (0.45 / 8) ** 2 / 4)
        assert bound == pytest.approx(0.0095, abs=2e-4)

    def test_slopes_increase_for_convex(self):
        # the secant of -2x^2 is the negated secant of the convex 2x^2
        breakpoints, values, _ = secant(-2.0, -1.0, 3.0, 6)
        assert breakpoints == pytest.approx(np.linspace(-1.0, 3.0, 7))
        assert values == pytest.approx(-2.0 * breakpoints ** 2)
        slopes = -np.diff(values) / np.diff(breakpoints)
        assert len(slopes) == 6
        assert all(s2 > s1 for s1, s2 in zip(slopes, slopes[1:]))

    def test_apply_pwl_folds_fixed_variables(self):
        ir = ModelIR("f")
        ir.add_columns(["x", "pad"], [2.0, 0.0], [2.0, 1.0])
        ir.add_obj_quad("x", -1.0)
        ir.add_obj_quad("x", -2.0)  # terms on one variable add up
        assert ir.obj_quad == {"x": -3.0}
        bound = kkt.apply_pwl(ir, 4)
        assert bound == 0.0
        assert ir.obj_const == pytest.approx(-12.0)
        assert not ir.obj_quad


class TestBigM:
    def test_both_branches_reproduce_complementarity_set(self):
        # one pair on a one-period toy: enumerating the indicator must give
        # exactly {primal = 0} and {dual = 0}
        backend = se.ScipyMilpBackend()
        for fixed_pi, free_var, forced_var in ((1.0, "x", "d"), (0.0, "d", "x")):
            ir = ModelIR("pair")
            ir.add_columns(["x"], 0.0, 10.0)
            ir.add_columns(["d"], 0.0, 5.0)
            family = ("p", ["x"], 1.0, np.zeros(1), ["d"])
            assert [m.tolist() for m in kkt.big_m(ir, family)] == [[10.0], [5.0]]
            (binary,) = kkt.big_m_linearize(ir, [family])
            assert binary == "pi_p_0"
            ir.add_row_list([("fix_pi", {binary: 1.0}, "==", fixed_pi)])
            ir.add_obj_linear(free_var, 1.0)
            ir.add_obj_linear(forced_var, 1.0)
            res = backend.solve(ir, 10.0, 1e-9)
            # the forced side pins to zero, the free side reaches its cap
            assert res.values[forced_var] == pytest.approx(0.0, abs=1e-9)
            cap = 10.0 if free_var == "x" else 5.0
            assert res.values[free_var] == pytest.approx(cap, abs=1e-9)

    @pytest.mark.parametrize("x_bounds, d_cap", [((10.0, 10.0), 5.0),
                                                 ((0.0, 10.0), 0.0)])
    def test_pair_decided_by_bounds_gets_no_binary(self, x_bounds, d_cap):
        # a fixed primal slack or a dual capped at zero already holds
        ir = ModelIR("pair")
        ir.add_columns(["x"], *x_bounds)
        ir.add_columns(["d"], 0.0, d_cap)
        family = ("p", ["x"], -1.0, np.full(1, 10.0), ["d"])
        assert kkt.big_m_linearize(ir, [family]) == [None]
        assert not ir.rows and not ir.binary_names

    def test_pairs_interleave_period_by_period(self):
        # two families over two periods: pair t of every family, then t+1;
        # a pair its bounds decide is skipped in the names and rows
        ir = ModelIR("pairs")
        ir.add_columns(["x_0", "x_1", "d_0", "d_1", "e_0", "e_1"], 0.0,
                       [1.0, 1.0, 2.0, 0.0, 3.0, 3.0])
        families = [("a", ["x_0", "x_1"], 1.0, np.zeros(2), ["d_0", "d_1"]),
                    ("b", ["x_0", "x_1"], -1.0, np.ones(2), ["e_0", "e_1"])]
        assert kkt.big_m_linearize(ir, families) == ["pi_a_0", "pi_b_0", None,
                                                     "pi_b_1"]
        assert [row.name for row in ir.rows] == [
            "bigm_g_a_0", "bigm_d_a_0", "bigm_g_b_0", "bigm_d_b_0",
            "bigm_g_b_1", "bigm_d_b_1"]
        assert ir.rows[2].coeffs == {"x_0": -1.0, "pi_b_0": -1.0}
        assert ir.rows[2].rhs == -1.0
        assert ir.rows[3].coeffs == {"e_0": 1.0, "pi_b_0": 3.0}


def pair_values(bundle, values):
    """Each complementarity pair's name, primal value at `values`, dual
    variable and big-M constants."""
    out = []
    for family in kkt.complementarity(bundle):
        prefix, primal, sign, const, duals = family
        m_primal, m_dual = kkt.big_m(bundle.ir, family)
        for t in range(bundle.cfg.horizon):
            out.append((f"{prefix}_{t}", const[t] + sign * values[primal[t]],
                        duals[t], m_primal[t], m_dual[t]))
    return out


def stationarity_residuals(bundle, values):
    """Each stationarity row's name and residual at `values`."""
    return [(f"{prefix}_{t}", sum(c * values[v[t]] for v, c in terms) - rhs)
            for prefix, terms, _, rhs in kkt.stationarity(bundle)
            for t in range(bundle.cfg.horizon)]


def greedy_multipliers(cfg, mu, gamma):
    """Multipliers certifying the greedy response, for generic prices."""
    p_sl, h_cl = gm.follower_best_response(mu, gamma, cfg)
    lb, ub = cfg.shift_lower(), cfg.shift_upper()
    cut_ub = cfg.cut_upper()
    theta = cfg.idr.theta
    interior = [t for t in range(cfg.horizon)
                if lb[t] + 1e-9 < p_sl[t] < ub[t] - 1e-9]
    if interior:
        xi = -float(mu[interior[0]])
    else:
        filled = [t for t in range(cfg.horizon) if p_sl[t] > ub[t] - 1e-9]
        xi = -float(max(mu[t] for t in filled))
    d1 = np.maximum(mu + xi, 0.0)
    d2 = np.maximum(-(mu + xi), 0.0)
    d4 = np.maximum(gamma - 2 * theta * h_cl, 0.0)
    d4[h_cl < cut_ub - 1e-9] = 0.0
    return p_sl, h_cl, xi, d1, d2, d4


class TestEmitKkt:
    def test_greedy_response_satisfies_emitted_system(self, case1_path,
                                                      case2_path):
        # the multiplier bounds come from the price band: every admissible
        # price must leave the best response certified inside them. case1's
        # cuts are always interior, case2's always at their caps
        for cfg in (scenario_from_dict(toy_dict()), load_scenario(case1_path),
                    load_scenario(case2_path)):
            bundle = build_bundle(cfg, 3)
            variables = bundle.ir.variables
            p = cfg.prices
            rng = np.random.default_rng(9)
            for _ in range(20):
                mu = se._random_admissible_prices(p.mu_min, p.mu_max, p.mu_av,
                                                  cfg.horizon, rng)
                gamma = se._random_admissible_prices(
                    p.gamma_min, p.gamma_max, p.gamma_av, cfg.horizon, rng)
                p_sl, h_cl, xi, d1, d2, d4 = greedy_multipliers(cfg, mu, gamma)
                values = {"xi": xi}
                for t in range(cfg.horizon):
                    values[f"mu_{t}"] = mu[t]
                    values[f"gamma_{t}"] = gamma[t]
                    values[f"p_sl_{t}"] = p_sl[t]
                    values[f"h_cl_{t}"] = h_cl[t]
                    values[f"delta1_{t}"] = d1[t]
                    values[f"delta2_{t}"] = d2[t]
                    values[f"delta4_{t}"] = d4[t]
                for name, value in values.items():
                    spec = variables[name]
                    assert spec.lb - 1e-9 <= value <= spec.ub + 1e-9, (cfg.name, name)
                for name, residual in stationarity_residuals(bundle, values):
                    assert abs(residual) < 1e-9, (cfg.name, name)
                for _, g, dual, _, _ in pair_values(bundle, values):
                    d = values[dual]
                    assert g >= -1e-9 and d >= -1e-9
                    assert g * d == pytest.approx(0.0, abs=1e-9)

    def test_interior_stationarity_at_optimum(self, solved_toy):
        cfg, bundle, out = solved_toy
        values = out.result.values
        sol = out.solution
        cut_ub = cfg.cut_upper()
        for t in range(cfg.horizon):
            if 1e-6 < sol.h_cl[t] < cut_ub[t] - 1e-6:
                assert sol.gamma[t] == pytest.approx(
                    2 * cfg.idr.theta * sol.h_cl[t], abs=1e-5)

    def test_dual_bounds_finite(self, solved_toy):
        _, bundle, _ = solved_toy
        multipliers = [v for family in ("xi", "delta1", "delta2", "delta4")
                       for v in bundle.names[family]]
        assert len(multipliers) == 1 + 3 * bundle.cfg.horizon
        for var in multipliers:
            spec = bundle.ir.variables[var]
            assert np.isfinite(spec.lb) and np.isfinite(spec.ub)


class TestEliminateBilinear:
    def test_identity_at_optimum(self, solved_toy):
        # the substituted revenue terms equal price * quantity per period:
        #   mu*p_sl = delta1*lb - delta2*ub - xi*p_sl
        #   gamma*h_cl = 2*theta*h_cl^2 + delta4*cut_ub
        cfg, bundle, out = solved_toy
        v, names = out.result.values, bundle.names
        sl_lb, sl_ub, cut_ub = cfg.shift_lower(), cfg.shift_upper(), cfg.cut_upper()
        xi = v[names["xi"][0]]
        for t in range(cfg.horizon):
            psl, hcl = v[names["p_sl"][t]], v[names["h_cl"][t]]
            elec = v[names["mu"][t]] * psl - (
                v[names["delta1"][t]] * float(sl_lb[t])
                - v[names["delta2"][t]] * float(sl_ub[t]) - xi * psl)
            heat = v[names["gamma"][t]] * hcl - (
                2.0 * cfg.idr.theta * hcl ** 2
                + v[names["delta4"][t]] * float(cut_ub[t]))
            assert abs(elec) < 1e-8, f"elec_{t}"
            assert abs(heat) < 1e-8, f"heat_{t}"

    def test_complementarity_products_at_optimum(self, solved_toy):
        _, bundle, out = solved_toy
        values = out.result.values
        pairs = pair_values(bundle, values)
        assert len(pairs) == 3 * bundle.cfg.horizon
        for name, g, dual, m_primal, m_dual in pairs:
            assert g * values[dual] <= 1e-6 * max(m_primal, m_dual, 1.0), name


class TestAssemble:
    def test_binary_census_on_toy(self, solved_toy):
        cfg, bundle, _ = solved_toy
        # toy3's cuts are interior at every admissible price, so the band
        # decides their cap pairs; only the two shift pairs keep binaries
        assert len(bundle.ir.binary_names) == 2 * cfg.horizon
        assert not any(n.startswith(("delta3_", "pi_cut_"))
                       for n in bundle.ir.variables)

    def test_mode_without_response_emits_no_kkt(self, solved_toy):
        cfg, _, _ = solved_toy
        bundle = build_bundle(cfg, 1)
        assert not {"xi", "delta1", "delta2", "delta4"} & bundle.names.keys()
        assert not any(r.name.startswith("kkt_") for r in bundle.ir.rows)
        assert not any(n.startswith("pi_") for n in bundle.ir.variables)

    def test_pwl_bound_positive_and_respected(self, solved_toy):
        _, bundle, out = solved_toy
        assert bundle.pwl_error_bound > 0
        gap = abs(out.solution.f1 - out.result.objective)
        assert gap <= bundle.pwl_error_bound + 1e-6

    def test_backend_rejects_quadratic_objective(self):
        # the PWL pass always runs, so a quadratic term reaching the
        # backend is a caller error, never a convex-MIQP request
        ir = ModelIR("quad")
        ir.add_columns(["x"], 0.0, 2.0)
        ir.add_obj_linear("x", 3.0)
        ir.add_obj_quad("x", -1.0)
        ir.add_row_list([("cap", {"x": 1.0}, "<=", 2.0)])
        with pytest.raises(ValueError, match="PWL"):
            se.ScipyMilpBackend().solve(ir, 10.0, 1e-4)

    def test_bilevel_consistency_at_optimum(self, solved_toy):
        cfg, _, out = solved_toy
        sol = out.solution
        br_sl, br_cl = gm.follower_best_response(sol.mu, sol.gamma, cfg)
        assert np.max(np.abs(sol.h_cl - br_cl)) < 1e-5
        # tied prices leave the split follower-indifferent; totals per
        # price group must still match the canonical greedy response
        for price in np.unique(np.round(sol.mu, 9)):
            idx = np.abs(sol.mu - price) < 1e-9
            assert float(sol.p_sl[idx].sum()) == pytest.approx(
                float(br_sl[idx].sum()), abs=1e-5)


class _Replay:
    """A backend that hands back one solved result, with `changes` made to
    its variable values."""

    def __init__(self, result: se.SolveResult, changes: dict[str, float]):
        self.result, self.changes = result, changes

    def solve(self, model, time_limit, gap_tolerance):
        return dataclasses.replace(self.result,
                                   values={**self.result.values, **self.changes})


class TestKktChecks:
    @pytest.mark.parametrize("check", ["complementarity", "kkt_signs",
                                       "kkt_stationarity"])
    def test_tampered_milp_values_flagged(self, solved_toy, check):
        # the checks read the MILP's multipliers, which the extracted
        # solution does not hold, so only the solve's report can show them
        _, bundle, out = solved_toy
        values = out.result.values
        assert check not in {v.check for v in out.report.violations}
        # the dual of the pair with the most primal slack
        _, g, dual, _, _ = max(pair_values(bundle, values), key=lambda pair: pair[1])
        assert g > 1e-3
        xi = bundle.names["xi"][0]
        changes = {
            "complementarity": {dual: values[dual] + 1.0},
            "kkt_signs": {dual: -1.0},
            "kkt_stationarity": {xi: values[xi] + 1.0},
        }[check]
        report = se.solve(bundle, backend=_Replay(out.result, changes)).report
        assert check in {v.check for v in report.violations}
