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


class TestPwlQuadratic:
    def test_zero_coefficient(self):
        approx = kkt.pwl_quadratic(0.0, 0.0, 4.0, 8)
        assert approx.max_error == 0.0

    def test_two_segment_error_bound(self):
        # chord over parabola: worst gap w^2/4 at segment midpoints
        approx = kkt.pwl_quadratic(1.0, 0.0, 4.0, 2)
        assert approx.max_error == pytest.approx(1.0)
        xs = np.linspace(0.0, 4.0, 1001)
        interp = np.interp(xs, approx.breakpoints, approx.values)
        gap = np.max(np.abs(interp - xs ** 2))
        assert gap == pytest.approx(1.0, abs=1e-6)

    def test_unit_scale_error(self):
        # published small-unit quadratic coefficient over its 0.45 MW range
        approx = kkt.pwl_quadratic(12.0, 0.0, 0.45, 8)
        assert approx.max_error == pytest.approx(12.0 * (0.45 / 8) ** 2 / 4)
        assert approx.max_error == pytest.approx(0.0095, abs=2e-4)

    def test_slopes_increase_for_convex(self):
        approx = kkt.pwl_quadratic(2.0, -1.0, 3.0, 6)
        slopes = np.diff(approx.values) / np.diff(approx.breakpoints)
        assert len(slopes) == 6
        assert all(s2 > s1 for s1, s2 in zip(slopes, slopes[1:]))

    def test_apply_pwl_folds_fixed_variables(self):
        ir = ModelIR("f", "max")
        ir.add_variable("x", 2.0, 2.0)
        ir.add_variable("pad", 0.0, 1.0)
        ir.add_obj_quad("x", -3.0)
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
            ir = ModelIR("pair", "max")
            ir.add_variable("x", 0.0, 10.0)
            ir.add_variable("d", 0.0, 5.0)
            pair = kkt.ComplementarityPair("p0", {"x": 1.0}, 0.0, "d")
            (binary,) = kkt.big_m_linearize(ir, [pair])
            assert (pair.big_m_primal, pair.big_m_dual) == (10.0, 5.0)
            ir.add_row("fix_pi", {binary: 1.0}, "==", fixed_pi)
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
        ir = ModelIR("pair", "max")
        ir.add_variable("x", *x_bounds)
        ir.add_variable("d", 0.0, d_cap)
        pair = kkt.ComplementarityPair("p0", {"x": -1.0}, 10.0, "d")
        assert kkt.big_m_linearize(ir, [pair]) == [None]
        assert not ir.rows and not ir.binary_names


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
                for name, residual in bundle.kkt.stationarity_residuals(values):
                    assert abs(residual) < 1e-9, (cfg.name, name)
                for pair in bundle.kkt.pairs:
                    g = pair.primal_value(values)
                    d = values[pair.dual_var]
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
        block = bundle.kkt
        for var in [block.xi] + [v for vs in block.deltas.values() for v in vs]:
            spec = bundle.ir.variables[var]
            assert np.isfinite(spec.lb) and np.isfinite(spec.ub)


class TestEliminateBilinear:
    def test_identity_at_optimum(self, solved_toy):
        _, bundle, out = solved_toy
        block = bundle.kkt
        residuals = kkt.bilinear_identity_residuals(bundle, block,
                                                    out.result.values)
        assert residuals, "expected substituted revenue terms"
        for name, residual in residuals:
            assert abs(residual) < 1e-8, name

    def test_complementarity_products_at_optimum(self, solved_toy):
        _, bundle, out = solved_toy
        block = bundle.kkt
        for pair in block.pairs:
            g = pair.primal_value(out.result.values)
            d = out.result.values[pair.dual_var]
            assert g * d <= 1e-6 * max(pair.big_m_primal, pair.big_m_dual, 1.0)


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
        assert bundle.kkt is None
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
        ir = ModelIR("quad", "max")
        ir.add_variable("x", 0.0, 2.0)
        ir.add_obj_linear("x", 3.0)
        ir.add_obj_quad("x", -1.0)
        ir.add_row("cap", {"x": 1.0}, "<=", 2.0)
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
        block, values = bundle.kkt, out.result.values
        assert check not in {v.check for v in out.report.violations}
        slack = max(block.pairs, key=lambda pair: pair.primal_value(values))
        assert slack.primal_value(values) > 1e-3
        changes = {
            "complementarity": {slack.dual_var: values[slack.dual_var] + 1.0},
            "kkt_signs": {slack.dual_var: -1.0},
            "kkt_stationarity": {block.xi: values[block.xi] + 1.0},
        }[check]
        report = se.solve(bundle, backend=_Replay(out.result, changes)).report
        assert check in {v.check for v in report.violations}
