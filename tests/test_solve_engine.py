import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import toy_dict
from iesgame import game_model as gm
from iesgame import kkt_reformulation as kkt
from iesgame import solve_engine as se
from iesgame.config import load_scenario, scenario_from_dict
from iesgame.lp_io import write_lp
from iesgame.model_ir import ModelIR
from iesgame.scenario_cli import build_bundle


def flat_single_unit_dict():
    """One thermal unit, no CHP, warm outside (zero heat), no renewables."""
    data = toy_dict()
    data["chp_units"] = []
    data["pipelines"] = []
    data["wt"] = None
    data["idr"]["alpha"] = 0.0
    data["tp_units"][0]["p_max"] = 2.0
    data["fixed_load_mw"] = [1.0, 1.0, 1.0]
    data["outdoor_temp_c"] = [20.0, 20.0, 20.0]
    return data


class TestBackend:
    def test_small_milp(self):
        ir = ModelIR("small", "max")
        ir.add_variable("x", 0.0, 2.0)
        ir.add_variable("y", 0.0, 2.0, binary=False)
        ir.add_variable("b", 0.0, 1.0, binary=True)
        ir.add_obj_linear("x", 1.0)
        ir.add_obj_linear("b", 2.0)
        ir.add_row("cap", {"x": 1.0, "b": 1.0}, "<=", 2.5)
        res = se.ScipyMilpBackend().solve(ir, 10.0, 1e-9)
        assert res.status == se.OPTIMAL
        assert res.objective == pytest.approx(3.5)
        assert res.values["b"] == pytest.approx(1.0)

    def test_infeasible_status(self):
        ir = ModelIR("bad", "max")
        ir.add_variable("x", 0.0, 1.0)
        ir.add_obj_linear("x", 1.0)
        ir.add_row("lo", {"x": 1.0}, ">=", 2.0)
        res = se.ScipyMilpBackend().solve(ir, 10.0, 1e-4)
        assert res.status == se.INFEASIBLE

    def test_gap_reported(self):
        ir = ModelIR("g", "max")
        ir.add_variable("x", 0.0, 2.0)
        ir.add_obj_linear("x", 1.0)
        ir.add_row("cap", {"x": 1.0}, "<=", 1.5)
        res = se.ScipyMilpBackend().solve(ir, 10.0, 1e-9)
        assert res.gap <= 1e-9
        assert res.bound == pytest.approx(res.objective, abs=1e-6)

    def test_determinism(self):
        cfg = scenario_from_dict(toy_dict())
        objs, values = [], []
        for _ in range(2):
            bundle = build_bundle(cfg, 3)
            out = se.solve(bundle, se.SolveOptions(time_limit=60),
                           se.get_backend())
            objs.append(out.result.objective)
            values.append(out.result.values)
            assert out.report.passed
        assert abs(objs[0] - objs[1]) < 1e-9
        assert values[0] == values[1]


class TestSolvePipeline:
    def test_single_unit_dispatch_tracks_load(self):
        cfg = scenario_from_dict(flat_single_unit_dict())
        bundle = build_bundle(cfg, 1)
        out = se.solve(bundle, se.SolveOptions(time_limit=60), se.get_backend())
        assert out.result.status == se.OPTIMAL
        assert out.solution.p_tp[0] == pytest.approx([1.0, 1.0, 1.0])
        assert out.report.passed

    def test_idr_disabled_limit(self):
        # alpha = 0 and a huge penalty force the response to zero; profit
        # reduces to fixed revenue minus dispatch cost
        data = toy_dict()
        data["idr"]["alpha"] = 0.0
        data["idr"]["theta"] = 1e9
        cfg = scenario_from_dict(data)
        bundle = build_bundle(cfg, 3)
        out = se.solve(bundle, se.SolveOptions(time_limit=60), se.get_backend())
        sol = out.solution
        assert np.max(np.abs(sol.p_sl)) == 0.0
        assert np.max(sol.h_cl) < 1e-5
        assert sol.f1 == pytest.approx(gm.leader_profit(cfg, sol))

    def test_balance_infeasibility_stage(self):
        # the load climb outruns every ramp plus the renewable swing while
        # staying inside the static capacity and price-band checks
        data = toy_dict()
        data["fixed_load_mw"] = [1.45, 2.2, 1.6]
        cfg = scenario_from_dict(data)
        bundle = build_bundle(cfg, 2)
        out = se.solve(bundle, se.SolveOptions(time_limit=60), se.get_backend())
        assert out.result.status == se.INFEASIBLE
        assert out.result.infeasible_stage == "balance_with_relaxed_reserves"

    def test_reserve_infeasibility_stage(self):
        # flat operation needs no ramping, but the reserve requirement
        # exceeds what the ramp-capped reserves can offer
        data = toy_dict()
        data["fixed_load_mw"] = [1.8, 1.8, 1.8]
        data["outdoor_temp_c"] = [-8.0, -8.0, -8.0]
        data["wt"]["p_e"] = 0.6
        for unit in data["tp_units"]:
            unit["ramp_up"] = 0.05
        for unit in data["chp_units"]:
            unit["ramp_up"] = 0.10
        cfg = scenario_from_dict(data)
        bundle = build_bundle(cfg, 2)
        out = se.solve(bundle, se.SolveOptions(time_limit=60), se.get_backend())
        assert out.result.status == se.INFEASIBLE
        assert out.result.infeasible_stage == "full_model"


class TestEnumerationOracle:
    def two_period_cfg(self):
        data = toy_dict()
        data["horizon"] = 2
        data["fixed_load_mw"] = [1.4, 1.8]
        data["outdoor_temp_c"] = [-10.0, -6.0]
        return scenario_from_dict(data)

    def test_admissible_pair_count(self):
        # three grid levels with a sum constraint leave exactly three pairs
        grids = se._admissible_grids(50.0, 87.0, 137.0, 2, 18.5)
        assert len(grids) == 3
        assert (68.5, 68.5) in grids

    def test_counts_and_response(self):
        cfg = self.two_period_cfg()
        result = se.enumerate_oracle(cfg, 18.5, gamma_grid_step=9.5)
        assert result.n_evaluations == 9  # 3 mu pairs x 3 gamma pairs
        expect_cut = np.clip(result.best_gamma / (2 * cfg.idr.theta), 0.0,
                             cfg.cut_upper())
        assert result.best_response[1] == pytest.approx(expect_cut)

    def test_profit_bracket_against_milp(self):
        cfg = self.two_period_cfg()
        bundle = build_bundle(cfg, 3)
        out = se.solve(bundle, se.SolveOptions(time_limit=60), se.get_backend())
        oracle = se.enumerate_oracle(cfg, 9.25, gamma_grid_step=4.75)
        max_pl = float(np.max(np.asarray(cfg.fixed_load) + cfg.shift_upper()))
        max_hl = float(np.max(cfg.heat_base_load()))
        tol = bundle.pwl_error_bound + 9.25 * max_pl + 4.75 * max_hl
        assert abs(out.solution.f1 - oracle.profit) <= tol
        # enumerated grid profit can never beat the optimum's upper side
        assert out.solution.f1 >= oracle.profit - bundle.pwl_error_bound - 1e-6

    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(horizon=st.integers(1, 3),
           loads=st.lists(st.floats(1.2, 1.9), min_size=3, max_size=3),
           temps=st.lists(st.floats(-11.0, -5.0), min_size=3, max_size=3))
    def test_milp_never_below_oracle(self, horizon, loads, temps):
        # the big-M MILP optimizes over every admissible price vector, the
        # oracle only over the grid: an undersized big-M that cut off the
        # optimum would show as the oracle beating the MILP
        data = toy_dict()
        data["horizon"] = horizon
        data["fixed_load_mw"] = loads[:horizon]
        data["outdoor_temp_c"] = temps[:horizon]
        cfg = scenario_from_dict(data)
        bundle = build_bundle(cfg, 3)
        out = se.solve(bundle, se.SolveOptions(time_limit=60), se.get_backend())
        assert out.result.status == se.OPTIMAL
        oracle = se.enumerate_oracle(cfg, 9.25, gamma_grid_step=4.75)
        assert out.solution.f1 >= oracle.profit - bundle.pwl_error_bound - 1e-6

    def test_size_refusal(self):
        cfg = self.two_period_cfg()
        with pytest.raises(se.OracleSizeError, match="cap"):
            se.enumerate_oracle(cfg, 0.5, max_points=10)

    def test_empty_grid_refusal(self):
        cfg = self.two_period_cfg()
        with pytest.raises(se.OracleSizeError, match="admissible"):
            se.enumerate_oracle(cfg, 7.0)

    def test_horizon_cap(self):
        data = toy_dict()
        data["horizon"] = 5
        data["fixed_load_mw"] = [1.5] * 5
        data["outdoor_temp_c"] = [-8.0] * 5
        cfg = scenario_from_dict(data)
        with pytest.raises(se.OracleSizeError, match="horizons"):
            se.enumerate_oracle(cfg, 18.5)


@pytest.fixture(scope="module")
def solved():
    cfg = scenario_from_dict(toy_dict())
    bundle = build_bundle(cfg, 2)
    out = se.solve(bundle, se.SolveOptions(time_limit=60), se.get_backend())
    return bundle, out.solution


class TestReserveValidation:
    def test_minimum_reserve_passes(self, solved):
        bundle, sol = solved
        report = se.validate_reserve(sol, bundle, n_samples=50_000, seed=1)
        assert report.passed
        assert len(report.reserve_mc) == bundle.cfg.horizon
        for row in report.reserve_mc:
            assert row["estimate"] >= row["required"]

    def test_halved_reserves_fail(self, solved):
        bundle, sol = solved
        import copy
        weak = copy.deepcopy(sol)
        weak.r_tp = weak.r_tp * 0.2
        weak.r_chp = weak.r_chp * 0.2
        report = se.validate_reserve(weak, bundle, n_samples=50_000, seed=1)
        assert not report.passed

    def test_confidence_ordering(self):
        cfg = scenario_from_dict(toy_dict())
        totals = []
        for conf in (0.85, 0.95):
            bundle = build_bundle(cfg, 2, confidence=conf)
            out = se.solve(bundle, se.SolveOptions(time_limit=60),
                           se.get_backend())
            totals.append(float(np.sum(out.solution.reserve_total)))
        assert totals[0] <= totals[1] + 1e-9


class TestPostedPriceProfit:
    @pytest.mark.parametrize("relax_binaries", [False, True])
    def test_matches_mode4_objective(self, toy_cfg, relax_binaries):
        # mode 4 posts the proportional tariff to responding users, so its
        # optimum is the evaluator's profit at that tariff
        bundle = build_bundle(toy_cfg, 4)
        out = se.solve(bundle, se.SolveOptions(time_limit=60), se.get_backend())
        profit_at, _ = se._posted_price_profit(
            toy_cfg, toy_cfg.expected_renewables(),
            toy_cfg.reserve_requirements(), toy_cfg.heat_base_load(), True, 8,
            se.get_backend(), relax_binaries)
        profit, response = profit_at(*toy_cfg.proportional_prices())
        assert profit == pytest.approx(out.result.objective, rel=1e-6)
        assert response[0] == pytest.approx(bundle.fixed_p_sl)
        assert response[1] == pytest.approx(bundle.fixed_h_cl)

    def test_cache_counts_solves(self, toy_cfg, monkeypatch):
        calls = []
        backend = se.get_backend()
        solve = backend.solve

        def counted(*args):
            calls.append(args)
            return solve(*args)

        monkeypatch.setattr(backend, "solve", counted)
        profit_at, cache = se._posted_price_profit(
            toy_cfg, toy_cfg.expected_renewables(),
            toy_cfg.reserve_requirements(), toy_cfg.heat_base_load(), True, 8,
            backend, False)
        mu, gamma = toy_cfg.proportional_prices()
        first = profit_at(mu, gamma)[0]
        assert profit_at(mu, gamma)[0] == first
        profit_at(mu[::-1].copy(), gamma)
        assert len(calls) == len(cache) == 2


COMPILED_ARRAYS = ("c", "row_lower", "row_upper", "col_lower", "col_upper",
                   "integrality")


class TestCompiledDispatch:
    @pytest.mark.parametrize("relax_binaries", [False, True])
    @pytest.mark.parametrize("case, dhn_enabled", [
        ("toy", True), ("toy", False), ("case2", True)])
    def test_patched_equals_rebuilt(self, toy_cfg, case2_path, case,
                                    dhn_enabled, relax_binaries):
        # the once-compiled program moved to a response must equal the
        # program built for that response: a response-dependent entry the
        # patch misses shows up here
        cfg = toy_cfg if case == "toy" else load_scenario(case2_path)
        rng = np.random.default_rng(17)
        args = (cfg, cfg.expected_renewables(), cfg.reserve_requirements(),
                dhn_enabled, 8, relax_binaries)
        template = se._dispatch_program(
            *args, se._random_follower_point(cfg, rng))
        for _ in range(3):
            response = se._random_follower_point(cfg, rng)
            patched = se._with_response(template, cfg, response)
            fresh = se._dispatch_program(*args, response)
            for name in COMPILED_ARRAYS:
                np.testing.assert_array_equal(getattr(patched, name),
                                              getattr(fresh, name))
            for name in ("indptr", "indices", "data"):
                np.testing.assert_array_equal(getattr(patched.a, name),
                                              getattr(fresh.a, name))
            assert patched.row_index == fresh.row_index
            assert write_lp(patched) == write_lp(fresh)
            assert not np.array_equal(patched.row_lower, template.row_lower)

    def test_dropped_heat_balance_keeps_build_check(self):
        # no CHP unit and no transport: the heat balances have no
        # variables, so a response that leaves heat unserved is refused
        # by the patch exactly as by the build
        cfg = scenario_from_dict(flat_single_unit_dict())
        args = (cfg, cfg.expected_renewables(), cfg.reserve_requirements(),
                False, 8, True)
        zero = np.zeros(cfg.horizon)
        template = se._dispatch_program(*args, (zero, zero))
        assert not any(n.startswith("bal_h_") for n in template.row_index)
        bad = (zero, np.full(cfg.horizon, 0.5))
        with pytest.raises(gm.BuildError, match="row bal_h_0 demands -0.5"):
            se._dispatch_program(*args, bad)
        with pytest.raises(gm.BuildError, match="row bal_h_0 demands -0.5"):
            se._with_response(template, cfg, bad)


class TestDeviationCheck:
    def test_builds_dispatch_once(self, toy_cfg, monkeypatch):
        bundle = build_bundle(toy_cfg, 3)
        out = se.solve(bundle, se.SolveOptions(time_limit=60), se.get_backend())
        builds, solves = [], []
        build_leader = gm.build_leader
        backend = se.get_backend()
        solve = backend.solve

        def spy_build(*args, **kwargs):
            builds.append(kwargs)
            return build_leader(*args, **kwargs)

        def spy_solve(*args):
            solves.append(args)
            return solve(*args)

        monkeypatch.setattr(gm, "build_leader", spy_build)
        monkeypatch.setattr(backend, "solve", spy_solve)
        se.no_deviation_check(bundle, out.solution, n_deviations=5, seed=3,
                              backend=backend)
        assert len(builds) == 1
        assert len(solves) > 1  # several responses, one build

    def test_redispatch_uses_bundle_segments(self, toy_cfg, monkeypatch):
        bundle = build_bundle(toy_cfg, 3, n_segments=2)
        out = se.solve(bundle, se.SolveOptions(time_limit=60), se.get_backend())
        seen = []
        apply_pwl = kkt.apply_pwl

        def spy(ir, n_segments):
            seen.append(n_segments)
            return apply_pwl(ir, n_segments)

        monkeypatch.setattr(kkt, "apply_pwl", spy)
        se.no_deviation_check(bundle, out.solution, n_deviations=5, seed=3)
        assert seen == [2]

    def test_toy_equilibrium_stable(self):
        cfg = scenario_from_dict(toy_dict())
        bundle = build_bundle(cfg, 3)
        out = se.solve(bundle, se.SolveOptions(time_limit=60), se.get_backend())
        check = se.no_deviation_check(bundle, out.solution, n_deviations=300,
                                      seed=5)
        assert check.follower_ok
        assert check.leader_ok
