import dataclasses
import json
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.optimize import Bounds, LinearConstraint, linprog, milp

from conftest import model_digest, random_follower_point, toy_dict
from iesgame import game_model as gm
from iesgame import kkt_reformulation as kkt
from iesgame import prob_sequences as ps
from iesgame import solve_engine as se
from iesgame.config import load_scenario, scenario_from_dict
from iesgame.model_ir import ModelIR
from iesgame.scenario_cli import build_bundle


BENCH_INPUTS = Path(__file__).resolve().parents[1] / "bench" / "inputs"


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


def small_milp():
    ir = ModelIR("small")
    ir.add_columns(["x"], 0.0, 2.0)
    ir.add_columns(["y"], 0.0, 2.0, binary=False)
    ir.add_columns(["b"], 0.0, 1.0, binary=True)
    ir.add_obj_linear("x", 1.0)
    ir.add_obj_linear("b", 2.0)
    ir.add_row_list([("cap", {"x": 1.0, "b": 1.0}, "<=", 2.5)])
    return ir


def with_entry(model, array, value):
    """`model` with the first entry of its array `array` set to `value`."""
    changed = getattr(model, array).copy()
    if array == "a":
        changed.data[0] = value
    else:
        changed[0] = value
    return dataclasses.replace(model, **{array: changed})


# inputs HiGHS would solve or report a status for that it did not
# observe: scipy.optimize.milp raised on the costs, reported the NaN
# bounds as infeasible and solved the NaN matrix entry as optimal
BAD_INPUTS = {"nan-c": ("c", np.nan), "inf-c": ("c", np.inf),
              "nan-rhs": ("row_upper", np.nan),
              "nan-matrix-entry": ("a", np.nan),
              "nan-column-bound": ("col_lower", np.nan)}


class TestBackend:
    def test_small_milp(self):
        res = se.ScipyMilpBackend().solve(small_milp(), 10.0, 1e-9)
        assert res.status == se.OPTIMAL
        assert res.objective == pytest.approx(3.5)
        assert res.values["b"] == pytest.approx(1.0)

    def test_infeasible_status(self):
        ir = ModelIR("bad")
        ir.add_columns(["x"], 0.0, 1.0)
        ir.add_obj_linear("x", 1.0)
        ir.add_row_list([("lo", {"x": 1.0}, ">=", 2.0)])
        res = se.ScipyMilpBackend().solve(ir, 10.0, 1e-4)
        assert res.status == se.INFEASIBLE

    @pytest.mark.parametrize("bad", BAD_INPUTS)
    def test_bad_input_refused(self, bad):
        model = with_entry(small_milp().compile(), *BAD_INPUTS[bad])
        with pytest.raises(ValueError, match="finite|NaN"):
            se.ScipyMilpBackend().solve(model, 10.0, 1e-4)

    def test_time_limit_without_point(self, case1_path):
        # at a zero time limit HiGHS holds no feasible point, so the
        # backend reports the limit and no values
        model = build_bundle(load_scenario(case1_path), 3).ir.compile()
        res = se.ScipyMilpBackend().solve(model, 0.0, 1e-4)
        assert res.status == se.TIME_LIMIT
        assert res.values == {}

    def test_gap_reported(self):
        ir = ModelIR("g")
        ir.add_columns(["x"], 0.0, 2.0)
        ir.add_obj_linear("x", 1.0)
        ir.add_row_list([("cap", {"x": 1.0}, "<=", 1.5)])
        res = se.ScipyMilpBackend().solve(ir, 10.0, 1e-9)
        assert res.gap <= 1e-9
        assert res.bound == pytest.approx(res.objective, abs=1e-6)

    def test_determinism(self):
        cfg = scenario_from_dict(toy_dict())
        objs, values = [], []
        for _ in range(2):
            bundle = build_bundle(cfg, 3)
            out = se.solve(bundle, se.SolveOptions(time_limit=60))
            objs.append(out.result.objective)
            values.append(out.result.values)
            assert out.report.passed
        assert abs(objs[0] - objs[1]) < 1e-9
        assert values[0] == values[1]


def counting_milp(monkeypatch, delay=0.0):
    """Patch `se.milp` to record, per call, whether the model it got has
    integer columns and the time limit it got, and to sleep `delay`
    seconds after each call."""
    calls = []
    real = se.milp

    def spy(model, time_limit, gap_tolerance):
        calls.append((bool(model.integrality.any()), time_limit))
        res = real(model, time_limit, gap_tolerance)
        time.sleep(delay)
        return res

    monkeypatch.setattr(se, "milp", spy)
    return calls


def fractional_milp():
    """A model whose LP relaxation sits at b1 = b2 = 0.5, where each
    binary alone rounds to 0 within every row it enters, but both at 0
    break `need`; its MILP is infeasible."""
    ir = ModelIR("fractional")
    ir.add_columns(["y"], 0.0, 1.0)
    ir.add_columns(["b1"], 0.0, 1.0, binary=True)
    ir.add_columns(["b2"], 0.0, 1.0, binary=True)
    ir.add_obj_linear("y", 1.0)
    ir.add_obj_linear("b1", 1e-6)
    ir.add_obj_linear("b2", 1e-6)
    ir.add_row_list([("cap1", {"b1": 1.0}, "<=", 0.5)])
    ir.add_row_list([("cap2", {"b2": 1.0}, "<=", 0.5)])
    ir.add_row_list([("need", {"b1": 1.0, "b2": 1.0}, ">=", 0.5)])
    return ir.compile()


class TestRelaxFirst:
    @pytest.mark.parametrize("mode", [1, 2, 3, 4])
    @pytest.mark.parametrize("case", ["toy", "case1", "case2"])
    def test_point_is_a_milp_optimum(self, toy_cfg, case1_path, case2_path,
                                     case, mode):
        paths = {"case1": case1_path, "case2": case2_path}
        cfg = toy_cfg if case == "toy" else load_scenario(paths[case])
        model = build_bundle(cfg, mode).ir.compile()
        gap, tol = 1e-4, se.FEAS_TOL
        res = se.ScipyMilpBackend().solve(model, 60.0, gap)
        mip = bool(model.integrality.any())
        assert res.status == se.OPTIMAL and res.relaxation_exact == mip
        x = np.array([res.values[name] for name in model.var_names])
        act = model.a @ x
        assert np.all(act >= model.row_lower - tol)
        assert np.all(act <= model.row_upper + tol)
        assert np.all(x >= model.col_lower - tol)
        assert np.all(x <= model.col_upper + tol)
        integral = model.integrality.astype(bool)
        assert np.all(np.abs(x[integral] - np.round(x[integral])) <= tol)
        assert res.objective == pytest.approx(model.objective(x.tolist()),
                                              rel=1e-12)
        want = model.objective(se.milp(model, 60.0, gap).x)
        assert res.objective >= want - gap * abs(want)
        if mip:
            # a maximization's relaxation bounds it from above
            assert res.node_count == 0
            assert res.bound >= res.objective - 1e-9 * abs(res.objective)
            assert res.gap <= gap

    def test_miss_falls_back_to_the_milp(self, case1_path, monkeypatch):
        # case1 mode 3 at twice its theta: the relaxed optimum leaves
        # shift-bound binaries fractional, and no rounding is feasible
        cfg = load_scenario(case1_path)
        model = build_bundle(cfg.with_overrides(theta=2 * cfg.idr.theta),
                             3).ir.compile()
        want = se.milp(model, 60.0, 1e-4)
        calls = counting_milp(monkeypatch)
        res = se.ScipyMilpBackend().solve(model, 60.0, 1e-4)
        assert [mip for mip, _ in calls] == [False, True]
        assert not res.relaxation_exact
        assert res.status == se.OPTIMAL == want.status
        assert res.values == dict(zip(model.var_names, want.x))
        assert res.objective == model.objective(want.x)
        assert res.node_count == want.mip_node_count

    def test_rounding_is_checked_on_every_row(self, monkeypatch):
        # the rounding passes binary by binary, the whole point does not;
        # the MILP then gets the time the relaxation left
        calls = counting_milp(monkeypatch)
        res = se.ScipyMilpBackend().solve(fractional_milp(), 10.0, 1e-4)
        assert calls[0] == (False, 10.0)
        assert calls[1][0] and 0.0 <= calls[1][1] < 10.0
        assert res.status == se.INFEASIBLE and not res.relaxation_exact

    def test_no_time_left_gives_the_milp_none(self, monkeypatch):
        # the relaxation (with the delay) used up the limit
        calls = counting_milp(monkeypatch, delay=0.02)
        se.ScipyMilpBackend().solve(fractional_milp(), 0.01, 1e-4)
        assert calls[1] == (True, 0.0)

    def test_infeasible_relaxation_skips_the_milp(self, monkeypatch):
        ir = ModelIR("binaries")
        ir.add_columns(["b1"], 0.0, 1.0, binary=True)
        ir.add_columns(["b2"], 0.0, 1.0, binary=True)
        ir.add_obj_linear("b1", 1.0)
        ir.add_row_list([("lo", {"b1": 1.0, "b2": 1.0}, ">=", 3.0)])
        calls = counting_milp(monkeypatch)
        res = se.ScipyMilpBackend().solve(ir, 10.0, 1e-4)
        assert calls == [(False, 10.0)]
        assert res.status == se.INFEASIBLE and res.relaxation_exact


class TestSolvePipeline:
    def test_single_unit_dispatch_tracks_load(self):
        cfg = scenario_from_dict(flat_single_unit_dict())
        bundle = build_bundle(cfg, 1)
        out = se.solve(bundle, se.SolveOptions(time_limit=60))
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
        out = se.solve(bundle, se.SolveOptions(time_limit=60))
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
        out = se.solve(bundle, se.SolveOptions(time_limit=60))
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
        out = se.solve(bundle, se.SolveOptions(time_limit=60))
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
        # at theta = 60 toy3's cut caps lie strictly inside
        # (gamma_min, gamma_max) / (2 theta), so its heat pairs stay open
        # and keep their binaries; at the default theta the band decides them
        open_band = toy_dict()
        open_band["idr"]["theta"] = 60.0
        for cfg in (self.two_period_cfg(), scenario_from_dict(open_band)):
            bundle = build_bundle(cfg, 3)
            out = se.solve(bundle, se.SolveOptions(time_limit=60))
            oracle = se.enumerate_oracle(cfg, 9.25, gamma_grid_step=4.75)
            max_pl = float(np.max(np.asarray(cfg.fixed_load) + cfg.shift_upper()))
            max_hl = float(np.max(cfg.heat_base_load()))
            tol = bundle.pwl_error_bound + 9.25 * max_pl + 4.75 * max_hl
            assert abs(out.solution.f1 - oracle.profit) <= tol
            # enumerated grid profit can never beat the optimum's upper side
            assert out.solution.f1 >= oracle.profit - bundle.pwl_error_bound - 1e-6
        assert sum(n.startswith("pi_cut_ub_") for n in bundle.ir.binary_names) == 3

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
        out = se.solve(bundle, se.SolveOptions(time_limit=60))
        assert out.result.status == se.OPTIMAL
        oracle = se.enumerate_oracle(cfg, 9.25, gamma_grid_step=4.75)
        assert out.solution.f1 >= oracle.profit - bundle.pwl_error_bound - 1e-6

    def test_pruned_to_few_solves(self, toy_cfg):
        result = se.enumerate_oracle(toy_cfg, 9.25, gamma_grid_step=4.75)
        assert result.n_evaluations == 361
        assert result.n_dispatch_solves <= 10  # 95 distinct responses

    def test_builds_dispatch_once(self, toy_cfg, monkeypatch):
        builds, solves = [], []
        build_leader = gm.build_leader
        backend = se.ScipyMilpBackend()
        solve = backend.solve

        def spy_build(*args, **kwargs):
            builds.append(kwargs)
            return build_leader(*args, **kwargs)

        def spy_solve(*args):
            solves.append(args)
            return solve(*args)

        monkeypatch.setattr(gm, "build_leader", spy_build)
        monkeypatch.setattr(backend, "solve", spy_solve)
        se.enumerate_oracle(toy_cfg, 9.25, gamma_grid_step=4.75,
                            backend=backend)
        assert len(builds) == 1
        assert len(solves) > 1  # several responses, one build

    def test_pruned_solves_come_from_backend(self, toy_cfg):
        plain = se.enumerate_oracle(toy_cfg, 9.25, gamma_grid_step=4.75)
        calls = []

        class Costlier(se.ScipyMilpBackend):
            # every exact dispatch costs one more: the reported best must
            # move by exactly that, so it comes from the backend alone
            def solve(self, *args):
                calls.append(args)
                res = super().solve(*args)
                res.objective -= 1.0
                return res

        result = se.enumerate_oracle(toy_cfg, 9.25, gamma_grid_step=4.75,
                                     backend=Costlier())
        # costs one above the cuts' relaxation prune less, but still prune
        assert result.n_dispatch_solves == len(calls) < result.n_evaluations
        np.testing.assert_array_equal(result.best_mu, plain.best_mu)
        np.testing.assert_array_equal(result.best_gamma, plain.best_gamma)
        assert result.profit == pytest.approx(plain.profit - 1.0, abs=1e-9)

    def test_size_refusal(self):
        cfg = self.two_period_cfg()
        with pytest.raises(se.OracleSizeError, match="cap"):
            se.enumerate_oracle(cfg, 0.5, max_points=10)

    def test_empty_grid_refusal(self):
        cfg = self.two_period_cfg()
        with pytest.raises(se.OracleSizeError, match="admissible"):
            se.enumerate_oracle(cfg, 7.0)

    @pytest.mark.parametrize("step, gamma_step", [
        (0.0, None), (-1.0, None), (np.nan, None), (np.inf, None),
        (18.5, 0.0), (18.5, -9.5), (18.5, np.nan)])
    def test_bad_step_refused(self, step, gamma_step):
        # bad input (exit 2), not a grid-size refusal (exit 6)
        cfg = self.two_period_cfg()
        with pytest.raises(ValueError, match="positive finite") as err:
            se.enumerate_oracle(cfg, step, gamma_grid_step=gamma_step)
        assert not isinstance(err.value, se.OracleSizeError)

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
    out = se.solve(bundle, se.SolveOptions(time_limit=60))
    return bundle, out.solution


class TestReserveValidation:
    def test_minimum_reserve_passes(self, solved):
        bundle, sol = solved
        report = gm.ValidationReport(reserve_mc=se.validate_reserve(
            sol, bundle.cfg, n_samples=50_000, seed=1))
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
        report = gm.ValidationReport(reserve_mc=se.validate_reserve(
            weak, bundle.cfg, n_samples=50_000, seed=1))
        assert not report.passed

    @pytest.mark.parametrize("case", ["case1_like", "case2_real", "toy3"])
    def test_draws_made_ahead_give_equal_rows(self, case, monkeypatch):
        # the draws run_pipeline and revalidate make ahead on a helper
        # thread are the ones the check makes without them; the count
        # itself never draws. toy3's reserves cover every period, so no
        # period reads the day's draws
        cfg = load_scenario(BENCH_INPUTS / f"{case}.json")
        sol = se.solve(build_bundle(cfg, 3)).solution
        in_call = []

        def counted_draws(pvs, wts, n, rng):
            in_call.append(len(pvs))
            return mc_draws(pvs, wts, n, rng)
        mc_draws = ps.mc_draws
        for seed in (1, 7, 2024):
            drawn = se.reserve_draws(cfg, 20_000, seed)
            rows = se.validate_reserve(sol, cfg, 20_000, seed)
            monkeypatch.setattr(ps, "mc_draws", counted_draws)
            assert se.validate_reserve(sol, cfg, 20_000, seed, drawn) == rows
            monkeypatch.undo()
            sampled = [row for row in rows if 0 < row["estimate"] < 1]
            assert bool(sampled) == (case != "toy3")
        assert in_call == []

    def test_confidence_ordering(self):
        cfg = scenario_from_dict(toy_dict())
        totals = []
        for conf in (0.85, 0.95):
            bundle = build_bundle(cfg.with_overrides(confidence=conf), 2)
            out = se.solve(bundle, se.SolveOptions(time_limit=60))
            totals.append(float(np.sum(out.solution.reserve_total)))
        assert totals[0] <= totals[1] + 1e-9


def best_posted_price(cfg, backend, relax_binaries, mu, gamma):
    return se._best_posted_price(cfg, bool(cfg.pipelines), 8, backend,
                                 relax_binaries, np.asarray(mu),
                                 np.asarray(gamma))


def random_prices(cfg, n, rng):
    p = cfg.prices
    pairs = [(se._random_admissible_prices(p.mu_min, p.mu_max, p.mu_av,
                                           cfg.horizon, rng),
              se._random_admissible_prices(p.gamma_min, p.gamma_max,
                                           p.gamma_av, cfg.horizon, rng))
             for _ in range(n)]
    return tuple(np.array(prices) for prices in zip(*pairs))


def moved(program, cfg, response):
    """A compiled dispatch program moved to another users' response."""
    rows, rhs = se._balance_rhs(program, cfg, *zip(response))
    return program.with_rhs(rows, rhs[0])


def counting(backend):
    """`backend` with each solved model's row lower bounds recorded."""
    calls = []
    solve = backend.solve

    def counted(model, *args):
        calls.append(model.row_lower.tobytes())
        return solve(model, *args)

    backend.solve = counted
    return backend, calls


class TestPostedPriceProfit:
    @pytest.mark.parametrize("relax_binaries", [False, True])
    def test_matches_mode4_objective(self, toy_cfg, relax_binaries):
        # mode 4 posts the proportional tariff to responding users, so its
        # optimum is the operator's profit at that tariff
        bundle = build_bundle(toy_cfg, 4)
        out = se.solve(bundle, se.SolveOptions(time_limit=60))
        mu, gamma = toy_cfg.proportional_prices()
        index, profit, response, n_solves = best_posted_price(
            toy_cfg, se.ScipyMilpBackend(), relax_binaries, [mu], [gamma])
        assert (index, n_solves) == (0, 1)
        assert profit == pytest.approx(out.result.objective, rel=1e-6)
        assert response[0] == pytest.approx(bundle.fixed["p_sl"])
        assert response[1] == pytest.approx(bundle.fixed["h_cl"])

    def test_cache_counts_solves(self, toy_cfg):
        # within one search each distinct response is solved at most
        # once, and every solve is a backend call
        backend, calls = counting(se.ScipyMilpBackend())
        mu, gamma = toy_cfg.proportional_prices()
        index, _, _, n_solves = best_posted_price(
            toy_cfg, backend, False, [mu] * 6, [gamma] * 6)
        assert index == 0
        assert n_solves == len(calls) == 1  # the copies are all visited
        flipped = mu[::-1].copy()
        backend, calls = counting(se.ScipyMilpBackend())
        n_solves = best_posted_price(toy_cfg, backend, False,
                                     [mu, flipped, mu, flipped],
                                     [gamma] * 4)[3]
        assert 1 <= n_solves == len(calls) == len(set(calls)) <= 2


def exhaustive_profits(cfg, backend, relax_binaries, mu, gamma):
    """Every pair's profit and users' response, from solving the dispatch
    of every pair, with no cuts."""
    responses = [gm.follower_best_response(m, g, cfg) for m, g in zip(mu, gamma)]
    program = se._dispatch_program(cfg, bool(cfg.pipelines), 8, relax_binaries,
                                   responses[0])
    results = [backend.solve(moved(program, cfg, r), 60.0, 1e-6)
               for r in responses]
    costs = [-res.objective if res.status == se.OPTIMAL else np.inf
             for res in results]
    profits = [gm.users_bill(cfg, m, g, *r) - cost
               for m, g, r, cost in zip(mu, gamma, responses, costs)]
    return profits, responses


def first_best(profits):
    """Index and value of the largest profit, earliest index on ties."""
    best = int(np.argmax(profits))
    return best, profits[best]


class Undercut(se.ScipyMilpBackend):
    """HiGHS with every dispatch cost 1e-9 relative below its optimum, as
    a backend solving to a looser feasibility tolerance may return."""

    def solve(self, *args):
        res = super().solve(*args)
        res.objective += 1e-9 * abs(res.objective)
        return res


class UndercutLp(se._DispatchLp):
    """The search's own LP with every relaxed dispatch cost, and so the
    intercept of its cut, 1e-9 relative below its optimum."""

    def cut(self, b):
        cost, lam = super().cut(b)
        return cost - 1e-9 * abs(cost), lam


def fresh_cut(model, rows):
    """The relaxed cost of a moved dispatch program and its slopes in the
    balance rows `rows`, from a cold `linprog` (`eqlin.marginals`); None
    when the relaxation has no optimum."""
    eq = model.row_lower == model.row_upper
    upper = ~eq & np.isfinite(model.row_upper)
    lower = ~eq & np.isfinite(model.row_lower)
    res = linprog(-model.c,
                  A_ub=sparse.vstack([model.a[upper], -model.a[lower]]),
                  b_ub=np.concatenate([model.row_upper[upper],
                                       -model.row_lower[lower]]),
                  A_eq=model.a[eq], b_eq=model.row_lower[eq],
                  bounds=np.column_stack([model.col_lower, model.col_upper]),
                  method="highs")
    if res.status != 0:
        return None
    return res.fun - model.obj_const, res.eqlin.marginals[np.cumsum(eq)[rows] - 1]


# relaxed searches price through their own LP, the reference through the
# backend's `milp`: both are HiGHS at optimality, so the profits agree to
# rounding (9.1e-13 apart on case2's ~2.1e3 was the largest seen)
RELAXED_PROFIT_RTOL = 1e-12


def assert_same_best(got, want, relax_binaries):
    """`got` is (index, profit) of `want`: exactly with the binaries kept,
    within `RELAXED_PROFIT_RTOL` in the profit when they are relaxed."""
    assert got[0] == want[0]
    if relax_binaries:
        assert got[1] == pytest.approx(want[1], rel=RELAXED_PROFIT_RTOL, abs=0)
    else:
        assert got[1] == want[1]


class TestPrunedSearch:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("case, relax_binaries, n", [
        ("toy", False, 60), ("toy", True, 60), ("case2", True, 25)])
    def test_equals_exhaustive(self, toy_cfg, case2_path, monkeypatch, case,
                               relax_binaries, n, seed):
        # the pruned search must return what pricing every pair through
        # the backend returns, also with the best pair repeated before or
        # after itself (earliest index wins)
        cfg = toy_cfg if case == "toy" else load_scenario(case2_path)
        mu, gamma = random_prices(cfg, n, np.random.default_rng(seed))
        backend = se.ScipyMilpBackend()
        profits, responses = exhaustive_profits(cfg, backend, relax_binaries,
                                                mu, gamma)
        top = first_best(profits)[0]
        # the best pair repeated before or after the list prices as itself
        cases = [((mu, gamma), profits, responses),
                 ((np.vstack([mu[top], mu]), np.vstack([gamma[top], gamma])),
                  [profits[top]] + profits, [responses[top]] + responses),
                 ((np.vstack([mu, mu[top]]), np.vstack([gamma, gamma[top]])),
                  profits + [profits[top]], responses + [responses[top]])]
        for prices, want_profits, want_responses in cases:
            index, profit, response, _ = best_posted_price(
                cfg, backend, relax_binaries, *prices)
            assert_same_best((index, profit), first_best(want_profits),
                             relax_binaries)
            for got, exp in zip(response, want_responses[index]):
                np.testing.assert_array_equal(got, exp)
        assert first_best(cases[1][1])[0] == 0
        assert first_best(cases[2][1])[0] == top

        # a near-tie the margin must keep: first a twin of the best pair
        # with the same response and a bill lower in its last bits, solved
        # first, then the best pair, judged only by the cut at its own
        # response; with costs just below the LP optimum that cut alone
        # would rule it out. The relaxed search takes its costs from its
        # own LP, so there the LP's costs are undercut
        twin = mu[top] * (1.0 - 1e-15)
        mu_list = np.vstack([twin, mu])
        gamma_list = np.vstack([gamma[top], gamma])
        want = first_best(exhaustive_profits(cfg, Undercut(), relax_binaries,
                                             mu_list, gamma_list)[0])
        assert want[0] == top + 1
        if relax_binaries:
            monkeypatch.setattr(se, "_DispatchLp", UndercutLp)
        got = best_posted_price(cfg, Undercut(), relax_binaries, mu_list,
                                gamma_list)
        assert_same_best(got[:2], want, relax_binaries)

    def test_one_cut_per_exact_solve(self, toy_cfg, monkeypatch):
        cuts = []
        cut = se._DispatchLp.cut

        def spy(*args):
            cuts.append(args)
            return cut(*args)

        monkeypatch.setattr(se._DispatchLp, "cut", spy)
        mu, gamma = random_prices(toy_cfg, 50, np.random.default_rng(4))
        n_solves = best_posted_price(toy_cfg, None, True, mu, gamma)[3]
        assert 1 <= len(cuts) == n_solves < 50

    @pytest.mark.parametrize("relax_binaries", [False, True])
    def test_cut_under_estimates_cost(self, toy_cfg, relax_binaries):
        # every cut lies below the exact dispatch cost at other responses
        cfg = toy_cfg
        backend = se.ScipyMilpBackend()
        rng = np.random.default_rng(8)
        responses = [random_follower_point(cfg, rng) for _ in range(6)]
        program = se._dispatch_program(cfg, True, 8, relax_binaries,
                                       responses[0])
        rows, rhs = se._balance_rhs(program, cfg, *zip(*responses))
        costs = [-backend.solve(program.with_rhs(rows, b), 60.0, 1e-6).objective
                 for b in rhs]
        lp = se._DispatchLp(program, rows)
        for b0 in rhs:
            c0, lam = lp.cut(b0)
            for b, cost in zip(rhs, costs):
                assert c0 + lam @ (b - b0) <= cost + 1e-6 * abs(cost)

    @pytest.mark.parametrize("case", ["toy", "case2"])
    def test_lp_matches_fresh_linprog(self, toy_cfg, case2_path, case):
        # the persistent LP, re-solved from the previous basis at each
        # response, against a cold `linprog` of each moved program: this
        # pins scipy's private HiGHS binding the search is built on. On
        # toy3 the third response leaves the dispatch infeasible, and the
        # solves after it start from that basis
        cfg = toy_cfg if case == "toy" else load_scenario(case2_path)
        rng = np.random.default_rng(6)
        responses = [random_follower_point(cfg, rng) for _ in range(6)]
        program = se._dispatch_program(cfg, bool(cfg.pipelines), 8, True,
                                       responses[0])
        rows, rhs = se._balance_rhs(program, cfg, *zip(*responses))
        lp = se._DispatchLp(program, rows)
        for b in rhs:
            cut = lp.cut(b)
            want = fresh_cut(program.with_rhs(rows, b), rows)
            assert (cut is None) == (want is None)
            if cut is None:
                continue
            (cost, lam), (want_cost, want_lam) = cut, want
            # largest differences seen: 1.7e-16 relative in the cost and
            # 2.1e-14 in the slopes (of size up to ~35)
            assert cost == pytest.approx(want_cost, rel=1e-12, abs=0)
            np.testing.assert_allclose(
                lam, want_lam, rtol=0,
                atol=1e-10 * max(1.0, float(np.max(np.abs(want_lam)))))

    @pytest.mark.parametrize("mode", [1, 2, 3, 4])
    @pytest.mark.parametrize("case", ["toy", "case1", "case2"])
    def test_milp_matches_public_milp(self, toy_cfg, case1_path, case2_path,
                                      case, mode):
        # every solve goes through scipy's private HiGHS binding (`se.milp`);
        # public `scipy.optimize.milp` at the same gap must reach the same
        # status and, within the gap, the same objective
        paths = {"case1": case1_path, "case2": case2_path}
        cfg = toy_cfg if case == "toy" else load_scenario(paths[case])
        model = build_bundle(cfg, mode).ir.compile()
        gap = 1e-4
        got = se.milp(model, 60.0, gap)
        want = milp(-model.c,
                    constraints=LinearConstraint(model.a, model.row_lower,
                                                 model.row_upper),
                    bounds=Bounds(model.col_lower, model.col_upper),
                    integrality=model.integrality,
                    options={"time_limit": 60.0, "mip_rel_gap": gap})
        assert got.status == se.OPTIMAL and want.status == 0
        assert model.objective(got.x) == pytest.approx(
            model.objective(want.x.tolist()), rel=gap, abs=0)


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
        args = (cfg, dhn_enabled, 8, relax_binaries)
        template = se._dispatch_program(
            *args, random_follower_point(cfg, rng))
        for _ in range(3):
            response = random_follower_point(cfg, rng)
            patched = moved(template, cfg, response)
            fresh = se._dispatch_program(*args, response)
            for name in COMPILED_ARRAYS:
                np.testing.assert_array_equal(getattr(patched, name),
                                              getattr(fresh, name))
            for name in ("indptr", "indices", "data"):
                np.testing.assert_array_equal(getattr(patched.a, name),
                                              getattr(fresh.a, name))
            assert patched.row_index == fresh.row_index
            assert model_digest(patched) == model_digest(fresh)
            assert not np.array_equal(patched.row_lower, template.row_lower)

    def test_dropped_heat_balance_keeps_build_check(self):
        # no CHP unit and no transport: the heat balances have no
        # variables, so a response that leaves heat unserved is refused
        # by the patch exactly as by the build
        cfg = scenario_from_dict(flat_single_unit_dict())
        args = (cfg, False, 8, True)
        zero = np.zeros(cfg.horizon)
        template = se._dispatch_program(*args, (zero, zero))
        assert not any(n.startswith("bal_h_") for n in template.row_index)
        bad = (zero, np.full(cfg.horizon, 0.5))
        with pytest.raises(gm.BuildError, match="row bal_h_0 demands -0.5"):
            se._dispatch_program(*args, bad)
        with pytest.raises(gm.BuildError, match="row bal_h_0 demands -0.5"):
            moved(template, cfg, bad)


def loop_deviations(cfg, n, rng):
    """`n` deviations drawn one at a time, as `no_deviation_check` drew
    them before the draws were batched: per deviation an electricity,
    then a heat price vector, each from `rng.uniform` and shifted to its
    average on its own."""
    t_count = cfg.horizon

    def one(lo, hi, avg):
        target = t_count * avg
        prices = rng.uniform(lo, hi, size=t_count)
        for _ in range(60):
            prices = np.clip(prices + (target - prices.sum()) / t_count, lo, hi)
            if abs(prices.sum() - target) < 1e-9:
                break
        resid = target - prices.sum()
        interior = (prices > lo + 1e-9) & (prices < hi - 1e-9)
        if abs(resid) > 1e-9 and interior.any():
            prices[interior] += resid / interior.sum()
        return np.clip(prices, lo, hi)

    p = cfg.prices
    pairs = [(one(p.mu_min, p.mu_max, p.mu_av),
              one(p.gamma_min, p.gamma_max, p.gamma_av)) for _ in range(n)]
    return tuple(np.array([pair[k] for pair in pairs]).reshape(n, t_count)
                 for k in (0, 1))


@pytest.mark.parametrize("n", [0, 1, 40])
@pytest.mark.parametrize("seed", [0, 3, 12, 2024])
def test_batched_draws_match_one_at_a_time(toy_cfg, case2_path, n, seed):
    for cfg in (toy_cfg, load_scenario(case2_path)):
        p = cfg.prices
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        drawn = se._random_admissible_prices(
            (p.mu_min, p.gamma_min), (p.mu_max, p.gamma_max),
            (p.mu_av, p.gamma_av), (n, 2, cfg.horizon), rng)
        mu, gamma = loop_deviations(cfg, n, ref_rng)
        assert drawn[:, 0].tobytes() == mu.tobytes()
        assert drawn[:, 1].tobytes() == gamma.tobytes()
        assert rng.random() == ref_rng.random()  # as many draws taken


# the case2 mode-3 deviation check (40 deviations, seed 12) at the optimum
# the relaxation gives, and the toy3 oracle on its 9.25/4.75 grid as the
# search found it one price pair at a time: floats by their hex, arrays by
# their bytes
PINNED_DEVIATION_CHECK = {
    "n_leader": 40,
    "max_follower_improvement": 0.0,
    "max_leader_improvement": float.fromhex("-0x1.3bb97b571eb20p+7"),
    "follower_ok": True, "leader_ok": True, "n_dispatch_solves": 2}
PINNED_ORACLE = {
    "best_mu": "0000000000a04d400000000000c055400000000000a04d40",
    "best_gamma": "000000000080434000000000000034400000000000803d40",
    "best_response": ("e17a14ae47e1da3f00000000000000000c9d36d06903bd3f",
                      "a4703d0ad7a3c03f111111111111b13f2cf9c5925f2cb93f"),
    "profit": float.fromhex("0x1.4de78702a780ap+7"),
    "grid_step": 9.25, "n_evaluations": 361, "n_dispatch_solves": 2}


class TestPinnedSearch:
    def test_case2_deviation_check(self, case2_path):
        bundle = build_bundle(load_scenario(case2_path), 3)
        out = se.solve(bundle)
        check = se.no_deviation_check(bundle, out.solution, n_deviations=40,
                                      seed=12)
        assert vars(check) == PINNED_DEVIATION_CHECK

    def test_toy_oracle(self, toy_cfg):
        result = se.enumerate_oracle(toy_cfg, 9.25, gamma_grid_step=4.75)
        got = dict(vars(result))
        got["best_mu"] = result.best_mu.tobytes().hex()
        got["best_gamma"] = result.best_gamma.tobytes().hex()
        got["best_response"] = tuple(a.tobytes().hex()
                                     for a in result.best_response)
        assert got == PINNED_ORACLE


class TestDeviationCheck:
    def test_relaxed_search_calls_no_backend(self, toy_cfg, monkeypatch):
        # every re-dispatch of the relaxed search is solved in its own LP
        bundle = build_bundle(toy_cfg, 3)
        out = se.solve(bundle, se.SolveOptions(time_limit=60))

        def refuse(*args, **kwargs):
            raise AssertionError("the relaxed search called a backend")

        monkeypatch.setattr(se.ScipyMilpBackend, "solve", refuse)
        monkeypatch.setattr(se, "milp", refuse)
        check = se.no_deviation_check(bundle, out.solution, n_deviations=40,
                                      seed=3)
        assert check.n_dispatch_solves >= 1
        assert check.leader_ok

    def test_fields_are_plain_python(self, toy_cfg):
        bundle = build_bundle(toy_cfg, 3)
        out = se.solve(bundle, se.SolveOptions(time_limit=60))
        check = se.no_deviation_check(bundle, out.solution, n_deviations=20,
                                      seed=2)
        fields = vars(check)
        assert json.loads(json.dumps(fields)) == fields
        assert type(check.max_leader_improvement) is float
        assert type(check.leader_ok) is bool
        assert type(check.n_dispatch_solves) is int

    def test_redispatch_uses_bundle_segments(self, toy_cfg, monkeypatch):
        bundle = build_bundle(toy_cfg, 3, n_segments=2)
        out = se.solve(bundle, se.SolveOptions(time_limit=60))
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
        out = se.solve(bundle, se.SolveOptions(time_limit=60))
        sol = out.solution
        check = se.no_deviation_check(bundle, sol, n_deviations=300, seed=5)
        best = gm.follower_best_response(sol.mu, sol.gamma, cfg)
        assert check.max_follower_improvement == (
            gm.follower_cost(cfg, sol.mu, sol.gamma, sol.p_sl, sol.h_cl)
            - gm.follower_cost(cfg, sol.mu, sol.gamma, *best))
        assert check.follower_ok
        assert check.leader_ok

    def test_perturbed_response_caught_exactly(self, toy_cfg):
        # 0.01 MW of shift moved from the cheapest to the dearest period
        # raises the users' bill by exactly the price spread; the check
        # must report that difference, not a sampled lower estimate
        bundle = build_bundle(toy_cfg, 3)
        sol = se.solve(bundle, se.SolveOptions(time_limit=60)).solution
        cheap, dear = int(np.argmin(sol.mu)), int(np.argmax(sol.mu))
        p_sl = sol.p_sl.copy()
        p_sl[cheap] -= 0.01
        p_sl[dear] += 0.01
        moved = dataclasses.replace(sol, p_sl=p_sl)
        check = se.no_deviation_check(bundle, moved, n_deviations=300,
                                      seed=11)
        best = gm.follower_best_response(sol.mu, sol.gamma, toy_cfg)
        exact = (gm.follower_cost(toy_cfg, sol.mu, sol.gamma, p_sl, sol.h_cl)
                 - gm.follower_cost(toy_cfg, sol.mu, sol.gamma, *best))
        assert exact == pytest.approx(
            0.01 * (sol.mu[dear] - sol.mu[cheap]) * toy_cfg.dt_hours)
        assert not check.follower_ok
        assert check.max_follower_improvement == pytest.approx(exact, abs=1e-9)
