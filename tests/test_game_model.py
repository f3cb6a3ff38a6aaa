import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import random_follower_point, toy_dict
from iesgame import game_model as gm
from iesgame import solve_engine as se
from iesgame import thermal_side as th
from iesgame.config import ConfigError, scenario_from_dict
from iesgame.kkt_reformulation import assemble_single_level
from iesgame.model_ir import ModelIR
from iesgame.scenario_cli import build_bundle


class TestConfigValidation:
    def test_toy_loads(self, toy_cfg):
        assert toy_cfg.horizon == 3
        assert len(toy_cfg.tp_units) == 1

    def test_bundled_scenarios_load(self, case1_path, case2_path):
        from iesgame.config import load_scenario
        for path in (case1_path, case2_path):
            cfg = load_scenario(path)
            assert cfg.horizon == 24

    def test_price_order_enforced(self):
        data = toy_dict()
        data["prices"]["mu_av"] = 100.0
        with pytest.raises(ConfigError, match="min <= av <= max"):
            scenario_from_dict(data)

    def test_alpha_range(self):
        data = toy_dict()
        data["idr"]["alpha"] = 1.0
        with pytest.raises(ConfigError, match="alpha"):
            scenario_from_dict(data)

    def test_profile_length(self):
        data = toy_dict()
        data["fixed_load_mw"] = [1.0, 2.0]
        with pytest.raises(ConfigError, match="per period"):
            scenario_from_dict(data)

    def test_missing_field(self):
        data = toy_dict()
        del data["prices"]
        with pytest.raises(ConfigError, match="prices"):
            scenario_from_dict(data)

    def test_shift_total_resolution(self):
        # a 10% ratio against 900 MWh of fixed load implies 100 MWh shiftable
        data = toy_dict()
        data["fixed_load_mw"] = [300.0, 300.0, 300.0]
        data["tp_units"][0]["p_max"] = 500.0  # keep static checks meaningful
        cfg = scenario_from_dict(data)
        assert cfg.shift_total() == pytest.approx(100.0)

    def test_baseline_shift_totals(self, toy_cfg):
        base = toy_cfg.baseline_shift()
        assert base.sum() == pytest.approx(toy_cfg.shift_total())
        assert np.all(base <= toy_cfg.shift_upper() + 1e-12)

    def test_proportional_prices_meet_average(self, toy_cfg):
        mu, gamma = toy_cfg.proportional_prices()
        assert mu.sum() == pytest.approx(3 * toy_cfg.prices.mu_av)
        assert gamma.sum() == pytest.approx(3 * toy_cfg.prices.gamma_av)

    def test_proportional_prices_band_enforced(self):
        data = toy_dict()
        data["fixed_load_mw"] = [0.4, 3.0, 1.4]  # spread leaves the band
        with pytest.raises(ConfigError, match="band"):
            scenario_from_dict(data).proportional_prices()


class TestDerivedProfileCache:
    def test_returned_arrays_are_read_only(self, toy_cfg):
        for arr in (toy_cfg.heat_base_load(), toy_cfg.heat_min_load(),
                    toy_cfg.expected_renewables(),
                    toy_cfg.joint_sequence(0).probs):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 1.0

    def test_each_joint_sequence_derived_once(self, toy_cfg, monkeypatch):
        from iesgame import prob_sequences as ps
        calls = []
        discretize = ps.discretize

        def counted(dist, q):
            calls.append(q)
            return discretize(dist, q)

        monkeypatch.setattr(ps, "discretize", counted)
        for _ in range(2):
            toy_cfg.expected_renewables()
            toy_cfg.reserve_requirements()
        assert len(calls) == toy_cfg.horizon  # toy3 has wind only
        assert toy_cfg.heat_base_load() is toy_cfg.heat_base_load()

    def test_overrides_copy_does_not_share_cache(self, toy_cfg):
        base = toy_cfg.heat_base_load()
        copy = toy_cfg.with_overrides(theta=200.0)
        assert copy.heat_base_load() is not base
        assert copy.heat_base_load() == pytest.approx(base)
        assert copy.expected_renewables() is not toy_cfg.expected_renewables()
        # the cache takes no part in equality or hashing
        fresh = scenario_from_dict(toy_dict())
        assert fresh == toy_cfg and hash(fresh) == hash(toy_cfg)


def loop_best_response(mu, gamma, cfg):
    """The users' best response to one price pair, period by period: the
    loop `follower_best_response` batches."""
    h_cl = np.clip(gamma / (2.0 * cfg.idr.theta), 0.0, cfg.cut_upper())
    lb, ub = cfg.shift_lower(), cfg.shift_upper()
    p_sl = lb.copy()
    remaining = cfg.shift_total() - float(lb.sum())
    for t in np.lexsort((np.arange(cfg.horizon), mu)):
        if remaining <= 1e-15:
            break
        add = min(float(ub[t] - lb[t]), remaining)
        p_sl[t] += add
        remaining -= add
    return p_sl, h_cl


@st.composite
def price_rows(draw):
    """A scenario of 1-5 periods, with a shift total that fills part or
    none of its room (alpha 0 leaves nothing to place), and 1-12 price
    rows drawn from few levels, so that periods tie."""
    horizon = draw(st.integers(1, 5))
    data = toy_dict()
    data["horizon"] = horizon
    data["fixed_load_mw"] = draw(st.lists(st.sampled_from([0.4, 1.4, 1.8]),
                                          min_size=horizon, max_size=horizon))
    data["outdoor_temp_c"] = [-8.0] * horizon
    data["idr"]["alpha"] = draw(st.sampled_from([0.0, 0.05, 0.1, 0.3]))
    data["idr"]["shift_max_frac"] = draw(st.sampled_from([0.05, 0.3, 1.0]))
    data["tp_units"][0]["p_max"] = 3.0
    try:
        cfg = scenario_from_dict(data)
    except ConfigError:  # a shift total beyond the periods' room
        assume(False)
    n = draw(st.integers(1, 12))
    levels = st.sampled_from([50.0, 61.0, 68.5, 68.5 + 1e-12, 87.0])
    mu = np.array(draw(st.lists(st.lists(levels, min_size=horizon,
                                         max_size=horizon),
                                min_size=n, max_size=n)))
    gamma = np.array(draw(st.lists(st.lists(st.sampled_from([20.0, 29.5, 39.0]),
                                            min_size=horizon, max_size=horizon),
                                   min_size=n, max_size=n)))
    return cfg, mu, gamma


class TestBatchedBestResponse:
    @settings(max_examples=60, deadline=None)
    @given(price_rows())
    def test_rows_match_the_loop_bit_for_bit(self, case):
        # ties go to the earliest period, and a row stops once no more
        # than 1e-15 is left to place, in every row of a batch as alone
        cfg, mu, gamma = case
        p_sl, h_cl = gm.follower_best_response(mu, gamma, cfg)
        assert p_sl.shape == h_cl.shape == mu.shape
        for i in range(len(mu)):
            row = gm.follower_best_response(mu[i], gamma[i], cfg)
            want = loop_best_response(mu[i], gamma[i], cfg)
            for got, alone, ref in zip((p_sl[i], h_cl[i]), row, want):
                assert alone.shape == (cfg.horizon,)
                assert got.tobytes() == alone.tobytes() == ref.tobytes()

    def test_tied_prices_fill_the_earliest_period(self, toy_cfg):
        mu = np.array([[68.5, 68.5, 68.5], [87.0, 50.0, 50.0]])
        p_sl, _ = gm.follower_best_response(mu, np.full((2, 3), 29.5), toy_cfg)
        room, total = toy_cfg.shift_upper(), toy_cfg.shift_total()
        assert room[0] < total < room[1]
        assert p_sl[0].tolist() == [room[0], total - room[0], 0.0]
        assert p_sl[1].tolist() == [0.0, total, 0.0]

    def test_stops_with_no_more_than_1e_15_left(self):
        # the first two periods' room leaves 5.6e-17 of the shift total
        # unplaced: the fill stops there, and the third period gets none
        data = toy_dict()
        data["fixed_load_mw"] = [0.3, 0.7, 1.1]
        data["idr"].update(alpha=0.25, shift_max_frac=0.7)
        cfg = scenario_from_dict(data)
        room = cfg.shift_upper()
        left = cfg.shift_total() - float(room[0]) - float(room[1])
        assert 0.0 < left <= 1e-15
        mu = np.array([[50.0, 61.0, 87.0], [61.0, 50.0, 87.0]])
        p_sl, _ = gm.follower_best_response(mu, np.full((2, 3), 29.5), cfg)
        assert p_sl[:, 2].tolist() == [0.0, 0.0]
        assert p_sl[0].tobytes() == loop_best_response(mu[0], mu[0], cfg)[0].tobytes()

    def test_one_row_out_of_band_refused(self, toy_cfg):
        mu = np.full((4, 3), 68.5)
        mu[2, 1] = 87.0 + 1e-6
        with pytest.raises(ValueError, match="band"):
            gm.follower_best_response(mu, np.full((4, 3), 29.5), toy_cfg)

    def test_bills_match_one_row_at_a_time(self, toy_cfg, case2_path):
        from iesgame.config import load_scenario
        for cfg in (toy_cfg, load_scenario(case2_path)):
            p = cfg.prices
            mu, gamma = np.moveaxis(se._random_admissible_prices(
                (p.mu_min, p.gamma_min), (p.mu_max, p.gamma_max),
                (p.mu_av, p.gamma_av), (40, 2, cfg.horizon),
                np.random.default_rng(5)), 1, 0)
            p_sl, h_cl = gm.follower_best_response(mu, gamma, cfg)
            bills = gm.users_bill(cfg, mu, gamma, p_sl, h_cl)
            assert bills.tobytes() == np.array(
                [gm.users_bill(cfg, *row)
                 for row in zip(mu, gamma, p_sl, h_cl)]).tobytes()


class TestFollowerBestResponse:
    def test_interior_closed_form(self, toy_cfg):
        # gamma/(2 theta) with theta=150
        mu = np.array([60.0, 70.0, 75.5])
        gamma = np.array([30.0, 25.0, 33.5])
        _, h_cl = gm.follower_best_response(mu, gamma, toy_cfg)
        assert h_cl == pytest.approx(gamma / 300.0)

    def test_clamped_at_cap(self):
        data = toy_dict()
        data["idr"]["theta"] = 0.8  # 64/(2*0.8) = 40 far above the cut cap
        cfg = scenario_from_dict(data)
        mu = np.full(3, 68.5)
        gamma = np.array([39.0, 29.5, 20.0])
        _, h_cl = gm.follower_best_response(mu, gamma, cfg)
        assert h_cl == pytest.approx(cfg.cut_upper())

    def test_greedy_fill_order(self):
        # prices [90, 40, 65], caps 10 each, total 12 -> [0, 10, 2]
        data = toy_dict()
        data["prices"] = {"mu_min": 40.0, "mu_max": 90.0, "mu_av": 65.0,
                          "gamma_min": 20.0, "gamma_max": 39.0,
                          "gamma_av": 29.5}
        data["fixed_load_mw"] = [36.0, 36.0, 36.0]
        data["idr"]["alpha"] = 0.1
        data["idr"]["shift_max_frac"] = 10.0 / 36.0
        data["tp_units"][0]["p_max"] = 60.0
        cfg = scenario_from_dict(data)
        assert cfg.shift_total() == pytest.approx(12.0)
        p_sl, _ = gm.follower_best_response(
            np.array([90.0, 40.0, 65.0]), np.full(3, 29.5), cfg)
        assert p_sl == pytest.approx([0.0, 10.0, 2.0])

    def test_price_band_required(self, toy_cfg):
        with pytest.raises(ValueError, match="band"):
            gm.follower_best_response(np.array([10.0, 68.5, 68.5]),
                                      np.full(3, 29.5), toy_cfg)

    def test_beats_random_feasible_points(self, toy_cfg):
        rng = np.random.default_rng(42)
        for _ in range(3):
            mu = se._random_admissible_prices(50.0, 87.0, 68.5, 3, rng)
            gamma = se._random_admissible_prices(20.0, 39.0, 29.5, 3, rng)
            p_sl, h_cl = gm.follower_best_response(mu, gamma, toy_cfg)
            best = gm.follower_cost(toy_cfg, mu, gamma, p_sl, h_cl)
            for _ in range(1000):
                q_sl, q_cl = random_follower_point(toy_cfg, rng)
                assert gm.follower_cost(toy_cfg, mu, gamma, q_sl, q_cl) >= \
                    best - 1e-9

    def test_cost_convex_in_heat_cut(self, toy_cfg):
        # midpoint of the cost along any heat-cut axis sits strictly below
        # the chord: the squared penalty has positive curvature
        mu = np.full(3, 68.5)
        gamma = np.full(3, 29.5)
        p_sl = toy_cfg.baseline_shift()
        lo, hi = np.zeros(3), toy_cfg.cut_upper()
        mid = (lo + hi) / 2
        f = lambda h: gm.follower_cost(toy_cfg, mu, gamma, p_sl, h)
        assert f(mid) < (f(lo) + f(hi)) / 2 - 1e-9


class TestBuildLeader:
    def test_price_average_row_value(self, case1_path):
        from iesgame.config import load_scenario
        cfg = load_scenario(case1_path)
        bundle = build_bundle(cfg, 3)
        row = next(r for r in bundle.ir.rows if r.name == "price_avg_mu")
        assert row.rhs == pytest.approx(24 * 65.0)  # 1560

    def test_chp_cost_coefficients(self, toy_cfg):
        # published CHP row at P = 2 MW, H = 0: 4.4*2^2 + 13.29*2 + 39
        u = toy_cfg.chp_units[0]
        y = 2.0 + u.c_v * 0.0
        cost = u.cost_a * y ** 2 + u.cost_b * y + u.cost_c
        assert cost == pytest.approx(83.18)

    def test_static_capacity_check(self):
        data = toy_dict()
        data["fixed_load_mw"] = [5.0, 5.0, 5.0]
        cfg = scenario_from_dict(data)
        with pytest.raises(gm.BuildError, match="capacity"):
            build_bundle(cfg, 2)

    def test_pipeline_delivery_check(self):
        data = toy_dict()
        data["pipelines"][0]["mass_flow_kg_s"] = 40.0  # floor above the load
        cfg = scenario_from_dict(data)
        with pytest.raises(gm.BuildError, match="delivery"):
            build_bundle(cfg, 2)

    def test_degenerate_game_has_no_follower_variables(self):
        data = toy_dict()
        data["idr"]["alpha"] = 0.0
        cfg = scenario_from_dict(data)
        bundle = build_bundle(cfg, 2)
        assert not any(n.startswith(("p_sl", "h_cl"))
                       for n in bundle.ir.variables)

    def test_mode_one_skips_transport(self, toy_cfg):
        bundle = build_bundle(toy_cfg, 1)
        assert "t_sw" not in bundle.names or not bundle.names["t_sw"]
        assert not any(n.startswith("t_sw") for n in bundle.ir.variables)

    def test_fixed_response_conflict(self, toy_cfg):
        # a response to dispatch at zero prices has no place in the game,
        # where the users respond to the optimized prices
        with pytest.raises(gm.BuildError):
            gm.build_leader(toy_cfg, gm.ModeSettings.for_mode(3),
                            dispatch_response=(toy_cfg.baseline_shift(),
                                               np.zeros(3)))

    def test_game_built_from_public_entry(self, toy_cfg):
        # optimized prices make build_leader add the users' block itself
        bundle = gm.build_leader(toy_cfg, gm.ModeSettings.for_mode(3))
        names = bundle.ir.variables
        for t in range(toy_cfg.horizon):
            assert f"p_sl_{t}" in names and f"h_cl_{t}" in names
        assemble_single_level(bundle)
        assert len(bundle.ir.binary_names) == 2 * toy_cfg.horizon
        out = se.solve(bundle, se.SolveOptions(time_limit=60))
        assert out.result.status == se.OPTIMAL
        assert out.result.objective == pytest.approx(166.92037, rel=1e-4)
        assert out.report.passed, out.report.violations[:3]


def with_indicator_reserve(bundle: gm.ModelBundle) -> ModelIR:
    """The bundle's program with each `res_min_t` row replaced by the
    paper's sequence-operation form, rebuilt from the scenario's reserve
    requirements:
    a binary w_m per output level, r >= thr_m - M (1 - w_m), and the
    coverage row sum_m p_m w_m >= confidence."""
    ir = bundle.ir
    out = ModelIR(ir.name + "_indicators")
    for var in ir.variables.values():
        out.add_columns([var.name], var.lb, var.ub, var.binary)
    out.obj_linear = dict(ir.obj_linear)
    out.obj_quad = dict(ir.obj_quad)
    out.obj_const = ir.obj_const
    rows = ir.rows
    out.add_row_list([(row.name, dict(row.coeffs), row.sense, row.rhs)
                      for row in rows if not row.name.startswith("res_min_")])
    reserve = {row.name: row.coeffs for row in rows if row.name.startswith("res_min_")}
    for t, req in enumerate(bundle.cfg.reserve_requirements()):
        r_coeffs = reserve[f"res_min_{t}"]
        big_m = max(req.thresholds[0], 1e-9)  # no threshold exceeds E
        w = out.add_block(f"w_res_{t}", len(req.thresholds), 0.0, 1.0, binary=True)
        out.add_row_list(
            [(f"res_lvl_{t}_{m}", {**r_coeffs, w[m]: -big_m}, ">=", float(thr) - big_m)
             for m, thr in enumerate(req.thresholds)]
            + [(f"res_cov_{t}", {w_m: float(d) for w_m, d in zip(w, req.level_probs)},
                ">=", req.confidence)])
    return out


class TestReserveRow:
    def test_one_row_per_period(self, toy_cfg):
        cfg = toy_cfg.with_overrides(confidence=0.8)
        bundle = build_bundle(cfg, 2)
        rows = {r.name: r for r in bundle.ir.rows if r.name.startswith("res_")}
        assert sorted(rows) == [f"res_min_{t}" for t in range(toy_cfg.horizon)]
        reqs = cfg.reserve_requirements()
        for t, req in enumerate(reqs):
            assert rows[f"res_min_{t}"].rhs == req.min_reserve()
        # the confidence level has one source: the scenario
        assert bundle.cfg.confidence == 0.8
        assert all(req.confidence == 0.8 for req in reqs)

    @pytest.mark.parametrize("mode", [1, 2, 3, 4])
    def test_matches_indicator_form(self, toy_cfg, mode):
        bundle = build_bundle(toy_cfg, mode)
        assert max(r.min_reserve() for r in toy_cfg.reserve_requirements()) > 0
        backend = se.ScipyMilpBackend()
        row = backend.solve(bundle.ir, 60.0, 1e-4)
        reference = backend.solve(with_indicator_reserve(bundle), 60.0, 1e-4)
        assert row.status == reference.status == se.OPTIMAL
        assert row.objective == pytest.approx(
            reference.objective, rel=1e-4, abs=1e-6)


class TestPriceMonotonicity:
    def test_revenue_argmax_hits_band_structure(self):
        # with quantities fixed the profit rises in every price, so the
        # argmax over the band plus average row is the continuous knapsack:
        # top prices go to the heaviest loads
        loads = np.array([3.0, 1.0, 2.0, 4.0])
        lo, hi, avg = 40.0, 90.0, 65.0
        ir = ModelIR("prices_only")
        names = ir.add_block("mu", 4, lo, hi)
        for t, name in enumerate(names):
            ir.add_obj_linear(name, float(loads[t]))
        ir.add_row_list([("avg", {n: 1.0 for n in names}, "==", 4 * avg)])
        res = se.ScipyMilpBackend().solve(ir, 10.0, 1e-9)

        budget = 4 * avg - 4 * lo
        greedy = np.full(4, lo)
        for t in np.argsort(-loads):
            add = min(hi - lo, budget)
            greedy[t] += add
            budget -= add
        assert res.objective == pytest.approx(float(loads @ greedy))
        flat = float(loads.sum() * avg)
        assert res.objective > flat


def hand_built_mode2(cfg):
    """Feasible point for the three-period toy, mode 2, built from the
    physical formulas (delay on the single pipeline is 6 periods, which
    wraps to the identity on a 3-period cycle); its MILP objective is its
    exact profit, so it verifies under a PWL error bound of 0."""
    t_count = cfg.horizon
    pipe = cfg.pipelines[0]
    heat_base = cfg.heat_base_load()
    t_rw = np.full(t_count, 50.0)
    hco = th.WATER_HEAT_CAPACITY_KJ * pipe.mass_flow_kg_s / 1000.0
    t_sw = t_rw + heat_base / hco
    h_src = np.array([heat_base[t] + th.pipe_loss(pipe, t_sw[t])
                      for t in range(t_count)])
    h_chp = h_src.copy()

    p_sl = cfg.baseline_shift()
    load_eff = np.asarray(cfg.fixed_load) + p_sl
    p_tp = np.full(t_count, 0.3)
    p_chp = load_eff - p_tp
    r_req = np.array([r.min_reserve() for r in cfg.reserve_requirements()])

    mu, gamma = cfg.proportional_prices()
    sol = gm.EquilibriumSolution(
        mu=mu, gamma=gamma, p_sl=p_sl, h_cl=np.zeros(t_count),
        p_tp=p_tp[None, :], r_tp=r_req[None, :],
        p_chp=p_chp[None, :], h_chp=h_chp[None, :],
        r_chp=np.zeros((1, t_count)),
        p_ch=np.zeros(t_count), p_dh=np.zeros(t_count),
        soc=np.zeros(t_count), r_bess=np.zeros(t_count),
        p_res=np.zeros(t_count),
        t_sw=t_sw[None, :], t_rw=t_rw[None, :], h_src=h_src[None, :],
        f1=0.0, f2=0.0, objective_milp=0.0)
    sol.f1 = gm.leader_profit(cfg, sol)
    sol.f2 = gm.follower_cost(cfg, mu, gamma, sol.p_sl, sol.h_cl)
    sol.objective_milp = sol.f1
    return sol


MODE2 = gm.ModeSettings.for_mode(2)


class TestVerifySolution:
    def test_hand_built_point_clean(self, toy_cfg):
        sol = hand_built_mode2(toy_cfg)
        report = gm.verify_solution(sol, toy_cfg, MODE2, 0.0)
        assert report.violations == []
        assert report.passed

    def test_price_average_perturbation_flagged_alone(self, toy_cfg):
        sol = hand_built_mode2(toy_cfg)
        sol.mu = sol.mu.copy()
        sol.mu[0] += 1.0
        sol.f1 = gm.leader_profit(toy_cfg, sol)
        sol.f2 = gm.follower_cost(toy_cfg, sol.mu, sol.gamma, sol.p_sl, sol.h_cl)
        sol.objective_milp = sol.f1
        report = gm.verify_solution(sol, toy_cfg, MODE2, 0.0)
        assert [v.check for v in report.violations] == ["price_average_mu"]

    def test_tampered_balance_flagged(self, toy_cfg):
        sol = hand_built_mode2(toy_cfg)
        sol.p_tp = sol.p_tp.copy()
        sol.p_tp[0, 1] += 0.01
        report = gm.verify_solution(sol, toy_cfg, MODE2, 0.0)
        assert any(v.check == "electric_balance" for v in report.violations)

    def test_best_response_mismatch_flagged(self, toy_cfg):
        bundle = build_bundle(toy_cfg, 3)
        out = se.solve(bundle, se.SolveOptions(time_limit=60))
        sol = out.solution
        sol.h_cl = sol.h_cl.copy()
        sol.h_cl[0] += 0.02  # interior shift away from gamma/(2 theta)
        report = gm.verify_solution(sol, toy_cfg, bundle.mode,
                                    bundle.pwl_error_bound)
        assert any(v.check == "best_response_heat" for v in report.violations)

    def test_modes_without_response_pin_baseline(self, toy_cfg):
        for mode in (1, 2):
            bundle = build_bundle(toy_cfg, mode)
            out = se.solve(bundle, se.SolveOptions(time_limit=60))
            assert out.report.passed
            assert out.solution.p_sl == pytest.approx(
                toy_cfg.baseline_shift(), abs=1e-9)
            # moving load between periods is a response these modes lack
            sol = out.solution
            sol.p_sl = sol.p_sl + np.array([0.05, -0.05, 0.0])
            report = gm.verify_solution(sol, toy_cfg, bundle.mode,
                                        bundle.pwl_error_bound)
            assert ("response_off", "p_sl") in {(v.check, v.detail)
                                                for v in report.violations}
