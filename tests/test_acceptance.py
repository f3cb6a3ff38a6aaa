"""Acceptance gate: every criterion checked at its stated tolerance,
one printed PASS/FAIL line per criterion (run with -s or -rA to see them).

Criterion 2 is checked exactly as stated and fails: the transport-loss
formula at supply temperatures in [90, 100] C yields 0.212-0.236 MW for
the three 7.5 km pipelines, outside the published 0.15-0.20 MW band
(the published per-pipeline attenuations of 0.16-0.18 MW would require
supply temperatures of 72-78 C, below the 90 C floor). The remaining
criteria pass.
"""
import time

import numpy as np
import pytest

from conftest import toy_dict
from iesgame import game_model as gm
from iesgame import kkt_reformulation as kkt
from iesgame import prob_sequences as ps
from iesgame import solve_engine as se
from iesgame import thermal_side as th
from iesgame.config import load_scenario, scenario_from_dict
from iesgame.scenario_cli import build_bundle

REPORTED_DELAYS = [1.57, 1.98, 1.96, 1.51, 1.83, 2.29]


def announce(criterion: int, ok: bool, detail: str) -> None:
    print(f"CRITERION {criterion} {'PASS' if ok else 'FAIL'}: {detail}")


@pytest.fixture(scope="module")
def case1_cfg(case1_path):
    return load_scenario(case1_path)


@pytest.fixture(scope="module")
def case2_cfg(case2_path):
    return load_scenario(case2_path)


@pytest.fixture(scope="module")
def toy_mode3():
    cfg = scenario_from_dict(toy_dict())
    bundle = build_bundle(cfg, 3)
    out = se.solve(bundle, se.SolveOptions(time_limit=60))
    assert out.result.status == se.OPTIMAL
    return cfg, bundle, out


@pytest.fixture(scope="module")
def case2_mode3(case2_cfg):
    bundle = build_bundle(case2_cfg, 3)
    out = se.solve(bundle, se.SolveOptions(time_limit=120))
    assert out.result.status == se.OPTIMAL
    return case2_cfg, bundle, out


def test_criterion_1_pipeline_delay_reproduction(case1_cfg):
    flows = [th.pipe_delay(pipe, 1.0)[0] for pipe in case1_cfg.pipelines]
    started = time.perf_counter()
    flows = [th.pipe_delay(pipe, 1.0)[0] for pipe in case1_cfg.pipelines]
    elapsed = time.perf_counter() - started
    deviations = [abs(f - r) for f, r in zip(flows, REPORTED_DELAYS)]
    ok = max(deviations) <= 0.01 and elapsed < 1e-3
    announce(1, ok, f"flow times {[round(f, 3) for f in flows]} h vs "
                    f"{REPORTED_DELAYS}, max dev {max(deviations):.4f} h, "
                    f"computed in {elapsed * 1e6:.0f} us")
    assert max(deviations) <= 0.01
    assert elapsed < 1e-3


def test_criterion_2_thermal_attenuation_band(case1_cfg):
    started = time.perf_counter()
    losses = {t_sw: [th.pipe_loss(pipe, t_sw) for pipe in case1_cfg.pipelines]
              for t_sw in (90.0, 95.0, 100.0)}
    elapsed = time.perf_counter() - started
    worst = {t: [round(v, 4) for v in vals] for t, vals in losses.items()}
    in_band = all(0.15 <= v <= 0.20 for vals in losses.values() for v in vals)
    announce(2, in_band and elapsed < 1e-3,
             f"per-pipeline losses {worst} MW against the published "
             "[0.15, 0.20] MW band; the 7.0-7.5 km pipelines exceed 0.20 MW "
             "at every admissible supply temperature, so the published band "
             "is inconsistent with the transport-loss formula at these "
             "lengths")
    assert elapsed < 1e-3
    for t_sw, vals in losses.items():
        for idx, value in enumerate(vals):
            assert 0.15 <= value <= 0.20, (
                f"pipeline {idx} at {t_sw} C: loss {value:.4f} MW outside "
                "[0.15, 0.20] MW")


def test_criterion_3_sot_reserve_correctness(case2_cfg):
    started = time.perf_counter()
    joints = [case2_cfg.joint_sequence(t) for t in range(case2_cfg.horizon)]
    rng = np.random.default_rng(2024)
    totals = []
    worst_margin = np.inf
    periods = range(case2_cfg.horizon)
    pv_models = [case2_cfg.pv_model_for(t) for t in periods]
    wt_models = [case2_cfg.wt_model_for(t) for t in periods]
    for conf in (0.85, 0.90, 0.95):
        reqs = [ps.reserve_rows(joint, conf) for joint in joints]
        totals.append(sum(r.min_reserve() for r in reqs))
        estimates = ps.chance_satisfaction_mc(
            pv_models, wt_models, [req.thresholds[0] for req in reqs],
            [req.min_reserve() for req in reqs], 100_000,
            ps.mc_draws(pv_models, wt_models, 100_000, rng))
        for t, (estimate, _) in enumerate(estimates):
            worst_margin = min(worst_margin,
                               estimate - (conf - ps.MC_ALLOWANCE))
            assert estimate >= conf - ps.MC_ALLOWANCE, (
                f"period {t} at confidence {conf}: {estimate:.4f}")
    monotone = all(a <= b + 1e-9 for a, b in zip(totals, totals[1:]))
    elapsed = time.perf_counter() - started
    announce(3, monotone and elapsed < 30.0,
             f"reserve totals {[round(x, 3) for x in totals]} MW at "
             f"confidence 0.85/0.90/0.95, worst MC margin "
             f"{worst_margin:+.4f}, {elapsed:.1f}s")
    assert monotone
    assert elapsed < 30.0


def test_criterion_4_bilevel_consistency(toy_mode3):
    cfg, bundle, out = toy_mode3
    sol = out.solution
    started = time.perf_counter()
    oracle = se.enumerate_oracle(cfg, 9.25, gamma_grid_step=4.75)
    elapsed = time.perf_counter() - started

    max_pl = float(np.max(np.asarray(cfg.fixed_load) + cfg.shift_upper()))
    max_hl = float(np.max(cfg.heat_base_load()))
    grid_sensitivity = 9.25 * max_pl + 4.75 * max_hl
    tolerance = bundle.pwl_error_bound + grid_sensitivity
    gap = abs(sol.f1 - oracle.profit)

    br_sl, br_cl = gm.follower_best_response(sol.mu, sol.gamma, cfg)
    heat_dev = float(np.max(np.abs(sol.h_cl - br_cl)))
    shift_dev = 0.0
    for price in np.unique(np.round(sol.mu, 9)):
        idx = np.abs(sol.mu - price) < 1e-9
        shift_dev = max(shift_dev, abs(float(sol.p_sl[idx].sum())
                                       - float(br_sl[idx].sum())))

    ok = gap <= tolerance and heat_dev <= 1e-5 and shift_dev <= 1e-5 \
        and elapsed < 60.0
    announce(4, ok, f"profit gap {gap:.4f} (tolerance {tolerance:.2f} over "
                    f"{oracle.n_evaluations} grid points), closed-form "
                    f"response deviation {max(heat_dev, shift_dev):.2e} MW, "
                    f"{elapsed:.1f}s")
    assert gap <= tolerance
    assert sol.f1 >= oracle.profit - bundle.pwl_error_bound - 1e-6
    assert heat_dev <= 1e-5
    assert shift_dev <= 1e-5
    assert elapsed < 60.0


@pytest.mark.parametrize("which", ["toy", "case2"])
def test_criterion_5_equilibrium_properties(which, toy_mode3, case2_mode3):
    cfg, bundle, out = toy_mode3 if which == "toy" else case2_mode3
    sol = out.solution
    p = cfg.prices

    mu_gap = abs(float(sol.mu.sum()) - cfg.horizon * p.mu_av)
    gamma_gap = abs(float(sol.gamma.sum()) - cfg.horizon * p.gamma_av)
    assert mu_gap <= 1e-6 and gamma_gap <= 1e-6

    values = out.result.values
    comp_worst = 0.0
    for family in kkt.complementarity(bundle):
        prefix, primal, sign, const, duals = family
        m_primal, m_dual = kkt.big_m(bundle.ir, family)
        for t in range(cfg.horizon):
            g = const[t] + sign * values[primal[t]]
            d = values[duals[t]]
            limit = 1e-6 * max(m_primal[t], m_dual[t], 1.0)
            comp_worst = max(comp_worst, g * d)
            assert g * d <= limit, f"{prefix}_{t}"

    comfort = [v for v in gm.verify_solution(sol, cfg, bundle.mode,
                                             bundle.pwl_error_bound).violations
               if v.check == "comfort_window"]
    assert comfort == []

    check = se.no_deviation_check(bundle, sol, n_deviations=1000,
                                  seed=11 if which == "toy" else 12)
    announce(5, check.follower_ok and check.leader_ok,
             f"[{which}] price-average gaps ({mu_gap:.1e}, {gamma_gap:.1e}), "
             f"worst complementarity {comp_worst:.2e}, comfort windows "
             f"clean, 1000-deviation improvements: follower "
             f"{check.max_follower_improvement:+.2e}, leader "
             f"{check.max_leader_improvement:+.2e}")
    assert check.follower_ok
    assert check.leader_ok


def test_criterion_6_mode_ordering(case2_cfg):
    results = {}
    for mode in (1, 2, 3, 4):
        bundle = build_bundle(case2_cfg, mode)
        out = se.solve(bundle, se.SolveOptions(time_limit=120))
        assert out.result.status == se.OPTIMAL, f"mode {mode}"
        assert out.report.passed, f"mode {mode}"
        results[mode] = out.solution
    absorbed = {m: results[m].absorbed for m in results}
    f1 = {m: results[m].f1 for m in results}
    f2 = {m: results[m].f2 for m in results}
    tol = 1e-6
    ok_abs = absorbed[3] >= absorbed[2] - tol >= absorbed[1] - 2 * tol
    ok_f1 = f1[4] <= f1[3] + tol <= f1[2] + 2 * tol
    announce(6, ok_abs and ok_f1,
             f"absorbed {[round(absorbed[m], 3) for m in (1, 2, 3)]} MWh "
             f"(mode 3 >= 2 >= 1), profits "
             f"{[round(f1[m], 1) for m in (4, 3, 2)]} $ (mode 4 <= 3 <= 2)")
    assert ok_abs
    assert ok_f1
    # side orderings observed in the source comparison: network effects
    # help the operator, and responding users never pay more
    assert f1[1] <= f1[2] + tol
    assert f2[3] <= f2[2] + tol
    assert f2[4] <= f2[3] + tol


def test_criterion_7_penalty_factor_sweep(case1_cfg):
    started = time.perf_counter()
    cuts = {}
    for theta in (0.6, 0.8, 1.0):
        cfg = case1_cfg.with_overrides(theta=theta)
        bundle = build_bundle(cfg, 3)
        out = se.solve(bundle, se.SolveOptions(time_limit=120))
        assert out.result.status == se.OPTIMAL
        cuts[theta] = out.solution.h_cl
    elapsed = time.perf_counter() - started

    day = [t for t in range(24) if case1_cfg.pmv.is_day(t)]
    night = [t for t in range(24) if not case1_cfg.pmv.is_day(t)]
    nonincreasing = (np.all(cuts[0.8] <= cuts[0.6] + 1e-6)
                     and np.all(cuts[1.0] <= cuts[0.8] + 1e-6))
    night_heavier = all(float(np.mean(cuts[th_][night]))
                        >= float(np.mean(cuts[th_][day])) - 1e-6
                        for th_ in cuts)
    announce(7, bool(nonincreasing and night_heavier and elapsed < 300),
             f"total cuts {[round(float(cuts[t].sum()), 1) for t in (0.6, 0.8, 1.0)]} "
             f"MWh for penalties 0.6/0.8/1.0, night mean >= day mean at "
             f"every penalty, {elapsed:.1f}s")
    assert nonincreasing
    assert night_heavier
    assert elapsed < 300.0


def test_criterion_8_runtime_parity(case2_mode3):
    _, _, out = case2_mode3
    ok = out.result.runtime_s < 60.0 and out.result.gap <= 1e-4
    announce(8, ok, f"24-period solve to gap {out.result.gap:.1e} in "
                    f"{out.result.runtime_s:.1f}s (budget 60s)")
    assert out.result.gap <= 1e-4
    assert out.result.runtime_s < 60.0
