"""Pinned run outputs and violation reports.

`run_pipeline` on the bench inputs writes `periods.csv` and
`validation.json` whose bytes are pinned here, so a change to extraction,
verification or CSV writing that leaves the programs alone still shows.
A change that moves an optimum or a file on purpose updates the hashes
and says which moved and why.

The violation pins perturb solved solutions so that every check
`verify_solution` and `check_kkt` state fires, and pin each entry's
magnitude and limit. A later report must hold every pinned entry with an
equal magnitude and limit; an entry it adds must have a NaN magnitude (a
NaN that the scalar `max` of an earlier version dropped).
"""
import hashlib
import math
from pathlib import Path

import pytest

from iesgame import game_model as gm
from iesgame import scenario_cli as cli
from iesgame import solve_engine as se
from iesgame.config import load_scenario
from iesgame.kkt_reformulation import check_kkt

NAN = math.nan
BENCH_INPUTS = Path(__file__).resolve().parents[1] / "bench" / "inputs"

# sha256 of the (periods.csv, validation.json) bytes of a seed-1 run
RUN_SHA256 = {
    ("toy3", 1): ("20441b4c56ff29a40a942336fc10b63081b8fb6b257b3fa835b93a25c67e780d",
                "2493ea29c0b7d27e6849699f8092a4cd784f18132a6009f6e6c580e2550f5d3f"),
    ("toy3", 2): ("fe57b236f776d63551b99891eb11912fb76ff4a3089394246d131ea4e4f4b179",
                "2493ea29c0b7d27e6849699f8092a4cd784f18132a6009f6e6c580e2550f5d3f"),
    ("toy3", 3): ("5493621510a2e447847a835810ff2443ed9f426e44f4bbc3063ba9f8f00d6c47",
                "2493ea29c0b7d27e6849699f8092a4cd784f18132a6009f6e6c580e2550f5d3f"),
    ("toy3", 4): ("2a19936cfc3d3c64d7cfa7275c948f04d2b22a50d65d724070d8148980ab53f3",
                "2493ea29c0b7d27e6849699f8092a4cd784f18132a6009f6e6c580e2550f5d3f"),
    ("case1_like", 1): ("5a24fe3eba959aec1dc2ee7d73856bb25d923e33471434c62c591250ee8e6299",
                      "8cb1ef563ff05a458296f9205874bcddf0ee50f6b5d5b18e827bda897067dcbb"),
    ("case1_like", 2): ("ea2d722e2c8b571d039b7be54dc82db01fd12fdadbd48fccfd9c5ffcb468badc",
                      "8cb1ef563ff05a458296f9205874bcddf0ee50f6b5d5b18e827bda897067dcbb"),
    ("case1_like", 3): ("4d8c90dc414da6f5e1884da999613eb2c54b1023e0a90bdedafa604c66ff6d84",
                      "8cb1ef563ff05a458296f9205874bcddf0ee50f6b5d5b18e827bda897067dcbb"),
    ("case1_like", 4): ("c5895f7849adcb935f0d7cadc6d5d048cfef70c6b1936defbd6b044306d5cbc1",
                      "8cb1ef563ff05a458296f9205874bcddf0ee50f6b5d5b18e827bda897067dcbb"),
    ("case2_real", 1): ("a37ffd1feb8661aebc5a0ee64c4f17555cc63520a83b04c8e12d30baa01c3851",
                      "54933c982e4f93c6d1d169705348e71fd0bb0470668ed791c515dbca0506b397"),
    ("case2_real", 2): ("a5d9960245d4f5c231855180bd98f458b0ec1facb3545f9ac50217c587b619d3",
                      "54933c982e4f93c6d1d169705348e71fd0bb0470668ed791c515dbca0506b397"),
    ("case2_real", 3): ("f4450c2a92da6545eab916c35e395dd769f3be12d47ab61c8faf8a24252dfcec",
                      "54933c982e4f93c6d1d169705348e71fd0bb0470668ed791c515dbca0506b397"),
    ("case2_real", 4): ("39325f566b5e2128b7965ad4f2524854121b4c7713030d6bff19b6ebe1c70c15",
                      "54933c982e4f93c6d1d169705348e71fd0bb0470668ed791c515dbca0506b397"),
}


@pytest.mark.parametrize("case, mode", list(RUN_SHA256))
def test_run_outputs_pinned(case, mode, tmp_path):
    cli.run_pipeline(cli.RunManifest(scenario=str(BENCH_INPUTS / f"{case}.json"),
                                     mode=mode, out_dir=str(tmp_path), seed=1))
    digests = tuple(hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                    for name in ("periods.csv", "validation.json"))
    assert digests == RUN_SHA256[case, mode]


def _solved(case: str, mode: int):
    cfg = load_scenario(BENCH_INPUTS / f"{case}.json")
    bundle = cli.build_bundle(cfg, mode)
    outcome = se.solve(bundle)
    assert outcome.result.status == se.OPTIMAL
    return bundle, outcome.solution, dict(outcome.result.values)


def perturbed_toy3_mode3() -> list[gm.Violation]:
    """toy3 mode 3: units, pipeline, prices, users, objectives and KKT."""
    bundle, sol, values = _solved("toy3", 3)
    cfg, names = bundle.cfg, bundle.names
    sol.p_tp[0, 1] += 0.3
    sol.r_chp[0, 2] = -0.1
    sol.h_chp[0, 0] += 1.0
    sol.p_chp[0, 1] = 0.0
    sol.t_sw[0, 1] = cfg.temperature_bounds.supply_max + 1.0
    sol.h_src[0, 0] += 0.5
    sol.mu[0] += 1.0
    sol.gamma[2] += 0.5
    sol.p_res[1] = cfg.expected_renewables()[1] + 0.1
    sol.r_tp[0, 0] = 0.0
    sol.p_sl[0] = cfg.shift_upper()[0] + 0.1
    sol.h_cl[0] = -60.0
    sol.h_cl[2] = cfg.cut_upper()[2] + 0.2
    sol.r_bess[1] = math.nan
    sol.f1 += 5.0
    sol.f2 -= 5.0
    sol.objective_milp += 50.0
    rep = gm.verify_solution(sol, cfg, bundle.mode, bundle.pwl_error_bound)
    values[names["delta1"][0]] += 1.0
    values[names["delta4"][1]] = -0.5
    values[names["p_sl"][2]] += 0.05
    check_kkt(rep, bundle, values)
    return rep.violations


def perturbed_case2_mode2() -> list[gm.Violation]:
    """case2 mode 2: storage, price bands, temperatures and users off."""
    bundle, sol, _ = _solved("case2_real", 2)
    cfg = bundle.cfg
    b, p = cfg.bess, cfg.prices
    sol.soc[3] = b.cap_max + 0.5
    sol.p_ch[5] = sol.p_dh[5] = 0.4
    sol.r_bess[7] = b.discharge_max + b.charge_max
    sol.soc[-1] += 0.2
    sol.soc[10] = math.nan
    sol.mu[4] = p.mu_max + 1.0
    sol.gamma[6] = p.gamma_min - 1.0
    sol.t_rw[1, 8] = cfg.temperature_bounds.return_min - 1.0
    sol.p_sl[9] += 0.1
    sol.h_cl[11] = 0.05
    return gm.verify_solution(sol, cfg, bundle.mode, bundle.pwl_error_bound).violations


# (check, detail) -> (magnitude, limit) of each violation at the pinning
PINNED = {
    "toy3_mode3": {
        ("finite", "r_bess[1]"): (1.0, 0.0),
        ("electric_balance", "t=0"): (0.17254616965530012, 1e-06),
        ("electric_balance", "t=1"): (0.9346459065777615, 1e-06),
        ("tp_bounds", "unit=0 t=1"): (0.13124999999999998, 1e-06),
        ("tp_reserve", "unit=0 t=1"): (0.2653540934222386, 1e-06),
        ("tp_ramp", "unit=0 t=1"): (0.125, 1e-06),
        ("tp_ramp", "unit=0 t=2"): (0.125, 1e-06),
        ("chp_region", "unit=0 t=0"): (0.010526578465233305, 1e-06),
        ("chp_region", "unit=0 t=1"): (0.49112631538769447, 1e-06),
        ("chp_ramp", "unit=0 t=1"): (0.7820997369224612, 1e-06),
        ("chp_reserve", "unit=0 t=2"): (0.1, 1e-06),
        ("chp_ramp", "unit=0 t=2"): (0.820525409566395, 1e-06),
        ("pipe_source", "pipe=0 t=0"): (0.4999999999999999, 1e-06),
        ("temp_bounds", "pipe=0 t=1"): (1.0, 1e-06),
        ("pipe_source", "pipe=0 t=1"): (0.1883309023027384, 1e-06),
        ("heat_balance", "t=0"): (60.13, 1e-06),
        ("heat_source", "t=0"): (0.5, 1e-06),
        ("heat_balance", "t=1"): (0.18418400000000001, 1e-06),
        ("heat_balance", "t=2"): (0.3551347517730498, 1e-06),
        ("price_average_mu", "sum"): (1.0, 1e-06),
        ("price_average_gamma", "sum"): (0.5, 1e-06),
        ("renewable_cap", "t=1"): (0.1, 1e-06),
        ("reserve_coverage", "t=0"): (0.41433226685096647, 1e-09),
        ("reserve_coverage", "t=1"): (0.9, 1e-09),
        ("reserve_coverage", "t=2"): (0.27773420012296646, 1e-09),
        ("shift_bounds", "t=0"): (0.10000000000000003, 1e-06),
        ("cut_bounds", "t=0"): (60.0, 1e-06),
        ("cut_bounds", "t=2"): (0.2, 1e-06),
        ("shift_total", "sum"): (0.17254616965530012, 1e-06),
        ("best_response_heat", "t=0"): (60.13, 1e-05),
        ("best_response_heat", "t=2"): (0.35346808510638317, 1e-05),
        ("best_response_shift", "mu=60.25"): (0.46666666666666656, 1e-05),
        ("best_response_shift", "mu=59.25"): (0.29412049701136644, 1e-05),
        ("best_response_bill", "electric"): (10.6900272187432, 3.165333333333334e-05),
        ("comfort_window", "t=0 overheated"): (1.0, 0.0),
        ("comfort_window", "t=2"): (0.7890539746495437, 1e-06),
        ("profit_recompute", "F1"): (0.9320298863906598, 0.0001),
        ("cost_recompute", "F2"): (0.9992184216083013, 0.0001),
        ("pwl_gap", "objective"): (44.86131686467411, 0.6436391609943798),
        ("complementarity", "shift_lb_0"): (0.3474538303446999, 3.7e-05),
        ("kkt_signs", "cut_ub_1"): (0.5, 1e-06),
        ("kkt_stationarity", "kkt_stat_e_0"): (1.0, 1e-06),
        ("kkt_stationarity", "kkt_stat_h_1"): (0.5, 1e-06),
    },
    "case2_mode2": {
        ("finite", "soc[10]"): (1.0, 0.0),
        ("electric_balance", "t=9"): (0.10000000000000053, 1e-06),
        ("soc_recursion", "t=3"): (0.4999999999999999, 1e-06),
        ("soc_bounds", "t=3"): (0.4999999999999999, 1e-06),
        ("soc_recursion", "t=4"): (0.4999999999999999, 1e-06),
        ("soc_recursion", "t=5"): (0.04105263157894734, 1e-06),
        ("bess_mutex", "t=5"): (0.16000000000000003, 1e-06),
        ("bess_reserve", "t=7"): (0.4, 1e-06),
        ("soc_recursion", "t=10"): (NAN, 1e-06),
        ("soc_bounds", "t=10"): (NAN, 1e-06),
        ("soc_recursion", "t=11"): (NAN, 1e-06),
        ("soc_recursion", "t=23"): (0.19999999999999996, 1e-06),
        ("soc_cyclic", "end"): (0.19999999999999996, 1e-06),
        ("pipe_source", "pipe=1 t=6"): (0.018836999999999993, 1e-06),
        ("temp_bounds", "pipe=1 t=8"): (1.0, 1e-06),
        ("heat_balance", "t=8"): (0.018837000000000437, 1e-06),
        ("heat_balance", "t=11"): (0.04999999999999938, 1e-06),
        ("price_bounds", "t=4"): (1.0, 1e-06),
        ("price_bounds", "t=6"): (1.0, 1e-06),
        ("price_average_mu", "sum"): (36.770538243626106, 1e-06),
        ("price_average_gamma", "sum"): (12.851224520628534, 1e-06),
        ("response_off", "p_sl"): (0.10000000000000003, 1e-06),
        ("response_off", "h_cl"): (0.05, 1e-06),
        ("profit_recompute", "F1"): (0.019662866750551622, 0.0001),
        ("cost_recompute", "F2"): (0.007798449352412187, 0.0001),
    },
}

PERTURBATIONS = {"toy3_mode3": perturbed_toy3_mode3,
                 "case2_mode2": perturbed_case2_mode2}


def _same(a: float, b: float) -> bool:
    return a == b or (math.isnan(a) and math.isnan(b))


@pytest.mark.parametrize("name", list(PERTURBATIONS))
def test_violation_report_pinned(name):
    found = {(v.check, v.detail): (v.magnitude, v.limit)
             for v in PERTURBATIONS[name]()}
    for key, (magnitude, limit) in PINNED[name].items():
        assert key in found, key
        assert _same(found[key][0], magnitude) and found[key][1] == limit, key
    added = [key for key in found if key not in PINNED[name]]
    assert all(math.isnan(found[key][0]) for key in added), added


def test_every_check_pinned():
    emitted = {check for pins in PINNED.values() for check, _ in pins}
    assert emitted == {
        "finite", "electric_balance", "tp_bounds", "tp_reserve", "tp_ramp",
        "chp_region", "chp_reserve", "chp_ramp", "soc_recursion", "soc_bounds",
        "bess_mutex", "bess_reserve", "soc_cyclic", "temp_bounds", "pipe_source",
        "heat_balance", "heat_source", "price_bounds", "price_average_mu",
        "price_average_gamma", "renewable_cap", "reserve_coverage",
        "shift_bounds", "cut_bounds", "shift_total", "best_response_heat",
        "best_response_shift", "best_response_bill", "comfort_window",
        "response_off", "profit_recompute", "cost_recompute", "pwl_gap",
        "complementarity", "kkt_signs", "kkt_stationarity"}
