"""Leader/follower model construction and solution verification.

The price-setting operator (leader) dispatches thermal units, CHP
units, storage and renewables to serve electricity and heat, subject to
balances, ramps, pipeline temperature windows, price-band and
average-price rows, and the deterministic-equivalent reserve rows. The
users (follower) shift electric load and curtail heat load against the
posted prices. `build_leader` is the one entry that emits the program and
decides the users' side: with optimized prices it adds the users' own
variables (`build_follower`), whose optimality conditions the KKT pass
then folds into the operator's problem; with posted prices the users'
quantities enter as constants.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from . import thermal_side as th
from .config import ScenarioConfig
from .model_ir import ModelIR
from .prob_sequences import ReserveRequirementRows

if TYPE_CHECKING:  # kkt_reformulation imports this module
    from .kkt_reformulation import KktBlock

BALANCE_TOL = 1e-6
RESPONSE_TOL = 1e-5


class BuildError(ValueError):
    """Model construction found a statically infeasible scenario."""


@dataclass(frozen=True)
class ModeSettings:
    """Operating-mode switchboard for the comparison experiments.

    Mode 1: fixed proportional prices, no demand response, no network
            transport effects (heat generated when consumed).
    Mode 2: as mode 1 but with pipeline delay and loss active.
    Mode 3: full game, prices optimized against responding users.
    Mode 4: fixed proportional prices with users responding to them.
    """

    number: int
    dhn_enabled: bool
    idr_enabled: bool
    optimize_prices: bool

    @classmethod
    def for_mode(cls, mode: int) -> "ModeSettings":
        table = {
            1: cls(1, False, False, False),
            2: cls(2, True, False, False),
            3: cls(3, True, True, True),
            4: cls(4, True, True, False),
        }
        if mode not in table:
            raise ValueError(f"mode must be 1..4, got {mode}")
        return table[mode]


@dataclass
class FollowerFragment:
    """Follower decision block: variable names, bounds and objective data."""

    horizon: int
    theta: float
    shift_total: float
    sl_lb: np.ndarray
    sl_ub: np.ndarray
    cut_ub: np.ndarray
    p_sl: list[str]
    h_cl: list[str]


@dataclass
class ModelBundle:
    """A built program plus everything needed to extract and verify it."""

    ir: ModelIR
    cfg: ScenarioConfig
    mode: ModeSettings
    confidence: float
    expected: np.ndarray
    reserve_reqs: list[ReserveRequirementRows]
    heat_base: np.ndarray
    heat_min: np.ndarray
    delays: list[int]
    names: dict[str, object]
    follower: FollowerFragment | None
    fixed_mu: np.ndarray | None
    fixed_gamma: np.ndarray | None
    fixed_p_sl: np.ndarray | None
    fixed_h_cl: np.ndarray | None
    # set by `assemble_single_level`
    pwl_error_bound: float = 0.0
    n_segments: int = 0
    kkt: KktBlock | None = None


@dataclass
class EquilibriumSolution:
    """Prices, follower response, dispatch, reserves and temperatures."""

    mu: np.ndarray
    gamma: np.ndarray
    p_sl: np.ndarray
    h_cl: np.ndarray
    p_tp: np.ndarray      # (n_tp, T)
    r_tp: np.ndarray
    p_chp: np.ndarray     # (n_chp, T)
    h_chp: np.ndarray
    r_chp: np.ndarray
    p_ch: np.ndarray
    p_dh: np.ndarray
    soc: np.ndarray
    r_bess: np.ndarray
    p_res: np.ndarray
    t_sw: np.ndarray      # (n_pipe, T), NaN when transport is disabled
    t_rw: np.ndarray
    h_src: np.ndarray
    expected: np.ndarray
    f1: float
    f2: float
    objective_milp: float

    @property
    def curtailment(self) -> np.ndarray:
        return self.expected - self.p_res

    @property
    def absorbed(self) -> float:
        return float(np.sum(self.p_res))

    @property
    def reserve_total(self) -> np.ndarray:
        total = self.r_tp.sum(axis=0) + self.r_chp.sum(axis=0)
        if self.r_bess.size:
            total = total + self.r_bess
        return total


@dataclass
class Violation:
    check: str
    detail: str
    magnitude: float
    limit: float


@dataclass
class ValidationReport:
    """Invariant-check findings plus (optionally) reserve Monte Carlo rows."""

    violations: list[Violation] = field(default_factory=list)
    reserve_mc: list[dict] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.violations and all(r["passed"] for r in self.reserve_mc)

    def add(self, check: str, detail: str, magnitude: float, limit: float) -> None:
        if magnitude > limit:
            self.violations.append(Violation(check, detail, magnitude, limit))


# ----------------------------------------------------------------------
# construction


def build_follower(cfg: ScenarioConfig, ir: ModelIR) -> FollowerFragment:
    """Add shiftable-load and heat-cut variables with their primal rows.

    The shiftable-total row uses the constant S = alpha/(1-alpha) * sum
    of fixed load, which removes the self-reference of defining the
    ratio against a total that includes the shifted part itself.
    """
    t_count = cfg.horizon
    sl_lb = cfg.shift_lower()
    sl_ub = cfg.shift_upper()
    cut_ub = cfg.cut_upper()
    s_total = cfg.shift_total()
    if s_total > float(sl_ub.sum()) + 1e-9:
        raise BuildError("shiftable total exceeds the per-period caps")
    p_sl = [ir.add_variable(f"p_sl_{t}", float(sl_lb[t]), float(sl_ub[t]))
            for t in range(t_count)]
    h_cl = [ir.add_variable(f"h_cl_{t}", 0.0, float(cut_ub[t]))
            for t in range(t_count)]
    ir.add_row("shift_total", {v: 1.0 for v in p_sl}, "==", s_total)
    return FollowerFragment(
        horizon=t_count, theta=cfg.idr.theta, shift_total=s_total,
        sl_lb=sl_lb, sl_ub=sl_ub, cut_ub=cut_ub, p_sl=p_sl, h_cl=h_cl)


def build_leader(cfg: ScenarioConfig,
                 expected: np.ndarray,
                 reserve_reqs: list[ReserveRequirementRows],
                 mode: ModeSettings,
                 *,
                 fixed_prices: tuple[np.ndarray, np.ndarray] | None = None,
                 fixed_response: tuple[np.ndarray, np.ndarray] | None = None
                 ) -> ModelBundle:
    """Emit the operator's dispatch-and-pricing program.

    The users' side follows one rule, first match wins:
    1. optimized prices (mode 3): the users' variables are added here
       (`build_follower`) and the balances reference them; the revenue
       they pay is substituted by `assemble_single_level`;
    2. `fixed_response` given: those quantities enter as constants;
    3. users respond (mode 4): their best response to the posted prices;
    4. otherwise the baseline shift and no heat cut.
    Posted prices are `fixed_prices`, else the proportional tariff. The
    reserve confidence level is the one `reserve_reqs` were built with.
    """
    t_count = cfg.horizon
    dt = cfg.dt_hours
    if mode.optimize_prices and (fixed_prices is not None
                                 or fixed_response is not None):
        raise BuildError("fixed prices or response conflict with price optimization")
    ir = ModelIR(name=f"{cfg.name}_mode{mode.number}")
    follower = build_follower(cfg, ir) if mode.optimize_prices else None

    heat_base = cfg.heat_base_load()
    heat_min = cfg.heat_min_load()
    fixed_load = np.asarray(cfg.fixed_load)

    _static_checks(cfg, mode, heat_base, heat_min, fixed_load)

    names: dict[str, object] = {}
    fixed_mu = fixed_gamma = None

    # prices
    if mode.optimize_prices:
        p = cfg.prices
        mu = [ir.add_variable(f"mu_{t}", p.mu_min, p.mu_max) for t in range(t_count)]
        gamma = [ir.add_variable(f"gamma_{t}", p.gamma_min, p.gamma_max)
                 for t in range(t_count)]
        ir.add_row("price_avg_mu", {v: 1.0 for v in mu}, "==", t_count * p.mu_av)
        ir.add_row("price_avg_gamma", {v: 1.0 for v in gamma}, "==",
                   t_count * p.gamma_av)
        names["mu"], names["gamma"] = mu, gamma
    else:
        fixed_mu, fixed_gamma = (fixed_prices if fixed_prices is not None
                                 else cfg.proportional_prices())
        fixed_mu = np.asarray(fixed_mu, dtype=float)
        fixed_gamma = np.asarray(fixed_gamma, dtype=float)

    # follower quantities as constants; without response the shiftable
    # block still exists, timed along the fixed-load shape
    if follower is not None:
        p_sl_const = h_cl_const = None
    elif fixed_response is not None or mode.idr_enabled:
        if fixed_response is None:
            fixed_response = follower_best_response(fixed_mu, fixed_gamma, cfg)
        p_sl_const = np.asarray(fixed_response[0], dtype=float)
        h_cl_const = np.asarray(fixed_response[1], dtype=float)
    else:
        p_sl_const = cfg.baseline_shift()
        h_cl_const = np.zeros(t_count)

    # units
    tp_p, tp_r = [], []
    for i, u in enumerate(cfg.tp_units):
        prow = [ir.add_variable(f"p_tp_{i}_{t}", u.p_min, u.p_max)
                for t in range(t_count)]
        rrow = [ir.add_variable(f"r_tp_{i}_{t}", 0.0, u.ramp_up * dt)
                for t in range(t_count)]
        tp_p.append(prow)
        tp_r.append(rrow)
        for t in range(t_count):
            ir.add_row(f"tp_head_{i}_{t}", {prow[t]: 1.0, rrow[t]: 1.0}, "<=", u.p_max)
        _ramp_rows(ir, f"tp_{i}", prow, u.ramp_up * dt, u.ramp_down * dt)
    names["p_tp"], names["r_tp"] = tp_p, tp_r

    chp_p, chp_h, chp_y, chp_r = [], [], [], []
    for i, u in enumerate(cfg.chp_units):
        prow = [ir.add_variable(f"p_chp_{i}_{t}", 0.0, u.p_max) for t in range(t_count)]
        hrow = [ir.add_variable(f"h_chp_{i}_{t}", 0.0, u.h_max) for t in range(t_count)]
        yrow = [ir.add_variable(f"y_chp_{i}_{t}", u.p_min, u.p_max)
                for t in range(t_count)]
        rrow = [ir.add_variable(f"r_chp_{i}_{t}", 0.0, u.ramp_up * dt)
                for t in range(t_count)]
        chp_p.append(prow)
        chp_h.append(hrow)
        chp_y.append(yrow)
        chp_r.append(rrow)
        for t in range(t_count):
            # fuel-equivalent output y = p + c_v h carries the operating window
            ir.add_row(f"chp_fuel_{i}_{t}",
                       {yrow[t]: 1.0, prow[t]: -1.0, hrow[t]: -u.c_v}, "==", 0.0)
            # back-pressure line: power cannot fall below c_m * heat
            ir.add_row(f"chp_bp_{i}_{t}", {prow[t]: 1.0, hrow[t]: -u.c_m}, ">=", 0.0)
            ir.add_row(f"chp_head_{i}_{t}", {prow[t]: 1.0, rrow[t]: 1.0}, "<=", u.p_max)
        _ramp_rows(ir, f"chp_{i}", prow, u.ramp_up * dt, u.ramp_down * dt)
    names["p_chp"], names["h_chp"] = chp_p, chp_h
    names["y_chp"], names["r_chp"] = chp_y, chp_r

    # storage
    bess_ch = bess_dh = bess_soc = bess_r = None
    if cfg.bess is not None:
        b = cfg.bess
        bess_ch = [ir.add_variable(f"p_ch_{t}", 0.0, b.charge_max) for t in range(t_count)]
        bess_dh = [ir.add_variable(f"p_dh_{t}", 0.0, b.discharge_max)
                   for t in range(t_count)]
        bess_soc = [ir.add_variable(f"soc_{t}", b.cap_min, b.cap_max)
                    for t in range(t_count)]
        bess_u = [ir.add_variable(f"u_dh_{t}", 0.0, 1.0, binary=True)
                  for t in range(t_count)]
        bess_r = [ir.add_variable(f"r_bess_{t}", 0.0, b.discharge_max + b.charge_max)
                  for t in range(t_count)]
        start = b.soc_start_mwh
        for t in range(t_count):
            prev = {bess_soc[t - 1]: -1.0} if t > 0 else {}
            rhs = 0.0 if t > 0 else start
            ir.add_row(f"soc_rec_{t}",
                       {bess_soc[t]: 1.0, bess_ch[t]: -b.efficiency * dt,
                        bess_dh[t]: dt / b.efficiency, **prev}, "==", rhs)
            ir.add_row(f"bess_mutex_ch_{t}",
                       {bess_ch[t]: 1.0, bess_u[t]: b.charge_max}, "<=", b.charge_max)
            ir.add_row(f"bess_mutex_dh_{t}",
                       {bess_dh[t]: 1.0, bess_u[t]: -b.discharge_max}, "<=", 0.0)
            # headroom to swing to full discharge, and deliverable energy
            ir.add_row(f"bess_res_head_{t}",
                       {bess_r[t]: 1.0, bess_dh[t]: 1.0, bess_ch[t]: -1.0},
                       "<=", b.discharge_max)
            ir.add_row(f"bess_res_energy_{t}",
                       {bess_r[t]: 1.0, bess_soc[t]: -b.efficiency / dt},
                       "<=", -b.efficiency / dt * b.cap_min)
        ir.add_row("soc_cyclic", {bess_soc[t_count - 1]: 1.0}, "==", start)
        names["p_ch"], names["p_dh"] = bess_ch, bess_dh
        names["soc"], names["u_dh"], names["r_bess"] = bess_soc, bess_u, bess_r

    # renewables consumed
    p_res = [ir.add_variable(f"p_res_{t}", 0.0, max(float(expected[t]), 0.0))
             for t in range(t_count)]
    names["p_res"] = p_res

    # electric balance
    for t in range(t_count):
        coeffs = {p_res[t]: 1.0}
        for prow in tp_p:
            coeffs[prow[t]] = 1.0
        for prow in chp_p:
            coeffs[prow[t]] = 1.0
        if bess_ch is not None:
            coeffs[bess_dh[t]] = 1.0
            coeffs[bess_ch[t]] = -1.0
        rhs = float(fixed_load[t])
        if follower is not None:
            coeffs[follower.p_sl[t]] = -1.0
        else:
            rhs += float(p_sl_const[t])
        ir.add_row(f"bal_e_{t}", coeffs, "==", rhs)

    # heat side
    delays: list[int] = []
    pipe_names: dict[str, list[list[str]]] = {"t_sw": [], "t_rw": [], "h_src": []}
    if mode.dhn_enabled:
        if not cfg.pipelines:
            raise BuildError("transport effects enabled but no pipelines defined")
        tb = cfg.temperature_bounds
        deliver_coeff = []
        loss_coeff = []
        for p_idx, pipe in enumerate(cfg.pipelines):
            _, steps = th.pipe_delay(pipe, dt)
            delays.append(steps)
            hco = th.WATER_HEAT_CAPACITY_KJ * pipe.mass_flow_kg_s / 1000.0
            lco = 2.0 * math.pi * pipe.length_km / (
                pipe.thermal_resistance_km_c_per_kw * 1000.0)
            deliver_coeff.append(hco)
            loss_coeff.append(lco)
            sw = [ir.add_variable(f"t_sw_{p_idx}_{t}", tb.supply_min, tb.supply_max)
                  for t in range(t_count)]
            rw = [ir.add_variable(f"t_rw_{p_idx}_{t}", tb.return_min, tb.return_max)
                  for t in range(t_count)]
            src_lo = (hco * (tb.supply_min - tb.return_max)
                      + lco * (tb.supply_min - pipe.ambient_temp_c))
            src_hi = (hco * (tb.supply_max - tb.return_min)
                      + lco * (tb.supply_max - pipe.ambient_temp_c))
            src = [ir.add_variable(f"h_src_{p_idx}_{t}", src_lo, src_hi)
                   for t in range(t_count)]
            pipe_names["t_sw"].append(sw)
            pipe_names["t_rw"].append(rw)
            pipe_names["h_src"].append(src)
            for t in range(t_count):
                # heat injected now covers delivery plus loss one delay later
                # (wrapped: the schedule repeats daily)
                ta = (t + steps) % t_count
                ir.add_row(f"pipe_src_{p_idx}_{t}",
                           {src[t]: 1.0, sw[ta]: -(hco + lco), rw[ta]: hco},
                           "==", -lco * pipe.ambient_temp_c)
        for t in range(t_count):
            coeffs: dict[str, float] = {}
            for p_idx in range(len(cfg.pipelines)):
                coeffs[pipe_names["t_sw"][p_idx][t]] = deliver_coeff[p_idx]
                coeffs[pipe_names["t_rw"][p_idx][t]] = -deliver_coeff[p_idx]
            rhs = float(heat_base[t])
            if follower is not None:
                coeffs[follower.h_cl[t]] = 1.0
            else:
                rhs -= float(h_cl_const[t])
            ir.add_row(f"bal_h_{t}", coeffs, "==", rhs)
            src_coeffs = {pipe_names["h_src"][p][t]: 1.0
                          for p in range(len(cfg.pipelines))}
            for hrow in chp_h:
                src_coeffs[hrow[t]] = -1.0
            _add_row_or_check(ir, f"bal_src_{t}", src_coeffs, "==", 0.0)
    else:
        for t in range(t_count):
            coeffs = {hrow[t]: 1.0 for hrow in chp_h}
            rhs = float(heat_base[t])
            if follower is not None:
                coeffs[follower.h_cl[t]] = 1.0
            else:
                rhs -= float(h_cl_const[t])
            _add_row_or_check(ir, f"bal_h_{t}", coeffs, "==", rhs)
    names.update(pipe_names)

    # reserve: the chance constraint's exact deterministic equivalent
    for t in range(t_count):
        r_coeffs = {rrow[t]: 1.0 for rrow in tp_r + chp_r}
        if bess_r is not None:
            r_coeffs[bess_r[t]] = 1.0
        _add_row_or_check(ir, f"res_min_{t}", r_coeffs, ">=",
                          reserve_reqs[t].min_reserve())

    # objective: revenue minus generation, storage and reserve costs; the
    # users' price*quantity payments are added by `eliminate_bilinear`
    if mode.optimize_prices:
        for t in range(t_count):
            ir.add_obj_linear(names["mu"][t], float(fixed_load[t]) * dt)
            ir.add_obj_linear(names["gamma"][t], float(heat_base[t]) * dt)
    else:
        load_e = fixed_load + p_sl_const
        load_h = heat_base - h_cl_const
        ir.obj_const += float(np.dot(fixed_mu, load_e) + np.dot(fixed_gamma, load_h)) * dt

    for i, u in enumerate(cfg.tp_units):
        for t in range(t_count):
            ir.add_obj_quad(tp_p[i][t], -u.cost_a * dt)
            ir.add_obj_linear(tp_p[i][t], -u.cost_b * dt)
            ir.add_obj_linear(tp_r[i][t], -u.reserve_cost * dt)
            ir.obj_const -= u.cost_c * dt
    for i, u in enumerate(cfg.chp_units):
        for t in range(t_count):
            ir.add_obj_quad(chp_y[i][t], -u.cost_a * dt)
            ir.add_obj_linear(chp_y[i][t], -u.cost_b * dt)
            ir.add_obj_linear(chp_r[i][t], -u.reserve_cost * dt)
            ir.obj_const -= u.cost_c * dt
    if cfg.bess is not None:
        b = cfg.bess
        for t in range(t_count):
            ir.add_obj_linear(bess_dh[t], -b.discharge_cost * dt)
            ir.add_obj_linear(bess_ch[t], -b.charge_cost * dt)
            ir.add_obj_linear(bess_r[t], -b.reserve_cost * dt)

    return ModelBundle(
        ir=ir, cfg=cfg, mode=mode, confidence=reserve_reqs[0].confidence,
        expected=np.asarray(expected, dtype=float), reserve_reqs=reserve_reqs,
        heat_base=heat_base, heat_min=heat_min, delays=delays, names=names,
        follower=follower,
        fixed_mu=fixed_mu, fixed_gamma=fixed_gamma,
        fixed_p_sl=p_sl_const, fixed_h_cl=h_cl_const)


def _ramp_rows(ir: ModelIR, tag: str, prow: list[str], up: float, down: float) -> None:
    t_count = len(prow)
    if t_count < 2:
        return
    for t in range(t_count):
        prev = prow[(t - 1) % t_count]  # day-cyclic, like the heat side
        ir.add_row(f"ramp_up_{tag}_{t}", {prow[t]: 1.0, prev: -1.0}, "<=", up)
        ir.add_row(f"ramp_dn_{tag}_{t}", {prow[t]: 1.0, prev: -1.0}, ">=", -down)


def _add_row_or_check(ir: ModelIR, name: str, coeffs: dict[str, float],
                      sense: str, rhs: float) -> None:
    coeffs = {v: c for v, c in coeffs.items() if c != 0.0}
    if coeffs:
        ir.add_row(name, coeffs, sense, rhs)
    else:
        check_empty_row(name, rhs)


def check_empty_row(name: str, rhs: float) -> None:
    """A row left with no contributing variables holds only at rhs 0."""
    if abs(rhs) > BALANCE_TOL:
        raise BuildError(f"row {name} demands {rhs} with no contributing variables")


def _static_checks(cfg: ScenarioConfig, mode: ModeSettings, heat_base: np.ndarray,
                   heat_min: np.ndarray, fixed_load: np.ndarray) -> None:
    cap_e = (sum(u.p_max for u in cfg.tp_units)
             + sum(u.p_max for u in cfg.chp_units)
             + (cfg.bess.discharge_max if cfg.bess else 0.0))
    peak = float(fixed_load.max())
    if cap_e < peak:
        raise BuildError(f"generation capacity {cap_e} below peak fixed load {peak}")
    cap_h = sum(u.h_max for u in cfg.chp_units)
    if cap_h < float(heat_min.max()):
        raise BuildError(f"heat capacity {cap_h} below the comfort floor "
                         f"{float(heat_min.max())}")
    if mode.dhn_enabled and cfg.pipelines:
        tb = cfg.temperature_bounds
        deliver_min = sum(th.WATER_HEAT_CAPACITY_KJ * p.mass_flow_kg_s / 1000.0
                          * (tb.supply_min - tb.return_max) for p in cfg.pipelines)
        deliver_max = sum(th.WATER_HEAT_CAPACITY_KJ * p.mass_flow_kg_s / 1000.0
                          * (tb.supply_max - tb.return_min) for p in cfg.pipelines)
        if deliver_max < float(heat_min.max()):
            raise BuildError("pipelines cannot deliver the comfort-floor heat load")
        if deliver_min > float(heat_base.min()):
            raise BuildError("minimum pipeline delivery exceeds the lightest heat load")


# ----------------------------------------------------------------------
# follower best response


def follower_best_response(mu: np.ndarray, gamma: np.ndarray,
                           cfg: ScenarioConfig) -> tuple[np.ndarray, np.ndarray]:
    """Users' cost-minimizing response to posted prices.

    Heat cut is the per-period closed form gamma/(2 theta) clamped to its
    bounds. The shiftable total is allocated greedily by ascending
    electricity price, ties broken by period index.
    """
    mu = np.asarray(mu, dtype=float)
    gamma = np.asarray(gamma, dtype=float)
    p = cfg.prices
    if (np.any(mu < p.mu_min - 1e-9) or np.any(mu > p.mu_max + 1e-9)
            or np.any(gamma < p.gamma_min - 1e-9) or np.any(gamma > p.gamma_max + 1e-9)):
        raise ValueError("prices outside the configured bands")

    cut_ub = cfg.cut_upper()
    h_cl = np.clip(gamma / (2.0 * cfg.idr.theta), 0.0, cut_ub)

    lb, ub = cfg.shift_lower(), cfg.shift_upper()
    total = cfg.shift_total()
    if total > float(ub.sum()) + 1e-9:
        raise ValueError("shiftable total exceeds the per-period caps")
    p_sl = lb.copy()
    remaining = total - float(lb.sum())
    order = np.lexsort((np.arange(cfg.horizon), mu))  # price, then period index
    for t in order:
        if remaining <= 1e-15:
            break
        add = min(float(ub[t] - lb[t]), remaining)
        p_sl[t] += add
        remaining -= add
    return p_sl, h_cl


def follower_cost(cfg: ScenarioConfig, mu: np.ndarray, gamma: np.ndarray,
                  p_sl: np.ndarray, h_cl: np.ndarray) -> float:
    """Users' total bill including the comfort penalty."""
    load_e = np.asarray(cfg.fixed_load) + p_sl
    load_h = cfg.heat_base_load() - h_cl
    energy = float(np.dot(mu, load_e) + np.dot(gamma, load_h)) * cfg.dt_hours
    penalty = cfg.idr.theta * float(np.dot(h_cl, h_cl)) * cfg.dt_hours
    return energy + penalty


def leader_profit(cfg: ScenarioConfig, sol: "EquilibriumSolution") -> float:
    """Operator profit recomputed from primitives with exact quadratic costs."""
    dt = cfg.dt_hours
    load_e = np.asarray(cfg.fixed_load) + sol.p_sl
    load_h = cfg.heat_base_load() - sol.h_cl
    revenue = float(np.dot(sol.mu, load_e) + np.dot(sol.gamma, load_h)) * dt
    cost = 0.0
    for i, u in enumerate(cfg.tp_units):
        p = sol.p_tp[i]
        cost += float(np.sum(u.cost_a * p ** 2 + u.cost_b * p + u.cost_c)) * dt
        cost += u.reserve_cost * float(np.sum(sol.r_tp[i])) * dt
    for i, u in enumerate(cfg.chp_units):
        y = sol.p_chp[i] + u.c_v * sol.h_chp[i]
        cost += float(np.sum(u.cost_a * y ** 2 + u.cost_b * y + u.cost_c)) * dt
        cost += u.reserve_cost * float(np.sum(sol.r_chp[i])) * dt
    if cfg.bess is not None:
        b = cfg.bess
        cost += float(b.discharge_cost * np.sum(sol.p_dh)
                      + b.charge_cost * np.sum(sol.p_ch)
                      + b.reserve_cost * np.sum(sol.r_bess)) * dt
    return revenue - cost


# ----------------------------------------------------------------------
# extraction


def extract_solution(bundle: ModelBundle, values: dict[str, float],
                     objective: float) -> EquilibriumSolution:
    """Assemble an EquilibriumSolution from raw variable values."""
    cfg = bundle.cfg
    t_count = cfg.horizon

    def grid(family: str, n_rows: int) -> np.ndarray:
        rows = bundle.names.get(family, [])
        if not rows:
            return np.zeros((n_rows, t_count)) if n_rows else np.zeros((0, t_count))
        return np.array([[values[name] for name in row] for row in rows])

    def series(family: str, fallback=None) -> np.ndarray:
        row = bundle.names.get(family)
        if row is None:
            return np.zeros(t_count) if fallback is None else np.asarray(fallback)
        return np.array([values[name] for name in row])

    if bundle.mode.optimize_prices:
        mu = series("mu")
        gamma = series("gamma")
    else:
        mu, gamma = bundle.fixed_mu.copy(), bundle.fixed_gamma.copy()
    if bundle.follower is not None:
        p_sl = np.array([values[v] for v in bundle.follower.p_sl])
        h_cl = np.array([values[v] for v in bundle.follower.h_cl])
    else:
        p_sl, h_cl = bundle.fixed_p_sl.copy(), bundle.fixed_h_cl.copy()

    n_pipe = len(cfg.pipelines)
    if bundle.mode.dhn_enabled and n_pipe:
        t_sw, t_rw = grid("t_sw", n_pipe), grid("t_rw", n_pipe)
        h_src = grid("h_src", n_pipe)
    else:
        t_sw = np.full((n_pipe, t_count), np.nan)
        t_rw = np.full((n_pipe, t_count), np.nan)
        h_src = np.full((n_pipe, t_count), np.nan)

    sol = EquilibriumSolution(
        mu=mu, gamma=gamma, p_sl=p_sl, h_cl=h_cl,
        p_tp=grid("p_tp", len(cfg.tp_units)), r_tp=grid("r_tp", len(cfg.tp_units)),
        p_chp=grid("p_chp", len(cfg.chp_units)), h_chp=grid("h_chp", len(cfg.chp_units)),
        r_chp=grid("r_chp", len(cfg.chp_units)),
        p_ch=series("p_ch"), p_dh=series("p_dh"), soc=series("soc"),
        r_bess=series("r_bess") if "r_bess" in bundle.names else np.zeros(t_count),
        p_res=series("p_res"),
        t_sw=t_sw, t_rw=t_rw, h_src=h_src,
        expected=bundle.expected.copy(),
        f1=0.0, f2=0.0, objective_milp=objective)
    sol.f1 = leader_profit(cfg, sol)
    sol.f2 = follower_cost(cfg, mu, gamma, p_sl, h_cl)
    return sol


# ----------------------------------------------------------------------
# verification


def verify_solution(sol: EquilibriumSolution, bundle: ModelBundle,
                    milp_values: dict[str, float] | None = None) -> ValidationReport:
    """Check every operating constraint, the follower's optimality, and the
    recomputed objectives; violations become report entries."""
    cfg = bundle.cfg
    mode = bundle.mode
    rep = ValidationReport()
    t_count = cfg.horizon
    dt = cfg.dt_hours
    fixed_load = np.asarray(cfg.fixed_load)

    # electric balance
    gen = sol.p_tp.sum(axis=0) + sol.p_chp.sum(axis=0) + sol.p_res
    gen = gen + sol.p_dh - sol.p_ch
    load = fixed_load + sol.p_sl
    for t in range(t_count):
        rep.add("electric_balance", f"t={t}", abs(gen[t] - load[t]), BALANCE_TOL)

    # unit limits, ramps, reserves
    for i, u in enumerate(cfg.tp_units):
        p, r = sol.p_tp[i], sol.r_tp[i]
        for t in range(t_count):
            rep.add("tp_bounds", f"unit={i} t={t}",
                    max(u.p_min - p[t], p[t] - u.p_max), BALANCE_TOL)
            rep.add("tp_reserve", f"unit={i} t={t}",
                    max(-r[t], r[t] - u.ramp_up * dt, p[t] + r[t] - u.p_max),
                    BALANCE_TOL)
            prev = p[(t - 1) % t_count]
            rep.add("tp_ramp", f"unit={i} t={t}",
                    max(p[t] - prev - u.ramp_up * dt, prev - p[t] - u.ramp_down * dt),
                    BALANCE_TOL)
    for i, u in enumerate(cfg.chp_units):
        p, h, r = sol.p_chp[i], sol.h_chp[i], sol.r_chp[i]
        y = p + u.c_v * h
        for t in range(t_count):
            rep.add("chp_region", f"unit={i} t={t}",
                    max(u.p_min - y[t], y[t] - u.p_max, -h[t], h[t] - u.h_max,
                        u.c_m * h[t] - p[t]), BALANCE_TOL)
            rep.add("chp_reserve", f"unit={i} t={t}",
                    max(-r[t], r[t] - u.ramp_up * dt, p[t] + r[t] - u.p_max),
                    BALANCE_TOL)
            prev = p[(t - 1) % t_count]
            rep.add("chp_ramp", f"unit={i} t={t}",
                    max(p[t] - prev - u.ramp_up * dt, prev - p[t] - u.ramp_down * dt),
                    BALANCE_TOL)

    # storage
    if cfg.bess is not None:
        b = cfg.bess
        prev_soc = b.soc_start_mwh
        for t in range(t_count):
            expect = prev_soc + b.efficiency * sol.p_ch[t] * dt - sol.p_dh[t] * dt / b.efficiency
            rep.add("soc_recursion", f"t={t}", abs(sol.soc[t] - expect), BALANCE_TOL)
            rep.add("soc_bounds", f"t={t}",
                    max(b.cap_min - sol.soc[t], sol.soc[t] - b.cap_max), BALANCE_TOL)
            rep.add("bess_mutex", f"t={t}",
                    sol.p_ch[t] * sol.p_dh[t],
                    BALANCE_TOL * max(b.charge_max, 1.0))
            rep.add("bess_reserve", f"t={t}",
                    max(-sol.r_bess[t],
                        sol.r_bess[t] + sol.p_dh[t] - sol.p_ch[t] - b.discharge_max,
                        sol.r_bess[t] - b.efficiency * (sol.soc[t] - b.cap_min) / dt),
                    BALANCE_TOL)
            prev_soc = sol.soc[t]
        rep.add("soc_cyclic", "end", abs(sol.soc[-1] - b.soc_start_mwh), BALANCE_TOL)

    # heat side
    heat_load = bundle.heat_base - sol.h_cl
    if mode.dhn_enabled and cfg.pipelines:
        delivered = np.zeros(t_count)
        for p_idx, pipe in enumerate(cfg.pipelines):
            steps = bundle.delays[p_idx]
            for t in range(t_count):
                sw, rw = sol.t_sw[p_idx, t], sol.t_rw[p_idx, t]
                tb = cfg.temperature_bounds
                rep.add("temp_bounds", f"pipe={p_idx} t={t}",
                        max(tb.supply_min - sw, sw - tb.supply_max,
                            tb.return_min - rw, rw - tb.return_max), BALANCE_TOL)
                delivered[t] += th.pipe_heat(pipe, sw, rw)
                ta = (t + steps) % t_count
                expect_src = (th.pipe_heat(pipe, sol.t_sw[p_idx, ta], sol.t_rw[p_idx, ta])
                              + th.pipe_loss(pipe, sol.t_sw[p_idx, ta]))
                rep.add("pipe_source", f"pipe={p_idx} t={t}",
                        abs(sol.h_src[p_idx, t] - expect_src), BALANCE_TOL)
        src_total = np.nansum(sol.h_src, axis=0)
        chp_total = sol.h_chp.sum(axis=0)
        for t in range(t_count):
            rep.add("heat_balance", f"t={t}", abs(delivered[t] - heat_load[t]),
                    BALANCE_TOL)
            rep.add("heat_source", f"t={t}", abs(src_total[t] - chp_total[t]),
                    BALANCE_TOL)
    else:
        chp_total = sol.h_chp.sum(axis=0)
        for t in range(t_count):
            rep.add("heat_balance", f"t={t}", abs(chp_total[t] - heat_load[t]),
                    BALANCE_TOL)

    # prices
    p = cfg.prices
    for t in range(t_count):
        rep.add("price_bounds", f"t={t}",
                max(p.mu_min - sol.mu[t], sol.mu[t] - p.mu_max,
                    p.gamma_min - sol.gamma[t], sol.gamma[t] - p.gamma_max),
                BALANCE_TOL)
    rep.add("price_average_mu", "sum",
            abs(float(sol.mu.sum()) - t_count * p.mu_av), BALANCE_TOL)
    rep.add("price_average_gamma", "sum",
            abs(float(sol.gamma.sum()) - t_count * p.gamma_av), BALANCE_TOL)

    # renewables
    for t in range(t_count):
        rep.add("renewable_cap", f"t={t}",
                max(-sol.p_res[t], sol.p_res[t] - bundle.expected[t]), BALANCE_TOL)

    # reserve coverage: exact deterministic-equivalent satisfaction
    r_tot = sol.reserve_total
    for t in range(t_count):
        req = bundle.reserve_reqs[t]
        covered = float(np.sum(req.level_probs[req.thresholds <= r_tot[t] + 1e-9]))
        rep.add("reserve_coverage", f"t={t}", bundle.confidence - covered, 1e-9)

    # follower block
    if mode.idr_enabled:
        sl_lb, sl_ub = cfg.shift_lower(), cfg.shift_upper()
        cut_ub = bundle.heat_base - bundle.heat_min
        for t in range(t_count):
            rep.add("shift_bounds", f"t={t}",
                    max(sl_lb[t] - sol.p_sl[t], sol.p_sl[t] - sl_ub[t]), BALANCE_TOL)
            rep.add("cut_bounds", f"t={t}",
                    max(-sol.h_cl[t], sol.h_cl[t] - cut_ub[t]), BALANCE_TOL)
        rep.add("shift_total", "sum",
                abs(float(sol.p_sl.sum()) - cfg.shift_total()), BALANCE_TOL)
        _check_best_response(rep, sol, cfg)
        _check_comfort_window(rep, sol, bundle)
    else:
        rep.add("response_off", "p_sl",
                float(np.abs(sol.p_sl - bundle.fixed_p_sl).max(initial=0.0)),
                BALANCE_TOL)
        rep.add("response_off", "h_cl", float(np.abs(sol.h_cl).max(initial=0.0)),
                BALANCE_TOL)

    # recomputed objectives
    f1 = leader_profit(cfg, sol)
    f2 = follower_cost(cfg, sol.mu, sol.gamma, sol.p_sl, sol.h_cl)
    scale1 = max(abs(f1), 1.0)
    rep.add("profit_recompute", "F1", abs(f1 - sol.f1) / scale1, 1e-4)
    rep.add("cost_recompute", "F2", abs(f2 - sol.f2) / max(abs(f2), 1.0), 1e-4)
    if bundle.pwl_error_bound > 0:
        rep.add("pwl_gap", "objective",
                abs(sol.objective_milp - sol.f1),
                bundle.pwl_error_bound + 1e-4 * scale1 + 1e-6)

    # complementarity (single-level solutions only)
    if milp_values is not None and bundle.kkt is not None:
        _check_complementarity(rep, bundle, milp_values)

    return rep


def _check_best_response(rep: ValidationReport, sol: EquilibriumSolution,
                         cfg: ScenarioConfig) -> None:
    br_sl, br_cl = follower_best_response(sol.mu, sol.gamma, cfg)
    for t in range(cfg.horizon):
        rep.add("best_response_heat", f"t={t}",
                abs(sol.h_cl[t] - br_cl[t]), RESPONSE_TOL)
    # price ties leave the split across tied periods follower-indifferent,
    # so compare totals within each equal-price group
    groups: dict[float, list[int]] = {}
    for t in range(cfg.horizon):
        key = round(float(sol.mu[t]), 9)
        groups.setdefault(key, []).append(t)
    for key, idx in groups.items():
        got = float(np.sum(sol.p_sl[idx]))
        want = float(np.sum(br_sl[idx]))
        rep.add("best_response_shift", f"mu={key}", abs(got - want),
                RESPONSE_TOL * max(1, len(idx)))
    rep.add("best_response_bill", "electric",
            abs(float(np.dot(sol.mu, sol.p_sl)) - float(np.dot(sol.mu, br_sl))),
            1e-6 * max(1.0, float(np.dot(sol.mu, br_sl))))


def _check_comfort_window(rep: ValidationReport, sol: EquilibriumSolution,
                          bundle: ModelBundle) -> None:
    cfg = bundle.cfg
    kf = cfg.kf_total()
    if kf <= 0:
        return
    heat_load = bundle.heat_base - sol.h_cl
    for t in range(cfg.horizon):
        t_in = cfg.outdoor_temp[t] + heat_load[t] * 1000.0 / kf
        if t_in >= cfg.pmv.skin_temp_c:
            rep.add("comfort_window", f"t={t} overheated", 1.0, 0.0)
            continue
        index = th.pmv(cfg.pmv, t_in)
        bound = cfg.pmv.lower_bound(cfg.hour_of(t))
        rep.add("comfort_window", f"t={t}", abs(index) - bound, 1e-6)


def _check_complementarity(rep: ValidationReport, bundle: ModelBundle,
                           values: dict[str, float]) -> None:
    block = bundle.kkt
    for pair in block.pairs:
        g_val = pair.primal_value(values)
        d_val = values[pair.dual_var]
        rep.add("complementarity", pair.name, g_val * d_val,
                1e-6 * max(pair.big_m_primal, pair.big_m_dual, 1.0))
        rep.add("kkt_signs", pair.name, max(-g_val, -d_val), BALANCE_TOL)
    for name, residual in block.stationarity_residuals(values):
        rep.add("kkt_stationarity", name, abs(residual), BALANCE_TOL)
