"""Leader/follower model construction and solution verification.

The price-setting operator (leader) dispatches thermal units, CHP
units, storage and renewables to serve electricity and heat, subject to
balances, ramps, pipeline temperature windows, price-band and
average-price rows, and the deterministic-equivalent reserve rows. The
users (follower) shift electric load and curtail heat load against the
posted prices. `build_leader` is the one entry that emits the program and
decides the users' side, in one place: with optimized prices it adds the
users' own variables (`build_follower`), whose optimality conditions the
KKT pass then folds into the operator's problem; with posted prices the
users' quantities enter as constants. Either way `balance_rhs` gives the
balances' right-hand sides, and with them the users' bill.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from . import thermal_side as th
from .config import ScenarioConfig
from .model_ir import ModelIR

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
class ModelBundle:
    """A built program plus what extraction, the KKT checks and the
    deviation search need beyond its scenario; verification needs none of
    it. Every scenario-derived value (expected renewables, reserve
    requirements and confidence, heat loads, pipe delays) is read from
    `cfg`, which memoizes them. `names` holds each variable family's
    names; the users' `p_sl`/`h_cl` and the prices `mu`/`gamma` are
    variables only in mode 3, and otherwise the `fixed_*` constants."""

    ir: ModelIR
    cfg: ScenarioConfig
    mode: ModeSettings
    names: dict[str, object]
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
    f1: float
    f2: float
    objective_milp: float

    @property
    def absorbed(self) -> float:
        return float(np.sum(self.p_res))

    @property
    def reserve_total(self) -> np.ndarray:
        return self.r_tp.sum(axis=0) + self.r_chp.sum(axis=0) + self.r_bess


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


def build_follower(cfg: ScenarioConfig, ir: ModelIR) -> tuple[list[str], list[str]]:
    """Add shiftable-load and heat-cut variables with their primal rows;
    returns their names, per period.

    The shiftable-total row uses the constant S = alpha/(1-alpha) * sum
    of fixed load, which removes the self-reference of defining the
    ratio against a total that includes the shifted part itself. A heat
    cut whose cap is at most gamma_min/(2 theta) sits at its cap at every
    admissible price, so it is fixed there (see `emit_kkt`).
    """
    cut_ub = cfg.cut_upper()
    capped = cut_ub <= cfg.prices.gamma_min / (2.0 * cfg.idr.theta)
    p_sl = ir.add_block("p_sl", cfg.horizon, cfg.shift_lower(), cfg.shift_upper())
    h_cl = ir.add_block("h_cl", cfg.horizon, np.where(capped, cut_ub, 0.0), cut_ub)
    ir.add_row_list([("shift_total", dict.fromkeys(p_sl, 1.0), "==", cfg.shift_total())])
    return p_sl, h_cl


def balance_rhs(cfg: ScenarioConfig, p_sl: np.ndarray | float,
                h_cl: np.ndarray | float) -> tuple[np.ndarray, np.ndarray]:
    """The electricity and heat the users draw with shift `p_sl` and heat
    cut `h_cl` (per period, or one row per response): the fixed load
    plus the shift and the base heat load minus the cut. These are the
    right-hand sides of the balance rows `bal_e_t` and `bal_h_t` when the
    users' quantities are constants; their own columns enter at zero."""
    return np.asarray(cfg.fixed_load) + p_sl, cfg.heat_base_load() - h_cl


def build_leader(cfg: ScenarioConfig,
                 mode: ModeSettings,
                 *,
                 dispatch_response: tuple[np.ndarray, np.ndarray] | None = None
                 ) -> ModelBundle:
    """Emit the operator's dispatch-and-pricing program.

    The users' side is decided once:
    - optimized prices (mode 3): the prices and the users' shift and heat
      cut are columns (`build_follower`); the fixed loads' revenue enters
      the objective here, and the users' own payments are substituted by
      `assemble_single_level`;
    - otherwise the prices and the users' quantities are constants. With
      `dispatch_response` the prices are zero and the users take that
      response, so the optimum is minus the dispatch cost of serving it;
      else the prices are the proportional tariff and the users take
      their best response to it (mode 4) or the baseline shift and no
      heat cut. The users' bill is the objective's constant.
    Either way the balances' right-hand sides are `balance_rhs`. The
    expected renewable output, the reserve rows (at `cfg.confidence`) and
    the heat loads are the scenario's memoized values.
    """
    t_count = cfg.horizon
    dt = cfg.dt_hours
    if mode.optimize_prices and dispatch_response is not None:
        raise BuildError("a fixed response conflicts with price optimization")
    _static_checks(cfg, mode)
    ir = ModelIR(name=f"{cfg.name}_mode{mode.number}")
    # a family per unit (or pipeline) and kind, spanning the periods
    names: dict[str, object] = {key: [] for key in (
        "p_tp", "r_tp", "p_chp", "h_chp", "y_chp", "r_chp", "t_sw", "t_rw", "h_src")}

    def unit(key: str, i: int, lb, ub) -> list[str]:
        names[key].append(ir.add_block(f"{key}_{i}", t_count, lb, ub))
        return names[key][-1]

    # the users' side, decided once: `users` holds their columns' terms in
    # the electric ("e") and heat ("h") balances, none when their
    # quantities are constants, and rhs_e/rhs_h the balances' right sides
    if mode.optimize_prices:
        p_sl_names, h_cl_names = build_follower(cfg, ir)
        p = cfg.prices
        mu = ir.add_block("mu", t_count, p.mu_min, p.mu_max)
        gamma = ir.add_block("gamma", t_count, p.gamma_min, p.gamma_max)
        ir.add_row_list([("price_avg_mu", dict.fromkeys(mu, 1.0), "==", t_count * p.mu_av),
                         ("price_avg_gamma", dict.fromkeys(gamma, 1.0), "==",
                          t_count * p.gamma_av)])
        names.update(mu=mu, gamma=gamma, p_sl=p_sl_names, h_cl=h_cl_names)
        rhs_e, rhs_h = balance_rhs(cfg, 0.0, 0.0)
        for t in range(t_count):
            ir.add_obj_linear(mu[t], float(rhs_e[t]) * dt)
            ir.add_obj_linear(gamma[t], float(rhs_h[t]) * dt)
        users = {"e": [(p_sl_names, -1.0)], "h": [(h_cl_names, 1.0)]}
        fixed_mu = fixed_gamma = p_sl = h_cl = None
    else:
        if dispatch_response is not None:
            fixed_mu = fixed_gamma = np.zeros(t_count)
            p_sl, h_cl = (np.asarray(a, dtype=float) for a in dispatch_response)
        else:
            fixed_mu, fixed_gamma = cfg.proportional_prices()
            p_sl, h_cl = (follower_best_response(fixed_mu, fixed_gamma, cfg)
                          if mode.idr_enabled
                          else (cfg.baseline_shift(), np.zeros(t_count)))
        rhs_e, rhs_h = balance_rhs(cfg, p_sl, h_cl)
        ir.obj_const += users_bill(cfg, fixed_mu, fixed_gamma, p_sl, h_cl)
        users = {"e": [], "h": []}

    # units; the rows of families added together interleave period by period
    for i, u in enumerate(cfg.tp_units):
        prow = unit("p_tp", i, u.p_min, u.p_max)
        rrow = unit("r_tp", i, 0.0, u.ramp_up * dt)
        ir.add_rows(t_count, [(f"tp_head_{i}", [(prow, 1.0), (rrow, 1.0)], "<=", u.p_max)])
        _ramp_rows(ir, f"tp_{i}", prow, u.ramp_up * dt, u.ramp_down * dt)
    for i, u in enumerate(cfg.chp_units):
        prow, hrow = unit("p_chp", i, 0.0, u.p_max), unit("h_chp", i, 0.0, u.h_max)
        yrow, rrow = unit("y_chp", i, u.p_min, u.p_max), unit("r_chp", i, 0.0, u.ramp_up * dt)
        # fuel-equivalent output y = p + c_v h carries the operating window;
        # back-pressure line: power cannot fall below c_m * heat
        ir.add_rows(t_count, [
            (f"chp_fuel_{i}", [(yrow, 1.0), (prow, -1.0), (hrow, -u.c_v)], "==", 0.0),
            (f"chp_bp_{i}", [(prow, 1.0), (hrow, -u.c_m)], ">=", 0.0),
            (f"chp_head_{i}", [(prow, 1.0), (rrow, 1.0)], "<=", u.p_max)])
        _ramp_rows(ir, f"chp_{i}", prow, u.ramp_up * dt, u.ramp_down * dt)

    # storage
    bess_ch = bess_dh = bess_r = None
    if cfg.bess is not None:
        b = cfg.bess
        bess_ch = names["p_ch"] = ir.add_block("p_ch", t_count, 0.0, b.charge_max)
        bess_dh = names["p_dh"] = ir.add_block("p_dh", t_count, 0.0, b.discharge_max)
        bess_soc = names["soc"] = ir.add_block("soc", t_count, b.cap_min, b.cap_max)
        bess_u = names["u_dh"] = ir.add_block("u_dh", t_count, 0.0, 1.0, binary=True)
        bess_r = names["r_bess"] = ir.add_block("r_bess", t_count, 0.0,
                                                b.discharge_max + b.charge_max)
        first = np.arange(t_count) == 0  # the recursion starts from soc_start
        ir.add_rows(t_count, [
            ("soc_rec", [(bess_soc, 1.0), (bess_ch, -b.efficiency * dt),
                         (bess_dh, dt / b.efficiency),
                         (bess_soc[-1:] + bess_soc[:-1], np.where(first, 0.0, -1.0))],
             "==", np.where(first, b.soc_start_mwh, 0.0)),
            ("bess_mutex_ch", [(bess_ch, 1.0), (bess_u, b.charge_max)], "<=", b.charge_max),
            ("bess_mutex_dh", [(bess_dh, 1.0), (bess_u, -b.discharge_max)], "<=", 0.0),
            # headroom to swing to full discharge, and deliverable energy
            ("bess_res_head", [(bess_r, 1.0), (bess_dh, 1.0), (bess_ch, -1.0)],
             "<=", b.discharge_max),
            ("bess_res_energy", [(bess_r, 1.0), (bess_soc, -b.efficiency / dt)],
             "<=", -b.efficiency / dt * b.cap_min)])
        ir.add_row_list([("soc_cyclic", {bess_soc[-1]: 1.0}, "==", b.soc_start_mwh)])

    # renewables consumed, and the electric balance
    p_res = names["p_res"] = ir.add_block("p_res", t_count, 0.0,
                                          np.maximum(cfg.expected_renewables(), 0.0))
    supply = [(p_res, 1.0)] + [(prow, 1.0) for prow in names["p_tp"] + names["p_chp"]]
    if bess_ch is not None:
        supply += [(bess_dh, 1.0), (bess_ch, -1.0)]
    _add_rows_or_check(ir, t_count, [("bal_e", supply + users["e"], "==", rhs_e)])

    # heat side: the heat delivered is the pipelines' (transport on), fed
    # by the CHP units' output, else the CHP units' output itself
    if mode.dhn_enabled:
        if not cfg.pipelines:
            raise BuildError("transport effects enabled but no pipelines defined")
        tb = cfg.temperature_bounds
        delivered = []
        for p_idx, pipe in enumerate(cfg.pipelines):
            _, steps = th.pipe_delay(pipe, dt)
            hco, lco = pipe.heat_mw_per_c, pipe.loss_mw_per_c
            sw = unit("t_sw", p_idx, tb.supply_min, tb.supply_max)
            rw = unit("t_rw", p_idx, tb.return_min, tb.return_max)
            src_lo = (hco * (tb.supply_min - tb.return_max)
                      + lco * (tb.supply_min - pipe.ambient_temp_c))
            src_hi = (hco * (tb.supply_max - tb.return_min)
                      + lco * (tb.supply_max - pipe.ambient_temp_c))
            src = unit("h_src", p_idx, src_lo, src_hi)
            # heat injected now covers delivery plus loss one delay later
            # (wrapped: the schedule repeats daily)
            later = [(t + steps) % t_count for t in range(t_count)]
            ir.add_rows(t_count, [(f"pipe_src_{p_idx}",
                                   [(src, 1.0), ([sw[t] for t in later], -(hco + lco)),
                                    ([rw[t] for t in later], hco)],
                                   "==", -lco * pipe.ambient_temp_c)])
            delivered += [(sw, hco), (rw, -hco)]
        feed = ([(row, 1.0) for row in names["h_src"]]
                + [(hrow, -1.0) for hrow in names["h_chp"]])
        heat = [("bal_h", delivered + users["h"], "==", rhs_h),
                ("bal_src", feed, "==", 0.0)]
    else:
        heat = [("bal_h", [(hrow, 1.0) for hrow in names["h_chp"]] + users["h"],
                 "==", rhs_h)]
    _add_rows_or_check(ir, t_count, heat)

    # reserve: the chance constraint's exact deterministic equivalent
    reserve = [(rrow, 1.0) for rrow in names["r_tp"] + names["r_chp"]]
    if bess_r is not None:
        reserve.append((bess_r, 1.0))
    _add_rows_or_check(ir, t_count, [("res_min", reserve, ">=", [
        req.min_reserve() for req in cfg.reserve_requirements()])])

    # objective: the users' payments entered with their side above; here
    # the generation, storage and reserve costs
    for units, p_key, r_key in ((cfg.tp_units, "p_tp", "r_tp"),
                                (cfg.chp_units, "y_chp", "r_chp")):
        for u, prow, rrow in zip(units, names[p_key], names[r_key]):
            for t in range(t_count):
                ir.add_obj_quad(prow[t], -u.cost_a * dt)
                ir.add_obj_linear(prow[t], -u.cost_b * dt)
                ir.add_obj_linear(rrow[t], -u.reserve_cost * dt)
                ir.obj_const -= u.cost_c * dt
    if cfg.bess is not None:
        b = cfg.bess
        for t in range(t_count):
            ir.add_obj_linear(bess_dh[t], -b.discharge_cost * dt)
            ir.add_obj_linear(bess_ch[t], -b.charge_cost * dt)
            ir.add_obj_linear(bess_r[t], -b.reserve_cost * dt)

    return ModelBundle(
        ir=ir, cfg=cfg, mode=mode, names=names,
        fixed_mu=fixed_mu, fixed_gamma=fixed_gamma,
        fixed_p_sl=p_sl, fixed_h_cl=h_cl)


def _ramp_rows(ir: ModelIR, tag: str, prow: list[str], up: float, down: float) -> None:
    if len(prow) < 2:
        return
    step = [(prow, 1.0), (prow[-1:] + prow[:-1], -1.0)]  # day-cyclic, like the heat side
    ir.add_rows(len(prow), [(f"ramp_up_{tag}", step, "<=", up),
                            (f"ramp_dn_{tag}", step, ">=", -down)])


def _add_rows_or_check(ir: ModelIR, n: int, families: list) -> None:
    """`ir.add_rows(n, families)`, except that a family without terms
    gets `check_empty_row` on each of its rows instead."""
    for prefix, terms, _, rhs in families:
        if not terms:
            for t, value in enumerate(np.broadcast_to(rhs, (n,)).tolist()):
                check_empty_row(f"{prefix}_{t}", value)
    ir.add_rows(n, [family for family in families if family[1]])


def check_empty_row(name: str, rhs: float) -> None:
    """A row left with no contributing variables holds only at rhs 0."""
    if abs(rhs) > BALANCE_TOL:
        raise BuildError(f"row {name} demands {rhs} with no contributing variables")


def _static_checks(cfg: ScenarioConfig, mode: ModeSettings) -> None:
    heat_min = cfg.heat_min_load()
    cap_e = (sum(u.p_max for u in cfg.tp_units)
             + sum(u.p_max for u in cfg.chp_units)
             + (cfg.bess.discharge_max if cfg.bess else 0.0))
    peak = float(max(cfg.fixed_load))
    if cap_e < peak:
        raise BuildError(f"generation capacity {cap_e} below peak fixed load {peak}")
    cap_h = sum(u.h_max for u in cfg.chp_units)
    if cap_h < float(heat_min.max()):
        raise BuildError(f"heat capacity {cap_h} below the comfort floor "
                         f"{float(heat_min.max())}")
    if mode.dhn_enabled and cfg.pipelines:
        tb = cfg.temperature_bounds
        deliver_min = sum(p.heat_mw_per_c * (tb.supply_min - tb.return_max)
                          for p in cfg.pipelines)
        deliver_max = sum(p.heat_mw_per_c * (tb.supply_max - tb.return_min)
                          for p in cfg.pipelines)
        if deliver_max < float(heat_min.max()):
            raise BuildError("pipelines cannot deliver the comfort-floor heat load")
        if deliver_min > float(cfg.heat_base_load().min()):
            raise BuildError("minimum pipeline delivery exceeds the lightest heat load")


# ----------------------------------------------------------------------
# follower best response


def follower_best_response(mu: np.ndarray, gamma: np.ndarray,
                           cfg: ScenarioConfig) -> tuple[np.ndarray, np.ndarray]:
    """Users' cost-minimizing response to posted prices, per period, or
    one row per price pair for (n, T) price arrays.

    Heat cut is the per-period closed form gamma/(2 theta) clamped to its
    bounds. The shiftable total is allocated greedily by ascending
    electricity price, ties broken by period index: one period at a time,
    across all rows, until a row has no more than 1e-15 left to place.
    """
    mu = np.asarray(mu, dtype=float)
    gamma = np.asarray(gamma, dtype=float)
    p = cfg.prices
    if (np.any(mu < p.mu_min - 1e-9) or np.any(mu > p.mu_max + 1e-9)
            or np.any(gamma < p.gamma_min - 1e-9) or np.any(gamma > p.gamma_max + 1e-9)):
        raise ValueError("prices outside the configured bands")

    h_cl = np.clip(gamma / (2.0 * cfg.idr.theta), 0.0, cfg.cut_upper())

    lb, ub = cfg.shift_lower(), cfg.shift_upper()
    prices = mu.reshape(-1, cfg.horizon)
    p_sl = np.tile(lb, (len(prices), 1))
    remaining = np.full(len(prices), cfg.shift_total() - float(lb.sum()))
    order = np.argsort(prices, axis=1, kind="stable")  # price, then period index
    for t in order.T:
        rows = np.flatnonzero(remaining > 1e-15)
        if not rows.size:
            break
        add = np.minimum((ub - lb)[t[rows]], remaining[rows])
        p_sl[rows, t[rows]] += add
        remaining[rows] -= add
    return p_sl.reshape(mu.shape), h_cl


def users_bill(cfg: ScenarioConfig, mu: np.ndarray, gamma: np.ndarray,
               p_sl: np.ndarray, h_cl: np.ndarray) -> float | np.ndarray:
    """What the users pay at prices (mu, gamma) for the electricity and
    heat they draw with shift p_sl and heat cut h_cl: the operator's
    revenue. For (n, T) arrays, one bill per row, each summed as the
    one-row bill is."""
    elec, heat = balance_rhs(cfg, p_sl, h_cl)
    bills = np.array([np.dot(m, e) + np.dot(g, h) for m, e, g, h in zip(
        *(np.reshape(a, (-1, cfg.horizon)) for a in (mu, elec, gamma, heat)))])
    bills *= cfg.dt_hours
    return float(bills[0]) if np.ndim(mu) == 1 else bills


def follower_cost(cfg: ScenarioConfig, mu: np.ndarray, gamma: np.ndarray,
                  p_sl: np.ndarray, h_cl: np.ndarray) -> float:
    """Users' total bill including the comfort penalty."""
    penalty = cfg.idr.theta * float(np.dot(h_cl, h_cl)) * cfg.dt_hours
    return users_bill(cfg, mu, gamma, p_sl, h_cl) + penalty


def leader_profit(cfg: ScenarioConfig, sol: "EquilibriumSolution") -> float:
    """Operator profit recomputed from primitives with exact quadratic costs."""
    dt = cfg.dt_hours
    revenue = users_bill(cfg, sol.mu, sol.gamma, sol.p_sl, sol.h_cl)
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

    def grid(family: str, n_rows: int, fill: float = 0.0) -> np.ndarray:
        rows = bundle.names.get(family, [])
        if not rows:
            return np.full((n_rows, t_count), fill)
        return np.array([[values[name] for name in row] for row in rows])

    def series(family: str, fallback=None) -> np.ndarray:
        row = bundle.names.get(family)
        if row is None:
            return np.zeros(t_count) if fallback is None else np.array(fallback)
        return np.array([values[name] for name in row])

    mu, gamma = series("mu", bundle.fixed_mu), series("gamma", bundle.fixed_gamma)
    p_sl, h_cl = series("p_sl", bundle.fixed_p_sl), series("h_cl", bundle.fixed_h_cl)

    # the pipelines' columns exist only with transport on; NaN otherwise
    n_pipe = len(cfg.pipelines)
    t_sw, t_rw, h_src = (grid(key, n_pipe, np.nan) for key in ("t_sw", "t_rw", "h_src"))

    sol = EquilibriumSolution(
        mu=mu, gamma=gamma, p_sl=p_sl, h_cl=h_cl,
        p_tp=grid("p_tp", len(cfg.tp_units)), r_tp=grid("r_tp", len(cfg.tp_units)),
        p_chp=grid("p_chp", len(cfg.chp_units)), h_chp=grid("h_chp", len(cfg.chp_units)),
        r_chp=grid("r_chp", len(cfg.chp_units)),
        p_ch=series("p_ch"), p_dh=series("p_dh"), soc=series("soc"),
        r_bess=series("r_bess"), p_res=series("p_res"),
        t_sw=t_sw, t_rw=t_rw, h_src=h_src,
        f1=0.0, f2=0.0, objective_milp=objective)
    sol.f1 = leader_profit(cfg, sol)
    sol.f2 = follower_cost(cfg, mu, gamma, p_sl, h_cl)
    return sol


# ----------------------------------------------------------------------
# verification


def verify_solution(sol: EquilibriumSolution, cfg: ScenarioConfig,
                    mode: ModeSettings, pwl_error_bound: float) -> ValidationReport:
    """Check every operating constraint, the follower's optimality, and the
    recomputed objectives (the MILP's within `pwl_error_bound` of the exact
    profit); violations become report entries. No program is read."""
    rep = ValidationReport()
    t_count = cfg.horizon
    dt = cfg.dt_hours
    load, heat_load = balance_rhs(cfg, sol.p_sl, sol.h_cl)

    # electric balance
    gen = sol.p_tp.sum(axis=0) + sol.p_chp.sum(axis=0) + sol.p_res
    gen = gen + sol.p_dh - sol.p_ch
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
    if mode.dhn_enabled and cfg.pipelines:
        delivered = np.zeros(t_count)
        for p_idx, pipe in enumerate(cfg.pipelines):
            _, steps = th.pipe_delay(pipe, dt)
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
    expected = cfg.expected_renewables()
    for t in range(t_count):
        rep.add("renewable_cap", f"t={t}",
                max(-sol.p_res[t], sol.p_res[t] - expected[t]), BALANCE_TOL)

    # reserve coverage: exact deterministic-equivalent satisfaction
    r_tot = sol.reserve_total
    for t, req in enumerate(cfg.reserve_requirements()):
        covered = float(np.sum(req.level_probs[req.thresholds <= r_tot[t] + 1e-9]))
        rep.add("reserve_coverage", f"t={t}", cfg.confidence - covered, 1e-9)

    # follower block
    if mode.idr_enabled:
        sl_lb, sl_ub = cfg.shift_lower(), cfg.shift_upper()
        cut_ub = cfg.cut_upper()
        for t in range(t_count):
            rep.add("shift_bounds", f"t={t}",
                    max(sl_lb[t] - sol.p_sl[t], sol.p_sl[t] - sl_ub[t]), BALANCE_TOL)
            rep.add("cut_bounds", f"t={t}",
                    max(-sol.h_cl[t], sol.h_cl[t] - cut_ub[t]), BALANCE_TOL)
        rep.add("shift_total", "sum",
                abs(float(sol.p_sl.sum()) - cfg.shift_total()), BALANCE_TOL)
        _check_best_response(rep, sol, cfg)
        _check_comfort_window(rep, cfg, heat_load)
    else:
        rep.add("response_off", "p_sl",
                float(np.abs(sol.p_sl - cfg.baseline_shift()).max(initial=0.0)),
                BALANCE_TOL)
        rep.add("response_off", "h_cl", float(np.abs(sol.h_cl).max(initial=0.0)),
                BALANCE_TOL)

    # recomputed objectives
    f1 = leader_profit(cfg, sol)
    f2 = follower_cost(cfg, sol.mu, sol.gamma, sol.p_sl, sol.h_cl)
    scale1 = max(abs(f1), 1.0)
    rep.add("profit_recompute", "F1", abs(f1 - sol.f1) / scale1, 1e-4)
    rep.add("cost_recompute", "F2", abs(f2 - sol.f2) / max(abs(f2), 1.0), 1e-4)
    rep.add("pwl_gap", "objective", abs(sol.objective_milp - sol.f1),
            pwl_error_bound + 1e-4 * scale1 + 1e-6)
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


def _check_comfort_window(rep: ValidationReport, cfg: ScenarioConfig,
                          heat_load: np.ndarray) -> None:
    kf = cfg.kf_total()
    for t in range(cfg.horizon):
        t_in = cfg.outdoor_temp[t] + heat_load[t] * 1000.0 / kf
        if t_in >= cfg.pmv.skin_temp_c:
            rep.add("comfort_window", f"t={t} overheated", 1.0, 0.0)
            continue
        index = th.pmv(cfg.pmv, t_in)
        bound = cfg.pmv.lower_bound(cfg.hour_of(t))
        rep.add("comfort_window", f"t={t}", abs(index) - bound, 1e-6)

