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

import numpy as np

from . import thermal_side as th
from .config import ScenarioConfig
from .model_ir import ModelIR

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
    variables only in mode 3, and otherwise constants in `fixed`. In
    mode 3 `emit_kkt` adds the multipliers: `xi` (one column), `delta1`,
    `delta2` and `delta4`."""

    ir: ModelIR
    cfg: ScenarioConfig
    mode: ModeSettings
    names: dict[str, object]
    fixed: dict[str, np.ndarray]
    # set by `assemble_single_level`
    pwl_error_bound: float = 0.0
    n_segments: int = 0


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


# EquilibriumSolution's arrays: the per-period ones under None, the
# per-unit ones (one row per entry) under the scenario list they follow
SOLUTION_FIELDS = {
    None: ("mu", "gamma", "p_sl", "h_cl", "p_ch", "p_dh", "soc", "r_bess", "p_res"),
    "tp_units": ("p_tp", "r_tp"),
    "chp_units": ("p_chp", "h_chp", "r_chp"),
    "pipelines": ("t_sw", "t_rw", "h_src"),
}


def solution_from(cfg: ScenarioConfig, column, f1: float, f2: float,
                  objective: float) -> EquilibriumSolution:
    """The solution whose field `key` reads `column(key, None)` per period,
    or `column(key, i)` for entry i of its scenario list (`SOLUTION_FIELDS`)."""
    fields = {}
    for group, keys in SOLUTION_FIELDS.items():
        for key in keys:
            fields[key] = column(key, None) if group is None else np.array(
                [column(key, i) for i in range(len(getattr(cfg, group)))]
            ).reshape(-1, cfg.horizon)
    return EquilibriumSolution(**fields, f1=f1, f2=f2, objective_milp=objective)


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

    def add(self, check: str, detail: str, magnitude, limit) -> None:
        """Record a violation unless `magnitude <= limit`: a NaN is one.

        An array `magnitude` records, in index order, each entry that is
        not at most its limit (`limit` a number or one per entry), with
        `detail` formatted with the entry's index."""
        within = magnitude <= limit
        if np.all(within):
            return
        magnitude, limit = np.broadcast_arrays(magnitude, limit)
        for index in map(tuple, np.argwhere(np.logical_not(within))):
            self.violations.append(Violation(check, detail.format(*index),
                                             float(magnitude[index]), float(limit[index])))


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
        fixed = {}
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
        fixed = {"mu": fixed_mu, "gamma": fixed_gamma, "p_sl": p_sl, "h_cl": h_cl}

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

    return ModelBundle(ir=ir, cfg=cfg, mode=mode, names=names, fixed=fixed)


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
    one row per price pair for (n, T) price arrays. Prices outside the
    configured bands are refused with ValueError; `_response` takes any.

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
    return _response(mu, gamma, cfg)


def _response(mu: np.ndarray, gamma: np.ndarray,
              cfg: ScenarioConfig) -> tuple[np.ndarray, np.ndarray]:
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
    # a unit's cost is on its output: p for TP units, y = p + c_v h for CHP
    for u, y, r in ([*zip(cfg.tp_units, sol.p_tp, sol.r_tp)]
                    + [(u, p + u.c_v * h, r) for u, p, h, r
                       in zip(cfg.chp_units, sol.p_chp, sol.h_chp, sol.r_chp)]):
        cost += float(np.sum(u.cost_a * y ** 2 + u.cost_b * y + u.cost_c)) * dt
        cost += u.reserve_cost * float(np.sum(r)) * dt
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
    """Assemble an EquilibriumSolution from raw variable values. A family
    the program lacks reads the bundle's `fixed` value, else NaN for the
    pipelines' fields (transport off), else 0."""
    cfg = bundle.cfg

    def column(key: str, i: int | None) -> np.ndarray:
        names = bundle.names.get(key)
        if names and i is not None:
            names = names[i]
        if names:
            return np.array([values[name] for name in names])
        if key in bundle.fixed:
            return np.array(bundle.fixed[key])
        return np.full(cfg.horizon, np.nan if key in SOLUTION_FIELDS["pipelines"] else 0.0)

    sol = solution_from(cfg, column, 0.0, 0.0, objective)
    sol.f1 = leader_profit(cfg, sol)
    sol.f2 = follower_cost(cfg, sol.mu, sol.gamma, sol.p_sl, sol.h_cl)
    return sol


# ----------------------------------------------------------------------
# verification


def verify_solution(sol: EquilibriumSolution, cfg: ScenarioConfig,
                    mode: ModeSettings, pwl_error_bound: float) -> ValidationReport:
    """Check every operating constraint, the follower's optimality, and the
    recomputed objectives (the MILP's within `pwl_error_bound` of the exact
    profit); violations become report entries, check by check, each over
    all its periods (or units x periods). No program is read."""
    rep = ValidationReport()
    dt = cfg.dt_hours
    load, heat_load = balance_rhs(cfg, sol.p_sl, sol.h_cl)

    def param(units, key: str) -> np.ndarray:  # a column, one row per unit
        return np.array([getattr(u, key) for u in units]).reshape(-1, 1)

    # every entry finite; the pipelines' columns hold NaN without transport
    transport = mode.dhn_enabled and cfg.pipelines
    for key, value in vars(sol).items():
        if transport or key not in SOLUTION_FIELDS["pipelines"]:
            for index in np.argwhere(~np.isfinite(value)).tolist():
                rep.add("finite", f"{key}{index or ''}", 1.0, 0.0)

    # electric balance
    gen = sol.p_tp.sum(axis=0) + sol.p_chp.sum(axis=0) + sol.p_res
    gen = gen + sol.p_dh - sol.p_ch
    rep.add("electric_balance", "t={}", np.abs(gen - load), BALANCE_TOL)

    # unit limits, reserves, ramps: a TP unit's window is on its output p,
    # a CHP unit's region on y = p + c_v h, its heat and the back-pressure line
    tp, chp, h = cfg.tp_units, cfg.chp_units, sol.h_chp
    y = sol.p_chp + param(chp, "c_v") * h
    for kind, units, p, r, window_check, window in (
            ("tp", tp, sol.p_tp, sol.r_tp, "tp_bounds",
             [param(tp, "p_min") - sol.p_tp, sol.p_tp - param(tp, "p_max")]),
            ("chp", chp, sol.p_chp, sol.r_chp, "chp_region",
             [param(chp, "p_min") - y, y - param(chp, "p_max"), -h,
              h - param(chp, "h_max"), param(chp, "c_m") * h - sol.p_chp])):
        up, down = param(units, "ramp_up") * dt, param(units, "ramp_down") * dt
        prev = np.roll(p, 1, axis=1)
        rep.add(window_check, "unit={} t={}", np.max(window, axis=0), BALANCE_TOL)
        rep.add(f"{kind}_reserve", "unit={} t={}",
                np.max([-r, r - up, p + r - param(units, "p_max")], axis=0), BALANCE_TOL)
        rep.add(f"{kind}_ramp", "unit={} t={}",
                np.maximum(p - prev - up, prev - p - down), BALANCE_TOL)

    # storage
    if cfg.bess is not None:
        b = cfg.bess
        prev_soc = np.concatenate(([b.soc_start_mwh], sol.soc[:-1]))
        expect = prev_soc + b.efficiency * sol.p_ch * dt - sol.p_dh * dt / b.efficiency
        rep.add("soc_recursion", "t={}", np.abs(sol.soc - expect), BALANCE_TOL)
        rep.add("soc_bounds", "t={}",
                np.maximum(b.cap_min - sol.soc, sol.soc - b.cap_max), BALANCE_TOL)
        rep.add("bess_mutex", "t={}", sol.p_ch * sol.p_dh,
                BALANCE_TOL * max(b.charge_max, 1.0))
        rep.add("bess_reserve", "t={}", np.max([
            -sol.r_bess, sol.r_bess + sol.p_dh - sol.p_ch - b.discharge_max,
            sol.r_bess - b.efficiency * (sol.soc - b.cap_min) / dt], axis=0), BALANCE_TOL)
        rep.add("soc_cyclic", "end", abs(sol.soc[-1] - b.soc_start_mwh), BALANCE_TOL)

    # heat side: a pipeline carries c_w G (t_sw - t_rw) and loses 2 pi L/R_h
    # (t_sw - T_e); its source feeds both one delay later, wrapped daily
    if transport:
        tb, pipes = cfg.temperature_bounds, cfg.pipelines
        sw, rw = sol.t_sw, sol.t_rw
        rep.add("temp_bounds", "pipe={} t={}", np.max([
            tb.supply_min - sw, sw - tb.supply_max,
            tb.return_min - rw, rw - tb.return_max], axis=0), BALANCE_TOL)
        heat = param(pipes, "heat_mw_per_c") * (sw - rw)
        loss = param(pipes, "loss_mw_per_c") * (sw - param(pipes, "ambient_temp_c"))
        source = [np.roll(fed, -th.pipe_delay(pipe, dt)[1])  # fed[t + delay]
                  for fed, pipe in zip(heat + loss, pipes)]
        rep.add("pipe_source", "pipe={} t={}", np.abs(sol.h_src - source), BALANCE_TOL)
        rep.add("heat_balance", "t={}", np.abs(heat.sum(axis=0) - heat_load), BALANCE_TOL)
        rep.add("heat_source", "t={}",
                np.abs(np.nansum(sol.h_src, axis=0) - h.sum(axis=0)), BALANCE_TOL)
    else:
        rep.add("heat_balance", "t={}", np.abs(h.sum(axis=0) - heat_load), BALANCE_TOL)

    # prices
    p = cfg.prices
    rep.add("price_bounds", "t={}", np.max([
        p.mu_min - sol.mu, sol.mu - p.mu_max,
        p.gamma_min - sol.gamma, sol.gamma - p.gamma_max], axis=0), BALANCE_TOL)
    rep.add("price_average_mu", "sum",
            abs(float(sol.mu.sum()) - cfg.horizon * p.mu_av), BALANCE_TOL)
    rep.add("price_average_gamma", "sum",
            abs(float(sol.gamma.sum()) - cfg.horizon * p.gamma_av), BALANCE_TOL)

    # renewables
    rep.add("renewable_cap", "t={}",
            np.maximum(-sol.p_res, sol.p_res - cfg.expected_renewables()), BALANCE_TOL)

    # reserve coverage: exact deterministic-equivalent satisfaction
    covered = np.array([np.sum(req.level_probs[req.thresholds <= r + 1e-9]) for req, r
                        in zip(cfg.reserve_requirements(), sol.reserve_total.tolist())])
    rep.add("reserve_coverage", "t={}", cfg.confidence - covered, 1e-9)

    # follower block
    if mode.idr_enabled:
        rep.add("shift_bounds", "t={}", np.maximum(
            cfg.shift_lower() - sol.p_sl, sol.p_sl - cfg.shift_upper()), BALANCE_TOL)
        rep.add("cut_bounds", "t={}",
                np.maximum(-sol.h_cl, sol.h_cl - cfg.cut_upper()), BALANCE_TOL)
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
    # the response to the posted prices, in their bands or not (price_bounds)
    br_sl, br_cl = _response(sol.mu, sol.gamma, cfg)
    rep.add("best_response_heat", "t={}", np.abs(sol.h_cl - br_cl), RESPONSE_TOL)
    # price ties leave the split across tied periods follower-indifferent,
    # so compare totals within each equal-price group
    groups: dict[float, list[int]] = {}
    for t, price in enumerate(sol.mu.tolist()):
        groups.setdefault(round(price, 9), []).append(t)
    for key, idx in groups.items():
        rep.add("best_response_shift", f"mu={key}",
                abs(float(np.sum(sol.p_sl[idx])) - float(np.sum(br_sl[idx]))),
                RESPONSE_TOL * max(1, len(idx)))
    rep.add("best_response_bill", "electric",
            abs(float(np.dot(sol.mu, sol.p_sl)) - float(np.dot(sol.mu, br_sl))),
            1e-6 * max(1.0, float(np.dot(sol.mu, br_sl))))


def _check_comfort_window(rep: ValidationReport, cfg: ScenarioConfig,
                          heat_load: np.ndarray) -> None:
    spec = cfg.pmv
    t_in = np.asarray(cfg.outdoor_temp) + heat_load * 1000.0 / cfg.kf_total()
    overheated = t_in >= spec.skin_temp_c
    rep.add("comfort_window", "t={} overheated", overheated * 1.0, 0.0)
    rep.add("comfort_window", "t={}", np.array([
        0.0 if hot else abs(th.pmv(spec, x)) - spec.lower_bound(cfg.hour_of(t))
        for t, (x, hot) in enumerate(zip(t_in.tolist(), overheated.tolist()))]), 1e-6)
