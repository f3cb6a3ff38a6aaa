"""Single-level collapse of the bilevel pricing game.

The follower's convex program is replaced by its optimality conditions:
per-period stationarity, primal feasibility, and complementarity pairs
linearized with per-pair big-M constants read off the variable bounds,
which the price band sets for the multipliers (never a blanket
constant); a pair those bounds already decide gets no binary. The
price*quantity revenue terms, bilinear across the two levels, are
rewritten through the complementarity identities into expressions
linear in the multipliers plus a quadratic-in-follower term whose
curvature matches maximization. Quadratic cost terms are finally
replaced by secant piecewise-linear approximations with an analytic
error bound.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .game_model import BALANCE_TOL, ModelBundle, ValidationReport
from .model_ir import ModelIR, PwlObjTerm

N_SEGMENTS = 8  # chord segments per quadratic cost term, by default


@dataclass(frozen=True)
class PwlApprox:
    """Secant piecewise-linear stand-in for coef*x^2 on [lo, hi]."""

    breakpoints: tuple[float, ...]
    values: tuple[float, ...]
    max_error: float


def pwl_quadratic(coef: float, lo: float, hi: float, n_segments: int) -> PwlApprox:
    """Chord interpolation of coef*x^2 with its worst-case gap coef*w^2/4."""
    if n_segments < 1:
        raise ValueError("need at least one segment")
    if hi < lo:
        raise ValueError("empty range")
    if coef == 0.0 or hi == lo:
        bps = (lo, hi) if hi > lo else (lo, lo + 1.0)
        return PwlApprox(bps, tuple(coef * x ** 2 for x in bps), 0.0)
    width = (hi - lo) / n_segments
    # the floats np.linspace(lo, hi, n_segments + 1) gives, without its overhead
    bps = tuple(k * width + lo for k in range(n_segments)) + (hi,)
    return PwlApprox(bps, tuple(coef * x ** 2 for x in bps),
                     abs(coef) * width ** 2 / 4.0)


@dataclass
class ComplementarityPair:
    """0 <= g(x) perp dual >= 0 with g given as an affine expression.

    `big_m_linearize` sets the big-M constants.
    """

    name: str
    primal_coeffs: dict[str, float]
    primal_const: float
    dual_var: str
    big_m_primal: float = field(default=0.0, init=False)
    big_m_dual: float = field(default=0.0, init=False)

    def primal_value(self, values: dict[str, float]) -> float:
        return self.primal_const + sum(c * values[v]
                                       for v, c in self.primal_coeffs.items())


@dataclass
class KktBlock:
    """Multipliers, stationarity rows and complementarity pairs."""

    xi: str
    deltas: dict[str, list[str]]
    pairs: list[ComplementarityPair]
    stationarity: list[tuple[str, dict[str, float], float]] = field(default_factory=list)

    def stationarity_residuals(self, values: dict[str, float]
                               ) -> list[tuple[str, float]]:
        out = []
        for name, coeffs, rhs in self.stationarity:
            out.append((name, sum(c * values[v] for v, c in coeffs.items()) - rhs))
        return out

    def check(self, rep: ValidationReport, values: dict[str, float]) -> None:
        """Check complementarity, signs and stationarity at the MILP's `values`."""
        for pair in self.pairs:
            g_val = pair.primal_value(values)
            d_val = values[pair.dual_var]
            rep.add("complementarity", pair.name, g_val * d_val,
                    1e-6 * max(pair.big_m_primal, pair.big_m_dual, 1.0))
            rep.add("kkt_signs", pair.name, max(-g_val, -d_val), BALANCE_TOL)
        for name, residual in self.stationarity_residuals(values):
            rep.add("kkt_stationarity", name, abs(residual), BALANCE_TOL)


def emit_kkt(ir: ModelIR, bundle: ModelBundle) -> KktBlock:
    """Optimality conditions of the users' problem, one block per period,
    over the bundle's price and users' variables (`bundle.names`: `mu`,
    `gamma`, `p_sl`, `h_cl`); the price band, theta and the users' bounds
    are the scenario's (`bundle.cfg`).

    Electric stationarity:  mu_t - d1_t + d2_t + xi = 0
    Heat stationarity:      -gamma_t + 2*theta*hcl_t + d4_t = 0
    plus complementarity pairs for the shiftable load's two bounds
    (d1_t, d2_t) and the heat cut's cap (d4_t).

    Every multiplier is bounded by what the price band implies. The
    bounds cut off no optimal response, because at every admissible
    price vector the users' response has multipliers inside them:
    - Electric. The users fill the cheapest periods first; let m be the
      marginal period (partly filled, else the dearest filled one, else
      the cheapest). Then xi = -mu_m lies in [-mu_max, -mu_min], and
      d1_t = max(mu_t - mu_m, 0), d2_t = max(mu_m - mu_t, 0) are at most
      mu_max - mu_min. The problem is an LP, so these multipliers
      certify every optimal split, ties included.
    - Heat. The response is clip(gamma_t/(2 theta), 0, cut_ub_t). Prices
      are nonnegative, so the floor's multiplier is always zero: the
      floor stays a plain variable bound with no pair. The cap's is
      d4_t = max(0, gamma_t - 2 theta cut_ub_t), at most
      max(0, gamma_max - 2 theta cut_ub_t). Where cut_ub_t <=
      gamma_min/(2 theta) the cap binds at every admissible price, and
      `build_follower` (which `build_leader` calls in mode 3) fixes hcl_t
      there.
    Conversely, any point of these rows and pairs is a best response,
    since the KKT conditions of a convex program are sufficient. A pair
    whose primal range or multiplier cap is zero (a fixed cut, a cap that
    never binds) therefore holds by its bounds; `big_m_linearize` gives
    it no binary.
    """
    cfg, names = bundle.cfg, bundle.names
    mu_names, gamma_names = names["mu"], names["gamma"]
    p_sl, h_cl = names["p_sl"], names["h_cl"]
    prices, theta = cfg.prices, cfg.idr.theta
    t_count = cfg.horizon
    sl_lb, sl_ub, cut_ub = cfg.shift_lower(), cfg.shift_upper(), cfg.cut_upper()
    cap_e = np.full(t_count, prices.mu_max - prices.mu_min)
    caps = {"delta1": cap_e, "delta2": cap_e,
            "delta4": np.maximum(0.0, prices.gamma_max - 2.0 * theta * cut_ub)}

    xi = ir.add_variable("xi", -prices.mu_max, -prices.mu_min)
    deltas = {family: ir.add_block(family, t_count, 0.0, cap)
              for family, cap in caps.items()}
    stat_e = [(mu_names, 1.0), (deltas["delta1"], -1.0), (deltas["delta2"], 1.0),
              ([xi] * t_count, 1.0)]
    stat_h = [(gamma_names, -1.0), (h_cl, 2.0 * theta), (deltas["delta4"], 1.0)]
    ir.add_rows(t_count, [("kkt_stat_e", stat_e, "==", 0.0),
                          ("kkt_stat_h", stat_h, "==", 0.0)])

    block = KktBlock(xi=xi, deltas=deltas, pairs=[])
    for t in range(t_count):
        for name, terms in (("kkt_stat_e", stat_e), ("kkt_stat_h", stat_h)):
            block.stationarity.append(
                (f"{name}_{t}", {v[t]: c for v, c in terms}, 0.0))
        block.pairs.append(ComplementarityPair(
            f"shift_lb_{t}", {p_sl[t]: 1.0}, -float(sl_lb[t]),
            deltas["delta1"][t]))
        block.pairs.append(ComplementarityPair(
            f"shift_ub_{t}", {p_sl[t]: -1.0}, float(sl_ub[t]),
            deltas["delta2"][t]))
        block.pairs.append(ComplementarityPair(
            f"cut_ub_{t}", {h_cl[t]: -1.0}, float(cut_ub[t]),
            deltas["delta4"][t]))
    return block


def big_m_linearize(ir: ModelIR, pairs: list[ComplementarityPair]
                    ) -> list[str | None]:
    """Replace complementarity pairs by two big-M rows and a binary each.

    Both constants of a pair come from the variable bounds: the primal one
    is the expression's largest value over them, the dual one the
    multiplier's upper bound. With indicator 1 the dual is forced to zero;
    with indicator 0 the primal expression is. Nonnegativity of both sides
    is carried by the bounds, so a pair with a zero constant already holds
    and gets no binary and no rows. The binaries enter as one block, then
    the rows, pair by pair, in one call; returns each pair's binary, or
    None.
    """
    for pair in pairs:
        pair.big_m_primal = pair.primal_const + sum(  # (lb, ub)[c > 0]: c*v at its largest
            c * ir.bounds(v)[c > 0] for v, c in pair.primal_coeffs.items())
        pair.big_m_dual = ir.bounds(pair.dual_var)[1]
    decided = [pair.big_m_primal == 0.0 or pair.big_m_dual == 0.0 for pair in pairs]
    added = iter(ir.add_columns([f"pi_{pair.name}" for pair, d in zip(pairs, decided)
                                 if not d], 0.0, 1.0, binary=True))
    binaries = [None if d else next(added) for d in decided]
    rows = []
    for pair, binary in zip(pairs, binaries):
        if binary is not None:
            rows += [(f"bigm_g_{pair.name}", {**pair.primal_coeffs, binary: -pair.big_m_primal},
                      "<=", -pair.primal_const),
                     (f"bigm_d_{pair.name}", {pair.dual_var: 1.0, binary: pair.big_m_dual},
                      "<=", pair.big_m_dual)]
    ir.add_row_list(rows)
    return binaries


def eliminate_bilinear(ir: ModelIR, bundle: ModelBundle, block: KktBlock) -> None:
    """Add the users' payments to the objective, substituted through the
    complementarity identities of their optimality conditions.

    The operator collects dt * (mu_t * psl_t - gamma_t * hcl_t) from the
    response on top of the fixed loads, with
    mu_t * psl_t   = d1_t*lb_t - d2_t*ub_t - xi*psl_t   (sums to -xi*S)
    gamma_t * hcl_t = 2*theta*hcl_t^2 + d4_t*cut_ub_t
    which leaves the objective linear in the multipliers plus a concave
    quadratic in the heat cut, which a maximization handles without
    binaries. The electric pieces aggregate to -xi*S because every period
    carries the same weight dt and the shift-total row fixes sum psl_t = S.
    """
    cfg, h_cl = bundle.cfg, bundle.names["h_cl"]
    dt = cfg.dt_hours
    sl_lb, sl_ub, cut_ub = cfg.shift_lower(), cfg.shift_upper(), cfg.cut_upper()
    for t in range(cfg.horizon):
        ir.add_obj_linear(block.deltas["delta1"][t], dt * float(sl_lb[t]))
        ir.add_obj_linear(block.deltas["delta2"][t], -dt * float(sl_ub[t]))
        ir.add_obj_quad(h_cl[t], -dt * 2.0 * cfg.idr.theta)
        ir.add_obj_linear(block.deltas["delta4"][t], -dt * float(cut_ub[t]))
    ir.add_obj_linear(block.xi, -dt * cfg.shift_total())


def bilinear_identity_residuals(bundle: ModelBundle, block: KktBlock,
                                values: dict[str, float]) -> list[tuple[str, float]]:
    """Per-period gap between price*quantity and its substituted expression."""
    cfg, names = bundle.cfg, bundle.names
    sl_lb, sl_ub, cut_ub = cfg.shift_lower(), cfg.shift_upper(), cfg.cut_upper()
    out = []
    for t in range(cfg.horizon):
        psl = values[names["p_sl"][t]]
        lhs = values[names["mu"][t]] * psl
        rhs = (values[block.deltas["delta1"][t]] * float(sl_lb[t])
               - values[block.deltas["delta2"][t]] * float(sl_ub[t])
               - values[block.xi] * psl)
        out.append((f"elec_{t}", lhs - rhs))
        hcl = values[names["h_cl"][t]]
        lhs = values[names["gamma"][t]] * hcl
        rhs = (2.0 * cfg.idr.theta * hcl ** 2
               + values[block.deltas["delta4"][t]] * float(cut_ub[t]))
        out.append((f"heat_{t}", lhs - rhs))
    return out


def apply_pwl(ir: ModelIR, n_segments: int) -> float:
    """Replace every diagonal quadratic objective term by its chord PWL.

    Returns the summed worst-case objective error. Terms on effectively
    fixed variables fold into the objective constant exactly.
    """
    total_bound = 0.0
    for term in ir.obj_quad:
        lb, ub = ir.bounds(term.var)
        if ub - lb < 1e-12:
            ir.obj_const += term.coef * lb ** 2
            continue
        approx = pwl_quadratic(term.coef, lb, ub, n_segments)
        ir.add_obj_pwl(PwlObjTerm(term.var, approx.breakpoints, approx.values))
        total_bound += approx.max_error
    ir.obj_quad = []
    return total_bound


def assemble_single_level(bundle: ModelBundle,
                          n_segments: int = N_SEGMENTS) -> ModelBundle:
    """Finish the program: optimality conditions, big-M rows, bilinear
    elimination, and the PWL pass that makes it a pure MILP.

    Without optimized prices the users' quantities are constants and no
    KKT rows are emitted; the same entry point then just linearizes the
    costs.
    """
    ir = bundle.ir
    if bundle.mode.optimize_prices:
        block = emit_kkt(ir, bundle)
        big_m_linearize(ir, block.pairs)
        eliminate_bilinear(ir, bundle, block)
        bundle.kkt = block
    bundle.pwl_error_bound = apply_pwl(ir, n_segments)
    bundle.n_segments = n_segments
    ir.validate()
    return bundle
