"""Single-level collapse of the bilevel pricing game.

The follower's convex program is replaced by its optimality conditions,
each stated once as arrays over the periods: the stationarity row
families (`stationarity`) and three complementarity pair families
(`complementarity`), linearized with per-pair big-M constants read off
the column bounds (`big_m`), which the price band sets for the
multipliers (never a blanket constant); a pair those bounds already
decide gets no binary. The same families are evaluated at the solved
point (`check_kkt`). The price*quantity revenue terms, bilinear across
the two levels, are rewritten through the complementarity identities
into expressions linear in the multipliers plus a quadratic-in-follower
term whose curvature matches maximization. Quadratic cost terms are
finally replaced by secant piecewise-linear approximations with an
analytic error bound, emitted as bounded segment columns and linking
rows.
"""
from __future__ import annotations

import numpy as np

from .game_model import BALANCE_TOL, ModelBundle, ValidationReport
from .model_ir import ModelIR

N_SEGMENTS = 8  # chord segments per quadratic cost term, by default


def stationarity(bundle: ModelBundle) -> list[tuple[str, list, str, float]]:
    """The users' stationarity rows as `ModelIR.add_rows` families:

    Electric stationarity:  mu_t - d1_t + d2_t + xi = 0
    Heat stationarity:      -gamma_t + 2*theta*hcl_t + d4_t = 0
    """
    names, t_count = bundle.names, bundle.cfg.horizon
    return [("kkt_stat_e", [(names["mu"], 1.0), (names["delta1"], -1.0),
                            (names["delta2"], 1.0), (names["xi"] * t_count, 1.0)],
             "==", 0.0),
            ("kkt_stat_h", [(names["gamma"], -1.0),
                            (names["h_cl"], 2.0 * bundle.cfg.idr.theta),
                            (names["delta4"], 1.0)], "==", 0.0)]


def complementarity(bundle: ModelBundle) -> list[tuple[str, list, float, np.ndarray, list]]:
    """The users' complementarity pairs, one family per bound, each
    `(prefix, primal names, sign, constant, dual names)`: pair
    `{prefix}_{t}` is 0 <= sign*primal[t] + constant[t] perp dual[t] >= 0,
    for the shiftable load's two bounds (d1_t, d2_t) and the heat cut's
    cap (d4_t)."""
    cfg, names = bundle.cfg, bundle.names
    return [("shift_lb", names["p_sl"], 1.0, -cfg.shift_lower(), names["delta1"]),
            ("shift_ub", names["p_sl"], -1.0, cfg.shift_upper(), names["delta2"]),
            ("cut_ub", names["h_cl"], -1.0, cfg.cut_upper(), names["delta4"])]


def big_m(ir: ModelIR, family: tuple) -> tuple[np.ndarray, np.ndarray]:
    """The big-M constants of a pair family, per period, from the column
    bounds: the primal expression's largest value and the multiplier's
    upper bound."""
    _, primal, sign, const, duals = family
    lb, ub = ir.bounds(primal)
    return const + sign * (ub if sign > 0 else lb), ir.bounds(duals)[1]


def emit_kkt(ir: ModelIR, bundle: ModelBundle) -> None:
    """Optimality conditions of the users' problem over the bundle's price
    and users' variables (`bundle.names`: `mu`, `gamma`, `p_sl`, `h_cl`),
    whose multipliers `xi`, `delta1`, `delta2` and `delta4` it adds to
    `bundle.names`; the price band, theta and the users' bounds are the
    scenario's (`bundle.cfg`). Emits the `stationarity` rows; the pairs
    (`complementarity`) are left to `big_m_linearize`.

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
    prices, t_count = cfg.prices, cfg.horizon
    cap_e = np.full(t_count, prices.mu_max - prices.mu_min)
    caps = {"delta1": cap_e, "delta2": cap_e,
            "delta4": np.maximum(0.0, prices.gamma_max
                                 - 2.0 * cfg.idr.theta * cfg.cut_upper())}
    names["xi"] = ir.add_columns(["xi"], -prices.mu_max, -prices.mu_min)
    names.update((family, ir.add_block(family, t_count, 0.0, cap))
                 for family, cap in caps.items())
    ir.add_rows(t_count, stationarity(bundle))


def big_m_linearize(ir: ModelIR, families: list[tuple]) -> list[str | None]:
    """Replace the pairs of `families` (`complementarity`) by two big-M
    rows and a binary each, period by period and, within a period, in
    the families' order.

    Both constants of a pair come from `big_m`. With indicator 1 the
    dual is forced to zero; with indicator 0 the primal expression is.
    Nonnegativity of both sides is carried by the bounds, so a pair with
    a zero constant already holds and gets no binary and no rows. The
    binaries enter as one block, then the rows, pair by pair, in one
    call; returns each pair's binary, or None.
    """
    # (period, family) arrays: the pairs in emission order, row-major
    m_primal, m_dual = (np.column_stack(m) for m in zip(*(big_m(ir, f) for f in families)))
    pairs = [(f"{prefix}_{t}", primal[t], sign, const[t], duals[t])
             for t in range(len(m_primal))
             for prefix, primal, sign, const, duals in families]
    decided = ((m_primal == 0.0) | (m_dual == 0.0)).ravel().tolist()
    added = iter(ir.add_columns([f"pi_{pair[0]}" for pair, d in zip(pairs, decided)
                                 if not d], 0.0, 1.0, binary=True))
    binaries = [None if d else next(added) for d in decided]
    rows = []
    for (name, primal, sign, const, dual), binary, mg, md in zip(
            pairs, binaries, m_primal.ravel().tolist(), m_dual.ravel().tolist()):
        if binary is not None:
            rows += [(f"bigm_g_{name}", {primal: sign, binary: -mg}, "<=", -const),
                     (f"bigm_d_{name}", {dual: 1.0, binary: md}, "<=", md)]
    ir.add_row_list(rows)
    return binaries


def check_kkt(rep: ValidationReport, bundle: ModelBundle,
              values: dict[str, float]) -> None:
    """Check complementarity, then signs, at the MILP's `values`, one pair
    family at a time over its periods, then stationarity by row family."""
    def at(names: list[str]) -> np.ndarray:
        return np.array([values[name] for name in names])

    pairs = []
    for family in complementarity(bundle):
        prefix, primal, sign, const, duals = family
        pairs.append((f"{prefix}_{{}}", const + sign * at(primal), at(duals),
                      big_m(bundle.ir, family)))
    for detail, g_val, d_val, (m_primal, m_dual) in pairs:
        rep.add("complementarity", detail, g_val * d_val,
                1e-6 * np.maximum(np.maximum(m_primal, m_dual), 1.0))
    for detail, g_val, d_val, _ in pairs:
        rep.add("kkt_signs", detail, np.maximum(-g_val, -d_val), BALANCE_TOL)
    for prefix, terms, _, rhs in stationarity(bundle):
        rep.add("kkt_stationarity", f"{prefix}_{{}}",
                np.abs(sum(c * at(v) for v, c in terms) - rhs), BALANCE_TOL)


def eliminate_bilinear(ir: ModelIR, bundle: ModelBundle) -> None:
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
    cfg, names = bundle.cfg, bundle.names
    dt = cfg.dt_hours
    sl_lb, sl_ub, cut_ub = cfg.shift_lower(), cfg.shift_upper(), cfg.cut_upper()
    for t in range(cfg.horizon):
        ir.add_obj_linear(names["delta1"][t], dt * float(sl_lb[t]))
        ir.add_obj_linear(names["delta2"][t], -dt * float(sl_ub[t]))
        ir.add_obj_quad(names["h_cl"][t], -dt * 2.0 * cfg.idr.theta)
        ir.add_obj_linear(names["delta4"][t], -dt * float(cut_ub[t]))
    ir.add_obj_linear(names["xi"][0], -dt * cfg.shift_total())


def apply_pwl(ir: ModelIR, n_segments: int) -> float:
    """Replace every quadratic objective term coef*x^2 by its chord PWL.

    Returns the summed worst-case objective error, |coef|*w^2/4 per term
    for segment width w. Terms on effectively fixed variables fold into
    the objective constant exactly. The secants of the others are one
    array, a row per term: n_segments + 1 evenly spaced breakpoints
    b_0 < ... < b_K over the variable's bounds and their values f_k.
    Secant idx on var enters in incremental (delta) form: K columns
    `pwl_d_{idx}_{var}_{k}` in [0, b_{k+1} - b_k], each priced at its
    segment's slope, one row `pwl_link_{idx}_{var}: sum_k d_k - var ==
    -b_0`, and f_0 in `obj_const`. The columns of all secants enter as
    one block, then their rows. No binaries are needed to fill the
    segments in order because the secant of coef*x^2 is concave for
    coef <= 0: under maximization its slopes fall with k, so an optimum
    never takes a later segment before an earlier one is full. A convex
    term would need adjacency binaries, so it is refused.
    """
    if n_segments < 1:
        raise ValueError("need at least one segment")
    bad = [var for var, coef in ir.obj_quad.items() if coef > 0.0]
    if bad:
        raise ValueError(f"quadratic term on {bad[0]} is not concave; maximizing "
                         "it would need adjacency binaries")
    names = list(ir.obj_quad)
    coef = np.array(list(ir.obj_quad.values()))
    lo, hi = ir.bounds(names)
    fixed = hi - lo < 1e-12
    for c, x in zip(coef[fixed].tolist(), lo[fixed].tolist()):
        ir.obj_const += c * x ** 2
    ir.obj_quad = {}
    names = [var for var, f in zip(names, fixed.tolist()) if not f]
    coef, lo, hi = coef[~fixed, None], lo[~fixed, None], hi[~fixed, None]
    width = (hi - lo) / n_segments
    # the floats np.linspace gives, without its overhead, squared by C pow
    # as Python's x ** 2 squares them
    bps = np.hstack((np.arange(n_segments) * width + lo, hi))
    vals = coef * np.float_power(bps, 2)
    widths = np.diff(bps, axis=1)
    deltas = ir.add_columns([f"pwl_d_{idx}_{var}_{k}" for idx, var in enumerate(names)
                             for k in range(n_segments)], 0.0, widths.ravel())
    ir.obj_linear.update(zip(deltas, (np.diff(vals, axis=1) / widths).ravel().tolist()))
    ir.add_row_list([(f"pwl_link_{idx}_{var}",
                      {**dict.fromkeys(deltas[idx * n_segments:(idx + 1) * n_segments], 1.0),
                       var: -1.0}, "==", -b0)
                     for idx, (var, b0) in enumerate(zip(names, bps[:, 0].tolist()))])
    for f0 in vals[:, 0].tolist():
        ir.obj_const += f0
    total_bound = 0.0
    for error in (np.abs(coef) * np.float_power(width, 2) / 4.0).ravel().tolist():
        total_bound += error
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
        emit_kkt(ir, bundle)
        big_m_linearize(ir, complementarity(bundle))
        eliminate_bilinear(ir, bundle)
    bundle.pwl_error_bound = apply_pwl(ir, n_segments)
    bundle.n_segments = n_segments
    ir.validate()
    return bundle
