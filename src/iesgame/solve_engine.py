"""The solver backend, the end-to-end solve step, and two independent
oracles: exhaustive price-grid enumeration for tiny instances and the
Monte Carlo reserve-adequacy validator.

`ScipyMilpBackend` drives HiGHS in-process from the arrays of a
`CompiledModel`; a `ModelIR` is compiled on entry. `solve` and
`enumerate_oracle` take any object with its `solve` method as `backend`.
The backend solves every model with integer columns relaxation first:
when the LP relaxation's optimum rounds to a point that meets every row
and column bound within the gap of the relaxation's objective, that
point is a MILP optimum and no branch and bound runs; an infeasible
relaxation proves the MILP infeasible. Only otherwise does HiGHS solve
the MILP, in the time left. Every solve through the backend takes this
route: `solve`, the infeasibility triage and the oracle's exact
dispatch.

Every solve reaches HiGHS through scipy's private binding
(`scipy.optimize._highspy._core`), and `_highs_lp` is the one place a
compiled model becomes a HiGHS model: `milp` solves it with a new HiGHS
instance, without the feasibility-jump heuristic, and both equilibrium
checks re-solve one warm-started LP relaxation per search
(`_DispatchLp`): it gives every cut, and every cost of the relaxed one.
A search takes the users' responses and bills to all its price pairs in
one array pass, and the deviation check draws all its price vectors at
once.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np
from scipy.optimize._highspy import _core as _highs

from . import game_model as gm
from .config import ScenarioConfig
from .kkt_reformulation import N_SEGMENTS, assemble_single_level, check_kkt
from .model_ir import CompiledModel, ModelIR
from .prob_sequences import MC_ALLOWANCE, chance_satisfaction_mc, mc_draws

OPTIMAL = "OPTIMAL"
INFEASIBLE = "INFEASIBLE"
TIME_LIMIT = "TIME_LIMIT"
UNBOUNDED = "UNBOUNDED"
ERROR = "ERROR"

TRIAGE_STAGES = ("balance_with_relaxed_reserves", "full_model")

# how far a relax-first point may break a row or column bound
FEAS_TOL = 1e-6

MC_SAMPLES = 100_000  # Monte Carlo draws per reserve validation, by default

# the HiGHS library every solve runs on, as scipy's binding was built with
HIGHS_VERSION = (f"{_highs.HIGHS_VERSION_MAJOR}.{_highs.HIGHS_VERSION_MINOR}."
                 f"{_highs.HIGHS_VERSION_PATCH}")


@dataclass(frozen=True)
class SolveOptions:
    time_limit: float = 300.0
    gap_tolerance: float = 1e-4


@dataclass
class SolveResult:
    status: str
    values: dict[str, float]
    objective: float
    bound: float
    gap: float
    runtime_s: float = 0.0
    infeasible_stage: str | None = None
    node_count: int | None = None  # branch-and-bound nodes, when reported
    # True when the LP relaxation decided the result: its rounded optimum
    # is a MILP optimum, or it is infeasible (`ScipyMilpBackend`)
    relaxation_exact: bool = False


# HiGHS's model statuses that the backend reports; any other is ERROR
_STATUS = {_highs.HighsModelStatus.kOptimal: OPTIMAL,
           _highs.HighsModelStatus.kTimeLimit: TIME_LIMIT,
           _highs.HighsModelStatus.kIterationLimit: TIME_LIMIT,
           _highs.HighsModelStatus.kInfeasible: INFEASIBLE,
           _highs.HighsModelStatus.kUnbounded: UNBOUNDED}
_VAR_TYPE = (_highs.HighsVarType.kContinuous, _highs.HighsVarType.kInteger)


def _highs_lp(model: CompiledModel, integral: bool) -> _highs.HighsLp:
    """A compiled model as a HiGHS LP: its matrix column-wise, its costs
    negated (HiGHS minimizes; the constant left out), its bounds and, if
    `integral`, its integrality.

    Refuses with ValueError a non-finite cost or matrix entry and a NaN
    bound: HiGHS would solve the first two as given and refuse the last
    as a model error, which is no status of the model.
    """
    a = model.a.tocsc()
    if not (np.isfinite(model.c).all() and np.isfinite(a.data).all()):
        raise ValueError(f"model {model.name}: objective and matrix "
                         "coefficients must be finite")
    if any(np.isnan(b).any() for b in (model.row_lower, model.row_upper,
                                       model.col_lower, model.col_upper)):
        raise ValueError(f"model {model.name}: a bound is NaN")
    lp = _highs.HighsLp()
    lp.num_row_, lp.num_col_ = a.shape
    lp.a_matrix_.num_row_, lp.a_matrix_.num_col_ = a.shape
    lp.a_matrix_.format_ = _highs.MatrixFormat.kColwise
    lp.a_matrix_.start_ = a.indptr
    lp.a_matrix_.index_ = a.indices
    lp.a_matrix_.value_ = a.data
    lp.col_cost_ = -model.c
    lp.col_lower_, lp.col_upper_ = model.col_lower, model.col_upper
    lp.row_lower_, lp.row_upper_ = model.row_lower, model.row_upper
    if integral:
        lp.integrality_ = [_VAR_TYPE[i] for i in model.integrality.tolist()]
    return lp


@dataclass
class MilpResult:
    """What one HiGHS run reports: the backend's status, the primal
    point when HiGHS has a feasible one, and for a model with integer
    columns the dual bound (minimize sense, without the constant), the
    relative gap and the branch-and-bound node count."""
    status: str
    x: list[float] | None = None
    mip_dual_bound: float | None = None
    mip_gap: float | None = None
    mip_node_count: int | None = None


def milp(model: CompiledModel, time_limit: float,
         gap_tolerance: float) -> MilpResult:
    """Solve a compiled model with a new HiGHS instance.

    HiGHS's feasibility-jump heuristic is off. It was measured on the
    game's programs solved as MILPs, before the backend solved their
    relaxations first: every search closed at the root node, the
    heuristic never supplied the incumbent and it cost about a third of
    each solve (README, "Solver"). The MILPs the backend still runs, the
    relaxations' misses, close at the root node too. A pure LP gives its
    point only at an optimum, a MILP also at a time or iteration limit
    when HiGHS holds a feasible point.
    """
    highs = _highs._Highs()
    for option, value in (("output_flag", False),
                          ("time_limit", float(time_limit)),
                          ("mip_rel_gap", float(gap_tolerance)),
                          ("mip_heuristic_run_feasibility_jump", False)):
        if highs.setOptionValue(option, value) != _highs.HighsStatus.kOk:
            raise ValueError(f"HiGHS refused {option}={value}")
    mip = bool(model.integrality.any())
    if highs.passModel(_highs_lp(model, mip)) == _highs.HighsStatus.kError:
        return MilpResult(ERROR)
    highs.run()
    status = _STATUS.get(highs.getModelStatus(), ERROR)
    info = highs.getInfo()
    feasible = status == OPTIMAL or (
        mip and status == TIME_LIMIT and info.primal_solution_status
        == _highs.SolutionStatus.kSolutionStatusFeasible)
    x = highs.getSolution().col_value if feasible else None
    if not mip:
        return MilpResult(status, x)
    return MilpResult(status, x, info.mip_dual_bound, info.mip_gap,
                      info.mip_node_count)


class ScipyMilpBackend:
    """In-process HiGHS backend through scipy's HiGHS binding (`milp`),
    solving from the compiled model's arrays, relaxation first.

    A model with integer columns is first solved as its LP relaxation.
    An infeasible relaxation proves the model infeasible. A relaxed
    optimum whose binaries round (`_rounded_point`) to a point that meets
    every row and column bound, at an objective within `gap_tolerance`
    of the relaxation's (a valid bound), is returned as OPTIMAL with
    `relaxation_exact` set and no branch-and-bound node. Otherwise the
    MILP is solved in the time the relaxation left.
    """

    name = "scipy"

    def solve(self, model: ModelIR | CompiledModel, time_limit: float,
              gap_tolerance: float) -> SolveResult:
        started = time.perf_counter()
        m = model if isinstance(model, CompiledModel) else model.compile()
        if m.integrality.any():
            lp = milp(m.relaxed(), time_limit, gap_tolerance)
            if lp.status == INFEASIBLE:
                return SolveResult(INFEASIBLE, {}, math.nan, math.nan, math.inf,
                                   time.perf_counter() - started, node_count=0,
                                   relaxation_exact=True)
            x = None if lp.x is None else _rounded_point(m, np.asarray(lp.x))
            if x is not None:
                objective, bound = m.objective(x.tolist()), m.objective(lp.x)
                gap = _relative_gap(m, objective, bound)
                if gap <= gap_tolerance:
                    return SolveResult(OPTIMAL, dict(zip(m.var_names, x.tolist())),
                                       objective, bound, gap,
                                       time.perf_counter() - started,
                                       node_count=0, relaxation_exact=True)
            time_limit = max(0.0, time_limit - (time.perf_counter() - started))
        res = milp(m, time_limit, gap_tolerance)
        runtime = time.perf_counter() - started

        if res.x is None:
            return SolveResult(res.status, {}, math.nan, math.nan, math.inf,
                               runtime)
        values = dict(zip(m.var_names, res.x))
        objective = m.objective(res.x)
        bound = (objective if res.mip_dual_bound is None
                 else m.obj_const - res.mip_dual_bound)
        return SolveResult(res.status, values, objective, bound,
                           res.mip_gap or 0.0, runtime,
                           node_count=res.mip_node_count)


def _rounded_point(m: CompiledModel, x: np.ndarray) -> np.ndarray | None:
    """The relaxed optimum `x` with its integer columns rounded, or None
    when the rounded point breaks a row or column bound by more than
    `FEAS_TOL`.

    Each integer column takes 0 if every row it enters stays within its
    bounds (to `FEAS_TOL`) with the other columns at their values in `x`,
    else 1 on the same test; a column that passes neither fails the
    rounding. The whole rounded point is then checked against every row
    and column bound, so a point returned is feasible for the MILP.
    """
    cols = np.flatnonzero(m.integrality)
    sub = m.a[:, cols].tocoo()
    act = m.a @ x
    rows, k = sub.row, sub.col
    lower, upper = m.row_lower[rows] - FEAS_TOL, m.row_upper[rows] + FEAS_TOL
    point, undecided = x.copy(), np.ones(len(cols), dtype=bool)
    for value in (0.0, 1.0):
        moved = act[rows] + sub.data * (value - x[cols[k]])
        bad = np.bincount(k, (moved < lower) | (moved > upper),
                          minlength=len(cols)) > 0
        point[cols[undecided & ~bad]] = value
        undecided &= bad
    if undecided.any():
        return None
    act = m.a @ point
    if ((act < m.row_lower - FEAS_TOL) | (act > m.row_upper + FEAS_TOL)).any() or (
            (point < m.col_lower - FEAS_TOL) | (point > m.col_upper + FEAS_TOL)).any():
        return None
    return point


def _relative_gap(m: CompiledModel, objective: float, bound: float) -> float:
    """|bound - objective| relative to the objective as HiGHS sees it
    (without the constant), as HiGHS measures its MIP gap."""
    diff, size = abs(bound - objective), abs(objective - m.obj_const)
    if diff == 0.0:
        return 0.0
    return diff / size if size > 0.0 else math.inf


@dataclass
class SolveOutcome:
    solution: gm.EquilibriumSolution | None
    result: SolveResult
    report: gm.ValidationReport | None


def solve(bundle: gm.ModelBundle, opts: SolveOptions | None = None,
          backend=None) -> SolveOutcome:
    """Solve a finished bundle; verify the solution and, with optimized
    prices, its KKT values (`check_kkt`).

    Infeasible outcomes are triaged by a re-solve with the reserve rows
    relaxed: if that is still infeasible the balances are to blame, else
    the full model. Statically infeasible scenarios never get here;
    `build_leader` rejects them with a `BuildError`.
    """
    opts = opts or SolveOptions()
    backend = backend or ScipyMilpBackend()
    result = backend.solve(bundle.ir, opts.time_limit, opts.gap_tolerance)
    if result.status == INFEASIBLE:
        result.infeasible_stage = _triage_infeasibility(bundle, opts, backend)
        return SolveOutcome(None, result, None)
    if result.status != OPTIMAL:
        return SolveOutcome(None, result, None)
    solution = gm.extract_solution(bundle, result.values, result.objective)
    report = gm.verify_solution(solution, bundle.cfg, bundle.mode,
                                bundle.pwl_error_bound)
    if bundle.mode.optimize_prices:
        check_kkt(report, bundle, result.values)
    return SolveOutcome(solution, result, report)


def _triage_infeasibility(bundle: gm.ModelBundle, opts: SolveOptions,
                          backend) -> str:
    model = bundle.ir.compile()
    relaxed = model.without_lower([r for name, r in model.row_index.items()
                                   if name.startswith("res_min_")])
    res = backend.solve(relaxed, opts.time_limit, opts.gap_tolerance)
    if res.status == INFEASIBLE:
        return TRIAGE_STAGES[0]
    return TRIAGE_STAGES[1]


# ----------------------------------------------------------------------
# the operator's profit at posted prices


# HiGHS solves to primal and dual feasibility tolerances of 1e-7 (its
# defaults) and the exact MILP re-dispatches to a 1e-6 feasibility
# tolerance; the pruning margin is this times the scale of the compared
# quantities (see `_best_posted_price`)
CUT_TOL = 1e-6


def _best_posted_price(cfg: ScenarioConfig, dhn_enabled: bool, n_segments: int,
                       backend, relax_binaries: bool, mu: np.ndarray,
                       gamma: np.ndarray
                       ) -> tuple[int, float, tuple[np.ndarray, np.ndarray], int]:
    """The best of the price pairs (mu[i], gamma[i]) for the operator,
    posted to responding users of scenario `cfg`.

    Returns the index, profit and users' response of the best of at
    least one pair, and the number of exact dispatch solves; on equal
    profits the earliest index wins, as in a loop over every pair.

    A pair's profit is the users' bill (`gm.users_bill`) at their
    closed-form best response, both taken for every pair in one array
    pass (the same floats as pair by pair), minus the operator's dispatch
    cost for
    that response (under the scenario's expected output, reserve
    requirements and heat load) at zero prices, solved at most once per
    distinct response. The dispatch program is built, assembled and
    compiled once, at the first response (so the build's own checks see
    only responses asked about); every other response only moves the
    right-hand sides of the balance rows (`_balance_rhs`). Its LP
    relaxation, one warm-started `_DispatchLp`, gives each cut below;
    with `relax_binaries` the program is that LP, so the same solve gives
    the exact cost, else `backend` solves it with the binaries kept.

    With b the balance right-hand sides a response sets, the dispatch
    cost C(b) is at least the cost of the program's LP relaxation, the
    optimal value of an LP in which b enters only the right-hand sides.
    That value is convex in b, so the relaxation's duals at a solved
    point b_k give the cut C(b) >= C_k + lam_k . (b - b_k), with or
    without the unit binaries. Each pair's profit is then at most its
    bill minus its largest cut, +inf before the first cut. The pair with
    the highest such bound is solved exactly and adds its cut, until
    every unsolved bound is below the best exact profit minus a margin.

    The margin covers the solvers' tolerances. The cut's duals are
    feasible to within HiGHS's dual-feasibility tolerance, so moved by db
    a cut may overstate the cost by that tolerance per unit of |db|: at
    most `CUT_TOL` times the largest move, the summed spread of b over
    the pairs. Its intercept and the exact solve's value carry the same
    tolerance relative to their size. The margin is therefore
    `CUT_TOL * (1 + max |bill| + max |C_k| + move)`; a pair is skipped
    only when even its bound plus that margin stays below the best exact
    profit, so an equal profit is never skipped and the earliest index
    still wins ties. A solve without an optimum gives no cut, and in the
    relaxed search an infinite cost.
    """
    p_sl, h_cl = gm.follower_best_response(mu, gamma, cfg)
    bills = gm.users_bill(cfg, mu, gamma, p_sl, h_cl)
    program = _dispatch_program(cfg, dhn_enabled, n_segments, relax_binaries,
                                (p_sl[0], h_cl[0]))
    rows, rhs = _balance_rhs(program, cfg, p_sl, h_cl)
    lp = _DispatchLp(program, rows)
    move = float(np.sum(rhs.max(axis=0) - rhs.min(axis=0)))
    scale = 1.0 + float(np.max(np.abs(bills))) + move
    largest_cost = 0.0
    costs: dict[bytes, float] = {}  # exact dispatch cost per distinct response
    floor = np.full(len(bills), -np.inf)  # largest cut at each pair
    unsolved = np.ones(len(bills), dtype=bool)
    best_i, best_profit = -1, -math.inf
    while unsolved.any():
        bound = np.where(unsolved, bills - floor, -np.inf)
        i = int(np.argmax(bound))
        if bound[i] < best_profit - CUT_TOL * (scale + largest_cost):
            break
        unsolved[i] = False
        key = np.round(np.concatenate((p_sl[i], h_cl[i])), 9).tobytes()
        seen = key in costs
        if not seen:
            cut = lp.cut(rhs[i])
            if relax_binaries:
                costs[key] = math.inf if cut is None else cut[0]
            else:
                res = backend.solve(program.with_rhs(rows, rhs[i]), 60.0, 1e-6)
                costs[key] = -res.objective if res.status == OPTIMAL else math.inf
        profit = float(bills[i]) - costs[key]
        if best_i < 0 or profit > best_profit or (
                profit == best_profit and i < best_i):
            best_i, best_profit = i, profit
        if seen:
            continue  # response seen before: no new solve, no new cut
        if cut is not None:
            cost, lam = cut
            floor = np.maximum(floor, cost + (rhs - rhs[i]) @ lam)
            largest_cost = max(largest_cost, abs(cost))
    return best_i, best_profit, (p_sl[best_i].copy(), h_cl[best_i].copy()), len(costs)


def _dispatch_program(cfg: ScenarioConfig, dhn_enabled: bool, n_segments: int,
                      relax_binaries: bool,
                      response: tuple[np.ndarray, np.ndarray]) -> CompiledModel:
    """The operator's zero-price dispatch for a fixed users' response,
    compiled; its optimum is minus the dispatch cost."""
    bundle = gm.build_leader(cfg, gm.ModeSettings(4, dhn_enabled, True, False),
                             dispatch_response=response)
    assemble_single_level(bundle, n_segments=n_segments)
    model = bundle.ir.compile()
    return model.relaxed() if relax_binaries else model


def _balance_rhs(model: CompiledModel, cfg: ScenarioConfig, p_sl: np.ndarray,
                 h_cl: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The balance rows of a compiled dispatch program that users'
    responses (one row of `p_sl` and `h_cl` each) move, and one row of
    their right-hand sides per response.

    A response enters the program only as the balances' right-hand sides
    (`gm.balance_rhs`; at zero prices the users' bill is zero). A balance
    the build dropped for want of contributing variables gets the
    build's check instead.
    """
    rhs = np.hstack(gm.balance_rhs(cfg, p_sl, h_cl))
    names = [f"bal_{kind}_{t}" for kind in "eh" for t in range(cfg.horizon)]
    kept = []
    for j, name in enumerate(names):
        if name in model.row_index:
            kept.append(j)
        else:
            for value in rhs[:, j]:
                gm.check_empty_row(name, float(value))
    return np.array([model.row_index[names[j]] for j in kept]), rhs[:, kept]


class _DispatchLp:
    """The LP relaxation of a compiled (maximizing) dispatch program,
    passed to HiGHS once (built by `_highs_lp`, as every MILP is) and
    re-solved from the previous basis at new right-hand sides of its
    balance rows `rows`."""

    def __init__(self, model: CompiledModel, rows: np.ndarray):
        lp = _highs_lp(model, False)
        self._highs = _highs._Highs()
        self._highs.setOptionValue("output_flag", False)
        if self._highs.passModel(lp) == _highs.HighsStatus.kError:
            raise RuntimeError(f"HiGHS refused the LP relaxation of {model.name}")
        self._rows = rows
        self._obj_const = model.obj_const

    def cut(self, b: np.ndarray) -> tuple[float, np.ndarray] | None:
        """The relaxed dispatch cost at balance right-hand sides `b` and,
        as the balance rows' duals, its slopes in them; None when the
        relaxation has no optimum."""
        highs = self._highs
        for row, value in zip(self._rows.tolist(), b.tolist()):
            highs.changeRowBounds(row, value, value)
        # HiGHS counts its time limit over every run of the object
        highs.setOptionValue("time_limit", highs.getRunTime() + 60.0)
        highs.run()
        if highs.getModelStatus() != _highs.HighsModelStatus.kOptimal:
            return None
        cost = highs.getInfo().objective_function_value - self._obj_const
        return cost, np.asarray(highs.getSolution().row_dual)[self._rows]


# ----------------------------------------------------------------------
# price-grid enumeration oracle


class OracleSizeError(ValueError):
    pass


@dataclass
class OracleResult:
    best_mu: np.ndarray
    best_gamma: np.ndarray
    best_response: tuple[np.ndarray, np.ndarray]
    profit: float
    grid_step: float
    n_evaluations: int
    n_dispatch_solves: int


def _admissible_grids(lo: float, hi: float, target_sum: float, periods: int,
                      step: float) -> list[tuple[float, ...]]:
    """All grid vectors in [lo, hi]^periods whose entries sum to target_sum."""
    levels = np.arange(lo, hi + step / 2, step)
    out: list[tuple[float, ...]] = []

    def recurse(prefix: list[float], remaining: float, slots: int) -> None:
        if slots == 0:
            if abs(remaining) < 1e-6:
                out.append(tuple(prefix))
            return
        if remaining < slots * lo - 1e-6 or remaining > slots * hi + 1e-6:
            return
        for v in levels:
            recurse(prefix + [float(v)], remaining - float(v), slots - 1)

    recurse([], target_sum, periods)
    return out


def enumerate_oracle(cfg: ScenarioConfig, price_grid_step: float,
                     gamma_grid_step: float | None = None,
                     n_segments: int = N_SEGMENTS, backend=None,
                     max_points: int = 10_000_000) -> OracleResult:
    """Exhaustive check of the equilibrium on a price grid.

    Every admissible price vector (grid points satisfying both the band
    and the average-price rows) is a candidate, and the pruned search
    `_best_posted_price` returns the best profit over all of them, with
    the unit binaries kept, so each dispatch it solves through `backend`
    is exact; on equal profits the earliest grid point wins. Its
    LP-relaxation cuts under-estimate the MILP dispatch cost, so the grid
    points it does not solve provably cannot win. `n_dispatch_solves`
    counts the exact
    dispatch solves, at most one per distinct users' response. Only meant
    for horizons up to 4. The thermal grid may use its own step since its
    band rarely shares divisors with the electric one; a step that is not
    a positive finite number is refused with ValueError.
    """
    if gamma_grid_step is None:
        gamma_grid_step = price_grid_step
    for name, step in (("price_grid_step", price_grid_step),
                       ("gamma_grid_step", gamma_grid_step)):
        if not (math.isfinite(step) and step > 0):
            raise ValueError(f"{name} must be a positive finite number, "
                             f"got {step}")
    if cfg.horizon > 4:
        raise OracleSizeError("enumeration oracle is limited to horizons <= 4")
    backend = backend or ScipyMilpBackend()
    p = cfg.prices
    mu_grid = _admissible_grids(p.mu_min, p.mu_max, cfg.horizon * p.mu_av,
                                cfg.horizon, price_grid_step)
    gamma_grid = _admissible_grids(p.gamma_min, p.gamma_max,
                                   cfg.horizon * p.gamma_av,
                                   cfg.horizon, gamma_grid_step)
    total = len(mu_grid) * len(gamma_grid)
    if total > max_points:
        raise OracleSizeError(
            f"{total} grid points exceed the {max_points} cap; raise "
            f"price_grid_step (currently {price_grid_step}) or the cap")
    if total == 0:
        raise OracleSizeError("no admissible grid points; the step does not "
                              "reach the average-price plane")

    mu_all = np.array([mu for mu in mu_grid for _ in gamma_grid])
    gamma_all = np.array([gamma for _ in mu_grid for gamma in gamma_grid])
    i, profit, response, n_solves = _best_posted_price(
        cfg, bool(cfg.pipelines), n_segments, backend, False, mu_all, gamma_all)
    return OracleResult(mu_all[i], gamma_all[i], response, profit,
                        price_grid_step, total, n_solves)


# ----------------------------------------------------------------------
# unilateral-deviation checks


@dataclass
class DeviationCheck:
    """Outcome of `no_deviation_check`. `max_follower_improvement` is the
    exact F2* - min F2 at the posted prices (>0 = the users can improve);
    `max_leader_improvement` is the best of `n_leader` random price
    vectors' profit minus F1*."""
    n_leader: int
    max_follower_improvement: float
    max_leader_improvement: float
    follower_ok: bool
    leader_ok: bool
    n_dispatch_solves: int  # exact leader re-dispatches the search ran


def _random_admissible_prices(lo, hi, avg, shape, rng: np.random.Generator
                              ) -> np.ndarray:
    """Random price vectors along the last axis of `shape`, in the band
    [lo, hi] and averaging `avg`; lo, hi and avg are numbers or arrays
    over the leading axes. The draws are uniform in the band, as
    `rng.uniform` draws them in C order, then shifted toward the average
    (each vector stops once its sum is within 1e-9 of the target, or
    after 60 shifts), with any residual spread over its interior
    coordinates."""
    lo, hi, avg = (np.asarray(v, dtype=float)[..., None] for v in (lo, hi, avg))
    prices = lo + (hi - lo) * rng.random(shape)
    t_count = prices.shape[-1]
    target = t_count * avg
    moving = np.ones(prices.shape[:-1] + (1,), dtype=bool)
    for _ in range(60):
        shifted = np.clip(prices + (target - prices.sum(-1, keepdims=True)) / t_count,
                          lo, hi)
        prices = np.where(moving, shifted, prices)
        moving &= ~(np.abs(prices.sum(-1, keepdims=True) - target) < 1e-9)
        if not moving.any():
            break
    resid = target - prices.sum(-1, keepdims=True)
    interior = (prices > lo + 1e-9) & (prices < hi - 1e-9)
    count = interior.sum(-1, keepdims=True)
    spread = interior & (np.abs(resid) > 1e-9)
    prices = np.where(spread, prices + resid / np.maximum(count, 1), prices)
    return np.clip(prices, lo, hi)


def no_deviation_check(bundle: gm.ModelBundle, sol: gm.EquilibriumSolution,
                       n_deviations: int = 1000, seed: int = 0) -> DeviationCheck:
    """Equilibrium test against unilateral deviations.

    Follower side, exact: the users' problem is convex at posted prices
    and `gm.follower_best_response` solves it in closed form, so
    `max_follower_improvement` is the solution's user cost minus the
    best response's, which must not exceed `gm.RESPONSE_TOL`. Leader
    side, sampled: the best of `n_deviations` random admissible price
    vectors, found by the pruned search `_best_posted_price` under the
    bundle's own scenario, transport switch and segment count, must not
    beat the solution's profit by more than the PWL error allowance. The
    search relaxes the unit binaries here: that can only overstate a
    deviation's profit, a conservative direction for a no-improvement
    test, and it makes every re-dispatch an LP, solved exactly in the
    search's own HiGHS LP with no backend call. It solves only the
    deviations whose cut bound could still be the best, so
    `max_leader_improvement` is the exact maximum over all of them and
    `n_dispatch_solves` counts the solves.
    """
    cfg = bundle.cfg
    rng = np.random.default_rng(seed)

    f2_star = gm.follower_cost(cfg, sol.mu, sol.gamma, sol.p_sl, sol.h_cl)
    best = gm.follower_best_response(sol.mu, sol.gamma, cfg)
    worst_follower = f2_star - gm.follower_cost(cfg, sol.mu, sol.gamma, *best)

    p = cfg.prices
    mu, gamma = np.moveaxis(_random_admissible_prices(
        (p.mu_min, p.gamma_min), (p.mu_max, p.gamma_max), (p.mu_av, p.gamma_av),
        (n_deviations, 2, cfg.horizon), rng), 1, 0)
    worst_leader, n_solves = -math.inf, 0
    if n_deviations:
        _, profit, _, n_solves = _best_posted_price(
            cfg, bundle.mode.dhn_enabled, bundle.n_segments, None, True,
            mu, gamma)
        worst_leader = profit - sol.f1

    leader_margin = bundle.pwl_error_bound + 1e-4 * max(abs(sol.f1), 1.0)
    return DeviationCheck(
        n_leader=n_deviations,
        max_follower_improvement=float(worst_follower),
        max_leader_improvement=float(worst_leader),
        follower_ok=bool(worst_follower <= gm.RESPONSE_TOL),
        leader_ok=bool(worst_leader <= leader_margin),
        n_dispatch_solves=n_solves)


# ----------------------------------------------------------------------
# Monte Carlo reserve validation


def reserve_draws(cfg: ScenarioConfig, n_samples: int = MC_SAMPLES,
                  seed: int = 0) -> tuple[dict, dict]:
    """`validate_reserve`'s draws at this seed, from every period's models;
    it calls nothing `bench/tracer.py` wraps, so a helper thread may."""
    periods = range(cfg.horizon)
    return mc_draws([cfg.pv_model_for(t) for t in periods],
                    [cfg.wt_model_for(t) for t in periods],
                    n_samples, np.random.default_rng(seed))


def validate_reserve(sol: gm.EquilibriumSolution, cfg: ScenarioConfig,
                     n_samples: int = MC_SAMPLES, seed: int = 0,
                     drawn: tuple[dict, dict] | None = None) -> list[dict]:
    """Per-period Monte Carlo satisfaction of the reserve chance rule, as
    `ValidationReport.reserve_mc` rows.

    One `chance_satisfaction_mc` call estimates every period from one set
    of n_samples draws: `drawn`, or `reserve_draws` at this seed when
    none are given. PASS requires every period's estimated satisfaction
    probability to reach the confidence level minus MC_ALLOWANCE
    (discretization plus sampling allowance).
    """
    periods = range(cfg.horizon)
    estimates = chance_satisfaction_mc(
        [cfg.pv_model_for(t) for t in periods],
        [cfg.wt_model_for(t) for t in periods],
        cfg.expected_renewables().tolist(),
        sol.reserve_total.tolist(),
        n_samples, drawn or reserve_draws(cfg, n_samples, seed))
    required = cfg.confidence - MC_ALLOWANCE
    return [{"period": t, "estimate": estimate, "half_width": half_width,
             "required": required, "passed": bool(estimate >= required)}
            for t, (estimate, half_width) in enumerate(estimates)]
