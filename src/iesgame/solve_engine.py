"""Solver backends, the end-to-end solve step, and two independent
oracles: exhaustive price-grid enumeration for tiny instances and the
Monte Carlo reserve-adequacy validator.

The default backend drives HiGHS in-process through scipy. A file-based
backend writes the LP text format and shells out to any command that
reads an LP file and writes "name value" solution lines, so the core
stays testable against arbitrary solvers.
"""
from __future__ import annotations

import math
import os
import subprocess
import tempfile
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
from scipy import sparse
from scipy.optimize import Bounds, LinearConstraint, milp

from . import game_model as gm
from .config import ScenarioConfig
from .kkt_reformulation import assemble_single_level
from .lp_io import parse_solution, write_lp
from .model_ir import ModelIR
from .prob_sequences import ReserveRequirementRows, chance_satisfaction_mc

OPTIMAL = "OPTIMAL"
INFEASIBLE = "INFEASIBLE"
TIME_LIMIT = "TIME_LIMIT"
UNBOUNDED = "UNBOUNDED"
ERROR = "ERROR"

# status banner keyword -> status for file-based solvers, checked in order
_BANNER_STATUS = (("infeasible", INFEASIBLE), ("unbounded", UNBOUNDED),
                  ("time limit", TIME_LIMIT), ("error", ERROR))

TRIAGE_STAGES = ("balance_with_relaxed_reserves", "full_model")


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


class ScipyMilpBackend:
    """In-process HiGHS backend via scipy.optimize.milp."""

    name = "scipy"

    def solve(self, ir: ModelIR, time_limit: float, gap_tolerance: float
              ) -> SolveResult:
        started = time.perf_counter()
        ir = ir.lower_pwl()
        if ir.has_quadratic():
            raise ValueError("backend accepts linear objectives only; "
                             "run the PWL pass first")
        ir.validate()
        names = list(ir.variables)
        index = {n: i for i, n in enumerate(names)}
        n = len(names)
        c = np.zeros(n)
        for var, coef in ir.obj_linear.items():
            c[index[var]] = -coef if ir.sense == "max" else coef

        rows_i, cols_j, vals = [], [], []
        bl, bu = [], []
        for r, row in enumerate(ir.rows):
            for var, coef in row.coeffs.items():
                rows_i.append(r)
                cols_j.append(index[var])
                vals.append(coef)
            if row.sense == "<=":
                bl.append(-np.inf)
                bu.append(row.rhs)
            elif row.sense == ">=":
                bl.append(row.rhs)
                bu.append(np.inf)
            else:
                bl.append(row.rhs)
                bu.append(row.rhs)
        a = sparse.csr_matrix((vals, (rows_i, cols_j)), shape=(len(ir.rows), n))
        lb = np.array([v.lb for v in ir.variables.values()])
        ub = np.array([v.ub for v in ir.variables.values()])
        integrality = np.array([1 if v.binary else 0 for v in ir.variables.values()])

        res = milp(c, constraints=[LinearConstraint(a, np.array(bl), np.array(bu))],
                   bounds=Bounds(lb, ub), integrality=integrality,
                   options={"time_limit": time_limit,
                            "mip_rel_gap": gap_tolerance,
                            "presolve": True})
        runtime = time.perf_counter() - started

        status = {0: OPTIMAL, 1: TIME_LIMIT, 2: INFEASIBLE, 3: UNBOUNDED}.get(
            res.status, ERROR)
        if res.x is None:
            return SolveResult(status, {}, math.nan, math.nan, math.inf, runtime)
        values = {name: float(x) for name, x in zip(names, res.x)}
        objective = ir.evaluate_objective(values)
        bound_raw = getattr(res, "mip_dual_bound", None)
        if bound_raw is None:
            bound = objective
        else:
            bound = -float(bound_raw) + ir.obj_const if ir.sense == "max" \
                else float(bound_raw) + ir.obj_const
        gap = float(getattr(res, "mip_gap", 0.0) or 0.0)
        return SolveResult(status, values, objective, bound, gap, runtime)


class ExternalLpBackend:
    """File-boundary backend: write LP, run a command, read the solution.

    The command template must contain "{lp}" and "{sol}" placeholders;
    default comes from the IES_SOLVER_CMD environment variable. A status
    banner on the solution file's first line naming infeasibility,
    unboundedness, a time limit or an error is reported as that status;
    otherwise the values are taken as optimal.
    """

    name = "external"

    def __init__(self, command_template: str | None = None):
        self.command_template = command_template or os.environ.get("IES_SOLVER_CMD")
        if not self.command_template:
            raise ValueError("external backend needs IES_SOLVER_CMD with "
                             "{lp} and {sol} placeholders")

    def solve(self, ir: ModelIR, time_limit: float, gap_tolerance: float
              ) -> SolveResult:
        started = time.perf_counter()
        ir = ir.lower_pwl()
        ir.validate()
        with tempfile.TemporaryDirectory(prefix="iesgame_") as tmp:
            lp_path = Path(tmp) / "model.lp"
            sol_path = Path(tmp) / "model.sol"
            lp_path.write_text(write_lp(ir))
            cmd = self.command_template.format(lp=lp_path, sol=sol_path)
            proc = subprocess.run(cmd, shell=True, capture_output=True,
                                  timeout=time_limit + 60, text=True)
            runtime = time.perf_counter() - started
            if not sol_path.exists():
                status = INFEASIBLE if "infeasible" in (
                    proc.stdout + proc.stderr).lower() else ERROR
                return SolveResult(status, {}, math.nan, math.nan, math.inf, runtime)
            text = sol_path.read_text()
        first_line = text.splitlines()[0].lower() if text else ""
        banner = first_line.replace("_", " ")
        for keyword, status in _BANNER_STATUS:
            if keyword in banner:
                return SolveResult(status, {}, math.nan, math.nan, math.inf, runtime)
        values = parse_solution(text, known=set(ir.variables))
        for name, var in ir.variables.items():
            if name in values:
                continue
            # solvers commonly omit variables at zero; a variable whose
            # bounds exclude zero cannot have been omitted for that reason
            if not var.lb <= 0.0 <= var.ub:
                return SolveResult(ERROR, {}, math.nan, math.nan, math.inf, runtime)
            values[name] = 0.0
        objective = ir.evaluate_objective(values)
        return SolveResult(OPTIMAL, values, objective, objective, 0.0, runtime)


_BACKENDS = {"scipy": ScipyMilpBackend, "external": ExternalLpBackend}


def get_backend(name: str | None = None):
    """Resolve a backend by name, flag over IES_BACKEND over the default."""
    chosen = name or os.environ.get("IES_BACKEND", "scipy")
    if chosen not in _BACKENDS:
        raise ValueError(f"unknown backend {chosen!r}; available: "
                         f"{sorted(_BACKENDS)}")
    return _BACKENDS[chosen]()


@dataclass
class SolveOutcome:
    solution: gm.EquilibriumSolution | None
    result: SolveResult
    report: gm.ValidationReport | None


def solve(bundle: gm.ModelBundle, opts: SolveOptions | None = None,
          backend=None) -> SolveOutcome:
    """Solve a finished bundle and verify the extracted solution.

    Infeasible outcomes are triaged by a re-solve with the reserve rows
    relaxed: if that is still infeasible the balances are to blame, else
    the full model. Statically infeasible scenarios never get here;
    `build_leader` rejects them with a `BuildError`.
    """
    opts = opts or SolveOptions()
    backend = backend or get_backend()
    result = backend.solve(bundle.ir, opts.time_limit, opts.gap_tolerance)
    if result.status == INFEASIBLE:
        result.infeasible_stage = _triage_infeasibility(bundle, opts, backend)
        return SolveOutcome(None, result, None)
    if result.status != OPTIMAL:
        return SolveOutcome(None, result, None)
    solution = gm.extract_solution(bundle, result.values, result.objective)
    report = gm.verify_solution(solution, bundle, milp_values=result.values)
    return SolveOutcome(solution, result, report)


def _triage_infeasibility(bundle: gm.ModelBundle, opts: SolveOptions,
                          backend) -> str:
    relaxed = _without_reserve_rows(bundle.ir)
    res = backend.solve(relaxed, opts.time_limit, opts.gap_tolerance)
    if res.status == INFEASIBLE:
        return TRIAGE_STAGES[0]
    return TRIAGE_STAGES[1]


def _without_reserve_rows(ir: ModelIR) -> ModelIR:
    out = ModelIR(ir.name + "_relaxed_reserve", ir.sense)
    out.variables = dict(ir.variables)
    out.obj_linear = dict(ir.obj_linear)
    out.obj_quad = list(ir.obj_quad)
    out.obj_pwl = list(ir.obj_pwl)
    out.obj_const = ir.obj_const
    for row in ir.rows:
        if row.name.startswith("res_min_"):
            continue
        out.add_row(row.name, dict(row.coeffs), row.sense, row.rhs)
    return out


# ----------------------------------------------------------------------
# the operator's profit at posted prices


def _posted_price_profit(cfg: ScenarioConfig, expected: np.ndarray,
                         reserve_reqs: list[ReserveRequirementRows],
                         heat_base: np.ndarray, dhn_enabled: bool,
                         n_segments: int, backend, relax_binaries: bool):
    """What the operator earns by posting (mu, gamma) to responding users.

    Returns `profit(mu, gamma) -> (profit, response)` and its dispatch-cost
    cache. The users' closed-form best response fixes the quantities; the
    operator's dispatch for them is solved at zero prices (leaving minus
    its cost), once per distinct response, and the users' bill at the
    posted prices is added back. Every solve adds exactly one cache entry.
    `relax_binaries` makes the unit binaries continuous, which can only
    lower the dispatch cost.
    """
    mode = gm.ModeSettings(4, dhn_enabled, True, False)
    fixed_load = np.asarray(cfg.fixed_load)
    zero = np.zeros(cfg.horizon)
    cost_cache: dict[bytes, float] = {}

    def profit(mu: np.ndarray, gamma: np.ndarray
               ) -> tuple[float, tuple[np.ndarray, np.ndarray]]:
        response = gm.follower_best_response(mu, gamma, cfg)
        p_sl, h_cl = response
        key = np.round(np.concatenate(response), 9).tobytes()
        if key not in cost_cache:
            bundle = gm.build_leader(cfg, expected, reserve_reqs, mode,
                                     fixed_prices=(zero, zero),
                                     fixed_response=response)
            if relax_binaries:
                ir = bundle.ir
                ir.variables = {n: (replace(v, binary=False) if v.binary else v)
                                for n, v in ir.variables.items()}
            assemble_single_level(bundle, n_segments=n_segments)
            res = backend.solve(bundle.ir, 60.0, 1e-6)
            cost_cache[key] = -res.objective if res.status == OPTIMAL else math.inf
        bill = float(np.dot(mu, fixed_load + p_sl)
                     + np.dot(gamma, heat_base - h_cl)) * cfg.dt_hours
        return bill - cost_cache[key], response

    return profit, cost_cache


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
                     n_segments: int = 8, backend=None,
                     max_points: int = 10_000_000) -> OracleResult:
    """Exhaustive check of the equilibrium on a price grid.

    Every admissible price vector (grid points satisfying both the band
    and the average-price rows) is priced by the shared posted-price
    evaluator, `_posted_price_profit`, with the unit binaries kept, so
    each dispatch is solved exactly; the best profit wins. Only meant for
    horizons up to 4. The thermal grid may use its own step since its
    band rarely shares divisors with the electric one.
    """
    if cfg.horizon > 4:
        raise OracleSizeError("enumeration oracle is limited to horizons <= 4")
    backend = backend or get_backend()
    p = cfg.prices
    mu_grid = _admissible_grids(p.mu_min, p.mu_max, cfg.horizon * p.mu_av,
                                cfg.horizon, price_grid_step)
    gamma_grid = _admissible_grids(p.gamma_min, p.gamma_max,
                                   cfg.horizon * p.gamma_av,
                                   cfg.horizon,
                                   gamma_grid_step or price_grid_step)
    total = len(mu_grid) * len(gamma_grid)
    if total > max_points:
        raise OracleSizeError(
            f"{total} grid points exceed the {max_points} cap; raise "
            f"price_grid_step (currently {price_grid_step}) or the cap")
    if total == 0:
        raise OracleSizeError("no admissible grid points; the step does not "
                              "reach the average-price plane")

    profit_at, cost_cache = _posted_price_profit(
        cfg, cfg.expected_renewables(), cfg.reserve_requirements(),
        cfg.heat_base_load(), bool(cfg.pipelines), n_segments, backend,
        relax_binaries=False)
    best = None
    for mu in mu_grid:
        mu_arr = np.asarray(mu)
        for gamma in gamma_grid:
            gamma_arr = np.asarray(gamma)
            profit, response = profit_at(mu_arr, gamma_arr)
            if best is None or profit > best[0]:
                best = (profit, mu_arr, gamma_arr, response)
    profit, mu_arr, gamma_arr, response = best
    return OracleResult(mu_arr, gamma_arr, response, profit, price_grid_step,
                        total, len(cost_cache))


# ----------------------------------------------------------------------
# unilateral-deviation checks


@dataclass
class DeviationCheck:
    n_follower: int
    n_leader: int
    max_follower_improvement: float  # F2* - min over deviations (>0 = improving)
    max_leader_improvement: float    # max over deviations - F1*
    follower_ok: bool
    leader_ok: bool


def _random_follower_point(cfg: ScenarioConfig, rng: np.random.Generator
                           ) -> tuple[np.ndarray, np.ndarray]:
    lb, ub = cfg.shift_lower(), cfg.shift_upper()
    total = cfg.shift_total()
    # random feasible allocation of the shift total: start from a scaled
    # profile, then randomize by bounded pairwise transfers
    p_sl = lb + (ub - lb) * (total - lb.sum()) / max(float((ub - lb).sum()), 1e-12)
    for _ in range(4 * cfg.horizon):
        i, j = rng.integers(0, cfg.horizon, size=2)
        if i == j:
            continue
        room = min(float(p_sl[i] - lb[i]), float(ub[j] - p_sl[j]))
        if room <= 0:
            continue
        step = rng.uniform(0.0, room)
        p_sl[i] -= step
        p_sl[j] += step
    h_cl = rng.uniform(0.0, cfg.cut_upper())
    return p_sl, h_cl


def _random_admissible_prices(lo: float, hi: float, avg: float, t_count: int,
                              rng: np.random.Generator) -> np.ndarray:
    target = t_count * avg
    prices = rng.uniform(lo, hi, size=t_count)
    for _ in range(60):
        prices = np.clip(prices + (target - prices.sum()) / t_count, lo, hi)
        if abs(prices.sum() - target) < 1e-9:
            break
    # distribute any residual over interior coordinates
    resid = target - prices.sum()
    interior = (prices > lo + 1e-9) & (prices < hi - 1e-9)
    if abs(resid) > 1e-9 and interior.any():
        prices[interior] += resid / interior.sum()
    return np.clip(prices, lo, hi)


def no_deviation_check(bundle: gm.ModelBundle, sol: gm.EquilibriumSolution,
                       n_deviations: int = 1000, seed: int = 0,
                       backend=None) -> DeviationCheck:
    """Equilibrium stress test by random unilateral deviations.

    Follower side: random feasible responses at the posted prices must
    not undercut the solution's user cost by more than
    `gm.RESPONSE_TOL`. Leader side: random admissible price vectors,
    priced by the shared posted-price evaluator `_posted_price_profit`
    under the bundle's own expected output, reserve requirements, heat
    load, transport switch and segment count, must not beat the
    solution's profit by more than the PWL error allowance. The
    evaluator relaxes the unit binaries here: that can only overstate a
    deviation's profit, a conservative direction for a no-improvement
    test, and it keeps every re-dispatch an LP.
    """
    cfg = bundle.cfg
    rng = np.random.default_rng(seed)
    backend = backend or get_backend()

    f2_star = gm.follower_cost(cfg, sol.mu, sol.gamma, sol.p_sl, sol.h_cl)
    worst_follower = -math.inf
    for _ in range(n_deviations):
        p_sl, h_cl = _random_follower_point(cfg, rng)
        f2 = gm.follower_cost(cfg, sol.mu, sol.gamma, p_sl, h_cl)
        worst_follower = max(worst_follower, f2_star - f2)

    p = cfg.prices
    profit_at, _ = _posted_price_profit(
        cfg, bundle.expected, bundle.reserve_reqs, bundle.heat_base,
        bundle.mode.dhn_enabled, bundle.n_segments, backend,
        relax_binaries=True)
    worst_leader = -math.inf
    for _ in range(n_deviations):
        mu = _random_admissible_prices(p.mu_min, p.mu_max, p.mu_av,
                                       cfg.horizon, rng)
        gamma = _random_admissible_prices(p.gamma_min, p.gamma_max, p.gamma_av,
                                          cfg.horizon, rng)
        profit, _ = profit_at(mu, gamma)
        worst_leader = max(worst_leader, profit - sol.f1)

    leader_margin = bundle.pwl_error_bound + 1e-4 * max(abs(sol.f1), 1.0)
    return DeviationCheck(
        n_follower=n_deviations, n_leader=n_deviations,
        max_follower_improvement=worst_follower,
        max_leader_improvement=worst_leader,
        follower_ok=worst_follower <= gm.RESPONSE_TOL,
        leader_ok=worst_leader <= leader_margin)


# ----------------------------------------------------------------------
# Monte Carlo reserve validation


def validate_reserve(sol: gm.EquilibriumSolution, bundle: gm.ModelBundle,
                     n_samples: int = 100_000,
                     seed: int = 0) -> gm.ValidationReport:
    """Per-period Monte Carlo satisfaction of the reserve chance rule.

    PASS requires every period's estimated satisfaction probability to
    reach the confidence level minus 0.02 (discretization plus sampling
    allowance).
    """
    cfg = bundle.cfg
    rng = np.random.default_rng(seed)
    report = gm.ValidationReport()
    r_tot = sol.reserve_total
    for t in range(cfg.horizon):
        estimate, half_width = chance_satisfaction_mc(
            cfg.pv_model_for(t), cfg.wt_model_for(t),
            float(bundle.expected[t]), float(r_tot[t]), n_samples, rng)
        required = bundle.confidence - 0.02
        report.reserve_mc.append({
            "period": t,
            "estimate": estimate,
            "half_width": half_width,
            "required": required,
            "passed": bool(estimate >= required),
        })
    return report
