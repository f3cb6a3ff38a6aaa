"""Command-line pipeline: run a scenario in one of the four modes,
compare modes, sweep a parameter, re-validate a finished run, or check a
tiny instance against the enumeration oracle.

Exit codes: 0 success, 2 scenario/schema error, 3 infeasible,
4 time limit, 5 validation failure, 6 oracle sizing refusal,
1 other failures. Flags can also be set through environment variables
with the IES_ prefix (IES_BACKEND, IES_OUT, IES_SEED, IES_GAP,
IES_TIME_LIMIT, IES_SEGMENTS, IES_JOBS, IES_MC_SAMPLES).
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import game_model as gm
from . import solve_engine as se
from .config import ConfigError, ScenarioConfig, load_scenario
from .kkt_reformulation import assemble_single_level
from .prob_sequences import MIN_MC_SAMPLES

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_SCHEMA = 2
EXIT_INFEASIBLE = 3
EXIT_TIME_LIMIT = 4
EXIT_VALIDATION = 5
EXIT_ORACLE_SIZE = 6

CSV_SCHEMA_VERSION = 1


def _env(name: str, cast, default):
    raw = os.environ.get(f"IES_{name}")
    if raw is None:
        return default
    return cast(raw)


@dataclass(frozen=True)
class RunManifest:
    """One pipeline invocation: scenario, mode and solver settings."""

    scenario: str
    mode: int
    out_dir: str
    confidence: float | None = None
    seed: int = 0
    backend: str | None = None
    gap: float = 1e-4
    time_limit: float = 300.0
    n_segments: int = 8
    mc_samples: int = 100_000
    run_validation: bool = True
    theta: float | None = None  # sweep override


@dataclass
class RunOutput:
    exit_code: int
    status: str
    reason: str
    summary: dict
    solution: gm.EquilibriumSolution | None = None


def build_bundle(cfg: ScenarioConfig, mode_number: int,
                 confidence: float | None = None,
                 n_segments: int = 8) -> gm.ModelBundle:
    """Construct the single-level program for one mode."""
    bundle = gm.build_leader(cfg, cfg.expected_renewables(),
                             cfg.reserve_requirements(confidence),
                             gm.ModeSettings.for_mode(mode_number))
    return assemble_single_level(bundle, n_segments=n_segments)


def run_pipeline(manifest: RunManifest) -> RunOutput:
    """Full scenario run: build, solve, verify, Monte Carlo, write outputs."""
    started = time.perf_counter()
    out_dir = Path(manifest.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    def fail(code: int, status: str, reason: str) -> RunOutput:
        summary = {
            "schema_version": CSV_SCHEMA_VERSION,
            "scenario": manifest.scenario,
            "mode": manifest.mode,
            "status": status,
            "reason": reason,
            "runtime_s": time.perf_counter() - started,
        }
        _write_json(out_dir / "summary.json", summary)
        return RunOutput(code, status, reason, summary)

    if manifest.run_validation and manifest.mc_samples < MIN_MC_SAMPLES:
        return fail(EXIT_SCHEMA, "SCHEMA_ERROR",
                    _too_few_samples(manifest.mc_samples))
    try:
        cfg = load_scenario(manifest.scenario)
        if manifest.theta is not None:
            cfg = cfg.with_overrides(theta=manifest.theta)
        bundle = build_bundle(cfg, manifest.mode, manifest.confidence,
                              manifest.n_segments)
    except (ConfigError, gm.BuildError, ValueError) as exc:
        return fail(EXIT_SCHEMA, "SCHEMA_ERROR", str(exc))

    opts = se.SolveOptions(time_limit=manifest.time_limit,
                           gap_tolerance=manifest.gap)
    try:
        backend = se.get_backend(manifest.backend)
    except ValueError as exc:
        return fail(EXIT_SCHEMA, "SCHEMA_ERROR", str(exc))
    outcome = se.solve(bundle, opts, backend)
    result = outcome.result
    if result.status == se.INFEASIBLE:
        return fail(EXIT_INFEASIBLE, result.status,
                    f"infeasible at stage {result.infeasible_stage}")
    if result.status == se.TIME_LIMIT:
        return fail(EXIT_TIME_LIMIT, result.status,
                    f"no proven optimum within {manifest.time_limit}s")
    if result.status != se.OPTIMAL:
        return fail(EXIT_ERROR, result.status, "backend failure")

    sol = outcome.solution
    report = outcome.report
    if manifest.run_validation:
        mc = se.validate_reserve(sol, bundle, manifest.mc_samples, manifest.seed)
        report.reserve_mc = mc.reserve_mc

    summary = {
        "schema_version": CSV_SCHEMA_VERSION,
        "scenario": manifest.scenario,
        "scenario_name": cfg.name,
        "mode": manifest.mode,
        "seed": manifest.seed,
        "backend": backend.name,
        "confidence": bundle.confidence,
        "theta": cfg.idr.theta,
        "n_segments": manifest.n_segments,
        "status": result.status,
        "objective": result.objective,
        "gap": result.gap,
        "mip_dual_bound": result.bound,
        "mip_node_count": result.node_count,
        "pwl_error_bound": bundle.pwl_error_bound,
        "f1": sol.f1,
        "f2": sol.f2,
        "absorbed_renewables": sol.absorbed,
        "expected_renewables": float(np.sum(sol.expected)),
        "solve_runtime_s": result.runtime_s,
        "runtime_s": time.perf_counter() - started,
        "validation_passed": report.passed,
    }
    _write_csv(out_dir / "periods.csv", _period_table(cfg, bundle, sol))
    _write_json(out_dir / "summary.json", summary)
    _write_json(out_dir / "validation.json", {
        "violations": [vars(v) for v in report.violations],
        "reserve_mc": report.reserve_mc,
    })
    if not report.passed:
        worst = report.violations[0].check if report.violations else "reserve_mc"
        return RunOutput(EXIT_VALIDATION, "VALIDATION_FAILED",
                         f"first failing check: {worst}", summary, sol)
    return RunOutput(EXIT_OK, "OPTIMAL", "", summary, sol)


def _period_table(cfg: ScenarioConfig, bundle: gm.ModelBundle,
                  sol: gm.EquilibriumSolution) -> list[dict]:
    heat_base = bundle.heat_base
    r_req = np.array([req.min_reserve() for req in bundle.reserve_reqs])
    rows = []
    for t in range(cfg.horizon):
        row = {
            "period": t,
            "hour": cfg.hour_of(t),
            "mu": sol.mu[t],
            "gamma": sol.gamma[t],
            "fixed_load": cfg.fixed_load[t],
            "shift_load": sol.p_sl[t],
            "elec_load": cfg.fixed_load[t] + sol.p_sl[t],
            "heat_base": heat_base[t],
            "heat_cut": sol.h_cl[t],
            "heat_load": heat_base[t] - sol.h_cl[t],
            "p_res": sol.p_res[t],
            "expected_renewable": sol.expected[t],
            "curtailment": sol.curtailment[t],
            "p_ch": sol.p_ch[t],
            "p_dh": sol.p_dh[t],
            "soc": sol.soc[t],
            "r_bess": sol.r_bess[t],
            "reserve_total": sol.reserve_total[t],
            "reserve_required": r_req[t],
        }
        for i in range(len(cfg.tp_units)):
            row[f"p_tp_{i}"] = sol.p_tp[i, t]
            row[f"r_tp_{i}"] = sol.r_tp[i, t]
        for i in range(len(cfg.chp_units)):
            row[f"p_chp_{i}"] = sol.p_chp[i, t]
            row[f"h_chp_{i}"] = sol.h_chp[i, t]
            row[f"r_chp_{i}"] = sol.r_chp[i, t]
        for p in range(len(cfg.pipelines)):
            row[f"t_sw_{p}"] = sol.t_sw[p, t]
            row[f"t_rw_{p}"] = sol.t_rw[p, t]
            row[f"h_src_{p}"] = sol.h_src[p, t]
        rows.append(row)
    return rows


def _fmt_cell(v) -> str:
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def _write_csv(path: Path, rows: list[dict]) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(rows[0].keys())
    for row in rows:
        writer.writerow([_fmt_cell(v) for v in row.values()])
    _atomic_write(path, buf.getvalue())


def _write_json(path: Path, payload: dict) -> None:
    _atomic_write(path, json.dumps(payload, indent=2, sort_keys=True,
                                   default=float) + "\n")


def _atomic_write(path: Path, text: str) -> None:
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


# ----------------------------------------------------------------------
# compare / sweep


def _run_for_pool(manifest: RunManifest) -> dict:
    out = run_pipeline(manifest)
    return {"exit_code": out.exit_code, "status": out.status,
            "reason": out.reason, **out.summary}


def compare_modes(manifest: RunManifest, modes: list[int],
                  jobs: int = 1) -> list[dict]:
    """Aligned profit/cost/absorption table across modes; failures keep
    their row with a marker instead of aborting the table."""
    manifests = [replace(manifest, mode=m,
                         out_dir=str(Path(manifest.out_dir) / f"mode{m}"))
                 for m in modes]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_run_for_pool, manifests))
    else:
        results = [_run_for_pool(m) for m in manifests]
    table = []
    for mode, res in zip(modes, results):
        if res["exit_code"] in (EXIT_OK, EXIT_VALIDATION):
            table.append({
                "mode": mode, "status": res["status"],
                "f1": res["f1"], "f2": res["f2"],
                "absorbed_renewables": res["absorbed_renewables"],
                "expected_renewables": res["expected_renewables"],
                "runtime_s": res["solve_runtime_s"],
            })
        else:
            table.append({"mode": mode, "status": res["status"],
                          "f1": "FAILED", "f2": "FAILED",
                          "absorbed_renewables": "FAILED",
                          "expected_renewables": "FAILED",
                          "runtime_s": res.get("runtime_s", 0.0)})
    return table


SWEEP_PARAMS = ("theta", "confidence")


def sweep(manifest: RunManifest, param: str, values: list[float],
          jobs: int = 1) -> list[dict]:
    """One mode-3 style run per parameter value; rows carry per-period
    heat cuts (for the penalty sweep) and total reserve (for confidence)."""
    if param not in SWEEP_PARAMS:
        raise ValueError(f"sweep parameter must be one of {SWEEP_PARAMS}")
    manifests = []
    for v in values:
        override = {"theta": v} if param == "theta" else {"confidence": v}
        manifests.append(replace(manifest, out_dir=str(
            Path(manifest.out_dir) / f"{param}_{v}"), **override))
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            outputs = list(pool.map(run_pipeline, manifests))
    else:
        outputs = [run_pipeline(m) for m in manifests]
    table = []
    for v, out in zip(values, outputs):
        row = {"value": v, "status": out.status, "exit_code": out.exit_code}
        if out.solution is not None:
            sol = out.solution
            row.update({
                "f1": sol.f1, "f2": sol.f2,
                "total_heat_cut": float(np.sum(sol.h_cl)),
                "total_reserve": float(np.sum(sol.reserve_total)),
                "absorbed_renewables": sol.absorbed,
            })
            for t in range(len(sol.h_cl)):
                row[f"h_cl_{t}"] = sol.h_cl[t]
        table.append(row)
    return table


# ----------------------------------------------------------------------
# validate (re-check a finished run)


def revalidate(scenario: str, run_dir: str, mc_samples: int,
               seed: int) -> tuple[gm.ValidationReport, dict]:
    """Reload a finished run from its output files and re-verify it.

    The program is rebuilt with the run's effective theta, confidence and
    segment count from `summary.json`; run directories written before
    those fields existed fall back to the scenario file and the default
    segment count. A sample count below the Monte Carlo floor is refused
    with ValueError before anything is read.
    """
    if mc_samples < MIN_MC_SAMPLES:
        raise ValueError(_too_few_samples(mc_samples))
    run_path = Path(run_dir)
    summary = json.loads((run_path / "summary.json").read_text())
    cfg = load_scenario(scenario)
    if "theta" in summary:
        cfg = cfg.with_overrides(theta=float(summary["theta"]))
    bundle = build_bundle(cfg, int(summary["mode"]), summary.get("confidence"),
                          int(summary.get("n_segments", 8)))
    with (run_path / "periods.csv").open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    sol = _solution_from_rows(cfg, bundle, rows, summary)
    report = gm.verify_solution(sol, bundle)
    mc = se.validate_reserve(sol, bundle, mc_samples, seed)
    report.reserve_mc = mc.reserve_mc
    return report, summary


def _too_few_samples(n: int) -> str:
    return (f"mc_samples={n} is below the Monte Carlo floor of "
            f"{MIN_MC_SAMPLES} samples per period")


def _solution_from_rows(cfg: ScenarioConfig, bundle: gm.ModelBundle,
                        rows: list[dict], summary: dict) -> gm.EquilibriumSolution:
    t_count = cfg.horizon

    def col(name: str) -> np.ndarray:
        return np.array([float(r[name]) for r in rows])

    def grid(prefix: str, n: int) -> np.ndarray:
        if n == 0:
            return np.zeros((0, t_count))
        return np.array([col(f"{prefix}_{i}") for i in range(n)])

    sol = gm.EquilibriumSolution(
        mu=col("mu"), gamma=col("gamma"), p_sl=col("shift_load"),
        h_cl=col("heat_cut"),
        p_tp=grid("p_tp", len(cfg.tp_units)), r_tp=grid("r_tp", len(cfg.tp_units)),
        p_chp=grid("p_chp", len(cfg.chp_units)),
        h_chp=grid("h_chp", len(cfg.chp_units)),
        r_chp=grid("r_chp", len(cfg.chp_units)),
        p_ch=col("p_ch"), p_dh=col("p_dh"), soc=col("soc"), r_bess=col("r_bess"),
        p_res=col("p_res"),
        t_sw=grid("t_sw", len(cfg.pipelines)), t_rw=grid("t_rw", len(cfg.pipelines)),
        h_src=grid("h_src", len(cfg.pipelines)),
        expected=col("expected_renewable"),
        f1=float(summary["f1"]), f2=float(summary["f2"]),
        objective_milp=float(summary["objective"]))
    return sol


# ----------------------------------------------------------------------
# argument parsing


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--scenario", required=True, help="scenario JSON path")
    p.add_argument("--out", default=_env("OUT", str, "runs"),
                   help="output directory")
    p.add_argument("--confidence", type=float, default=None,
                   help="override the scenario confidence level")
    p.add_argument("--seed", type=int, default=_env("SEED", int, 0))
    p.add_argument("--backend", default=_env("BACKEND", str, None),
                   help="solver backend (scipy, external)")
    p.add_argument("--gap", type=float, default=_env("GAP", float, 1e-4))
    p.add_argument("--time-limit", type=float,
                   default=_env("TIME_LIMIT", float, 300.0))
    p.add_argument("--segments", type=int, default=_env("SEGMENTS", int, 8),
                   help="PWL segments per quadratic cost term")
    p.add_argument("--mc-samples", type=int,
                   default=_env("MC_SAMPLES", int, 100_000))
    p.add_argument("--jobs", type=int, default=_env("JOBS", int, 1))


def _manifest_from_args(args, mode: int | None = None) -> RunManifest:
    return RunManifest(
        scenario=args.scenario, mode=mode if mode is not None else args.mode,
        out_dir=args.out, confidence=args.confidence, seed=args.seed,
        backend=args.backend, gap=args.gap, time_limit=args.time_limit,
        n_segments=args.segments, mc_samples=args.mc_samples,
        run_validation=not getattr(args, "no_validate", False))


def _print_table(rows: list[dict]) -> None:
    if not rows:
        return
    keys = list(rows[0].keys())
    print("\t".join(keys))
    for row in rows:
        print("\t".join(_fmt_cell(row.get(k, "")) for k in keys))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="iesgame",
                                     description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="verb", required=True)

    p_run = sub.add_parser("run", help="solve one scenario in one mode")
    _add_common(p_run)
    p_run.add_argument("--mode", type=int, default=3, choices=(1, 2, 3, 4))
    p_run.add_argument("--no-validate", action="store_true",
                       help="skip the Monte Carlo reserve validation")

    p_cmp = sub.add_parser("compare", help="run several modes side by side")
    _add_common(p_cmp)
    p_cmp.add_argument("--modes", default="1,2,3,4",
                       help="comma-separated mode list")

    p_sweep = sub.add_parser("sweep", help="sweep theta or confidence")
    _add_common(p_sweep)
    p_sweep.add_argument("--param", required=True, choices=SWEEP_PARAMS)
    p_sweep.add_argument("--values", required=True,
                         help="comma-separated values")
    p_sweep.add_argument("--mode", type=int, default=3, choices=(1, 2, 3, 4))

    p_val = sub.add_parser("validate", help="re-verify a finished run")
    p_val.add_argument("--scenario", required=True)
    p_val.add_argument("--run-dir", required=True)
    p_val.add_argument("--seed", type=int, default=_env("SEED", int, 0))
    p_val.add_argument("--mc-samples", type=int,
                       default=_env("MC_SAMPLES", int, 100_000))

    p_orc = sub.add_parser("oracle", help="price-grid enumeration on a tiny case")
    p_orc.add_argument("--scenario", required=True)
    p_orc.add_argument("--step", type=float, required=True,
                       help="electricity price grid step")
    p_orc.add_argument("--gamma-step", type=float, default=None,
                       help="thermal price grid step (defaults to --step)")
    p_orc.add_argument("--segments", type=int, default=_env("SEGMENTS", int, 8))
    p_orc.add_argument("--backend", default=_env("BACKEND", str, None))
    p_orc.add_argument("--out", default=None)

    args = parser.parse_args(argv)

    if args.verb == "run":
        out = run_pipeline(_manifest_from_args(args))
        print(json.dumps(out.summary, indent=2, sort_keys=True, default=float))
        if out.reason:
            print(f"reason: {out.reason}", file=sys.stderr)
        return out.exit_code

    if args.verb == "compare":
        modes = [int(m) for m in args.modes.split(",")]
        table = compare_modes(_manifest_from_args(args, mode=modes[0]), modes,
                              jobs=args.jobs)
        _write_csv(Path(args.out) / "comparison.csv", table)
        _print_table(table)
        failed = any(r["f1"] == "FAILED" for r in table)
        return EXIT_ERROR if failed else EXIT_OK

    if args.verb == "sweep":
        values = [float(v) for v in args.values.split(",")]
        try:
            table = sweep(_manifest_from_args(args), args.param, values,
                          jobs=args.jobs)
        except ValueError as exc:
            print(str(exc), file=sys.stderr)
            return EXIT_SCHEMA
        _write_csv(Path(args.out) / f"sweep_{args.param}.csv", table)
        _print_table(table)
        failed = any(r["exit_code"] != EXIT_OK for r in table)
        return EXIT_ERROR if failed else EXIT_OK

    if args.verb == "validate":
        try:
            report, summary = revalidate(args.scenario, args.run_dir,
                                         args.mc_samples, args.seed)
        except (OSError, KeyError, ValueError) as exc:
            print(f"cannot revalidate: {exc}", file=sys.stderr)
            return EXIT_SCHEMA
        payload = {"passed": report.passed,
                   "violations": [vars(v) for v in report.violations],
                   "reserve_mc": report.reserve_mc}
        print(json.dumps(payload, indent=2, sort_keys=True, default=float))
        return EXIT_OK if report.passed else EXIT_VALIDATION

    if args.verb == "oracle":
        try:
            cfg = load_scenario(args.scenario)
            result = se.enumerate_oracle(cfg, args.step,
                                         gamma_grid_step=args.gamma_step,
                                         n_segments=args.segments,
                                         backend=se.get_backend(args.backend))
        except se.OracleSizeError as exc:
            print(str(exc), file=sys.stderr)
            return EXIT_ORACLE_SIZE
        except ConfigError as exc:
            print(str(exc), file=sys.stderr)
            return EXIT_SCHEMA
        payload = {
            "profit": result.profit,
            "mu": list(result.best_mu),
            "gamma": list(result.best_gamma),
            "p_sl": list(result.best_response[0]),
            "h_cl": list(result.best_response[1]),
            "grid_step": result.grid_step,
            "n_evaluations": result.n_evaluations,
            "n_dispatch_solves": result.n_dispatch_solves,
        }
        print(json.dumps(payload, indent=2, sort_keys=True, default=float))
        if args.out:
            Path(args.out).mkdir(parents=True, exist_ok=True)
            _write_json(Path(args.out) / "oracle.json", payload)
        return EXIT_OK

    return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
