"""Command-line pipeline: run a scenario in one of the four modes,
compare modes, sweep a parameter, re-validate a finished run, or check a
tiny instance against the enumeration oracle.

Exit codes: 0 success, 2 scenario/schema error, 3 infeasible,
4 time limit, 5 validation failure, 6 oracle sizing refusal,
1 other failures. Flags can also be set through environment variables
with the IES_ prefix (IES_OUT, IES_SEED, IES_GAP, IES_TIME_LIMIT,
IES_SEGMENTS, IES_MC_SAMPLES).
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import os
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from . import game_model as gm
from . import solve_engine as se
from .config import ConfigError, ScenarioConfig, load_scenario
from .kkt_reformulation import N_SEGMENTS, assemble_single_level
from .prob_sequences import MIN_MC_SAMPLES

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_SCHEMA = 2
EXIT_INFEASIBLE = 3
EXIT_TIME_LIMIT = 4
EXIT_VALIDATION = 5
EXIT_ORACLE_SIZE = 6

MODES = (1, 2, 3, 4)

CSV_SCHEMA_VERSION = 1


def _env(name: str, cast, default):
    raw = os.environ.get(f"IES_{name}")
    if raw is None:
        return default
    try:
        return cast(raw)
    except ValueError:
        raise ValueError(f"IES_{name}={raw!r} is not a valid "
                       f"{cast.__name__}") from None


def _parse_list(flag: str, text: str, cast, choices=None) -> list:
    """Parse a comma-separated flag value; every value must be new (each
    gets its own run directory) and, given `choices`, one of them."""
    try:
        values = [cast(v) for v in text.split(",")]
    except ValueError:
        raise ValueError(f"{flag} {text!r} is not a comma-separated list of "
                         f"{cast.__name__} values") from None
    if choices is not None and any(v not in choices for v in values):
        raise ValueError(f"{flag} {text!r}: each value must be one of "
                         f"{', '.join(map(str, choices))}")
    if len(set(values)) < len(values):
        raise ValueError(f"{flag} {text!r} repeats a value")
    return values


@dataclass(frozen=True)
class RunManifest:
    """One pipeline invocation: scenario, mode and solver settings."""

    scenario: str
    mode: int
    out_dir: str
    confidence: float | None = None
    seed: int = 0
    gap: float = se.SolveOptions.gap_tolerance
    time_limit: float = se.SolveOptions.time_limit
    n_segments: int = N_SEGMENTS
    mc_samples: int = se.MC_SAMPLES
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
                 n_segments: int = N_SEGMENTS) -> gm.ModelBundle:
    """Construct the single-level program for one mode."""
    bundle = gm.build_leader(cfg, gm.ModeSettings.for_mode(mode_number))
    return assemble_single_level(bundle, n_segments=n_segments)


def _overridden(cfg: ScenarioConfig, theta, confidence) -> ScenarioConfig:
    """`cfg` with a run's theta and confidence overrides, where given. An
    override that is a bool, or not a finite int or float, is refused
    with ValueError."""
    overrides = {}
    for k, v in (("theta", theta), ("confidence", confidence)):
        if v is None:
            continue
        if isinstance(v, bool) or not isinstance(v, (int, float)) \
                or not math.isfinite(v):
            raise ValueError(f"{k}={v!r} is not a finite number")
        overrides[k] = float(v)
    return cfg.with_overrides(**overrides) if overrides else cfg


def run_pipeline(manifest: RunManifest) -> RunOutput:
    """Full scenario run: build, solve, verify, Monte Carlo, write outputs."""
    started = time.perf_counter()
    out_dir = Path(manifest.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    def fail(code: int, status: str, reason: str) -> RunOutput:
        # a failed run leaves no solution behind, not even an older run's
        for stale in ("periods.csv", "validation.json"):
            (out_dir / stale).unlink(missing_ok=True)
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

    refused = _refused_settings(manifest)
    if refused:
        return fail(EXIT_SCHEMA, "SCHEMA_ERROR", refused)
    try:
        cfg = _overridden(load_scenario(manifest.scenario),
                          manifest.theta, manifest.confidence)
        bundle = build_bundle(cfg, manifest.mode, manifest.n_segments)
    except (ConfigError, gm.BuildError, ValueError) as exc:
        return fail(EXIT_SCHEMA, "SCHEMA_ERROR", str(exc))

    opts = se.SolveOptions(time_limit=manifest.time_limit,
                           gap_tolerance=manifest.gap)
    outcome = se.solve(bundle, opts)
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
        report.reserve_mc = se.validate_reserve(sol, cfg, manifest.mc_samples,
                                                manifest.seed)

    summary = {
        "schema_version": CSV_SCHEMA_VERSION,
        "scenario": manifest.scenario,
        "scenario_name": cfg.name,
        "mode": manifest.mode,
        "seed": manifest.seed,
        "backend": se.ScipyMilpBackend.name,
        "confidence": cfg.confidence,
        "theta": cfg.idr.theta,
        "n_segments": manifest.n_segments,
        "gap_tolerance": manifest.gap,
        "time_limit": manifest.time_limit,
        "mc_samples": manifest.mc_samples if manifest.run_validation else None,
        "scenario_sha256": _sha256(manifest.scenario),
        "versions": {"iesgame": __version__,
                     "python": sys.version.split()[0],
                     "numpy": np.__version__, "scipy": scipy.__version__,
                     "highs": se.HIGHS_VERSION},
        "status": result.status,
        "objective": result.objective,
        "gap": result.gap,
        "mip_dual_bound": result.bound,
        "mip_node_count": result.node_count,
        "relaxation_exact": result.relaxation_exact,
        "pwl_error_bound": bundle.pwl_error_bound,
        "f1": sol.f1,
        "f2": sol.f2,
        "absorbed_renewables": sol.absorbed,
        "expected_renewables": float(np.sum(cfg.expected_renewables())),
        "solve_runtime_s": result.runtime_s,
        "runtime_s": time.perf_counter() - started,
        "validation_passed": report.passed,
    }
    _write_csv(out_dir / "periods.csv", _period_table(cfg, sol))
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


def _refused_settings(manifest: RunManifest) -> str | None:
    """Why the solver or the Monte Carlo check could not honour a run's
    settings as recorded, or None."""
    if manifest.run_validation and manifest.mc_samples < MIN_MC_SAMPLES:
        return _too_few_samples(manifest.mc_samples)
    if manifest.seed < 0:
        return f"seed={manifest.seed} must be nonnegative"
    for name, value in (("gap", manifest.gap),
                        ("time_limit", manifest.time_limit)):
        if not value >= 0:  # NaN included
            return f"{name}={value} must be a nonnegative number"
    return None


def _period_table(cfg: ScenarioConfig,
                  sol: gm.EquilibriumSolution) -> list[dict]:
    heat_base = cfg.heat_base_load()
    expected = cfg.expected_renewables()
    r_req = [req.min_reserve() for req in cfg.reserve_requirements()]
    r_total = sol.reserve_total
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
            "expected_renewable": expected[t],
            "curtailment": expected[t] - sol.p_res[t],
            "p_ch": sol.p_ch[t],
            "p_dh": sol.p_dh[t],
            "soc": sol.soc[t],
            "r_bess": sol.r_bess[t],
            "reserve_total": r_total[t],
            "reserve_required": r_req[t],
        }
        for group, keys in gm.SOLUTION_FIELDS.items():
            if group is not None:
                for i in range(len(getattr(cfg, group))):
                    row.update((f"{key}_{i}", getattr(sol, key)[i, t]) for key in keys)
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


def _json_text(payload: dict) -> str:
    """Strict JSON (RFC 8259): a non-finite float, such as an infinite
    time limit, is written as null."""
    def finite(value):
        if isinstance(value, dict):
            return {k: finite(v) for k, v in value.items()}
        if isinstance(value, (list, tuple)):
            return [finite(v) for v in value]
        return None if isinstance(value, float) and not math.isfinite(value) \
            else value

    return json.dumps(finite(payload), indent=2, sort_keys=True,
                      default=float, allow_nan=False)


def _write_json(path: Path, payload: dict) -> None:
    _atomic_write(path, _json_text(payload) + "\n")


def _atomic_write(path: Path, text: str) -> None:
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


# ----------------------------------------------------------------------
# compare / sweep


def compare_modes(manifest: RunManifest, modes: list[int]) -> list[dict]:
    """Aligned profit/cost/absorption table across modes; failures keep
    their row with a marker instead of aborting the table."""
    table = []
    for mode in modes:
        out = run_pipeline(replace(
            manifest, mode=mode,
            out_dir=str(Path(manifest.out_dir) / f"mode{mode}")))
        res = out.summary
        if out.exit_code in (EXIT_OK, EXIT_VALIDATION):
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


def sweep(manifest: RunManifest, param: str,
          values: list[float]) -> list[dict]:
    """One mode-3 style run per parameter value; rows carry per-period
    heat cuts (for the penalty sweep) and total reserve (for confidence)."""
    if param not in SWEEP_PARAMS:
        raise ValueError(f"sweep parameter must be one of {SWEEP_PARAMS}")
    table = []
    for v in values:
        override = {"theta": v} if param == "theta" else {"confidence": v}
        out = run_pipeline(replace(manifest, out_dir=str(
            Path(manifest.out_dir) / f"{param}_{v}"), **override))
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

    No program is built: the checks take the scenario, overridden with
    the run's effective theta and confidence from `summary.json` (as
    `run_pipeline` applies them; older run directories fall back to the
    scenario file), the mode and the recorded `pwl_error_bound`. A sample
    count below the Monte Carlo floor is refused with ValueError before
    anything is read, and so are a summary that is not a JSON object,
    records no solution, a bound that is not a nonnegative finite number,
    objectives (`f1`, `f2`, `objective`), a theta or a confidence that
    are not finite numbers, a mode that is not an integer, and a
    scenario file whose SHA-256 differs from the one the run recorded
    (run directories without `scenario_sha256` are not checked).
    """
    if mc_samples < MIN_MC_SAMPLES:
        raise ValueError(_too_few_samples(mc_samples))
    run_path = Path(run_dir)
    summary = json.loads((run_path / "summary.json").read_text())
    if not isinstance(summary, dict):
        raise ValueError(f"{run_dir}/summary.json is not a JSON object")
    if summary.get("status") != se.OPTIMAL:
        raise ValueError(f"{run_dir} records no solution to revalidate "
                         f"(status {summary.get('status')})")
    bound = summary.get("pwl_error_bound")
    if type(bound) not in (int, float) or not 0 <= bound < math.inf:
        raise ValueError(f"{run_dir}/summary.json: pwl_error_bound={bound!r} "
                         "is not a nonnegative finite number")
    for key in ("f1", "f2", "objective"):
        value = summary.get(key)
        if type(value) not in (int, float) or not math.isfinite(value):
            raise ValueError(f"{run_dir}/summary.json: {key}={value!r} "
                             "is not a finite number")
    if type(summary.get("mode")) is not int:
        raise ValueError(f"{run_dir}/summary.json: mode={summary.get('mode')!r} "
                         "is not an integer")
    recorded = summary.get("scenario_sha256")
    if recorded is not None and recorded != _sha256(scenario):
        raise ValueError(f"{scenario} is not the scenario file the run was "
                         f"made from (sha256 {recorded})")
    cfg = _overridden(load_scenario(scenario), summary.get("theta"),
                      summary.get("confidence"))
    mode = gm.ModeSettings.for_mode(summary["mode"])
    with (run_path / "periods.csv").open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    sol = _solution_from_rows(cfg, rows, summary)
    report = gm.verify_solution(sol, cfg, mode, float(bound))
    report.reserve_mc = se.validate_reserve(sol, cfg, mc_samples, seed)
    return report, summary


def _sha256(path: str) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _too_few_samples(n: int) -> str:
    return (f"mc_samples={n} is below the Monte Carlo floor of "
            f"{MIN_MC_SAMPLES} samples per period")


def _solution_from_rows(cfg: ScenarioConfig, rows: list[dict],
                        summary: dict) -> gm.EquilibriumSolution:
    """The solution `_period_table` wrote as `rows`; a table with the wrong
    row count or a row without a cell is refused with ValueError."""
    if len(rows) != cfg.horizon:
        raise ValueError(f"periods.csv has {len(rows)} rows for a "
                         f"{cfg.horizon}-period horizon")

    def column(key: str, i: int | None) -> np.ndarray:
        name = {"p_sl": "shift_load", "h_cl": "heat_cut"}.get(key, key) \
            if i is None else f"{key}_{i}"
        cells = [r[name] for r in rows]
        if None in cells:
            raise ValueError(f"periods.csv row {cells.index(None)} has no {name} cell")
        return np.array([float(c) for c in cells])

    return gm.solution_from(cfg, column, float(summary["f1"]),
                            float(summary["f2"]), float(summary["objective"]))


# ----------------------------------------------------------------------
# argument parsing


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--scenario", required=True, help="scenario JSON path")
    p.add_argument("--out", default=_env("OUT", str, "runs"),
                   help="output directory")
    p.add_argument("--confidence", type=float, default=None,
                   help="override the scenario confidence level")
    p.add_argument("--seed", type=int, default=_env("SEED", int, 0))
    p.add_argument("--gap", type=float,
                   default=_env("GAP", float, se.SolveOptions.gap_tolerance))
    p.add_argument("--time-limit", type=float,
                   default=_env("TIME_LIMIT", float, se.SolveOptions.time_limit))
    p.add_argument("--segments", type=int,
                   default=_env("SEGMENTS", int, N_SEGMENTS),
                   help="PWL segments per quadratic cost term")
    p.add_argument("--mc-samples", type=int,
                   default=_env("MC_SAMPLES", int, se.MC_SAMPLES))


def _manifest_from_args(args, mode: int | None = None) -> RunManifest:
    return RunManifest(
        scenario=args.scenario, mode=mode if mode is not None else args.mode,
        out_dir=args.out, confidence=args.confidence, seed=args.seed,
        gap=args.gap, time_limit=args.time_limit, n_segments=args.segments,
        mc_samples=args.mc_samples,
        run_validation=not getattr(args, "no_validate", False))


def _print_table(rows: list[dict]) -> None:
    if not rows:
        return
    keys = list(rows[0].keys())
    print("\t".join(keys))
    for row in rows:
        print("\t".join(_fmt_cell(row.get(k, "")) for k in keys))


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="iesgame",
                                     description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="verb", required=True)

    p_run = sub.add_parser("run", help="solve one scenario in one mode")
    _add_common(p_run)
    p_run.add_argument("--mode", type=int, default=3, choices=MODES)
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
    p_sweep.add_argument("--mode", type=int, default=3, choices=MODES)

    p_val = sub.add_parser("validate", help="re-verify a finished run")
    p_val.add_argument("--scenario", required=True)
    p_val.add_argument("--run-dir", required=True)
    p_val.add_argument("--seed", type=int, default=_env("SEED", int, 0))
    p_val.add_argument("--mc-samples", type=int,
                       default=_env("MC_SAMPLES", int, se.MC_SAMPLES))

    p_orc = sub.add_parser("oracle", help="price-grid enumeration on a tiny case")
    p_orc.add_argument("--scenario", required=True)
    p_orc.add_argument("--step", type=float, required=True,
                       help="electricity price grid step")
    p_orc.add_argument("--gamma-step", type=float, default=None,
                       help="thermal price grid step (defaults to --step)")
    p_orc.add_argument("--segments", type=int,
                       default=_env("SEGMENTS", int, N_SEGMENTS))
    p_orc.add_argument("--out", default=None)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        parser = _parser()  # reads the IES_* defaults
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_SCHEMA
    args = parser.parse_args(argv)

    if args.verb == "run":
        out = run_pipeline(_manifest_from_args(args))
        print(_json_text(out.summary))
        if out.reason:
            print(f"reason: {out.reason}", file=sys.stderr)
        return out.exit_code

    if args.verb == "compare":
        # a refused re-run leaves no older table
        table_path = Path(args.out) / "comparison.csv"
        table_path.unlink(missing_ok=True)
        try:
            modes = _parse_list("--modes", args.modes, int, MODES)
        except ValueError as exc:
            print(str(exc), file=sys.stderr)
            return EXIT_SCHEMA
        table = compare_modes(_manifest_from_args(args, mode=modes[0]), modes)
        _write_csv(table_path, table)
        _print_table(table)
        failed = any(r["f1"] == "FAILED" for r in table)
        return EXIT_ERROR if failed else EXIT_OK

    if args.verb == "sweep":
        table_path = Path(args.out) / f"sweep_{args.param}.csv"
        table_path.unlink(missing_ok=True)  # as for compare above
        try:
            values = _parse_list("--values", args.values, float)
            table = sweep(_manifest_from_args(args), args.param, values)
        except ValueError as exc:
            print(str(exc), file=sys.stderr)
            return EXIT_SCHEMA
        _write_csv(table_path, table)
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
        print(_json_text(payload))
        return EXIT_OK if report.passed else EXIT_VALIDATION

    if args.verb == "oracle":
        if args.out:  # a refused or failed check leaves no older result
            (Path(args.out) / "oracle.json").unlink(missing_ok=True)
        try:
            cfg = load_scenario(args.scenario)
            result = se.enumerate_oracle(cfg, args.step,
                                         gamma_grid_step=args.gamma_step,
                                         n_segments=args.segments)
        except se.OracleSizeError as exc:
            print(str(exc), file=sys.stderr)
            return EXIT_ORACLE_SIZE
        except ValueError as exc:  # scenario errors and steps
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
        print(_json_text(payload))
        if args.out:
            Path(args.out).mkdir(parents=True, exist_ok=True)
            _write_json(Path(args.out) / "oracle.json", payload)
        return EXIT_OK

    return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
