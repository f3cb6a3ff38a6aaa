"""The three benchmark workloads, their correctness checks, and the
end-to-end and per-layer metrics of one run.

Every workload is a closed loop: one caller runs an op, waits for it, then
starts the next. Ops come in rounds (one op per (case, mode) pair, or one
op for `equilibrium-checks`), and a run measures whole rounds until at
least the requested number of seconds of op time has passed, so every run
sees the same mix of ops. The workload seed drives every random number generator
of a run (Monte Carlo and deviation seeds); the scenarios themselves are
fixed inputs in `inputs/`.
"""
from __future__ import annotations

import gc
import json
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

# layer functions are called through their modules, never through names
# bound here, so that the tracer's wrappers see every call
from iesgame import config
from iesgame import scenario_cli as cli
from iesgame import solve_engine as se

from tracer import Tracer, layer_metrics

INPUTS = Path(__file__).resolve().parent / "inputs"
CASES = ("case1_like", "case2_real")
MODES = (1, 2, 3, 4)
ALL_PAIRS = tuple((case, mode) for case in CASES for mode in MODES)
# the enumeration-oracle grid of acceptance criterion 4
ORACLE_STEP, ORACLE_GAMMA_STEP = 9.25, 4.75
OBJECTIVE_RTOL = 1e-4
MC_SAMPLES = 100_000  # the CLI default for run and validate
# median time of `calibrate()` on the reference machine (2-core VM, CPython
# 3.11, numpy 2.4) when otherwise idle; timings are reported at this speed
CALIBRATION_NOMINAL_S = 0.013
CALIBRATION_SAMPLES = 3  # kernel runs before each op and each set-up
E2E_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_s.p50": "s",
             "peak_rss_mb": "MB"}
MODEL_SIZE_PREFIXES = ("model_ir.vars.", "model_ir.rows.", "model_ir.nnz.",
                       "model_ir.binaries.")


def unit(metric: str) -> str:
    """Unit of a metric: layer times are seconds per op, counts per op."""
    if metric in E2E_UNITS:
        return E2E_UNITS[metric]
    if metric.startswith(MODEL_SIZE_PREFIXES):
        return "count"
    if metric.endswith(("_s", ".s")):
        return "s/op"
    if metric.endswith("_pct"):
        return "%"
    if metric.endswith(("_per_deviation", "_per_point", ".max")):
        return "ratio"
    return "count/op"


def scenario_path(case: str) -> str:
    return str(INPUTS / f"{case}.json")


def reference_objectives() -> dict[str, float]:
    return json.loads((INPUTS / "reference_objectives.json").read_text())


def warm_up() -> None:
    """Pay the lazy scipy.stats import and first-call cost once."""
    from scipy import stats
    stats.beta(2.0, 2.0).cdf(0.5)


@dataclass(frozen=True)
class Size:
    """How much work a run does; the defaults are the benchmark's."""

    pairs: tuple[tuple[str, int], ...] = ALL_PAIRS
    n_deviations: int = 40
    setup_repeats: int = 3


class OpFailed(Exception):
    """An op finished but its output failed the correctness check."""


class Workload:
    name = ""

    def __init__(self, seed: int, scratch: Path, size: Size,
                 references: dict[str, float]):
        self.rng = np.random.default_rng(seed)
        self.scratch = scratch
        self.size = size
        self.references = references

    def next_seed(self) -> int:
        return int(self.rng.integers(0, 2**31 - 1))

    def setup(self) -> None:
        raise NotImplementedError

    def round(self) -> list[Callable[[], None]]:
        """The ops of one round; each raises on a failed check."""
        raise NotImplementedError


def _matches(objective: float, reference: float) -> bool:
    return abs(objective - reference) <= OBJECTIVE_RTOL * abs(reference)


def _solve_mode3(path: str):
    cfg = config.load_scenario(path)
    bundle = cli.build_bundle(cfg, 3)
    out = se.solve(bundle, se.SolveOptions(time_limit=120.0))
    if out.result.status != se.OPTIMAL:
        raise RuntimeError(f"{path} mode 3: solver status {out.result.status}")
    return cfg, bundle, out


class RunModes(Workload):
    """One op is `run_pipeline` on one (case, mode): derivation, build, KKT,
    lowering, HiGHS, extraction and verification, Monte Carlo, output files."""

    name = "run-modes"

    def setup(self) -> None:
        for case in CASES:
            config.load_scenario(scenario_path(case))
        _solve_mode3(scenario_path("toy3"))  # first solver call

    def round(self):
        return [self._op(case, mode) for case, mode in self.size.pairs]

    def _op(self, case: str, mode: int):
        def op() -> None:
            out = cli.run_pipeline(cli.RunManifest(
                scenario=scenario_path(case), mode=mode,
                out_dir=str(self.scratch / f"{case}_m{mode}"),
                seed=self.next_seed(), mc_samples=MC_SAMPLES))
            if out.exit_code != 0:
                raise OpFailed(f"{case} mode {mode}: exit {out.exit_code} "
                               f"{out.status} {out.reason}")
            ref = self.references[f"{case}.m{mode}"]
            got = float(out.summary["objective"])
            if not _matches(got, ref):
                raise OpFailed(f"{case} mode {mode}: objective {got!r} "
                               f"differs from reference {ref!r}")
        return op


class EquilibriumChecks(Workload):
    """One op is a `no_deviation_check` of the case2 mode-3 equilibrium plus
    the toy3 price-grid enumeration oracle."""

    name = "equilibrium-checks"

    def setup(self) -> None:
        _, self.bundle, out = _solve_mode3(scenario_path("case2_real"))
        self.sol = out.solution
        ref = self.references["case2_real.m3"]
        if not _matches(out.result.objective, ref):
            raise RuntimeError("case2 mode 3 equilibrium differs from its "
                               f"reference: {out.result.objective!r} vs {ref!r}")
        self.toy, toy_bundle, toy_out = _solve_mode3(scenario_path("toy3"))
        self.toy_f1 = toy_out.solution.f1
        # acceptance criterion 4: PWL bound plus the grid's price resolution
        max_pl = float(np.max(np.asarray(self.toy.fixed_load)
                              + self.toy.shift_upper()))
        max_hl = float(np.max(self.toy.heat_base_load()))
        self.oracle_tol = (toy_bundle.pwl_error_bound + ORACLE_STEP * max_pl
                           + ORACLE_GAMMA_STEP * max_hl)

    def round(self):
        return [self._op]

    def _op(self) -> None:
        check = se.no_deviation_check(self.bundle, self.sol,
                                      n_deviations=self.size.n_deviations,
                                      seed=self.next_seed())
        if not (check.follower_ok and check.leader_ok):
            raise OpFailed(f"deviation check failed: {check}")
        oracle = se.enumerate_oracle(self.toy, ORACLE_STEP,
                                     gamma_grid_step=ORACLE_GAMMA_STEP)
        if abs(self.toy_f1 - oracle.profit) > self.oracle_tol:
            raise OpFailed(f"oracle profit {oracle.profit!r} vs toy MILP f1 "
                           f"{self.toy_f1!r} beyond {self.oracle_tol}")


class Revalidate(Workload):
    """One op is `revalidate` of one finished run directory: CSV read-back,
    derivation and build, verification, Monte Carlo; no solver call."""

    name = "revalidate"

    def setup(self) -> None:
        # the run directories only need the CSV and summary, so the set-up
        # runs skip their own Monte Carlo validation
        for case, mode in self.size.pairs:
            out = cli.run_pipeline(cli.RunManifest(
                scenario=scenario_path(case), mode=mode,
                out_dir=str(self.scratch / f"{case}_m{mode}"),
                run_validation=False))
            if out.exit_code != 0:
                raise RuntimeError(f"{case} mode {mode}: set-up run exited "
                                   f"{out.exit_code} {out.status}")

    def round(self):
        return [self._op(case, mode) for case, mode in self.size.pairs]

    def _op(self, case: str, mode: int):
        def op() -> None:
            report, _ = cli.revalidate(scenario_path(case),
                                       str(self.scratch / f"{case}_m{mode}"),
                                       MC_SAMPLES, self.next_seed())
            if not report.passed:
                raise OpFailed(f"{case} mode {mode}: revalidation failed: "
                               f"{report.violations[:3]} {report.reserve_mc}")
        return op


WORKLOADS = {w.name: w for w in (RunModes, EquilibriumChecks, Revalidate)}


@dataclass
class Run:
    """Outcome of one benchmark run."""

    attempted: int
    failed: int
    metrics: dict[str, float]
    lines: list[str]

    @property
    def failed_ops_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


def calibrate() -> float:
    """Seconds taken by a fixed kernel of interpreter and numpy work that
    runs no iesgame code. The machine is shared, and its speed drifts by
    tens of percent between minutes; this kernel measures that drift. The
    garbage collector is paused so the kernel does not time the heap the
    workload left behind."""
    gc.disable()
    try:
        started = time.perf_counter()
        table = {f"k{i}": i * 0.5 for i in range(20_000)}
        sum(table.values())
        np.random.default_rng(0).beta(2.0, 3.0, size=100_000).sum()
        return time.perf_counter() - started
    finally:
        gc.enable()


def _run_round(workload: Workload, calibration: list[float],
               tracer: Tracer | None = None,
               parity: int = 0) -> list[tuple[float, bool, bool]]:
    """Run one round; returns (seconds, traced, ok) per op and appends the
    calibration samples taken before each op. With a tracer, the ops whose
    index in the round has the given parity run traced."""
    records = []
    for i, op in enumerate(workload.round()):
        calibration += [calibrate() for _ in range(CALIBRATION_SAMPLES)]
        traced = tracer is not None and i % 2 == parity
        if traced:
            tracer.op += 1
            tracer.install()
        try:
            t = time.perf_counter()
            try:
                op()
                ok = True
            except Exception:  # an op's failure is counted, not fatal
                ok = False
                traceback.print_exc(file=sys.stderr)
            records.append((time.perf_counter() - t, traced, ok))
        finally:
            if traced:
                tracer.uninstall()
    return records


def model_sizes() -> dict[str, float]:
    """Exact size of the lowered program of each (case, mode)."""
    out = {}
    for case in CASES:
        cfg = config.load_scenario(scenario_path(case))
        for mode in MODES:
            ir = cli.build_bundle(cfg, mode).ir.lower_pwl()
            key = f"{case}.m{mode}"
            out[f"model_ir.vars.{key}"] = len(ir.variables)
            out[f"model_ir.rows.{key}"] = len(ir.rows)
            out[f"model_ir.nnz.{key}"] = sum(len(r.coeffs) for r in ir.rows)
            out[f"model_ir.binaries.{key}"] = len(ir.binary_names)
    return out


def run(name: str, seed: int, seconds: float, trace: bool, scratch: Path,
        import_s: float, size: Size = Size(),
        references: dict[str, float] | None = None,
        trace_file: Path | None = None) -> Run:
    """Set up a workload, measure whole rounds for at least `seconds` of op
    time, and return the end-to-end metrics (trace off) or the per-layer
    metrics (trace on)."""
    workload = WORKLOADS[name](seed, scratch, size,
                              references or reference_objectives())
    calibration: list[float] = []
    setups = []
    for _ in range(size.setup_repeats):
        calibration += [calibrate() for _ in range(CALIBRATION_SAMPLES)]
        t = time.perf_counter()
        workload.setup()
        setups.append(time.perf_counter() - t)
    raw_setup_s = import_s + statistics.median(setups)
    lines = [f"workload {name} seed {seed} trace {int(trace)}",
             f"  set-up: imports and warm-up {import_s:.4f} s + median of "
             f"{len(setups)} set-ups {statistics.median(setups):.4f} s"]
    if trace:
        return _traced(workload, seconds, calibration, lines, trace_file)

    rounds = []
    while not rounds or _op_time(rounds) < seconds:
        rounds.append(_run_round(workload, calibration))
    records = [rec for rnd in rounds for rec in rnd]
    wall = _op_time(rounds)
    attempted = len(records)
    failed = sum(not ok for _, _, ok in records)
    # every round holds the same mix of ops, so the median over rounds of
    # the mean op time does not jump between (case, mode) clusters
    op_p50 = statistics.median(sum(secs for secs, *_ in rnd) / len(rnd)
                               for rnd in rounds)
    raw_ops_per_s = (attempted - failed) / wall
    scale = _scale(calibration)
    metrics = {
        "setup_s": raw_setup_s * scale,
        "ops_per_s": raw_ops_per_s / scale,
        "op_s.p50": op_p50 * scale,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    lines += [
        f"  ops attempted {attempted}, failed {failed}, failed_ops_ratio "
        f"{failed / attempted:.4f}",
        _speed_line(calibration),
        f"  setup_s {metrics['setup_s']:.4f} s (raw {raw_setup_s:.4f} s)",
        f"  ops_per_s {metrics['ops_per_s']:.4f} 1/s (raw "
        f"{raw_ops_per_s:.4f} 1/s over {wall:.2f} s of op time)",
        f"  op_s.p50 {metrics['op_s.p50']:.4f} s (raw {op_p50:.4f} s; median "
        f"over {len(rounds)} rounds of {attempted // len(rounds)} ops)",
        f"  peak_rss_mb {metrics['peak_rss_mb']:.1f} MB",
    ]
    return Run(attempted, failed, metrics, lines)


def _op_time(rounds: list[list[tuple[float, bool, bool]]]) -> float:
    return sum(secs for rnd in rounds for secs, *_ in rnd)


def _scale(calibration: list[float]) -> float:
    """Factor that turns a time measured in this run into the time it would
    take at the nominal machine speed."""
    return CALIBRATION_NOMINAL_S / statistics.median(calibration)


def _speed_line(calibration: list[float]) -> str:
    return (f"  machine speed {_scale(calibration):.4f} of nominal (median "
            f"calibration {statistics.median(calibration) * 1e3:.2f} ms over "
            f"{len(calibration)} samples, nominal "
            f"{CALIBRATION_NOMINAL_S * 1e3:.1f} ms)")


def _traced(workload: Workload, seconds: float, calibration: list[float],
            lines: list[str], trace_file: Path | None) -> Run:
    """Measure an even number of rounds, tracing every other op: round 0
    traces the odd-indexed ops and round 1 the even ones, so each op of a
    round is traced once per pair of rounds. Layer metrics come from the
    traced ops; traced against untraced time of the same ops, run side by
    side, gives the tracing overhead."""
    tracer = Tracer()
    rounds = []
    while len(rounds) < 2 or len(rounds) % 2 or _op_time(rounds) < seconds:
        rounds.append(_run_round(workload, calibration, tracer,
                                 parity=(len(rounds) + 1) % 2))
    records = [rec for rnd in rounds for rec in rnd]
    traced_s = sum(secs for secs, traced, *_ in records if traced)
    untraced_s = sum(secs for secs, traced, *_ in records if not traced)
    n_traced = tracer.op + 1
    scale = _scale(calibration)
    metrics = {k: v * scale if unit(k) == "s/op" else v
               for k, v in layer_metrics(tracer.spans, n_traced).items()}
    metrics["trace.overhead_pct"] = 100.0 * (traced_s / untraced_s - 1.0)
    metrics.update(model_sizes())
    if trace_file is not None:
        tracer.write(trace_file)
    attempted = len(records)
    failed = sum(not ok for _, _, ok in records)
    lines += [f"  ops attempted {attempted} ({n_traced} traced), "
              f"failed {failed}, failed_ops_ratio {failed / attempted:.4f}",
              _speed_line(calibration),
              f"  tracing overhead {metrics['trace.overhead_pct']:+.2f} % "
              f"({traced_s:.2f} s traced vs {untraced_s:.2f} s untraced, "
              f"same ops), {len(tracer.spans)} spans"]
    lines += [f"  {k} {v:.6g}" for k, v in sorted(metrics.items())]
    return Run(attempted, failed, metrics, lines)
