"""Span tracer that wraps the public functions of each iesgame layer from
outside the package, and the per-layer metrics derived from its spans.

A span is recorded for every call to a wrapped function: name, parent
span, start, end and the benchmark op it belongs to. Spans stay in memory
until `write` is called. Wrapping replaces the function in its defining
module and in every iesgame module that imported the name, so calls made
through either binding are seen. Per-variable helpers (`add_variable`,
`add_row`) are deliberately not wrapped: they run hundreds of thousands
of times per op and their spans would swamp the rest. Neither are the
thermal_side helpers that only thermal_side itself calls
(`building_heat_demand`, `pmv_indoor_temp`, `pipe_flow_time_h`); their
time stays in the self time of the thermal_side span that called them.
"""
from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from pathlib import Path

PACKAGE = "iesgame"

# (module, attribute path) of every wrapped entry point; the span name is
# "<module>.<attribute path>". `milp` is scipy's, as bound in solve_engine.
TARGETS = (
    ("stochastic_renewables", "pv_output_distribution"),
    ("stochastic_renewables", "wt_output_distribution"),
    ("stochastic_renewables", "point_mass_distribution"),
    ("prob_sequences", "discretize"),
    ("prob_sequences", "convolve"),
    ("prob_sequences", "reserve_rows"),
    ("prob_sequences", "chance_satisfaction_mc"),
    ("thermal_side", "pipe_heat"),
    ("thermal_side", "pipe_loss"),
    ("thermal_side", "pipe_delay"),
    ("thermal_side", "pmv"),
    ("thermal_side", "min_heating_load"),
    ("thermal_side", "comfort_optimal_load"),
    ("config", "load_scenario"),
    ("config", "ScenarioConfig.joint_sequence"),
    ("config", "ScenarioConfig.expected_renewables"),
    ("config", "ScenarioConfig.reserve_requirements"),
    ("config", "ScenarioConfig.heat_base_load"),
    ("config", "ScenarioConfig.heat_min_load"),
    ("config", "ScenarioConfig.cut_upper"),
    ("game_model", "build_leader"),
    ("game_model", "build_follower"),
    ("game_model", "follower_best_response"),
    ("game_model", "follower_cost"),
    ("game_model", "extract_solution"),
    ("game_model", "verify_solution"),
    ("kkt_reformulation", "assemble_single_level"),
    ("kkt_reformulation", "emit_kkt"),
    ("kkt_reformulation", "big_m_linearize"),
    ("kkt_reformulation", "eliminate_bilinear"),
    ("kkt_reformulation", "apply_pwl"),
    ("model_ir", "ModelIR.lower_pwl"),
    ("solve_engine", "milp"),
    ("solve_engine", "ScipyMilpBackend.solve"),
    ("solve_engine", "solve"),
    ("solve_engine", "enumerate_oracle"),
    ("solve_engine", "no_deviation_check"),
    ("solve_engine", "validate_reserve"),
    ("scenario_cli", "build_bundle"),
    ("scenario_cli", "run_pipeline"),
    ("scenario_cli", "revalidate"),
)

# span fields: name, parent index (-1 for a root), start, end, op, extra
NAME, PARENT, START, END, OP, EXTRA = range(6)


def _milp_extra(args, kwargs, result) -> dict:
    return {"nodes": int(getattr(result, "mip_node_count", 0) or 0),
            "gap": float(getattr(result, "mip_gap", 0.0) or 0.0)}


def _mc_extra(args, kwargs, result) -> dict:
    samples = kwargs["n_samples"] if "n_samples" in kwargs else args[4]
    return {"samples": int(samples)}


def _deviation_extra(args, kwargs, result) -> dict:
    return {"deviations": int(result.n_leader)}


def _oracle_extra(args, kwargs, result) -> dict:
    return {"points": int(result.n_evaluations)}


EXTRAS = {
    "solve_engine.milp": _milp_extra,
    "prob_sequences.chance_satisfaction_mc": _mc_extra,
    "solve_engine.no_deviation_check": _deviation_extra,
    "solve_engine.enumerate_oracle": _oracle_extra,
}


class Tracer:
    """Records spans for the wrapped functions while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        extra = EXTRAS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, clock(), 0.0, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[END] = clock()
            if extra is not None:
                span[EXTRA] = extra(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == PACKAGE
                                         or n.startswith(PACKAGE + "."))]
        for mod_name, attr_path in TARGETS:
            module = importlib.import_module(f"{PACKAGE}.{mod_name}")
            name = f"{mod_name}.{attr_path}"
            if "." in attr_path:
                cls_name, meth = attr_path.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                self._patch(cls, meth, original, self._wrap(name, original))
                continue
            original = getattr(module, attr_path)
            wrapper = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, original, wrapper)

    def _patch(self, owner, attr: str, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def write(self, path: Path) -> None:
        """Write every span as [name, parent, start_s, duration_s, op, extra],
        start relative to the first span."""
        t0 = self.spans[0][START] if self.spans else 0.0
        rows = [[s[NAME], s[PARENT], round(s[START] - t0, 9),
                 round(s[END] - s[START], 9), s[OP], s[EXTRA]]
                for s in self.spans]
        path.write_text(json.dumps({"fields": ["name", "parent", "start_s",
                                               "duration_s", "op", "extra"],
                                    "spans": rows}, separators=(",", ":")))


# per-layer self time: metric -> span names whose self time it sums
SELF_TIME = {
    "config.derive_s": ("config.ScenarioConfig.expected_renewables",
                        "config.ScenarioConfig.reserve_requirements",
                        "config.ScenarioConfig.heat_base_load",
                        "config.ScenarioConfig.heat_min_load",
                        "config.ScenarioConfig.cut_upper",
                        "config.ScenarioConfig.joint_sequence"),
    "prob_sequences.discretize_s": ("prob_sequences.discretize",),
    "prob_sequences.convolve_s": ("prob_sequences.convolve",),
    "stochastic_renewables.output_dist_s": (
        "stochastic_renewables.pv_output_distribution",
        "stochastic_renewables.wt_output_distribution",
        "stochastic_renewables.point_mass_distribution"),
    "thermal_side.s": tuple(f"{m}.{a}" for m, a in TARGETS
                            if m == "thermal_side"),
    "game_model.build_s": ("game_model.build_leader",
                           "game_model.build_follower"),
    "game_model.verify_s": ("game_model.verify_solution",),
    "game_model.best_response_s": ("game_model.follower_best_response",),
    "kkt_reformulation.assemble_s": tuple(f"{m}.{a}" for m, a in TARGETS
                                          if m == "kkt_reformulation"),
    "model_ir.lower_pwl_s": ("model_ir.ModelIR.lower_pwl",),
    "scenario_cli.run_pipeline_self_s": ("scenario_cli.run_pipeline",),
    "scenario_cli.revalidate_self_s": ("scenario_cli.revalidate",),
}

# inclusive (wall) time: metric -> span name
WALL_TIME = {
    "solve_engine.highs_s": "solve_engine.milp",
    "solve_engine.backend_solve_s": "solve_engine.ScipyMilpBackend.solve",
    "prob_sequences.mc_s": "prob_sequences.chance_satisfaction_mc",
}

# call counts: metric -> span names
CALLS = {
    "solve_engine.backend_calls": ("solve_engine.ScipyMilpBackend.solve",),
    "game_model.build_calls": ("game_model.build_leader",
                               "game_model.build_follower"),
    "kkt_reformulation.calls": ("kkt_reformulation.assemble_single_level",),
    "config.joint_sequence_calls": ("config.ScenarioConfig.joint_sequence",),
}


def layer_metrics(spans: list[list], n_ops: int) -> dict[str, float]:
    """Per-op layer metrics from the spans of `n_ops` traced ops.

    Times are seconds per op and counts are calls per op; the two
    useful-work ratios are given beside their bases.
    """
    child_time = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child_time[s[PARENT]] += s[END] - s[START]
    self_by_name: dict[str, float] = {}
    wall_by_name: dict[str, float] = {}
    calls_by_name: dict[str, int] = {}
    nodes = samples = deviations = points = 0
    gap_max = 0.0
    dev_solves = oracle_solves = 0
    for i, s in enumerate(spans):
        name, dur = s[NAME], s[END] - s[START]
        self_by_name[name] = self_by_name.get(name, 0.0) + dur - child_time[i]
        wall_by_name[name] = wall_by_name.get(name, 0.0) + dur
        calls_by_name[name] = calls_by_name.get(name, 0) + 1
        extra = s[EXTRA] or {}
        nodes += extra.get("nodes", 0)
        gap_max = max(gap_max, extra.get("gap", 0.0))
        samples += extra.get("samples", 0)
        deviations += extra.get("deviations", 0)
        points += extra.get("points", 0)
        if name == "solve_engine.ScipyMilpBackend.solve":
            root = _ancestor(spans, i, ("solve_engine.no_deviation_check",
                                        "solve_engine.enumerate_oracle"))
            if root == "solve_engine.no_deviation_check":
                dev_solves += 1
            elif root == "solve_engine.enumerate_oracle":
                oracle_solves += 1

    out = {metric: sum(self_by_name.get(n, 0.0) for n in names) / n_ops
           for metric, names in SELF_TIME.items()}
    out.update({metric: wall_by_name.get(name, 0.0) / n_ops
                for metric, name in WALL_TIME.items()})
    out["solve_engine.lowering_s"] = (out["solve_engine.backend_solve_s"]
                                      - out["solve_engine.highs_s"])
    out.update({metric: sum(calls_by_name.get(n, 0) for n in names) / n_ops
                for metric, names in CALLS.items()})
    out["solve_engine.mip_nodes"] = nodes / n_ops
    out["solve_engine.mip_gap.max"] = gap_max
    out["prob_sequences.mc_samples"] = samples / n_ops
    out["solve_engine.deviations"] = deviations / n_ops
    out["solve_engine.dispatch_solves_per_deviation"] = (
        dev_solves / deviations if deviations else 0.0)
    out["solve_engine.oracle_points"] = points / n_ops
    out["solve_engine.oracle_solves_per_point"] = (
        oracle_solves / points if points else 0.0)
    return out


def _ancestor(spans: list[list], i: int, names: tuple[str, ...]) -> str | None:
    parent = spans[i][PARENT]
    while parent >= 0:
        if spans[parent][NAME] in names:
            return spans[parent][NAME]
        parent = spans[parent][PARENT]
    return None
