"""Scenario configuration: every physical and economic parameter of one
scheduling case, loaded from JSON and validated up front.

Units throughout: power MW, energy MWh, prices and marginal costs $/MWh,
quadratic cost coefficients $/(MW^2 h), fixed cost $/h, reserve cost
$/MW, temperatures degC, pipe length km, mass flow kg/s. The JSON field
names below mirror the dataclass fields; see the bundled scenario files
for complete examples.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import prob_sequences as ps
from . import thermal_side as th
from .stochastic_renewables import (BetaPvModel, WeibullWtModel,
                                    point_mass_distribution,
                                    pv_output_distribution,
                                    wt_output_distribution)


class ConfigError(ValueError):
    """Scenario file fails schema or consistency checks."""


@dataclass(frozen=True)
class TpUnit:
    p_min: float
    p_max: float
    ramp_up: float
    ramp_down: float
    cost_a: float
    cost_b: float
    cost_c: float
    reserve_cost: float


@dataclass(frozen=True)
class ChpUnit:
    p_min: float
    p_max: float
    h_max: float
    ramp_up: float
    ramp_down: float
    cost_a: float
    cost_b: float
    cost_c: float
    c_v: float
    c_m: float
    reserve_cost: float


@dataclass(frozen=True)
class BessSpec:
    cap_min: float
    cap_max: float
    charge_max: float
    discharge_max: float
    discharge_cost: float
    charge_cost: float
    reserve_cost: float
    efficiency: float = 0.95
    soc_start: float = 0.5  # fraction of cap_max at the cycle boundary

    @property
    def soc_start_mwh(self) -> float:
        return self.cap_min + self.soc_start * (self.cap_max - self.cap_min)


@dataclass(frozen=True)
class PriceBounds:
    mu_min: float
    mu_max: float
    mu_av: float
    gamma_min: float
    gamma_max: float
    gamma_av: float


@dataclass(frozen=True)
class IdrSpec:
    alpha: float          # shiftable share of total electric load, in [0, 1)
    theta: float          # comfort penalty on squared heat cut, $/(MW^2 h)
    shift_max_frac: float = 0.3  # per-period shiftable cap as share of fixed load


@dataclass(frozen=True)
class TemperatureBounds:
    supply_min: float
    supply_max: float
    return_min: float
    return_max: float


@dataclass(frozen=True)
class PvConfig:
    model: BetaPvModel
    profile: tuple[float, ...]  # per-period capacity factor in [0, 1]


@dataclass(frozen=True)
class WtConfig:
    model: WeibullWtModel
    scale_profile: tuple[float, ...]  # per-period multiplier on the Weibull scale


@dataclass(frozen=True)
class ScenarioConfig:
    name: str
    horizon: int
    dt_hours: float
    confidence: float
    seq_step_mw: float
    prices: PriceBounds
    idr: IdrSpec
    tp_units: tuple[TpUnit, ...]
    chp_units: tuple[ChpUnit, ...]
    pipelines: tuple[th.PipelineSpec, ...]
    temperature_bounds: TemperatureBounds
    buildings: tuple[th.BuildingSpec, ...]
    pmv: th.PmvSpec
    fixed_load: tuple[float, ...]
    outdoor_temp: tuple[float, ...]
    bess: BessSpec | None = None
    pv: PvConfig | None = None
    wt: WtConfig | None = None
    # derived profiles, computed once per config; left out of ==, hash and
    # repr, and not carried over by `with_overrides`
    _derived: dict = field(default_factory=dict, init=False, repr=False,
                           compare=False)

    def __post_init__(self):
        self._validate()

    def _memo(self, key, compute):
        """The derived value `key`, computed on first use; arrays are
        returned read-only because every caller shares them."""
        if key not in self._derived:
            value = compute()
            if isinstance(value, np.ndarray):
                value.flags.writeable = False
            self._derived[key] = value
        return self._derived[key]

    # -- validation ---------------------------------------------------

    def _validate(self) -> None:
        p = self.prices
        if self.horizon < 1 or self.dt_hours <= 0:
            raise ConfigError("horizon must be >= 1 and dt positive")
        if not (0 < self.confidence < 1):
            raise ConfigError("confidence must lie in (0, 1)")
        if self.seq_step_mw <= 0:
            raise ConfigError("sequence step must be positive")
        if not (p.mu_min <= p.mu_av <= p.mu_max):
            raise ConfigError("electricity price bounds must satisfy min <= av <= max")
        if not (p.gamma_min <= p.gamma_av <= p.gamma_max):
            raise ConfigError("thermal price bounds must satisfy min <= av <= max")
        if p.mu_min < 0 or p.gamma_min < 0:
            raise ConfigError("prices must be nonnegative")
        if not (0 <= self.idr.alpha < 1):
            raise ConfigError("shiftable ratio alpha must lie in [0, 1)")
        if self.idr.theta <= 0:
            raise ConfigError("penalty factor theta must be positive")
        if len(self.fixed_load) != self.horizon or len(self.outdoor_temp) != self.horizon:
            raise ConfigError("fixed_load and outdoor_temp must have one entry per period")
        if any(v < 0 for v in self.fixed_load):
            raise ConfigError("fixed load must be nonnegative")
        if not self.tp_units and not self.chp_units:
            raise ConfigError("at least one generating unit is required")
        if any(u.cost_a < 0 for u in (*self.tp_units, *self.chp_units)):
            raise ConfigError("unit quadratic cost cost_a must be nonnegative")
        if not self.buildings:
            raise ConfigError("at least one building entry is required")
        tb = self.temperature_bounds
        if not (tb.supply_min < tb.supply_max and tb.return_min < tb.return_max):
            raise ConfigError("temperature bounds must be ordered")
        if tb.supply_min <= tb.return_max:
            raise ConfigError("supply temperatures must stay above return temperatures")
        if self.pv is not None and len(self.pv.profile) != self.horizon:
            raise ConfigError("pv profile must have one entry per period")
        if self.wt is not None and len(self.wt.scale_profile) != self.horizon:
            raise ConfigError("wt scale profile must have one entry per period")
        if self.bess is not None:
            b = self.bess
            if not (0 <= b.cap_min < b.cap_max):
                raise ConfigError("storage capacity bounds must satisfy 0 <= min < max")
            if not (0 < b.efficiency <= 1):
                raise ConfigError("storage efficiency must lie in (0, 1]")
            if not (0 <= b.soc_start <= 1):
                raise ConfigError("soc_start is a fraction in [0, 1]")
        shift_ub = self.shift_upper()
        if self.idr.alpha > 0 and self.shift_total() > float(np.sum(shift_ub)) + 1e-9:
            raise ConfigError("shiftable total exceeds the sum of per-period caps")
        hol = self.heat_base_load()
        hmin = self.heat_min_load()
        if np.any(hmin > hol + 1e-9):
            raise ConfigError("comfort floor exceeds comfort-optimal heating load")

    # -- derived profiles ----------------------------------------------

    def hour_of(self, t: int) -> int:
        return int(t * self.dt_hours) % 24

    def kf_total(self) -> float:
        """Total envelope conductance, kW/degC."""
        return sum(b.kf_kw_per_c for b in self.buildings)

    def heat_base_load(self) -> np.ndarray:
        """Comfort-optimal heating demand per period, MW (floored at 0)."""
        return self._memo("heat_base", self._heat_base_load)

    def _heat_base_load(self) -> np.ndarray:
        out = np.zeros(self.horizon)
        for t in range(self.horizon):
            demand = sum(th.comfort_optimal_load(b, self.pmv, self.outdoor_temp[t],
                                                 self.dt_hours)
                         for b in self.buildings)
            out[t] = max(0.0, demand)
        return out

    def heat_min_load(self) -> np.ndarray:
        """Comfort-floor heating demand per period, MW (clamped to [0, base])."""
        return self._memo("heat_min", self._heat_min_load)

    def _heat_min_load(self) -> np.ndarray:
        base = self.heat_base_load()
        out = np.zeros(self.horizon)
        for t in range(self.horizon):
            demand = sum(th.min_heating_load(b, self.pmv, self.hour_of(t),
                                             self.outdoor_temp[t], self.dt_hours)
                         for b in self.buildings)
            out[t] = min(max(0.0, demand), base[t])
        return out

    def cut_upper(self) -> np.ndarray:
        return self.heat_base_load() - self.heat_min_load()

    def shift_total(self) -> float:
        """Shiftable energy S implied by the shiftable ratio.

        The ratio is defined against the total load including the shifted
        part, so S = alpha/(1-alpha) * sum(fixed load) * dt.
        """
        a = self.idr.alpha
        return a / (1.0 - a) * float(np.sum(self.fixed_load)) * self.dt_hours

    def shift_lower(self) -> np.ndarray:
        return np.zeros(self.horizon)

    def shift_upper(self) -> np.ndarray:
        return self.idr.shift_max_frac * np.asarray(self.fixed_load)

    def baseline_shift(self) -> np.ndarray:
        """Default timing of the shiftable block when users do not optimize:
        it follows the fixed-load shape, keeping totals comparable across
        modes."""
        load = np.asarray(self.fixed_load)
        total = float(load.sum())
        if total <= 0:
            return np.zeros(self.horizon)
        return self.shift_total() / self.dt_hours * load / total

    def proportional_prices(self) -> tuple[np.ndarray, np.ndarray]:
        """Fixed load-proportional prices used when pricing is not optimized.

        mu_t tracks the fixed electric load and gamma_t the base heating
        load, scaled to meet the average-price rows exactly; values must
        land inside the price bounds or the scenario is rejected.
        """
        p = self.prices
        load = np.asarray(self.fixed_load)
        mu = p.mu_av * load / load.mean()
        heat = self.heat_base_load()
        if heat.mean() <= 0:
            gamma = np.full(self.horizon, p.gamma_av)
        else:
            gamma = p.gamma_av * heat / heat.mean()
        if np.any(mu < p.mu_min - 1e-9) or np.any(mu > p.mu_max + 1e-9):
            raise ConfigError("proportional electricity prices leave the price band; "
                              "flatten the load profile or widen the band")
        if np.any(gamma < p.gamma_min - 1e-9) or np.any(gamma > p.gamma_max + 1e-9):
            raise ConfigError("proportional thermal prices leave the price band")
        return mu, gamma

    # -- renewables ----------------------------------------------------

    def pv_model_for(self, t: int) -> BetaPvModel | None:
        if self.pv is None:
            return None
        return self.pv.model.scaled(self.pv.profile[t])

    def wt_model_for(self, t: int) -> WeibullWtModel | None:
        if self.wt is None:
            return None
        return self.wt.model.scaled(self.wt.scale_profile[t])

    def joint_sequence(self, t: int) -> ps.ProbSequence:
        """Discretized joint renewable output for period t."""
        return self._memo(("joint", t), lambda: self._joint_sequence(t))

    def _joint_sequence(self, t: int) -> ps.ProbSequence:
        q = self.seq_step_mw
        seqs = []
        pv_model = self.pv_model_for(t)
        if pv_model is not None:
            seqs.append(ps.discretize(pv_output_distribution(pv_model), q))
        wt_model = self.wt_model_for(t)
        if wt_model is not None:
            seqs.append(ps.discretize(wt_output_distribution(wt_model), q))
        if not seqs:
            seqs.append(ps.discretize(point_mass_distribution(0.0), q))
        joint = seqs[0]
        for s in seqs[1:]:
            joint = ps.convolve(joint, s)
        joint.probs.flags.writeable = False  # shared by every caller
        return joint

    def reserve_requirements(self) -> list[ps.ReserveRequirementRows]:
        """Deterministic-equivalent reserve data per period, at `confidence`."""
        return list(self._memo("reserve", lambda: tuple(
            ps.reserve_rows(self.joint_sequence(t), self.confidence)
            for t in range(self.horizon))))

    def expected_renewables(self) -> np.ndarray:
        return self._memo("expected", lambda: np.array(
            [ps.expectation(self.joint_sequence(t))
             for t in range(self.horizon)]))

    def with_overrides(self, **kwargs) -> "ScenarioConfig":
        """Validated copy with top-level fields, or `theta`, replaced; it
        derives its own profiles. Runs apply `--confidence` and sweep
        values this way."""
        if "theta" in kwargs:
            kwargs["idr"] = replace(self.idr, theta=kwargs.pop("theta"))
        return replace(self, **kwargs)


# -- JSON loading -------------------------------------------------------


def _require(data: dict, key: str, where: str):
    if key not in data:
        raise ConfigError(f"missing field {key!r} in {where}")
    return data[key]


def _unit_list(entries, cls, where: str):
    if not isinstance(entries, list):
        raise ConfigError(f"{where} must be a list")
    out = []
    for i, entry in enumerate(entries):
        try:
            out.append(cls(**entry))
        except TypeError as exc:
            raise ConfigError(f"{where}[{i}]: {exc}") from None
    return tuple(out)


def load_scenario(path: str | Path) -> ScenarioConfig:
    """Load and validate a scenario JSON file, refusing NaN and Infinity."""
    path = Path(path)
    try:
        data = json.loads(path.read_text(), parse_constant=_non_finite)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read scenario {path}: {exc}") from None
    return scenario_from_dict(data, where=str(path))


def _non_finite(name: str):
    raise ValueError(f"{name} is not a finite number")


def scenario_from_dict(data: dict, where: str = "scenario") -> ScenarioConfig:
    try:
        prices = PriceBounds(**_require(data, "prices", where))
        idr = IdrSpec(**_require(data, "idr", where))
        tb = TemperatureBounds(**_require(data, "temperature_bounds", where))
        pmv_spec = th.PmvSpec(**_require(data, "pmv", where))
        horizon = int(_require(data, "horizon", where))

        pv = None
        if data.get("pv") is not None:
            raw = dict(data["pv"])
            profile = raw.pop("profile", [1.0] * horizon)
            pv = PvConfig(model=BetaPvModel(**raw), profile=tuple(profile))
        wt = None
        if data.get("wt") is not None:
            raw = dict(data["wt"])
            profile = raw.pop("scale_profile", [1.0] * horizon)
            wt = WtConfig(model=WeibullWtModel(**raw), scale_profile=tuple(profile))
        bess = BessSpec(**data["bess"]) if data.get("bess") is not None else None

        return ScenarioConfig(
            name=data.get("name", Path(where).stem),
            horizon=horizon,
            dt_hours=float(data.get("dt_hours", 1.0)),
            confidence=float(_require(data, "confidence", where)),
            seq_step_mw=float(_require(data, "seq_step_mw", where)),
            prices=prices,
            idr=idr,
            tp_units=_unit_list(data.get("tp_units", []), TpUnit, "tp_units"),
            chp_units=_unit_list(data.get("chp_units", []), ChpUnit, "chp_units"),
            pipelines=_unit_list(data.get("pipelines", []), th.PipelineSpec,
                                 "pipelines"),
            temperature_bounds=tb,
            buildings=_unit_list(_require(data, "buildings", where),
                                 th.BuildingSpec, "buildings"),
            pmv=pmv_spec,
            fixed_load=tuple(float(v) for v in _require(data, "fixed_load_mw", where)),
            outdoor_temp=tuple(float(v) for v in _require(data, "outdoor_temp_c", where)),
            bess=bess,
            pv=pv,
            wt=wt,
        )
    except (TypeError, ValueError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"{where}: {exc}") from None
