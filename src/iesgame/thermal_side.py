"""District-heating physics: pipeline transport, loss and delay, building
heat demand, and comfort-band limits from the mean-vote comfort index.

Units: power MW, temperature degC, pipe length km, mass flow kg/s,
thermal resistance km*degC/kW. Water properties are fixed at
c_w = 4.186 kJ/(kg degC) and rho_w = 1000 kg/m^3.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

WATER_HEAT_CAPACITY_KJ = 4.186   # kJ/(kg degC)
WATER_DENSITY = 1000.0           # kg/m^3


@dataclass(frozen=True)
class PipelineSpec:
    """One supply pipeline under quality regulation (constant mass flow)."""

    length_km: float
    diameter_m: float
    mass_flow_kg_s: float
    thermal_resistance_km_c_per_kw: float
    ambient_temp_c: float

    def __post_init__(self):
        if min(self.length_km, self.diameter_m, self.mass_flow_kg_s,
               self.thermal_resistance_km_c_per_kw) <= 0:
            raise ValueError("pipeline dimensions, flow and resistance must be positive")

    @property
    def heat_mw_per_c(self) -> float:
        """Heat carried per degC of supply-return difference, c_w*G, in MW."""
        return WATER_HEAT_CAPACITY_KJ * self.mass_flow_kg_s / 1000.0

    @property
    def loss_mw_per_c(self) -> float:
        """Heat lost per degC of supply over ambient, 2*pi*L/R_h, in MW."""
        return 2.0 * math.pi * self.length_km / (
            self.thermal_resistance_km_c_per_kw * 1000.0)


@dataclass(frozen=True)
class BuildingSpec:
    """Aggregate building envelope for the first-order thermal model.

    heat_transfer_kw_m2c: overall transfer coefficient (kW/m^2 degC),
    surface_m2 / volume_m3: envelope area and interior volume,
    count: identical buildings lumped into this entry.
    """

    heat_transfer_kw_m2c: float
    surface_m2: float
    volume_m3: float
    air_heat_capacity_kj_kgc: float = 1.005
    air_density_kg_m3: float = 1.2
    count: int = 1

    def __post_init__(self):
        if min(self.heat_transfer_kw_m2c, self.surface_m2, self.volume_m3,
               self.air_heat_capacity_kj_kgc, self.air_density_kg_m3) <= 0:
            raise ValueError("building parameters must be positive")
        if self.count < 1:
            raise ValueError("count must be at least 1")

    @property
    def kf_kw_per_c(self) -> float:
        """Envelope conductance K*F in kW/degC, including count."""
        return self.heat_transfer_kw_m2c * self.surface_m2 * self.count


@dataclass(frozen=True)
class PmvSpec:
    """Comfort-index parameters and the day/night tolerance bands.

    The day window is [day_start_hour, day_end_hour) with the tighter
    bound; the remaining hours use the night bound.
    """

    metabolic_w_m2: float
    clothing_m2c_w: float
    skin_temp_c: float
    day_bound: float = 0.5
    night_bound: float = 1.0
    day_start_hour: int = 7
    day_end_hour: int = 20

    def __post_init__(self):
        if self.metabolic_w_m2 <= 0 or self.clothing_m2c_w <= 0:
            raise ValueError("metabolic rate and clothing resistance must be positive")
        if self.day_bound <= 0 or self.night_bound <= 0:
            raise ValueError("comfort bounds must be positive")

    def is_day(self, hour: int) -> bool:
        return self.day_start_hour <= (hour % 24) < self.day_end_hour

    def lower_bound(self, hour: int) -> float:
        """Magnitude of the period's lower comfort-index bound."""
        return self.day_bound if self.is_day(hour) else self.night_bound


def pipe_heat(pipe: PipelineSpec, t_sw: float, t_rw: float) -> float:
    """Thermal power c_w*G*(t_sw - t_rw) carried by the pipeline, in MW."""
    if t_sw <= t_rw:
        raise ValueError(f"supply temperature {t_sw} must exceed return {t_rw}")
    return WATER_HEAT_CAPACITY_KJ * pipe.mass_flow_kg_s * (t_sw - t_rw) / 1000.0


def pipe_loss(pipe: PipelineSpec, t_sw: float) -> float:
    """Steady-state heat loss 2*pi*(t_sw - T_e)/R_h * L, in MW."""
    if t_sw < pipe.ambient_temp_c:
        raise ValueError("supply temperature below ambient")
    loss_kw = (2.0 * math.pi * (t_sw - pipe.ambient_temp_c)
               / pipe.thermal_resistance_km_c_per_kw * pipe.length_km)
    return loss_kw / 1000.0


def pipe_flow_time_h(pipe: PipelineSpec) -> float:
    """Water transit time L*pi*d^2*rho / (4G), converted to hours."""
    seconds = (pipe.length_km * 1000.0 * math.pi * pipe.diameter_m ** 2
               * WATER_DENSITY / (4.0 * pipe.mass_flow_kg_s))
    return seconds / 3600.0


def pipe_delay(pipe: PipelineSpec, dt_hours: float) -> tuple[float, int]:
    """(flow time in hours, delay in whole periods).

    The step count rounds half-up; exact .5 rounds away from zero.
    """
    if dt_hours <= 0:
        raise ValueError("dt must be positive")
    flow_time = pipe_flow_time_h(pipe)
    steps = int(math.floor(flow_time / dt_hours + 0.5))
    return flow_time, steps


def building_heat_demand(b: BuildingSpec, t_in: float, t_in_prev: float,
                         t_out: float, dt_hours: float) -> float:
    """Heating power (MW) of the first-order building model.

    dt enters in seconds so that K*F*dt / (c_air*rho_air*V) is
    dimensionless; at t_in == t_in_prev this reduces exactly to the
    steady-state form K*F*(t_in - t_out).
    """
    for temp in (t_in, t_in_prev, t_out):
        if not -50.0 <= temp <= 50.0:
            raise ValueError(f"temperature {temp} outside plausible range [-50, 50]")
    kf = b.kf_kw_per_c
    cap = (b.air_heat_capacity_kj_kgc * b.air_density_kg_m3
           * b.volume_m3 * b.count)  # kJ/degC
    dt_s = dt_hours * 3600.0
    numerator = (t_in - t_out) + kf * dt_s / cap * (t_in_prev - t_out)
    denominator = 1.0 / kf + dt_s / cap
    return numerator / denominator / 1000.0


def pmv(spec: PmvSpec, t_in: float) -> float:
    """Comfort index 2.43 - 3.76 (T_s - t_in) / (M (I_cl + 0.1))."""
    if t_in >= spec.skin_temp_c:
        raise ValueError("indoor temperature must stay below skin temperature")
    return 2.43 - 3.76 * (spec.skin_temp_c - t_in) / (
        spec.metabolic_w_m2 * (spec.clothing_m2c_w + 0.1))


def pmv_indoor_temp(spec: PmvSpec, pmv_value: float) -> float:
    """Indoor temperature achieving a given comfort-index value (affine inverse)."""
    return spec.skin_temp_c - (2.43 - pmv_value) * (
        spec.metabolic_w_m2 * (spec.clothing_m2c_w + 0.1)) / 3.76


def min_heating_load(b: BuildingSpec, spec: PmvSpec, hour: int,
                     t_out: float, dt_hours: float = 1.0) -> float:
    """Lowest acceptable heating power (MW) for the period's comfort band.

    Inverts the comfort index at the period's lower bound (-day_bound by
    day, -night_bound by night) and evaluates the building model at that
    indoor temperature held steady.
    """
    t_floor = pmv_indoor_temp(spec, -spec.lower_bound(hour))
    return building_heat_demand(b, t_floor, t_floor, t_out, dt_hours)


def comfort_optimal_load(b: BuildingSpec, spec: PmvSpec, t_out: float,
                         dt_hours: float = 1.0) -> float:
    """Heating power (MW) holding the indoor temperature at comfort optimum."""
    t_star = pmv_indoor_temp(spec, 0.0)
    return building_heat_demand(b, t_star, t_star, t_out, dt_hours)
