"""Probability models for photovoltaic and wind-turbine power output.

PV output follows a Beta law scaled to [0, p_max]. Wind speed follows a
two-parameter Weibull law; pushing it through the turbine power curve
yields a mixed output distribution with point masses at zero (below
cut-in or above cut-out) and at rated power, plus a continuous segment
on the ramp between cut-in and rated speed.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class BetaPvModel:
    """Scaled-Beta model of PV power output on [0, p_max] MW."""

    lambda1: float
    lambda2: float
    p_max: float

    def __post_init__(self):
        if self.lambda1 <= 0 or self.lambda2 <= 0:
            raise ValueError("Beta shape parameters must be positive")
        if self.p_max <= 0:
            raise ValueError("p_max must be positive")

    def scaled(self, factor: float) -> "BetaPvModel | None":
        """Model with capacity scaled by `factor`; None when capacity is ~0."""
        if factor < 0:
            raise ValueError("capacity factor must be nonnegative")
        if factor < 1e-12:
            return None
        return BetaPvModel(self.lambda1, self.lambda2, self.p_max * factor)


@dataclass(frozen=True)
class WeibullWtModel:
    """Weibull wind-speed model plus turbine power-curve parameters.

    z: scale (m/s), u: shape, v_in/v_e/v_out: cut-in/rated/cut-out speeds,
    p_e: rated output (MW).
    """

    z: float
    u: float
    v_in: float
    v_e: float
    v_out: float
    p_e: float

    def __post_init__(self):
        if self.z <= 0 or self.u <= 0 or self.p_e <= 0:
            raise ValueError("z, u and p_e must be positive")
        if not (0 < self.v_in < self.v_e < self.v_out):
            raise ValueError("speeds must satisfy 0 < v_in < v_e < v_out")

    def speed_cdf(self, v: float) -> float:
        """Weibull CDF of wind speed, 1 - exp(-(v/z)^u)."""
        if v <= 0:
            return 0.0
        return -math.expm1(-((v / self.z) ** self.u))

    def scaled(self, z_factor: float) -> "WeibullWtModel":
        if z_factor <= 0:
            raise ValueError("scale factor must be positive")
        return WeibullWtModel(self.z * z_factor, self.u, self.v_in,
                              self.v_e, self.v_out, self.p_e)


def pv_density(model: BetaPvModel, p: float) -> float:
    """Beta density of PV output at p MW (units 1/MW).

    Uses the proper Beta normalization Gamma(l1+l2)/(Gamma(l1)Gamma(l2));
    raises on p outside [0, p_max].
    """
    if p < 0 or p > model.p_max:
        raise ValueError(f"p={p} outside support [0, {model.p_max}]")
    x = p / model.p_max
    l1, l2 = model.lambda1, model.lambda2
    log_norm = math.lgamma(l1 + l2) - math.lgamma(l1) - math.lgamma(l2)
    if x == 0.0:
        if l1 > 1.0:
            return 0.0
        if l1 == 1.0:
            return math.exp(log_norm) * (1.0 - x) ** (l2 - 1.0) / model.p_max
        return math.inf
    if x == 1.0:
        if l2 > 1.0:
            return 0.0
        if l2 == 1.0:
            return math.exp(log_norm) * x ** (l1 - 1.0) / model.p_max
        return math.inf
    log_pdf = log_norm + (l1 - 1.0) * math.log(x) + (l2 - 1.0) * math.log1p(-x)
    return math.exp(log_pdf) / model.p_max


def wt_power_curve(model: WeibullWtModel, v: float) -> float:
    """Turbine output (MW) at wind speed v (m/s): zero / linear ramp / rated."""
    if v < 0:
        raise ValueError("wind speed must be nonnegative")
    if v < model.v_in or v >= model.v_out:
        return 0.0
    if v < model.v_e:
        return (v - model.v_in) / (model.v_e - model.v_in) * model.p_e
    return model.p_e


@dataclass(frozen=True)
class OutputDistribution:
    """Mixed distribution of a renewable unit's output on [0, support_max].

    point_masses: (level MW, probability) atoms.
    cont_cdf: cumulative mass of the continuous part on [0, support_max]
    (not conditioned; cont_cdf(support_max) equals the continuous weight).
    """

    support_max: float
    point_masses: tuple[tuple[float, float], ...]
    cont_cdf: Callable[[float], float] | None

    def cont_mass(self, lo: float, hi: float) -> float:
        """Continuous-part mass on [lo, hi]."""
        if self.cont_cdf is None:
            return 0.0
        lo = max(lo, 0.0)
        hi = min(hi, self.support_max)
        if hi <= lo:
            return 0.0
        return self.cont_cdf(hi) - self.cont_cdf(lo)

    def total_mass(self) -> float:
        mass = sum(p for _, p in self.point_masses)
        if self.cont_cdf is not None:
            mass += self.cont_cdf(self.support_max)
        return mass

    def cdf(self, x: float) -> float:
        """Pr[X <= x] including atoms (right-continuous)."""
        mass = sum(p for loc, p in self.point_masses if loc <= x)
        if self.cont_cdf is not None and x > 0:
            mass += self.cont_cdf(min(x, self.support_max))
        return mass


def point_mass_distribution(level: float = 0.0) -> OutputDistribution:
    """Degenerate distribution concentrated at one output level."""
    return OutputDistribution(support_max=level,
                              point_masses=((level, 1.0),),
                              cont_cdf=None)


def pv_output_distribution(model: BetaPvModel) -> OutputDistribution:
    """PV output law as a (purely continuous) OutputDistribution.

    The CDF is the regularized incomplete beta function, which is what a
    frozen scipy.stats.beta evaluates inside [0, 1], without its
    per-call argument handling.
    """
    from scipy.special import betainc

    l1, l2, p_max = model.lambda1, model.lambda2, model.p_max
    return OutputDistribution(
        support_max=p_max,
        point_masses=(),
        cont_cdf=lambda x: float(betainc(l1, l2, x / p_max)),
    )


def wt_output_distribution(model: WeibullWtModel) -> OutputDistribution:
    """Turbine output law: atoms at 0 and p_e plus a ramp-segment density.

    mass at 0    = Pr[v < v_in] + Pr[v >= v_out]
    mass at p_e  = Pr[v_e <= v < v_out]
    continuous   = wind speeds on [v_in, v_e) mapped through the linear ramp.
    """
    f_in = model.speed_cdf(model.v_in)
    f_e = model.speed_cdf(model.v_e)
    f_out = model.speed_cdf(model.v_out)
    mass_zero = f_in + (1.0 - f_out)
    mass_rated = f_out - f_e
    ramp = model.v_e - model.v_in

    def cont_cdf(x: float) -> float:
        x = min(max(x, 0.0), model.p_e)
        v = model.v_in + (x / model.p_e) * ramp
        return model.speed_cdf(v) - f_in

    return OutputDistribution(
        support_max=model.p_e,
        point_masses=((0.0, mass_zero), (model.p_e, mass_rated)),
        cont_cdf=cont_cdf,
    )


def sample_pv(model: BetaPvModel, rng: np.random.Generator, size=None):
    """Draw PV output(s) in MW from the scaled-Beta law."""
    return rng.beta(model.lambda1, model.lambda2, size=size) * model.p_max


def sample_wt(model: WeibullWtModel, rng: np.random.Generator, size=None):
    """Draw turbine output(s) in MW by sampling wind speed and applying the curve."""
    v = rng.weibull(model.u, size=size) * model.z
    if size is None:
        return wt_power_curve(model, float(v))
    out = np.clip((v - model.v_in) / (model.v_e - model.v_in), 0.0, 1.0) * model.p_e
    out[v >= model.v_out] = 0.0
    return out
