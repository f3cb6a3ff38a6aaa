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


def wt_power_curve(model: WeibullWtModel, v, out=None):
    """Turbine output (MW) at wind speed(s) v (m/s): zero below cut-in and
    from cut-out on, the linear ramp up to rated speed, rated power above.

    Takes a scalar (returns a float) or an array (returns an array).
    `out`, an array of v's shape that may be v itself, receives the
    output: the Monte Carlo check passes its chunk buffers.
    """
    scalar = np.ndim(v) == 0
    v = np.atleast_1d(np.asarray(v, dtype=float))
    if np.any(v < 0):
        raise ValueError("wind speed must be nonnegative")
    cut_out = v >= model.v_out
    out = np.subtract(v, model.v_in, out=out)
    out /= model.v_e - model.v_in
    np.clip(out, 0.0, 1.0, out=out)
    out *= model.p_e
    out[cut_out] = 0.0
    return float(out[0]) if scalar else out


@dataclass(frozen=True)
class OutputDistribution:
    """Mixed distribution of a renewable unit's output on [0, support_max].

    point_masses: (level MW, probability) atoms.
    cont_cdf: cumulative mass of the continuous part on [0, support_max]
    (not conditioned; cont_cdf(support_max) equals the continuous weight).
    It maps a 1-D float array of levels inside [0, support_max] to the
    array of their cumulative masses, so `discretize` makes one call per
    law. Each entry must equal the float of the scalar formula, so the
    laws below use numpy only for the exactly rounded + - * / min max,
    and libm (Python's math module and `**`) for the rest: numpy's
    vectorized expm1 and power differ from libm in the last bit, which
    would move the discretized sequences.
    """

    support_max: float
    point_masses: tuple[tuple[float, float], ...]
    cont_cdf: Callable[[np.ndarray], np.ndarray] | None

    def _cont(self, x: float) -> float:
        """Continuous-part mass on [0, x] for one level x."""
        if self.cont_cdf is None:
            return 0.0
        return float(self.cont_cdf(np.array([x]))[0])

    def total_mass(self) -> float:
        mass = sum(p for _, p in self.point_masses)
        return mass + self._cont(self.support_max)

    def cdf(self, x: float) -> float:
        """Pr[X <= x] including atoms (right-continuous)."""
        mass = sum(p for loc, p in self.point_masses if loc <= x)
        if x > 0:
            mass += self._cont(min(x, self.support_max))
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
        cont_cdf=lambda x: betainc(l1, l2, x / p_max),
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

    def cont_cdf(x: np.ndarray) -> np.ndarray:
        # numpy for the exactly rounded steps, speed_cdf's libm calls for
        # each element
        x = np.minimum(np.maximum(x, 0.0), model.p_e)
        v = model.v_in + (x / model.p_e) * ramp
        return np.array([model.speed_cdf(s) for s in v.tolist()]) - f_in

    return OutputDistribution(
        support_max=model.p_e,
        point_masses=((0.0, mass_zero), (model.p_e, mass_rated)),
        cont_cdf=cont_cdf,
    )


def sample_pv(model: BetaPvModel, rng: np.random.Generator, size=None):
    """Draw PV output(s) in MW from the scaled-Beta law."""
    return rng.beta(model.lambda1, model.lambda2, size=size) * model.p_max


def sample_wt(model: WeibullWtModel, rng: np.random.Generator, size=None):
    """Draw turbine output(s) in MW by sampling wind speed and applying the curve.

    The speeds are `rng.weibull(u) * z`: unit-scale Weibull draws scaled
    by z. `prob_sequences.chance_satisfaction_mc` scales one set of
    unit-scale draws the same way for every period; at an equal seed this
    full draw is the reference the tests hold each period's estimate to.
    """
    v = rng.weibull(model.u, size=size) * model.z
    return wt_power_curve(model, v)
