"""Discrete probability sequences over output levels {0, q, 2q, ...}.

A renewable output distribution is discretized onto a uniform power grid
with step q; independent units combine by addition-type convolution.

The per-period spinning-reserve chance constraint
    Pr[r >= E - joint output] >= confidence
then has an exact deterministic equivalent. Sequence operation theory
writes it as one binary w_m per output level m, a big-M row
r >= (E - m*q) - M*(1 - w_m) and a coverage row
sum_m Pr[level m] * w_m >= confidence. Because the thresholds E - m*q
strictly decrease in m, the levels a reserve r covers always form a
tail {m >= m0}, so that block admits exactly the reserves
r >= ReserveRequirementRows.min_reserve(): one linear row per period,
with no binaries.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .stochastic_renewables import OutputDistribution, wt_power_curve

SUM_TOL = 1e-9
MIN_MC_SAMPLES = 10_000  # floor on chance_satisfaction_mc's n_samples
# A period passes the Monte Carlo check at confidence - MC_ALLOWANCE: the
# allowance covers the q-grid discretization and the sampling error.
MC_ALLOWANCE = 0.02
# chance_satisfaction_mc counts the hits in chunks of this many samples
MC_CHUNK = 2 ** 15


@dataclass(frozen=True)
class ProbSequence:
    """Probability mass over levels 0, q, 2q, ..., N*q."""

    q: float
    probs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "probs", np.asarray(self.probs, dtype=float))
        if self.q <= 0:
            raise ValueError("step q must be positive")
        if self.probs.ndim != 1 or self.probs.size == 0:
            raise ValueError("probs must be a nonempty 1-D array")
        if np.any(self.probs < -SUM_TOL) or np.any(self.probs > 1 + SUM_TOL):
            raise ValueError("probabilities must lie in [0, 1]")
        total = float(self.probs.sum())
        if abs(total - 1.0) > 1e-6:
            raise ValueError(f"probabilities sum to {total}, expected 1")

    def levels(self) -> np.ndarray:
        return np.arange(self.probs.size) * self.q


def discretize(dist: OutputDistribution, q: float) -> ProbSequence:
    """Discretize a bounded mixed distribution onto the grid {0, q, ...}.

    Cell 0 integrates [0, q/2); interior cell i integrates
    [iq - q/2, iq + q/2); the last cell absorbs the remaining upper tail.
    Point masses land in the cell whose center is nearest (half-up). The
    continuous part's cdf is called once, on the array of the upper and
    then the lower edges of every cell inside the support.
    """
    if q <= 0:
        raise ValueError("step q must be positive")
    level_max = dist.support_max
    if level_max <= 0:
        # degenerate: all mass at level zero
        return ProbSequence(q, np.array([dist.total_mass()]))
    if q >= level_max:
        raise ValueError(
            f"step q={q} >= support maximum {level_max}: sequence would "
            "collapse to a single cell; choose a smaller q")
    n = math.ceil(level_max / q)
    centers = np.arange(n + 1) * q
    lo = np.maximum(centers - q / 2, 0.0)
    hi = np.minimum(centers + q / 2, level_max)
    probs = np.zeros(n + 1)
    inside = hi > lo  # a cell past the support holds no mass
    if dist.cont_cdf is not None:
        upper, lower = np.split(
            dist.cont_cdf(np.concatenate([hi[inside], lo[inside]])), 2)
        probs[inside] = upper - lower
    for loc, mass in dist.point_masses:
        cell = min(n, int(math.floor(loc / q + 0.5)))
        probs[cell] += mass
    return ProbSequence(q, probs)


def convolve(a: ProbSequence, b: ProbSequence) -> ProbSequence:
    """Addition-type convolution d(i) = sum_{j+k=i} a(j) b(k)."""
    if abs(a.q - b.q) > 1e-12:
        raise ValueError(f"step mismatch: {a.q} vs {b.q} (no implicit resampling)")
    return ProbSequence(a.q, np.convolve(a.probs, b.probs))


def expectation(s: ProbSequence) -> float:
    """Expected output sum_m m*q*s(m) in MW."""
    return float(np.dot(s.levels(), s.probs))


@dataclass(frozen=True)
class ReserveRequirementRows:
    """Data for the deterministic-equivalent reserve row of one period.

    thresholds[m] = expected_output - m*q is the reserve that covers a
    shortfall at output level m. The paper's sequence-operation form
    gives each level a binary w_m with
        total_reserve >= thresholds[m] - M * (1 - w_m)
    and adds the coverage row  sum_m level_probs[m] * w_m >= confidence.
    The thresholds strictly decrease, so a reserve covers a level only
    if it covers every higher one: the covered levels form a tail, and
    the block holds exactly when  total_reserve >= min_reserve(). The
    MILP emits only that row.
    """

    expected_output: float
    q: float
    thresholds: np.ndarray
    level_probs: np.ndarray
    confidence: float

    def __post_init__(self):
        if not (0 < self.confidence < 1):
            raise ValueError("confidence must lie in (0, 1)")
        if np.any(np.diff(self.thresholds) >= 0):
            raise ValueError("thresholds must be strictly decreasing")
        total = float(np.asarray(self.level_probs).sum())
        if abs(total - 1.0) > 1e-6:
            raise ValueError("level probabilities must sum to 1")

    def min_reserve(self) -> float:
        """Smallest feasible total reserve: the largest m whose upper tail
        still covers the confidence level fixes the binding threshold."""
        tails = np.cumsum(self.level_probs[::-1])[::-1]
        feasible = np.nonzero(tails >= self.confidence - 1e-12)[0]
        if feasible.size == 0:
            return float(self.thresholds[0])
        m_star = int(feasible.max())
        return max(0.0, float(self.thresholds[m_star]))


def reserve_rows(joint: ProbSequence, confidence: float) -> ReserveRequirementRows:
    """Deterministic-equivalent reserve data for one period's joint sequence."""
    e = expectation(joint)
    thresholds = e - joint.levels()
    return ReserveRequirementRows(
        expected_output=e,
        q=joint.q,
        thresholds=thresholds,
        level_probs=joint.probs.copy(),
        confidence=confidence,
    )


def _shapes(pv_models, wt_models) -> tuple[list, list]:
    """The Weibull shapes and the Beta shape pairs of the present models,
    each in order of first use."""
    return (list(dict.fromkeys(wt.u for wt in wt_models if wt is not None)),
            list(dict.fromkeys((pv.lambda1, pv.lambda2)
                               for pv in pv_models if pv is not None)))


def mc_draws(pv_models, wt_models, n_samples: int,
             rng: np.random.Generator) -> tuple[dict, dict]:
    """The draws `chance_satisfaction_mc` makes for these models: n
    unit-scale wind speeds per Weibull shape, in order of first use, then
    n Beta fractions per PV shape, as ({u: ...}, {(lambda1, lambda2): ...})."""
    us, betas = _shapes(pv_models, wt_models)
    return ({u: rng.weibull(u, n_samples) for u in us},
            {key: rng.beta(*key, n_samples) for key in betas})


def chance_satisfaction_mc(pv_models, wt_models, expected_outputs,
                           reserves, n_samples: int, rng: np.random.Generator,
                           drawn=None) -> list[tuple[float, float]]:
    """Monte Carlo estimates of Pr[reserve >= expected_output - joint output].

    The four sequences hold one entry per period; either model may be None
    (unit absent that period). Returns one (estimate, 95% binomial
    half-width) per period. Requires n_samples >= 1e4.

    The periods share one set of draws (common random numbers). A period's
    models differ from the others' only in the wind scale z and the PV
    capacity p_max, so n unit-scale wind speeds per Weibull shape and n
    Beta fractions per PV shape serve every period, as z * speed and
    p_max * fraction. Each estimate keeps the law and the half-width of n
    draws of its own; only the estimates of different periods correlate.

    A sample hits when its joint output reaches
    need = expected_output - reserve - 1e-12. A period with need <= 0 is
    hit by every sample, because no unit has a negative output: its
    estimate is exactly 1.0, and only periods with need > 0 ask for draws.
    They are `mc_draws` of those periods' models from `rng`, so with one
    shape of each a period's estimate equals, at an equal seed, the one
    from `sample_wt(n)` then `sample_pv(n)` on a fresh generator. `drawn`,
    draws made ahead (`mc_draws` of n samples from the same seed), is used
    instead when it holds exactly those shapes, in that order; otherwise
    the call draws from `rng` itself.

    The hits are counted on the calling thread, in chunks of MC_CHUNK
    samples through preallocated buffers, and summed per period as
    integers, so the estimates do not depend on the chunking.
    """
    if n_samples < MIN_MC_SAMPLES:
        raise ValueError(f"n_samples must be at least {MIN_MC_SAMPLES}")
    periods = [(pv, wt, e - r - 1e-12) for pv, wt, e, r
               in zip(pv_models, wt_models, expected_outputs, reserves)]
    # a period without units misses every positive need
    sampled = [t for t, (pv, wt, need) in enumerate(periods)
               if need > 0 and (pv is not None or wt is not None)]
    pvs = [periods[t][0] for t in sampled]
    wts = [periods[t][1] for t in sampled]
    speeds, fractions = drawn or ({}, {})
    if (list(speeds), list(fractions)) != _shapes(pvs, wts) or any(
            a.size != n_samples for a in [*speeds.values(),
                                          *fractions.values()]):
        speeds, fractions = mc_draws(pvs, wts, n_samples, rng)

    hits = [0 if need > 0 else n_samples for _, _, need in periods]
    wind, solar = np.empty(MC_CHUNK), np.empty(MC_CHUNK)
    reached = np.empty(MC_CHUNK, dtype=bool)
    for lo in range(0, n_samples, MC_CHUNK):
        hi = min(lo + MC_CHUNK, n_samples)
        m = hi - lo
        for t in sampled:
            pv, wt, need = periods[t]
            joint = None
            if wt is not None:
                v = np.multiply(speeds[wt.u][lo:hi], wt.z, out=wind[:m])
                joint = wt_power_curve(wt, v, out=v)
            if pv is not None:
                share = np.multiply(fractions[pv.lambda1, pv.lambda2][lo:hi],
                                    pv.p_max, out=solar[:m])
                joint = share if joint is None else np.add(joint, share,
                                                           out=joint)
            hits[t] += int(np.count_nonzero(
                np.greater_equal(joint, need, out=reached[:m])))

    out = []
    for count in hits:
        estimate = count / n_samples
        half_width = 1.96 * math.sqrt(
            max(estimate * (1 - estimate), 1e-12) / n_samples)
        out.append((estimate, half_width))
    return out
