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
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .stochastic_renewables import OutputDistribution, wt_power_curve

SUM_TOL = 1e-9
MIN_MC_SAMPLES = 10_000  # floor on chance_satisfaction_mc's n_samples
# A period passes the Monte Carlo check at confidence - MC_ALLOWANCE: the
# allowance covers the q-grid discretization and the sampling error.
MC_ALLOWANCE = 0.02
# chance_satisfaction_mc draws each PV shape's fractions in chunks of this
# many samples and counts one chunk while it draws the next
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


def _hits(periods, speeds, lo, hi, fractions=None) -> list[int]:
    """How many of samples lo..hi-1 reach each (pv, wt, need) period's need:
    its wind output from the unit-scale `speeds`, plus its PV output from
    `fractions`, the Beta fractions of those samples, when it has PV."""
    counts = []
    for pv, wt, need in periods:
        if wt is None:
            joint = fractions * pv.p_max
        else:
            joint = wt_power_curve(wt, speeds[wt.u][lo:hi] * wt.z)
            if pv is not None:
                joint += fractions * pv.p_max
        counts.append(int(np.count_nonzero(joint >= need)))
    return counts


def chance_satisfaction_mc(pv_models, wt_models, expected_outputs,
                           reserves, n_samples: int,
                           rng: np.random.Generator) -> list[tuple[float, float]]:
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
    All speeds are drawn first, per Weibull shape in order of first use,
    then the fractions per PV shape, so with one shape of each a period's
    estimate equals, at an equal seed, the one from `sample_wt(n)` then
    `sample_pv(n)` on a fresh generator.

    The fractions are drawn in chunks of MC_CHUNK samples, which continue
    one stream: the chunks concatenate to the single draw of n. One helper
    thread, which lives only for the call, counts the hits: those of the
    periods without PV as soon as the speeds exist, and those of one chunk
    of a PV shape's periods while this thread draws the next chunk. Hits
    are summed per period as integers, so the estimates and the
    generator's final state do not depend on the chunking.
    """
    if n_samples < MIN_MC_SAMPLES:
        raise ValueError(f"n_samples must be at least {MIN_MC_SAMPLES}")
    periods = [(pv, wt, e - r - 1e-12) for pv, wt, e, r
               in zip(pv_models, wt_models, expected_outputs, reserves)]
    speeds, pv_shapes, wind_only = {}, {}, []
    for t, (pv, wt, need) in enumerate(periods):
        if need <= 0:
            continue
        if wt is not None:
            speeds.setdefault(wt.u)
        if pv is not None:
            pv_shapes.setdefault((pv.lambda1, pv.lambda2), []).append(t)
        elif wt is not None:
            wind_only.append(t)
        # a period without units misses every positive need

    hits = [0 if need > 0 else n_samples for _, _, need in periods]
    with ThreadPoolExecutor(max_workers=1) as helper:
        for u in speeds:
            speeds[u] = rng.weibull(u, n_samples)
        counting = []
        if wind_only:
            counting.append((wind_only, helper.submit(
                _hits, [periods[t] for t in wind_only], speeds, 0, n_samples)))
        for (l1, l2), shape_periods in pv_shapes.items():
            group = [periods[t] for t in shape_periods]
            for lo in range(0, n_samples, MC_CHUNK):
                hi = min(lo + MC_CHUNK, n_samples)
                counting.append((shape_periods, helper.submit(
                    _hits, group, speeds, lo, hi, rng.beta(l1, l2, hi - lo))))
        for counted, job in counting:
            for t, count in zip(counted, job.result()):
                hits[t] += count

    out = []
    for count in hits:
        estimate = count / n_samples
        half_width = 1.96 * math.sqrt(
            max(estimate * (1 - estimate), 1e-12) / n_samples)
        out.append((estimate, half_width))
    return out
