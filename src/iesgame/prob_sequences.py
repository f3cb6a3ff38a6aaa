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

from .stochastic_renewables import OutputDistribution

SUM_TOL = 1e-9
MIN_MC_SAMPLES = 10_000  # floor on chance_satisfaction_mc's n_samples


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

    def __len__(self) -> int:
        return int(self.probs.size)

    def levels(self) -> np.ndarray:
        return np.arange(self.probs.size) * self.q


def discretize(dist: OutputDistribution, q: float) -> ProbSequence:
    """Discretize a bounded mixed distribution onto the grid {0, q, ...}.

    Cell 0 integrates [0, q/2); interior cell i integrates
    [iq - q/2, iq + q/2); the last cell absorbs the remaining upper tail.
    Point masses land in the cell whose center is nearest (half-up).
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
    probs = np.zeros(n + 1)
    for i in range(n + 1):
        lo = 0.0 if i == 0 else i * q - q / 2
        hi = i * q + q / 2 if i < n else level_max
        probs[i] = dist.cont_mass(lo, hi)
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


def chance_satisfaction_mc(pv_model, wt_model, expected_output: float,
                           reserve: float, n_samples: int,
                           rng: np.random.Generator) -> tuple[float, float]:
    """Monte Carlo estimate of Pr[reserve >= expected_output - joint output].

    Either model may be None (unit absent that period). Returns the
    estimate and its 95% binomial half-width. Requires n_samples >= 1e4.

    A sample hits exactly when its joint output reaches
    need = expected_output - reserve - 1e-12, and only the draws that can
    decide that are made:
    - If need <= 0, every sample hits, because neither sampler returns a
      negative output. The estimate is exactly 1.0 and nothing is drawn.
    - Otherwise wind is drawn for every sample, and PV only for the
      samples with wind < need <= wind + p_max: elsewhere the wind draw
      alone already hits, or no PV output in [0, p_max] can make it hit.
      Each PV draw is iid and independent of its sample's wind draw, so
      drawing it only where it can flip the indicator leaves the law of
      every indicator, and so of the estimate, as it was with a PV draw
      for every sample.
    """
    from .stochastic_renewables import sample_pv, sample_wt

    if n_samples < MIN_MC_SAMPLES:
        raise ValueError(f"n_samples must be at least {MIN_MC_SAMPLES}")
    need = expected_output - reserve - 1e-12
    if need <= 0:
        hits = 1.0
    else:
        if wt_model is None:
            wind = np.zeros(n_samples)
        else:
            wind = sample_wt(wt_model, rng, size=n_samples)
        hit = wind >= need
        if pv_model is not None:
            pv_decides = ~hit & (wind + pv_model.p_max >= need)
            pv = sample_pv(pv_model, rng, size=int(np.count_nonzero(pv_decides)))
            hit[pv_decides] = wind[pv_decides] + pv >= need
        hits = float(np.mean(hit))
    half_width = 1.96 * math.sqrt(max(hits * (1 - hits), 1e-12) / n_samples)
    return hits, half_width
