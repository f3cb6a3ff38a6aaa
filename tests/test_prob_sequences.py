import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iesgame import prob_sequences as ps
from iesgame import stochastic_renewables as sr
from iesgame.config import load_scenario
from iesgame.stochastic_renewables import (BetaPvModel, OutputDistribution,
                                           WeibullWtModel,
                                           point_mass_distribution,
                                           pv_output_distribution,
                                           wt_output_distribution)


BENCH_INPUTS = Path(__file__).resolve().parents[1] / "bench" / "inputs"


def uniform_dist(hi: float) -> OutputDistribution:
    return OutputDistribution(support_max=hi, point_masses=(),
                              cont_cdf=lambda x: min(max(x, 0.0), hi) / hi)


@st.composite
def sequences(draw, max_len=6):
    q = draw(st.floats(0.1, 5.0))
    n = draw(st.integers(1, max_len))
    weights = draw(st.lists(st.floats(0.01, 1.0), min_size=n, max_size=n))
    probs = np.array(weights) / sum(weights)
    return ps.ProbSequence(q, probs)


class TestDiscretize:
    def test_point_mass(self):
        seq = ps.discretize(point_mass_distribution(0.0), 1.0)
        assert np.array_equal(seq.probs, [1.0])

    def test_uniform_cells(self):
        # cell integrals of U[0,5] over [0,1.25), [1.25,3.75), [3.75,5]
        seq = ps.discretize(uniform_dist(5.0), 2.5)
        assert seq.probs == pytest.approx([0.25, 0.5, 0.25])

    def test_symmetric_beta_cells(self):
        # integral of 6x(1-x) over [0,.25), [.25,.75), [.75,1]
        seq = ps.discretize(pv_output_distribution(BetaPvModel(2, 2, 1.0)), 0.5)
        assert seq.probs == pytest.approx([0.15625, 0.6875, 0.15625], abs=1e-9)

    def test_degenerate_step_rejected(self):
        with pytest.raises(ValueError):
            ps.discretize(uniform_dist(2.0), 2.0)

    def test_wt_atoms_land_in_cells(self):
        model = WeibullWtModel(8.0, 2.0, 3.0, 12.0, 25.0, 2.0)
        dist = wt_output_distribution(model)
        seq = ps.discretize(dist, 0.25)
        assert seq.probs.sum() == pytest.approx(1.0, abs=1e-9)
        # the zero atom sits in cell 0, the rated atom in the last cell
        assert seq.probs[0] >= dist.point_masses[0][1]
        assert seq.probs[-1] >= dist.point_masses[1][1]

    def test_length_covers_support(self):
        seq = ps.discretize(uniform_dist(5.1), 2.5)
        assert len(seq) == 4  # ceil(5.1/2.5) + 1


class TestConvolve:
    def test_identity_element(self):
        b = ps.ProbSequence(1.0, [0.3, 0.7])
        out = ps.convolve(ps.ProbSequence(1.0, [1.0]), b)
        assert out.probs == pytest.approx(b.probs)

    def test_two_fair_coins(self):
        coin = ps.ProbSequence(1.0, [0.5, 0.5])
        assert ps.convolve(coin, coin).probs == pytest.approx([0.25, 0.5, 0.25])

    def test_zero_padded_point_mass(self):
        a = ps.ProbSequence(1.0, [0.25, 0.5, 0.25])
        b = ps.ProbSequence(1.0, [1.0, 0.0])
        assert ps.convolve(a, b).probs == pytest.approx([0.25, 0.5, 0.25, 0.0])

    def test_step_mismatch(self):
        with pytest.raises(ValueError):
            ps.convolve(ps.ProbSequence(1.0, [1.0]), ps.ProbSequence(2.0, [1.0]))

    @settings(max_examples=50, deadline=None)
    @given(sequences(), sequences())
    def test_commutative(self, a, b):
        b = ps.ProbSequence(a.q, b.probs)
        ab = ps.convolve(a, b).probs
        ba = ps.convolve(b, a).probs
        assert np.max(np.abs(ab - ba)) < 1e-12

    @settings(max_examples=50, deadline=None)
    @given(sequences(4), sequences(4), sequences(4))
    def test_associative(self, a, b, c):
        b = ps.ProbSequence(a.q, b.probs)
        c = ps.ProbSequence(a.q, c.probs)
        left = ps.convolve(ps.convolve(a, b), c).probs
        right = ps.convolve(a, ps.convolve(b, c)).probs
        assert np.max(np.abs(left - right)) < 1e-12

    @settings(max_examples=50, deadline=None)
    @given(sequences(), sequences())
    def test_expectation_linearity(self, a, b):
        b = ps.ProbSequence(a.q, b.probs)
        total = ps.expectation(ps.convolve(a, b))
        assert total == pytest.approx(ps.expectation(a) + ps.expectation(b),
                                      abs=1e-9)


class TestExpectation:
    def test_degenerate(self):
        assert ps.expectation(ps.ProbSequence(1.0, [1.0])) == 0.0

    def test_symmetric(self):
        assert ps.expectation(ps.ProbSequence(2.5, [0.25, 0.5, 0.25])) == \
            pytest.approx(2.5)

    def test_weighted(self):
        assert ps.expectation(ps.ProbSequence(1.0, [0.1, 0.2, 0.3, 0.4])) == \
            pytest.approx(2.0)


def brute_force_min_reserve(req: ps.ReserveRequirementRows) -> float:
    """Scan all candidate reserves: the levels' thresholds plus zero."""
    candidates = sorted(set(np.clip(req.thresholds, 0.0, None)) | {0.0})
    for r in candidates:
        covered = float(np.sum(req.level_probs[req.thresholds <= r + 1e-12]))
        if covered >= req.confidence - 1e-12:
            return r
    return float(req.thresholds[0])


class TestReserveRows:
    JOINT = ps.ProbSequence(2.5, [0.25, 0.5, 0.25])

    def test_min_reserve_at_090(self):
        # coverage 0.75 at R=0 fails, full coverage needs R = 2.5
        req = ps.reserve_rows(self.JOINT, 0.9)
        assert req.min_reserve() == pytest.approx(2.5)

    def test_vacuous_confidence(self):
        req = ps.reserve_rows(self.JOINT, 1e-9)
        assert req.min_reserve() == 0.0

    def test_full_confidence_covers_expectation(self):
        req = ps.reserve_rows(self.JOINT, 1.0 - 1e-12)
        assert req.min_reserve() == pytest.approx(req.expected_output)

    def test_thresholds_strictly_decreasing(self):
        req = ps.reserve_rows(self.JOINT, 0.9)
        assert np.all(np.diff(req.thresholds) < 0)
        assert req.level_probs.sum() == pytest.approx(1.0, abs=1e-9)

    @settings(max_examples=60, deadline=None)
    @given(sequences(8), st.floats(0.05, 0.999))
    def test_matches_brute_force(self, joint, conf):
        req = ps.reserve_rows(joint, conf)
        assert req.min_reserve() == pytest.approx(brute_force_min_reserve(req),
                                                  abs=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(sequences(8))
    def test_monotone_in_confidence(self, joint):
        reserves = [ps.reserve_rows(joint, g).min_reserve()
                    for g in (0.05, 0.25, 0.5, 0.75, 0.9, 0.99)]
        assert all(a <= b + 1e-12 for a, b in zip(reserves, reserves[1:]))


class TestChanceSatisfactionMc:
    PV = BetaPvModel(2.0, 2.0, 1.0)
    WT = WeibullWtModel(8.0, 2.2, 3.0, 12.0, 25.0, 0.3)

    def test_sample_floor(self):
        with pytest.raises(ValueError):
            ps.chance_satisfaction_mc(self.PV, None, 0.5, 0.5, 100,
                                      np.random.default_rng(0))

    def test_reserve_at_expectation_symmetric(self):
        est, _ = ps.chance_satisfaction_mc(self.PV, None, 0.5, 0.5, 50_000,
                                           np.random.default_rng(1))
        assert est >= 0.5

    def test_huge_reserve(self):
        est, _ = ps.chance_satisfaction_mc(self.PV, self.WT, 0.6, 10.0, 10_000,
                                           np.random.default_rng(2))
        assert est == 1.0

    def test_uniform_tail(self):
        # joint uniform on [0,5]: with E=2.5 and R=1.5, Pr[X >= 1] = 0.8
        uniform = BetaPvModel(1.0, 1.0, 5.0)
        est, hw = ps.chance_satisfaction_mc(uniform, None, 2.5, 1.5, 100_000,
                                            np.random.default_rng(3))
        assert est == pytest.approx(0.8, abs=0.01)
        assert 0 < hw < 0.005

    @pytest.mark.parametrize("conf", [0.85, 0.90, 0.95])
    def test_deterministic_equivalent_validates(self, conf):
        q = 0.01
        joint = ps.convolve(
            ps.discretize(pv_output_distribution(self.PV.scaled(0.3)), q),
            ps.discretize(wt_output_distribution(self.WT), q))
        req = ps.reserve_rows(joint, conf)
        est, _ = ps.chance_satisfaction_mc(
            self.PV.scaled(0.3), self.WT, req.expected_output,
            req.min_reserve(), 100_000, np.random.default_rng(4))
        assert est >= conf - 0.02

    @pytest.mark.parametrize("reserve", [0.6, 0.6 + 1e-13, 3.0])
    def test_covered_period_draws_nothing(self, reserve):
        rng = np.random.default_rng(5)
        before = rng.bit_generator.state
        n = 20_000
        est, hw = ps.chance_satisfaction_mc(self.PV, self.WT, 0.6, reserve, n,
                                            rng)
        assert (est, hw) == (1.0, 1.96 * math.sqrt(1e-12 / n))
        assert rng.bit_generator.state == before

    def test_barely_short_reserve_is_sampled(self):
        # a reserve 1e-9 short of the expectation fails exactly the samples
        # at the zero-output atom: wind below cut-in or above cut-out
        est, _ = ps.chance_satisfaction_mc(None, self.WT, 0.6, 0.6 - 1e-9,
                                           100_000, np.random.default_rng(6))
        zero_mass = wt_output_distribution(self.WT).point_masses[0][1]
        assert est == pytest.approx(1 - zero_mass, abs=0.005)

    @pytest.fixture
    def sampled(self, monkeypatch):
        """Record the size and output of every sampler call made through
        the module."""
        calls = {"pv": [], "wt": []}
        for key, name in (("pv", "sample_pv"), ("wt", "sample_wt")):
            real = getattr(sr, name)

            def spy(model, rng, size=None, real=real, key=key):
                out = real(model, rng, size=size)
                calls[key].append((size, out))
                return out
            monkeypatch.setattr(sr, name, spy)
        return calls

    @pytest.mark.parametrize("case", ["case1_like", "case2_real", None])
    def test_pv_drawn_only_where_it_decides(self, case, sampled):
        if case is None:
            # a shortfall of 0.2 MW is out of a 0.1 MW PV unit's reach
            # wherever wind gives less than 0.1 MW
            pv, wt, e, r = self.PV.scaled(0.1), self.WT, 0.3, 0.1
        else:
            cfg = load_scenario(BENCH_INPUTS / f"{case}.json")
            t = 12
            pv, wt = cfg.pv_model_for(t), cfg.wt_model_for(t)
            req = cfg.reserve_requirements()[t]
            e, r = req.expected_output, req.min_reserve()
        n = 50_000
        ps.chance_satisfaction_mc(pv, wt, e, r, n, np.random.default_rng(1))
        [(wt_size, wind)] = sampled["wt"]
        [(pv_size, _)] = sampled["pv"]
        need = e - r - 1e-12
        decided_by_pv = (wind < need) & (need <= wind + pv.p_max)
        assert wt_size == n
        assert 0 < pv_size == np.count_nonzero(decided_by_pv) < n

    @pytest.mark.parametrize("case", ["case1_like", "case2_real", "toy3"])
    def test_night_period_draws_nothing(self, case, sampled):
        cfg = load_scenario(BENCH_INPUTS / f"{case}.json")
        t = 0
        assert cfg.pv_model_for(t) is None
        req = cfg.reserve_requirements()[t]
        est, _ = ps.chance_satisfaction_mc(
            None, cfg.wt_model_for(t), req.expected_output, req.min_reserve(),
            50_000, np.random.default_rng(1))
        assert est == 1.0
        assert sampled == {"pv": [], "wt": []}

    @pytest.mark.parametrize("case", ["case1_like", "case2_real"])
    def test_same_law_as_full_draws(self, case):
        # period 12 leaves PV the widest band in which it decides a sample;
        # the reference draws PV for every sample, on independent seeds
        cfg = load_scenario(BENCH_INPUTS / f"{case}.json")
        t, n, seeds = 12, 100_000, 20
        pv, wt = cfg.pv_model_for(t), cfg.wt_model_for(t)
        req = cfg.reserve_requirements()[t]
        e, r = req.expected_output, req.min_reserve()

        def full_draw(rng):
            joint = sr.sample_pv(pv, rng, size=n) + sr.sample_wt(wt, rng, size=n)
            return float(np.mean(r >= e - joint - 1e-12))

        lazy = np.mean([ps.chance_satisfaction_mc(
            pv, wt, e, r, n, np.random.default_rng(s))[0]
            for s in range(seeds)])
        full = np.mean([full_draw(np.random.default_rng(1000 + s))
                        for s in range(seeds)])
        p = (lazy + full) / 2
        std_err = math.sqrt(2 * p * (1 - p) / (n * seeds))
        assert 0.5 < p < 1
        assert abs(lazy - full) <= 4 * std_err
