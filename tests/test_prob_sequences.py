import math
import sys
import threading
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


def full_draw_reference(pv, wt, expected_output, reserve, n, rng):
    """One period's chance_satisfaction_mc from draws of its own: every
    sample's wind output from sample_wt, then its PV output from sample_pv."""
    need = expected_output - reserve - 1e-12
    if need <= 0:
        hits = 1.0
    else:
        wind = 0.0 if wt is None else sr.sample_wt(wt, rng, size=n)
        pv_out = 0.0 if pv is None else sr.sample_pv(pv, rng, size=n)
        hits = float(np.mean(wind + pv_out >= need))
    return hits, 1.96 * math.sqrt(max(hits * (1 - hits), 1e-12) / n)


def serial_reference(pvs, wts, expected_outputs, reserves, n, rng):
    """chance_satisfaction_mc on one thread from single draws of n: the
    speeds per Weibull shape in order of first use, then the fractions per
    PV shape, and every period counted over all n samples at once."""
    periods = [(pv, wt, e - r - 1e-12) for pv, wt, e, r
               in zip(pvs, wts, expected_outputs, reserves)]
    sampled = [(pv, wt) for pv, wt, need in periods if need > 0]
    speeds = {wt.u: None for _, wt in sampled if wt is not None}
    fractions = {(pv.lambda1, pv.lambda2): None
                 for pv, _ in sampled if pv is not None}
    for u in speeds:
        speeds[u] = rng.weibull(u, n)
    for l1, l2 in fractions:
        fractions[l1, l2] = rng.beta(l1, l2, n)
    out = []
    for pv, wt, need in periods:
        if need <= 0:
            hits = 1.0
        else:
            joint = np.zeros(n) if wt is None else sr.wt_power_curve(
                wt, speeds[wt.u] * wt.z)
            if pv is not None:
                joint += fractions[pv.lambda1, pv.lambda2] * pv.p_max
            hits = int(np.count_nonzero(joint >= need)) / n
        out.append((hits, 1.96 * math.sqrt(max(hits * (1 - hits), 1e-12) / n)))
    return out


def day_mc(pvs, wts, expected_outputs, reserves, n, rng):
    """chance_satisfaction_mc on the draws `mc_draws` makes from `rng` for
    every period's models, as `solve_engine.reserve_draws` makes them."""
    return ps.chance_satisfaction_mc(pvs, wts, expected_outputs, reserves, n,
                                     ps.mc_draws(pvs, wts, n, rng))


def one_period_mc(pv, wt, expected_output, reserve, n, rng):
    """chance_satisfaction_mc on a day of one period."""
    [got] = day_mc([pv], [wt], [expected_output], [reserve], n, rng)
    return got


def day_args(cfg):
    """Per-period models, expectations and minimum reserves of a scenario."""
    periods = range(cfg.horizon)
    reqs = cfg.reserve_requirements()
    return ([cfg.pv_model_for(t) for t in periods],
            [cfg.wt_model_for(t) for t in periods],
            [reqs[t].thresholds[0] for t in periods],
            [reqs[t].min_reserve() for t in periods])


def scalar_discretize(dist: OutputDistribution, q: float) -> np.ndarray:
    """discretize as a loop over the cells, taking the continuous mass of
    each from two scalar calls of its cdf, clamped to the support."""
    def cdf(x):
        return float(dist.cont_cdf(np.array([x]))[0])

    n = math.ceil(dist.support_max / q)
    probs = np.zeros(n + 1)
    for i in range(n + 1):
        lo = max(0.0 if i == 0 else i * q - q / 2, 0.0)
        hi = min(i * q + q / 2 if i < n else dist.support_max,
                 dist.support_max)
        if dist.cont_cdf is not None and hi > lo:
            probs[i] = cdf(hi) - cdf(lo)
    for loc, mass in dist.point_masses:
        probs[min(n, int(math.floor(loc / q + 0.5)))] += mass
    return probs


def uniform_dist(hi: float) -> OutputDistribution:
    return OutputDistribution(support_max=hi, point_masses=(),
                              cont_cdf=lambda x: np.clip(x, 0.0, hi) / hi)


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
        assert seq.probs.size == 4  # ceil(5.1/2.5) + 1

    @pytest.mark.parametrize("case", ["case1_like", "case2_real", "toy3"])
    def test_equals_scalar_cell_loop(self, case):
        # one cdf call on the array of edges gives the floats of one
        # scalar call per edge, cell by cell, on every period's laws
        cfg = load_scenario(BENCH_INPUTS / f"{case}.json")
        q = cfg.seq_step_mw
        checked = 0
        for t in range(cfg.horizon):
            pv, wt = cfg.pv_model_for(t), cfg.wt_model_for(t)
            dists = ([] if pv is None else [pv_output_distribution(pv)]) + \
                ([] if wt is None else [wt_output_distribution(wt)])
            for dist in dists:
                assert np.array_equal(ps.discretize(dist, q).probs,
                                      scalar_discretize(dist, q))
                checked += 1
        assert checked >= cfg.horizon


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
        assert req.min_reserve() == pytest.approx(req.thresholds[0])

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
    GUSTY = WeibullWtModel(20.0, 2.0, 3.0, 12.0, 25.0, 0.3)  # 21% cut-out
    CALM = WeibullWtModel(8.0, 3.0, 3.0, 12.0, 25.0, 0.3)
    HAZY = BetaPvModel(1.5, 3.0, 0.8)

    def mixed_day(self):
        """Two PV and two Weibull shapes over wind-only, PV-only and mixed
        periods, a covered period (need <= 0) and one without units."""
        pvs = [None, self.PV, self.HAZY, self.PV.scaled(0.5), None,
               self.HAZY.scaled(1.5), self.PV, None, None]
        wts = [self.CALM, self.WT, None, self.CALM.scaled(1.2), self.WT,
               self.WT, None, self.WT, None]
        es = [0.2, 0.6, 0.4, 0.5, 0.25, 0.9, 0.5, 0.6, 0.0]
        rs = [0.05, 0.2, 0.1, 0.15, 0.1, 0.2, 0.1, 3.0, -0.1]
        return pvs, wts, es, rs

    def test_sample_floor(self):
        with pytest.raises(ValueError):
            one_period_mc(self.PV, None, 0.5, 0.5, 100,
                          np.random.default_rng(0))

    def test_reserve_at_expectation_symmetric(self):
        est, _ = one_period_mc(self.PV, None, 0.5, 0.5, 50_000,
                               np.random.default_rng(1))
        assert est >= 0.5

    def test_huge_reserve(self):
        est, _ = one_period_mc(self.PV, self.WT, 0.6, 10.0, 10_000,
                               np.random.default_rng(2))
        assert est == 1.0

    def test_uniform_tail(self):
        # joint uniform on [0,5]: with E=2.5 and R=1.5, Pr[X >= 1] = 0.8
        uniform = BetaPvModel(1.0, 1.0, 5.0)
        est, hw = one_period_mc(uniform, None, 2.5, 1.5, 100_000,
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
        est, _ = one_period_mc(
            self.PV.scaled(0.3), self.WT, req.thresholds[0],
            req.min_reserve(), 100_000, np.random.default_rng(4))
        assert est >= conf - ps.MC_ALLOWANCE

    @pytest.mark.parametrize("reserve", [0.6, 0.6 + 1e-13, 3.0])
    def test_covered_period_draws_nothing(self, reserve):
        # a covered period reads no draw, so none need be given
        n = 20_000
        [got] = ps.chance_satisfaction_mc([self.PV], [self.WT], [0.6],
                                          [reserve], n, ({}, {}))
        assert got == (1.0, 1.96 * math.sqrt(1e-12 / n))

    def test_barely_short_reserve_is_sampled(self):
        # a reserve 1e-9 short of the expectation fails exactly the samples
        # at the zero-output atom: wind below cut-in or above cut-out
        est, _ = one_period_mc(None, self.WT, 0.6, 0.6 - 1e-9, 100_000,
                               np.random.default_rng(6))
        zero_mass = wt_output_distribution(self.WT).point_masses[0][1]
        assert est == pytest.approx(1 - zero_mass, abs=0.005)

    @pytest.mark.parametrize("case", ["case1_like", "case2_real", "toy3"])
    def test_night_period_draws_nothing(self, case):
        # the night periods' minimum reserves cover their whole expected
        # output, so a day of night periods is decided without a draw
        cfg = load_scenario(BENCH_INPUTS / f"{case}.json")
        pvs, wts, es, rs = day_args(cfg)
        night = [t for t in range(cfg.horizon) if pvs[t] is None]
        assert 0 in night
        got = ps.chance_satisfaction_mc(
            [None] * len(night), [wts[t] for t in night],
            [es[t] for t in night], [rs[t] for t in night], 50_000, ({}, {}))
        assert [est for est, _ in got] == [1.0] * len(night)

    def test_covered_day_draws_nothing(self):
        cfg = load_scenario(BENCH_INPUTS / "case2_real.json")
        pvs, wts, es, _ = day_args(cfg)
        got = ps.chance_satisfaction_mc(pvs, wts, es, [10.0 * e for e in es],
                                        50_000, ({}, {}))
        assert [est for est, _ in got] == [1.0] * cfg.horizon

    @pytest.mark.parametrize("case", ["case1_like", "case2_real"])
    @pytest.mark.parametrize("seed", [3, 17, 2024])
    def test_day_periods_equal_full_wind_draws(self, case, seed):
        # one call for the whole day, as validate_reserve makes it: each
        # sampled period equals its own full-draw route at the same seed
        cfg = load_scenario(BENCH_INPUTS / f"{case}.json")
        pvs, wts, es, rs = day_args(cfg)
        n = 100_000
        got = day_mc(pvs, wts, es, rs, n, np.random.default_rng(seed))
        assert len(got) == cfg.horizon
        for t in range(7, 18):
            ref = full_draw_reference(pvs[t], wts[t], es[t], rs[t], n,
                                      np.random.default_rng(seed))
            assert got[t] == ref
            assert 0 < got[t][0] < 1

    @pytest.mark.parametrize("case", ["case1_like", "case2_real"])
    def test_day_draws_one_set_of_samples(self, case):
        # a day with sampled periods costs one wind and one PV draw of n
        cfg = load_scenario(BENCH_INPUTS / f"{case}.json")
        n = 20_000
        rng, ref = np.random.default_rng(8), np.random.default_rng(8)
        day_mc(*day_args(cfg), n, rng)
        pv = cfg.pv.model
        ref.weibull(cfg.wt.model.u, n)
        ref.beta(pv.lambda1, pv.lambda2, n)
        assert rng.bit_generator.state == ref.bit_generator.state

    def test_one_draw_per_distinct_shape(self):
        # speeds per Weibull shape in order of first use, then fractions
        calm = WeibullWtModel(8.0, 3.0, 3.0, 12.0, 25.0, 0.3)
        wts = [self.WT, calm, self.WT.scaled(1.5), None]
        pvs = [self.PV, self.PV.scaled(0.5), None, self.PV]
        n = 20_000
        rng, ref = np.random.default_rng(9), np.random.default_rng(9)
        got = day_mc(pvs, wts, [0.6] * 4, [0.2] * 4, n, rng)
        speeds = {u: ref.weibull(u, n) for u in (self.WT.u, calm.u)}
        fractions = ref.beta(self.PV.lambda1, self.PV.lambda2, n)
        assert rng.bit_generator.state == ref.bit_generator.state
        for (est, _), pv, wt in zip(got, pvs, wts):
            wind = 0.0 if wt is None else sr.wt_power_curve(
                wt, speeds[wt.u] * wt.z)
            pv_out = 0.0 if pv is None else fractions * pv.p_max
            assert est == float(np.mean(wind + pv_out >= 0.4 - 1e-12))

    @pytest.mark.parametrize("n", [10_000, ps.MC_CHUNK, ps.MC_CHUNK + 1,
                                   100_003])
    def test_chunked_day_equals_serial_draws(self, n):
        # hits counted chunk by chunk give every estimate, and the draws
        # the final state, of single draws of n counted at once
        rng, ref = np.random.default_rng(10), np.random.default_rng(10)
        got = day_mc(*self.mixed_day(), n, rng)
        assert got == serial_reference(*self.mixed_day(), n, ref)
        assert rng.bit_generator.state == ref.bit_generator.state
        estimates = [est for est, _ in got]
        assert estimates[7:] == [1.0, 0.0]  # covered, then without units
        assert all(0 < est < 1 for est in estimates[:7])

    def test_no_thread_outlives_a_call(self):
        before = threading.active_count()
        day_mc(*self.mixed_day(), 50_000, np.random.default_rng(11))
        assert threading.active_count() == before

    def test_hits_counted_on_the_calling_thread(self, monkeypatch):
        # every chunk of every wind period is counted by the caller, which
        # starts no thread of its own
        callers = []

        def recording_curve(model, v, out=None):
            callers.append(threading.get_ident())
            return sr.wt_power_curve(model, v, out)
        monkeypatch.setattr(ps, "wt_power_curve", recording_curve)
        before = threading.active_count()
        n = 50_000
        got = day_mc(*self.mixed_day(), n, np.random.default_rng(12))
        assert got == serial_reference(*self.mixed_day(), n,
                                       np.random.default_rng(12))
        wind_periods = 5  # periods 0, 1, 3, 4 and 5; 7 is covered
        assert callers == [threading.get_ident()] * (
            wind_periods * math.ceil(n / ps.MC_CHUNK))
        assert threading.active_count() == before

    @pytest.mark.parametrize("n", [10_000, ps.MC_CHUNK + 1, 100_003])
    def test_prefetched_draws_equal_in_call_draws(self, n):
        # every shape of the day is one that a sampled period needs, so
        # draws made ahead from an equal seed equal the reference's own
        pvs, wts, es, rs = self.mixed_day()
        drawn = ps.mc_draws(pvs, wts, n, np.random.default_rng(14))
        got = ps.chance_satisfaction_mc(pvs, wts, es, rs, n, drawn)
        assert got == serial_reference(pvs, wts, es, rs, n,
                                       np.random.default_rng(14))

    @pytest.mark.parametrize("misfit", ["shape", "size"])
    def test_draws_that_misfit_are_refused(self, misfit):
        # draws without a shape that a sampled period uses, or of another
        # size, are refused: the call never draws in their place
        pvs, wts, es, rs = self.mixed_day()
        n = 50_000
        drawn = ps.mc_draws(pvs, wts, n if misfit == "shape" else n - 1,
                            np.random.default_rng(16))
        if misfit == "shape":
            del drawn[0][self.CALM.u]  # periods 0 and 3 are sampled
        message = "lack a shape" if misfit == "shape" else "50000 samples"
        with pytest.raises(ValueError, match=message):
            ps.chance_satisfaction_mc(pvs, wts, es, rs, n, drawn)

    def test_extra_shapes_are_read_past(self):
        # a wind shape that only a covered period uses is drawn with the
        # day's, as `reserve_draws` draws every period's shapes, and is
        # accepted but read by no period
        pvs, wts, es, rs = self.mixed_day()
        wts[7] = self.GUSTY  # period 7 is covered
        n = 50_000
        drawn = ps.mc_draws(pvs, wts, n, np.random.default_rng(17))
        got = ps.chance_satisfaction_mc(pvs, wts, es, rs, n, drawn)
        del drawn[0][self.GUSTY.u]
        assert got == ps.chance_satisfaction_mc(pvs, wts, es, rs, n, drawn)
        assert got[7][0] == 1.0

    def test_concurrent_calls_keep_their_own_counts(self):
        # four callers at once, switching threads every microsecond: no
        # count or draw leaks into another call
        n, seeds = 40_000, range(20, 24)
        got = {}

        def call(seed):
            got[seed] = day_mc(*self.mixed_day(), n,
                               np.random.default_rng(seed))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            callers = [threading.Thread(target=call, args=(s,))
                       for s in seeds]
            for caller in callers:
                caller.start()
            for caller in callers:
                caller.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(caller.is_alive() for caller in callers)
        for s in seeds:
            assert got[s] == serial_reference(*self.mixed_day(), n,
                                              np.random.default_rng(s))

    def test_helper_error_propagates(self, monkeypatch):
        def broken_curve(model, v, out=None):
            raise RuntimeError("power curve failed")
        monkeypatch.setattr(ps, "wt_power_curve", broken_curve)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="power curve failed"):
            day_mc(*self.mixed_day(), 50_000, np.random.default_rng(13))
        assert threading.active_count() == before

    @pytest.mark.parametrize("pv, wt, e, r, out_of_reach", [
        (PV, WT, 1.0, 0.5, False),            # need > p_e
        (PV.scaled(0.1), WT, 1.0, 0.5, True),  # need - p_max > p_e
        (PV, None, 0.5, 0.1, False),
        (None, WT, 0.2, 0.05, False),
        (PV, GUSTY, 0.5, 0.1, False),  # PV decides above cut-out too
    ], ids=["need_above_rated", "out_of_reach", "no_wind", "no_pv", "gusty"])
    @pytest.mark.parametrize("seed", [5, 6])
    def test_edge_cases_equal_full_wind_draws(self, pv, wt, e, r,
                                              out_of_reach, seed):
        n = 20_000
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        got = one_period_mc(pv, wt, e, r, n, rng)
        if out_of_reach:
            assert got[0] == 0.0
        else:
            assert 0 < got[0] < 1
        assert got == full_draw_reference(pv, wt, e, r, n, ref)
        assert rng.bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize("case", ["case1_like", "case2_real"])
    def test_same_law_as_full_draws(self, case):
        # period 12 leaves PV the widest range in which it decides a
        # sample; the reference draws PV first, on independent seeds
        cfg = load_scenario(BENCH_INPUTS / f"{case}.json")
        t, n, seeds = 12, 100_000, 20
        pv, wt = cfg.pv_model_for(t), cfg.wt_model_for(t)
        req = cfg.reserve_requirements()[t]
        e, r = req.thresholds[0], req.min_reserve()

        def full_draw(rng):
            joint = sr.sample_pv(pv, rng, size=n) + sr.sample_wt(wt, rng, size=n)
            return float(np.mean(r >= e - joint - 1e-12))

        shared = np.mean([one_period_mc(
            pv, wt, e, r, n, np.random.default_rng(s))[0]
            for s in range(seeds)])
        full = np.mean([full_draw(np.random.default_rng(1000 + s))
                        for s in range(seeds)])
        p = (shared + full) / 2
        std_err = math.sqrt(2 * p * (1 - p) / (n * seeds))
        assert 0.5 < p < 1
        assert abs(shared - full) <= 4 * std_err
