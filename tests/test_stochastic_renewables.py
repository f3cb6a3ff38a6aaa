import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from iesgame import prob_sequences as ps
from iesgame.config import load_scenario
from iesgame.stochastic_renewables import (BetaPvModel, OutputDistribution,
                                           WeibullWtModel,
                                           point_mass_distribution,
                                           pv_output_distribution, sample_pv,
                                           sample_wt, wt_output_distribution,
                                           wt_power_curve)

WT = WeibullWtModel(z=8.0, u=2.0, v_in=3.0, v_e=12.0, v_out=25.0, p_e=2.0)
BENCH_INPUTS = Path(__file__).resolve().parents[1] / "bench" / "inputs"


def reference_wt_power(m, v):
    """The turbine curve for one speed in plain Python, in the program's
    order of operations: (v - v_in) / (v_e - v_in), clipped, times p_e."""
    if v >= m.v_out:
        return 0.0
    return min(max((v - m.v_in) / (m.v_e - m.v_in), 0.0), 1.0) * m.p_e


class TestPvDensity:
    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            BetaPvModel(0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            BetaPvModel(1.0, 1.0, 0.0)


class TestPowerCurve:
    def test_below_cut_in(self):
        assert wt_power_curve(WT, WT.v_in / 2) == 0.0

    def test_rated_plateau_boundary(self):
        assert wt_power_curve(WT, WT.v_e) == WT.p_e

    def test_ramp_midpoint(self):
        # (7.5 - 3) / (12 - 3) * 2
        assert wt_power_curve(WT, 7.5) == pytest.approx(1.0)

    def test_beyond_cut_out(self):
        assert wt_power_curve(WT, WT.v_out) == 0.0
        assert wt_power_curve(WT, 40.0) == 0.0

    @given(st.floats(0.0, 24.999), st.floats(0.0, 24.999))
    def test_monotone_below_cut_out(self, v1, v2):
        lo, hi = sorted((v1, v2))
        assert wt_power_curve(WT, lo) <= wt_power_curve(WT, hi) + 1e-12

    def test_into_callers_buffer(self):
        # a caller's buffer, or the speeds themselves, receive the bits of
        # the allocating call; scalars and the negative-speed refusal stay
        speeds = np.random.default_rng(24).weibull(WT.u, 10_000) * WT.z
        speeds[:6] = [0.0, WT.v_in, 7.5, WT.v_e, WT.v_out, 30.0]
        want = wt_power_curve(WT, speeds)
        out = np.full_like(speeds, np.nan)
        assert wt_power_curve(WT, speeds, out=out) is out
        assert out.tobytes() == want.tobytes()
        v = speeds.copy()
        assert wt_power_curve(WT, v, out=v) is v
        assert v.tobytes() == want.tobytes()
        for speed in speeds[:6].tolist():
            got = wt_power_curve(WT, speed)
            assert type(got) is float and got == reference_wt_power(WT, speed)
        for bad in (-0.5, np.array([1.0, -0.5])):
            with pytest.raises(ValueError, match="nonnegative"):
                wt_power_curve(WT, bad, out=np.empty(np.size(bad)))
            with pytest.raises(ValueError, match="nonnegative"):
                wt_power_curve(WT, bad)

    def test_speed_ordering_enforced(self):
        with pytest.raises(ValueError):
            WeibullWtModel(8.0, 2.0, 12.0, 3.0, 25.0, 2.0)


class TestWtDistribution:
    def test_mass_at_zero_derived(self):
        dist = wt_output_distribution(WT)
        expected = (1.0 - math.exp(-((3 / 8) ** 2))) + math.exp(-((25 / 8) ** 2))
        assert dist.point_masses[0] == (0.0, pytest.approx(expected))
        assert expected == pytest.approx(0.13124, abs=1e-4)

    def test_total_mass_is_one(self):
        for model in (WT, WeibullWtModel(10.0, 1.8, 2.5, 11.0, 22.0, 0.3)):
            assert wt_output_distribution(model).total_mass() == pytest.approx(
                1.0, abs=1e-6)

    def test_no_cut_limits(self):
        wide = WeibullWtModel(8.0, 2.0, 1e-6, 12.0, 1e3, 2.0)
        dist = wt_output_distribution(wide)
        assert dist.point_masses[0][1] == pytest.approx(0.0, abs=1e-6)

    def test_rated_mass(self):
        dist = wt_output_distribution(WT)
        expected = WT.speed_cdf(25.0) - WT.speed_cdf(12.0)
        assert dist.point_masses[1] == (WT.p_e, pytest.approx(expected))

    def test_point_mass_distribution(self):
        dist = point_mass_distribution(0.0)
        assert dist.total_mass() == 1.0
        assert dist.cdf(0.0) == 1.0


class TestSampling:
    def test_uniform_beta_mean(self):
        model = BetaPvModel(1.0, 1.0, 4.0)
        draws = sample_pv(model, np.random.default_rng(11), size=100_000)
        assert draws.mean() == pytest.approx(2.0, abs=0.04)

    def test_wt_zero_fraction(self):
        dist = wt_output_distribution(WT)
        draws = sample_wt(WT, np.random.default_rng(12), size=100_000)
        assert np.mean(draws == 0.0) == pytest.approx(dist.point_masses[0][1],
                                                      abs=0.01)

    def test_seed_determinism(self):
        a = sample_wt(WT, np.random.default_rng(5), size=1000)
        b = sample_wt(WT, np.random.default_rng(5), size=1000)
        assert np.array_equal(a, b)
        c = sample_pv(BetaPvModel(2.0, 2.0, 1.0), np.random.default_rng(5),
                      size=1000)
        d = sample_pv(BetaPvModel(2.0, 2.0, 1.0), np.random.default_rng(5),
                      size=1000)
        assert np.array_equal(c, d)

    def test_beta_ks_distance(self):
        model = BetaPvModel(2.06, 2.5, 0.3)
        draws = sample_pv(model, np.random.default_rng(21), size=100_000)
        result = stats.kstest(draws / model.p_max,
                              stats.beta(model.lambda1, model.lambda2).cdf)
        assert result.statistic < 0.01

    def test_wt_ks_distance(self):
        # sup |empirical - analytic| over a grid; one-sided empirical limits
        # pair with the matching one-sided analytic limits at the atoms
        dist = wt_output_distribution(WT)
        atom = dict(dist.point_masses)
        draws = np.sort(sample_wt(WT, np.random.default_rng(22), size=100_000))
        grid = np.unique(np.concatenate([np.linspace(0, WT.p_e, 801),
                                         [0.0, WT.p_e]]))
        emp_hi = np.searchsorted(draws, grid, side="right") / draws.size
        emp_lo = np.searchsorted(draws, grid, side="left") / draws.size
        ana = np.array([dist.cdf(x) for x in grid])
        ana_left = np.array([dist.cdf(x) - atom.get(x, 0.0) for x in grid])
        ks = max(float(np.max(np.abs(emp_hi - ana))),
                 float(np.max(np.abs(emp_lo - ana_left))))
        assert ks < 0.01

    def test_wt_matches_power_curve(self):
        draws = sample_wt(WT, np.random.default_rng(23), size=100_000)
        speeds = np.random.default_rng(23).weibull(WT.u, size=100_000) * WT.z
        curve = np.array([reference_wt_power(WT, v) for v in speeds.tolist()])
        assert np.array_equal(draws, curve)
        for v in speeds[:20].tolist():  # the scalar path returns a float
            out = wt_power_curve(WT, v)
            assert type(out) is float and out == reference_wt_power(WT, v)

    def test_wt_at_curve_corners(self):
        # v_in, v_e and v_out over z = 8 are exact, so the sampler sees
        # exactly these speeds
        speeds = np.array([0.0, WT.v_in, 7.5, WT.v_e, WT.v_out, 30.0])

        class FixedSpeeds:
            def weibull(self, u, size=None):
                return speeds / WT.z

        draws = sample_wt(WT, FixedSpeeds(), size=speeds.size)
        assert draws.tolist() == [0.0, 0.0, 1.0, WT.p_e, 0.0, 0.0]
        assert draws.tolist() == [wt_power_curve(WT, v) for v in speeds]

    def test_scaled_models(self):
        assert BetaPvModel(2.0, 2.0, 1.0).scaled(0.0) is None
        scaled = WT.scaled(1.2)
        assert scaled.z == pytest.approx(9.6)
        with pytest.raises(ValueError):
            WT.scaled(0.0)


@pytest.mark.parametrize("case", ["case1_like", "case2_real", "toy3"])
def test_pv_cdf_equals_frozen_beta_on_discretize_edges(case):
    cfg = load_scenario(BENCH_INPUTS / f"{case}.json")
    checked = 0
    for t in range(cfg.horizon):
        model = cfg.pv_model_for(t)
        if model is None:
            continue
        dist = pv_output_distribution(model)
        edges = []

        def recording_cdf(x, cdf=dist.cont_cdf):
            edges.append(x)
            return cdf(x)
        ps.discretize(OutputDistribution(dist.support_max, (), recording_cdf),
                      cfg.seq_step_mw)
        [edges] = edges  # one call per law
        frozen = stats.beta(model.lambda1, model.lambda2)
        assert np.array_equal(dist.cont_cdf(edges),
                              frozen.cdf(edges / model.p_max))
        checked += edges.size
    assert (checked > 0) == (case != "toy3")  # toy3 has no PV unit


@pytest.mark.parametrize("case", ["case1_like", "case2_real", "toy3"])
def test_wt_cdf_equals_scalar_speed_cdf(case):
    # each entry of the array law is speed_cdf(v) - f_in at the ramp's
    # speed, clamped to [0, p_e]: the floats the scalar formula gives
    cfg = load_scenario(BENCH_INPUTS / f"{case}.json")
    checked = 0
    for t in range(cfg.horizon):
        model = cfg.wt_model_for(t)
        if model is None:
            continue
        f_in = model.speed_cdf(model.v_in)
        ramp = model.v_e - model.v_in
        q = cfg.seq_step_mw
        centers = np.arange(math.ceil(model.p_e / q) + 1) * q
        x = np.concatenate([centers - q / 2, centers + q / 2,
                            np.linspace(-0.1, 1.1, 1201) * model.p_e])
        expected = [model.speed_cdf(
            model.v_in + (min(max(v, 0.0), model.p_e) / model.p_e) * ramp)
            - f_in for v in x.tolist()]
        assert wt_output_distribution(model).cont_cdf(x).tolist() == expected
        checked += x.size
    assert checked > 0
