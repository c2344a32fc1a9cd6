"""Thinning engine, intensity paths, and the iterative embedding engine."""

import math

import numpy as np
import pytest
from scipy.stats import ks_2samp

import hawkesgauss as hg
from hawkesgauss.chaos import weighted_intensity_integral
from hawkesgauss.errors import ParameterError, SimulationError, TruncationError


def poisson_params(nu=1.0):
    return hg.HawkesParams(hg.ExponentialKernel(1.0, 0.0), hg.LinearLink(nu))


KERNELS = {
    "exponential": hg.ExponentialKernel(1.0, 0.5),
    "box": hg.BoxKernel(1.5, 0.6),
    "tabulated": hg.TabulatedKernel(0.5, (0.8, 0.5, 0.4, 0.1, 0.0)),
}


class TestSimulate:
    def test_deterministic_bytes(self):
        p = hg.HawkesParams(hg.ExponentialKernel(2.0, 0.5), hg.LinearLink(1.0))
        cfg = hg.SimConfig(p, t_end=200.0, burn_in=10.0, seed=123)
        a, _ = hg.simulate(cfg)
        b, _ = hg.simulate(cfg)
        assert a.serialize() == b.serialize()

    def test_replications_differ(self):
        p = poisson_params()
        a, _ = hg.simulate(hg.SimConfig(p, 100.0, seed=1, replication=0))
        b, _ = hg.simulate(hg.SimConfig(p, 100.0, seed=1, replication=1))
        assert a.times != b.times

    def test_poisson_reduction_quick(self):
        p = poisson_params()
        counts = np.array(
            [len(hg.simulate(hg.SimConfig(p, 500.0, seed=3, replication=r))[0]) for r in range(60)]
        )
        se = math.sqrt(500.0 / 60)
        assert abs(counts.mean() - 500.0) < 4 * se

    def test_stationary_rate_quick(self):
        p = hg.HawkesParams(hg.ExponentialKernel(2.0, 0.5), hg.LinearLink(1.0))
        s, _ = hg.simulate(hg.SimConfig(p, 4000.0, burn_in=50.0, seed=17))
        rate = len(s) / 4000.0
        se = math.sqrt(2.0 / 4000.0) / 0.5
        assert abs(rate - 2.0) < 4 * se

    def test_rate_bracket_nonlinear(self):
        p = hg.HawkesParams(hg.ExponentialKernel(1.0, 0.5), hg.SaturatingExpLink(1.0, 3.0))
        s, _ = hg.simulate(hg.SimConfig(p, 3000.0, burn_in=30.0, seed=29))
        rate = len(s) / 3000.0
        band = 3 * math.sqrt(2.0 / 3000.0) * 2
        assert 1.0 - band <= rate <= 2.0 + band

    def test_box_kernel_runs(self):
        p = hg.HawkesParams(hg.BoxKernel(1.0, 0.5), hg.LinearLink(1.0))
        s, path = hg.simulate(hg.SimConfig(p, 500.0, seed=5))
        assert len(s) > 500  # mean rate 2
        assert abs(len(s) / 500.0 - 2.0) < 0.5

    def test_tabulated_nonincreasing_runs(self):
        vals = tuple(0.3 * np.exp(-np.arange(0, 301) * 0.01))
        k = hg.TabulatedKernel(0.01, vals)
        p = hg.HawkesParams(k, hg.LinearLink(1.0))
        assert p.alpha_mu < 0.4
        s, _ = hg.simulate(hg.SimConfig(p, 200.0, seed=6))
        assert abs(len(s) / 200.0 - 1.0 / (1.0 - p.alpha_mu)) < 0.4

    def test_increasing_tabulated_needs_envelope(self):
        k = hg.TabulatedKernel(0.1, (0.0, 0.5, 0.0))  # bump, not nonincreasing
        p = hg.HawkesParams(k, hg.SaturatingExpLink(1.0, 2.0))
        cfg = hg.SimConfig(p, 50.0, seed=8)
        with pytest.raises(SimulationError):
            hg.simulate(cfg)
        # the saturating link is capped, so a constant envelope is valid
        s, _ = hg.simulate(cfg, dominating_rate=lambda s_plus: 2.0)
        assert len(s) > 0

    def test_dominating_rate_violation_names_time(self):
        # an envelope below the true intensity is caught at the first
        # candidate that exceeds it
        k = hg.TabulatedKernel(0.5, (0.0, 0.4, 0.1))
        p = hg.HawkesParams(k, hg.LinearLink(1.0))
        with pytest.raises(SimulationError) as err:
            hg.simulate(hg.SimConfig(p, 50.0, seed=0), dominating_rate=lambda s_plus: 1.05)
        assert err.value.time is not None
        assert 0.0 < err.value.time <= 50.0

    def test_events_in_window(self):
        p = hg.HawkesParams(hg.ExponentialKernel(1.0, 0.4), hg.LinearLink(1.0))
        s, path = hg.simulate(hg.SimConfig(p, 50.0, burn_in=20.0, seed=9))
        assert all(0.0 < t <= 50.0 for t in s.times)
        assert path.t_start == -20.0
        # burn-in events are kept on the path
        assert any(t <= 0.0 for t in path.events)

    def test_martingale_compensator(self):
        p = hg.HawkesParams(hg.ExponentialKernel(1.0, 0.5), hg.SaturatingExpLink(1.0, 3.0))
        ind = hg.TestFunction((0.0, 30.0), (1.0,))
        diffs = []
        for r in range(400):
            s, path = hg.simulate(hg.SimConfig(p, 30.0, seed=99, replication=r))
            comp, _ = weighted_intensity_integral(path, ind)
            diffs.append(len(s) - comp)
        diffs = np.array(diffs)
        se = diffs.std(ddof=1) / math.sqrt(len(diffs))
        assert abs(diffs.mean()) < 4 * se

    @pytest.mark.parametrize("kind", KERNELS)
    def test_build_reproduces_thinning_path(self, kind):
        # thinning records the excitation state as it accepts events; build
        # recomputes it from the events alone
        p = hg.HawkesParams(KERNELS[kind], hg.SaturatingExpLink(1.0, 3.0))
        _, path = hg.simulate(hg.SimConfig(p, 30.0, burn_in=5.0, seed=41))
        assert len(path.events) > 20
        rebuilt = hg.IntensityPath.build(path.events, p.kernel, p.link, path.t_start, path.t_end)
        assert rebuilt == path  # field by field, s_plus included
        assert (len(path.s_plus) > 0) == (kind == "exponential")

    def test_config_validation(self):
        p = poisson_params()
        with pytest.raises(ParameterError):
            hg.SimConfig(p, t_end=0.0)
        with pytest.raises(ParameterError):
            hg.SimConfig(p, t_end=1.0, burn_in=-1.0)
        with pytest.raises(ParameterError):
            hg.SimConfig(p, t_end=1.0, seed=-1)


class TestIntensityAt:
    def test_no_events(self):
        path = hg.IntensityPath.build((), hg.ExponentialKernel(2.0, 0.5), hg.LinearLink(1.5), 0.0, 10.0)
        assert hg.intensity_at(path, 5.0) == 1.5

    def test_single_event_closed_form(self):
        k = hg.ExponentialKernel(2.0, 0.5)
        path = hg.IntensityPath.build((0.0,), k, hg.LinearLink(1.0), -1.0, 10.0)
        t = 0.7
        assert hg.intensity_at(path, t) == pytest.approx(1.0 + 0.5 * 2.0 * math.exp(-2.0 * t))

    def test_left_limit_at_event(self):
        k = hg.ExponentialKernel(1.0, 0.5)
        path = hg.IntensityPath.build((1.0, 2.0), k, hg.LinearLink(1.0), 0.0, 10.0)
        # at t = 2.0 only the event at 1.0 counts
        assert hg.intensity_at(path, 2.0) == pytest.approx(1.0 + 0.5 * math.exp(-1.0))

    @pytest.mark.parametrize("kind", KERNELS)
    def test_left_and_right_limits(self, kind):
        k = KERNELS[kind]
        path = hg.IntensityPath.build((1.0, 2.0), k, hg.LinearLink(1.0), 0.0, 10.0)
        assert path.excitation_before(2.0) == pytest.approx(k(1.0), rel=1e-15)
        assert path.excitation_after(2.0) == pytest.approx(k(1.0) + k.jump, rel=1e-15)

    @pytest.mark.parametrize(
        "events", [(2.0, 1.0), (1.0, math.nan), (0.0, 1.0), (1.0, 10.5)],
        ids=["unsorted", "nan", "at-start", "after-end"],
    )
    def test_build_rejects_bad_events(self, events):
        k = hg.ExponentialKernel(1.0, 0.5)
        with pytest.raises(ParameterError):
            hg.IntensityPath.build(events, k, hg.LinearLink(1.0), 0.0, 10.0)

    def test_floor_at_phi0(self):
        p = hg.HawkesParams(hg.BoxKernel(0.5, 0.3), hg.TanhLink(1.2, 1.0))
        s, path = hg.simulate(hg.SimConfig(p, 100.0, seed=4))
        ts = np.linspace(0.01, 100.0, 997)
        vals = [hg.intensity_at(path, float(t)) for t in ts]
        assert min(vals) >= 1.2 - 1e-12

    def test_window_guard(self):
        path = hg.IntensityPath.build((), hg.ExponentialKernel(1.0, 0.1), hg.LinearLink(1.0), 0.0, 5.0)
        with pytest.raises(ParameterError):
            hg.intensity_at(path, 6.0)
        with pytest.raises(ParameterError):
            hg.intensity_at(path, -1.0)


class TestEmbedding:
    def satexp_params(self):
        return hg.HawkesParams(hg.ExponentialKernel(1.0, 0.5), hg.SaturatingExpLink(1.0, 2.5))

    def test_first_iterate_is_poisson_baseline(self):
        # lambda^(1) == phi(0), so counts over seeds match Poisson(phi0 * T)
        T, phi0 = 50.0, 1.0
        counts = np.array(
            [
                len(hg.embedding_simulate(hg.SimConfig(self.satexp_params(), T, seed=s), 1, 3.0)[0])
                for s in range(300)
            ]
        )
        se = math.sqrt(phi0 * T / 300)
        assert abs(counts.mean() - phi0 * T) < 4 * se

    def test_monotone_point_sets(self):
        streams = hg.embedding_simulate(hg.SimConfig(self.satexp_params(), 60.0, seed=2), 7, 3.0)
        sets = [set(s.times) for s in streams]
        for a, b in zip(sets[:-1], sets[1:]):
            assert a <= b

    def test_converges_on_most_seeds(self):
        same = 0
        for seed in range(40):
            streams = hg.embedding_simulate(
                hg.SimConfig(self.satexp_params(), 50.0, seed=seed), 7, 3.0
            )
            same += streams[-1].times == streams[-2].times
        assert same >= 30

    def test_distributional_match_with_thinning(self):
        p = self.satexp_params()
        c_embed, c_thin = [], []
        for seed in range(500):
            st = hg.embedding_simulate(hg.SimConfig(p, 40.0, seed=1000 + seed), 9, 3.0)[-1]
            c_embed.append(len(st))
            s, _ = hg.simulate(hg.SimConfig(p, 40.0, seed=9000 + seed))
            c_thin.append(len(s))
        assert ks_2samp(c_embed, c_thin).pvalue > 0.01

    def test_truncation_error(self):
        p = self.satexp_params()
        with pytest.raises(TruncationError) as err:
            hg.embedding_simulate(hg.SimConfig(p, 20.0, seed=1), 3, 0.9)
        assert err.value.exceedance is not None and err.value.exceedance > 0

    def test_argument_validation(self):
        p = self.satexp_params()
        with pytest.raises(ParameterError):
            hg.embedding_simulate(hg.SimConfig(p, 10.0, seed=1), 0, 3.0)
        with pytest.raises(ParameterError):
            hg.embedding_simulate(hg.SimConfig(p, 10.0, seed=1), 2, 0.0)


class TestBurnInDefault:
    def test_zero_without_excitation(self):
        assert hg.default_burn_in(poisson_params()) == 0.0

    def test_positive_and_scaled(self):
        p_fast = hg.HawkesParams(hg.ExponentialKernel(10.0, 0.5), hg.LinearLink(1.0))
        p_slow = hg.HawkesParams(hg.ExponentialKernel(0.1, 0.5), hg.LinearLink(1.0))
        assert 0.0 < hg.default_burn_in(p_fast) < hg.default_burn_in(p_slow)
        p_box = hg.HawkesParams(hg.BoxKernel(2.0, 0.5), hg.LinearLink(1.0))
        assert hg.default_burn_in(p_box) >= 2.0
