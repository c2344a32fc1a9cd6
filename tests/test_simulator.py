"""Thinning engine, intensity paths, and the iterative embedding engine."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.stats import ks_2samp

import hawkesgauss as hg
from hawkesgauss.chaos import weighted_intensity_integral
from hawkesgauss import simulator
from hawkesgauss.errors import ParameterError, SimulationError, TruncationError
from hawkesgauss.experiments import replicate_innovations
from hawkesgauss.simulator import rng_for


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

    def test_rising_tabulated_kernel_simulates(self):
        # a bump: thinning bounds the intensity with the kernel's nonincreasing
        # majorant, so no envelope has to be supplied on any route
        k = hg.TabulatedKernel(0.5, (0.0, 0.4, 0.1))
        assert not k.is_nonincreasing
        p = hg.HawkesParams(k, hg.LinearLink(1.0))
        t_end = 4000.0
        s, _ = hg.simulate(hg.SimConfig(p, t_end, burn_in=20.0, seed=8))
        m = p.alpha_mu
        # the count's stationary variance is nu*t/(1-m)^3
        se = math.sqrt(1.0 / (1.0 - m) ** 3 / t_end)
        assert abs(len(s) / t_end - 1.0 / (1.0 - m)) <= 4.0 * se
        u = hg.TestFunction((0.0, 5.0), (1.0,))
        reps = replicate_innovations(p, u, 5.0, 0.0, 20, seed=3)
        assert np.all(np.isfinite(reps.delta))

    def test_envelope_violation_names_time(self):
        # a decreasing stand-in link lets the intensity rise between events,
        # past the dominating rate taken after each event: the envelope check
        # stops at the first candidate that exceeds it
        class DecreasingLink:
            phi0 = 2.0
            lipschitz = 1.0

            def __call__(self, x):
                return 2.0 * np.exp(-np.asarray(x, dtype=float))

        p = hg.HawkesParams(hg.ExponentialKernel(1.0, 0.5), DecreasingLink())
        with pytest.raises(SimulationError) as err:
            hg.simulate(hg.SimConfig(p, 50.0, seed=0))
        assert "exceeds dominating rate" in str(err.value)
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
            comp = weighted_intensity_integral(path, ind)
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
        assert rebuilt == path  # field by field; s_plus derives from the events
        assert (len(path.s_plus) > 0) == (kind == "exponential")

    def test_derived_s_plus_is_direct_sum(self):
        # the recursion over the events gives S(e_i+) = sum_{j<=i} h(0+) *
        # exp(-rate*(e_i - e_j))
        k = KERNELS["exponential"]
        p = hg.HawkesParams(k, hg.SaturatingExpLink(1.0, 3.0))
        _, path = hg.simulate(hg.SimConfig(p, 30.0, burn_in=5.0, seed=41))
        events = np.asarray(path.events)
        assert len(events) > 20
        direct = [k.jump * np.exp(-k.rate * (e - events[: i + 1])).sum()
                  for i, e in enumerate(events)]
        np.testing.assert_allclose(path.s_plus, direct, rtol=1e-12, atol=0)

    def test_config_validation(self):
        p = poisson_params()
        with pytest.raises(ParameterError):
            hg.SimConfig(p, t_end=0.0)
        with pytest.raises(ParameterError):
            hg.SimConfig(p, t_end=1.0, burn_in=-1.0)
        with pytest.raises(ParameterError):
            hg.SimConfig(p, t_end=1.0, seed=-1)
        # seeds and replication indices must be integers, not values int() rounds
        for bad in ({"seed": 1.5}, {"seed": math.nan}, {"replication": 1.5},
                    {"replication": math.nan}):
            with pytest.raises(ParameterError):
                hg.SimConfig(p, t_end=1.0, **bad)


class TestStreamLayout:
    """Candidate j of replication k reads uniforms 2j (waiting time
    -log1p(-U) / lam_bar) and 2j + 1 (acceptance) of rng_for(seed, k)."""

    SEED, REP, T_END = 21, 4, 60.0

    def layout_times(self, blocks):
        """Poisson(1) event times from uniforms read in blocks of the given
        sizes: every candidate is accepted, so they are the partial sums of
        the waiting times."""
        rng = rng_for(self.SEED, self.REP)
        u = np.concatenate([rng.random(n) for n in blocks])
        return np.cumsum(-np.log1p(-u[0::2]))

    def test_poisson_times_are_the_layout(self):
        stream, _ = hg.simulate(
            hg.SimConfig(poisson_params(), self.T_END, seed=self.SEED, replication=self.REP)
        )
        n = len(stream)
        assert n > 20
        # the candidates: n events, then the first one past t_end
        times = self.layout_times([2 * (n + 1)])
        np.testing.assert_allclose(stream.times, times[:n], rtol=1e-12, atol=0.0)
        assert times[n - 1] <= self.T_END < times[n]
        np.testing.assert_allclose(self.layout_times([7, 2 * n - 5]), times, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 - 1])
    def test_stream_keys_are_seed_sequence_keys(self, seed):
        # one spawn-key word below 2**32, two from there on
        ks = [0, 1, 8191, 8192, 2**32 - 1, 2**32, 2**40, 2**64 - 1]
        want = np.array([
            np.random.SeedSequence(entropy=seed, spawn_key=(k,)).generate_state(2, np.uint64)
            for k in ks
        ])
        got = simulator._stream_keys(seed, ks)
        assert got.dtype == np.uint64
        np.testing.assert_array_equal(got, want)
        empty = simulator._stream_keys(seed, [])
        assert empty.shape == (0, 2) and empty.dtype == np.uint64
        for k, key in zip(ks[:3], got):
            np.testing.assert_array_equal(rng_for(seed, k).bit_generator.state["state"]["key"], key)

    @pytest.mark.parametrize("seed,rep", [(21, 4), (0, 2**32), (2**64 - 1, 8191)])
    def test_shared_philox_reads_each_stream(self, seed, rep):
        read = simulator._stream_reader(seed, [3, rep])
        full = {k: rng_for(seed, k).random(300) for k in (3, rep)}
        # word offsets on and off a Philox block of 4, the key switching per row
        for words in (0, 2, 6, 10, 218):
            rows = np.empty((3, 40))
            read(rows, [1, 0, 1], words)
            for row, k in zip(rows, (rep, 3, rep)):
                np.testing.assert_array_equal(row, full[k][words:words + 40])

    @pytest.mark.parametrize("kind", sorted(KERNELS))
    def test_block_size_does_not_change_draws(self, kind, monkeypatch):
        p = hg.HawkesParams(KERNELS[kind], hg.SaturatingExpLink(1.0, 3.0))
        cfg = hg.SimConfig(p, 40.0, burn_in=5.0, seed=8, replication=3)
        ref, _ = hg.simulate(cfg)
        for block in (2, 6, 1000):
            monkeypatch.setattr(simulator, "_BLOCK", block)
            stream, _ = hg.simulate(cfg)
            assert stream.times == ref.times


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
        "kernel,expiry,last",
        [(hg.BoxKernel(1.0, 0.5), 2.0, 0.5), (hg.TabulatedKernel(0.1, (0.5, 0.3, 0.2)), 1.2, 0.2)],
        ids=["box", "tabulated"],
    )
    def test_right_limit_at_expiry(self, kernel, expiry, last):
        # the term of the event at 1 ends at the expiry: the left limit there
        # still holds its last value, the right limit no longer counts it
        path = hg.IntensityPath.build((1.0,), kernel, hg.LinearLink(1.0), 0.0, 10.0)
        assert path.excitation_before(expiry) == pytest.approx(last, rel=1e-12)
        assert path.excitation_after(expiry) == 0.0
        assert path.excitation_after(expiry + 1e-12) == 0.0
        ts = np.array([expiry])
        assert path._excitation_at(ts, "left")[0] == pytest.approx(last, rel=1e-12)
        assert path._excitation_at(ts, "right")[0] == 0.0

    @pytest.mark.parametrize("kind", KERNELS)
    @pytest.mark.parametrize(
        "events", [(), (1.0, 2.0, 2.5), "thinned"], ids=["empty", "three", "thinned"]
    )
    def test_many_times_match_one_at_a_time(self, kind, events):
        # the compensator reads S at many times at once: at, between and
        # after events, and at box expiries (2.5, 3.5, 4.0); the thinned
        # tabulated path gives windows of differing widths
        if events == "thinned":
            p = hg.HawkesParams(KERNELS["tabulated"], hg.LinearLink(1.0))
            events = hg.simulate(hg.SimConfig(p, 10.0, seed=7))[0].times
            assert len(events) > 20
        k = KERNELS[kind]
        path = hg.IntensityPath.build(events, k, hg.LinearLink(1.0), 0.0, 10.0)
        ts = np.union1d([0.5, 1.0, 1.7, 2.0, 2.5, 3.5, 3.9, 4.0, 9.0], events)
        left = [path.excitation_before(t) for t in ts]
        right = [path.excitation_after(t) for t in ts]
        np.testing.assert_allclose(path._excitation_at(ts, "left"), left, rtol=1e-15, atol=0)
        np.testing.assert_allclose(path._excitation_at(ts, "right"), right, rtol=1e-15, atol=0)

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

    def test_constructed_path_evaluates_as_built(self):
        # the constructor takes no excitation state: the path derives it
        args = ((0.3, 1.0, 1.4), KERNELS["exponential"], hg.LinearLink(1.0), 0.0, 2.0)
        path, built = hg.IntensityPath(*args), hg.IntensityPath.build(*args)
        u = hg.TestFunction((0.0, 1.2, 2.0), (1.0, -0.5))
        for t in (0.2, 1.0, 1.5, 2.0):
            assert hg.intensity_at(path, t) == hg.intensity_at(built, t)
            assert path.excitation_after(t) == built.excitation_after(t)
        assert weighted_intensity_integral(path, u) == weighted_intensity_integral(built, u)

    @pytest.mark.parametrize("kind", KERNELS)
    @pytest.mark.parametrize("made", ["simulated", "constructed", "empty"])
    def test_cached_arrays_read_only_and_equal_to_tuples(self, kind, made):
        # the evaluator and the compensator's cuts read the events and the
        # exponential state as arrays built once per path
        k = KERNELS[kind]
        if made == "simulated":
            path = hg.simulate(hg.SimConfig(hg.HawkesParams(k, hg.LinearLink(1.0)), 20.0,
                                            burn_in=3.0, seed=2))[1]
            assert len(path.events) > 10
        else:
            events = (0.3, 1.0, 1.4) if made == "constructed" else ()
            path = hg.IntensityPath(events, k, hg.LinearLink(1.0), 0.0, 2.0)
        for arr, values in ((path._event_array, path.events), (path._s_plus_array, path.s_plus)):
            assert arr.dtype == np.float64
            assert np.array_equal(arr, np.asarray(values, dtype=float))
            with pytest.raises(ValueError):
                arr[...] = 0.0
        assert path._event_array is path._event_array
        assert path._s_plus_array is path._s_plus_array
        assert len(path._s_plus_array) == (len(path.events) if kind == "exponential" else 0)

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

    def test_cap_checked_over_rising_kernel_majorant(self):
        # h(0+) = 0 rises to 1.6 at age 0.5: the post-event right limit of S
        # misses the peak, that of the nonincreasing majorant does not
        p = hg.HawkesParams(hg.TabulatedKernel(0.5, (0.0, 1.6, 0.0)), hg.LinearLink(1.0))
        with pytest.raises(TruncationError):
            hg.embedding_simulate(hg.SimConfig(p, 10.0, seed=0), 30, 6.0)

    def test_argument_validation(self):
        p = self.satexp_params()
        with pytest.raises(ParameterError):
            hg.embedding_simulate(hg.SimConfig(p, 10.0, seed=1), 0, 3.0)
        with pytest.raises(ParameterError):
            hg.embedding_simulate(hg.SimConfig(p, 10.0, seed=1), 2, 0.0)
        with pytest.raises(ParameterError):
            hg.embedding_simulate(hg.SimConfig(p, 10.0, seed=1), 2.5, 3.0)


class TestEmbeddingScale:
    """The embedding reads S through the shared evaluator, so its memory is
    linear in the field points, and it stops at its fixed point."""

    def test_memory_linear_in_field_points(self):
        # t_end 800 at z_cap 3 draws about 2 400 field points, whose n x n
        # float matrix alone would take 46 MB
        p = hg.HawkesParams(hg.ExponentialKernel(1.0, 0.5), hg.SaturatingExpLink(1.0, 2.5))
        tracemalloc.start()
        try:
            streams = hg.embedding_simulate(hg.SimConfig(p, 800.0, seed=3), 12, 3.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(streams) == 12 and len(streams[-1]) > 0
        assert peak < 20e6

    @pytest.mark.parametrize(
        "kernel",
        [hg.ExponentialKernel(1.0, 0.5), hg.TabulatedKernel(0.5, (0.0, 1.6, 0.0))],
        ids=["exponential", "rising-tabulated"],
    )
    def test_fixed_point_repeats(self, kernel):
        p = hg.HawkesParams(kernel, hg.SaturatingExpLink(1.0, 2.5))
        reached = 0
        for seed in range(10):
            streams = hg.embedding_simulate(hg.SimConfig(p, 30.0, burn_in=3.0, seed=seed), 12, 4.0)
            assert len(streams) == 12
            times = [s.times for s in streams]
            first = next((i for i in range(1, 12) if times[i] == times[i - 1]), None)
            if first is not None:
                reached += 1
                assert all(t == times[first] for t in times[first:])
        assert reached >= 8


class TestBurnInDefault:
    def test_zero_without_excitation(self):
        assert hg.default_burn_in(poisson_params()) == 0.0

    def test_positive_and_scaled(self):
        p_fast = hg.HawkesParams(hg.ExponentialKernel(10.0, 0.5), hg.LinearLink(1.0))
        p_slow = hg.HawkesParams(hg.ExponentialKernel(0.1, 0.5), hg.LinearLink(1.0))
        assert 0.0 < hg.default_burn_in(p_fast) < hg.default_burn_in(p_slow)
        p_box = hg.HawkesParams(hg.BoxKernel(2.0, 0.5), hg.LinearLink(1.0))
        assert hg.default_burn_in(p_box) >= 2.0
