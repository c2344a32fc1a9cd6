"""Innovation computation: event sums, compensator integrals, rate estimates."""

import math

import pytest
from scipy.integrate import quad

import hawkesgauss as hg
from hawkesgauss.chaos import weighted_intensity_integral
from hawkesgauss.errors import ParameterError
from hawkesgauss.experiments import replicate_innovations


def poisson_path(events, nu=1.0, t_end=1.0):
    kernel = hg.ExponentialKernel(1.0, 0.0)
    path = hg.IntensityPath.build(events, kernel, hg.LinearLink(nu), 0.0, t_end)
    stream = hg.EventStream(events, (0.0, t_end))
    return stream, path


class TestFirstChaos:
    def test_unit_poisson_single_event(self):
        stream, path = poisson_path((0.5,))
        u = hg.TestFunction((0.0, 1.0), (1.0,))
        s = hg.first_chaos(stream, path, u)
        assert s.value == pytest.approx(0.0)
        assert s.event_sum == 1.0
        assert s.compensator == pytest.approx(1.0)
        assert s.quad_error == 0.0

    def test_empty_stream(self):
        stream, path = poisson_path(())
        u = hg.TestFunction((0.0, 1.0), (1.0,))
        assert hg.first_chaos(stream, path, u).value == pytest.approx(-1.0)

    def test_value_is_difference_exactly(self):
        p = hg.HawkesParams(hg.ExponentialKernel(1.0, 0.4), hg.LinearLink(1.0))
        stream, path = hg.simulate(hg.SimConfig(p, 20.0, seed=3))
        u = hg.TestFunction((0.0, 10.0, 20.0), (0.7, -0.2))
        s = hg.first_chaos(stream, path, u)
        assert s.value == s.event_sum - s.compensator

    def test_closed_form_matches_fine_simpson(self):
        # linear link + exponential kernel: per-segment closed form vs an
        # adaptive-quadrature oracle evaluated through intensity_at
        p = hg.HawkesParams(hg.ExponentialKernel(2.0, 0.5), hg.LinearLink(1.0))
        stream, path = hg.simulate(hg.SimConfig(p, 10.0, seed=11))
        u = hg.TestFunction((0.0, 10.0), (0.3,))
        val, err = weighted_intensity_integral(path, u)
        assert err == 0.0
        pts = sorted({0.0, 10.0, *(t for t in path.events if 0.0 < t < 10.0)})
        oracle = 0.0
        for a, b in zip(pts[:-1], pts[1:]):
            piece, _ = quad(
                lambda t: hg.intensity_at(path, t), a, b, limit=300, epsabs=1e-12
            )
            oracle += 0.3 * piece
        assert val == pytest.approx(oracle, abs=1e-8)

    def test_simpson_branch_matches_oracle(self):
        # nonlinear link forces the quadrature branch
        p = hg.HawkesParams(hg.ExponentialKernel(1.0, 0.5), hg.SaturatingExpLink(1.0, 3.0))
        stream, path = hg.simulate(hg.SimConfig(p, 10.0, seed=13))
        u = hg.TestFunction((0.0, 10.0), (1.0,))
        val, err = weighted_intensity_integral(path, u)
        assert err > 0.0
        pts = sorted({0.0, 10.0, *(t for t in path.events if 0.0 < t < 10.0)})
        oracle = sum(
            quad(lambda t: hg.intensity_at(path, t), a, b, limit=300, epsabs=1e-12)[0]
            for a, b in zip(pts[:-1], pts[1:])
        )
        assert val == pytest.approx(oracle, abs=1e-7)
        assert err < 1e-6

    @pytest.mark.parametrize(
        "link", [hg.LinearLink(1.0), hg.SaturatingExpLink(1.0, 3.0)], ids=["linear", "saturating"]
    )
    def test_tabulated_simpson_branch_matches_oracle(self, link):
        # a tabulated kernel always takes the Simpson grid; cut the oracle at
        # every event age on the kernel's grid (events and expiries included),
        # where the intensity jumps or kinks
        kernel = hg.TabulatedKernel(0.25, (0.6, 0.5, 0.4, 0.3, 0.3, 0.2, 0.1, 0.0))
        p = hg.HawkesParams(kernel, link)
        stream, path = hg.simulate(hg.SimConfig(p, 20.0, burn_in=1.0, seed=17))
        u = hg.TestFunction((0.0, 20.0), (1.0,))
        val, err = weighted_intensity_integral(path, u)
        assert err > 0.0
        knots = [t + k * kernel.step for t in path.events for k in range(len(kernel.values))]
        pts = sorted({0.0, 20.0} | {t for t in knots if 0.0 < t < 20.0})
        assert len(pts) > 200
        oracle = sum(
            quad(lambda t: hg.intensity_at(path, t), a, b, limit=300, epsabs=1e-12)[0]
            for a, b in zip(pts[:-1], pts[1:])
        )
        assert val == pytest.approx(oracle, abs=1e-7)
        assert err < 1e-6

    def test_box_kernel_exact_segments(self):
        p = hg.HawkesParams(hg.BoxKernel(1.0, 0.4), hg.LinearLink(1.0))
        stream, path = hg.simulate(hg.SimConfig(p, 8.0, seed=19))
        u = hg.TestFunction((0.0, 8.0), (1.0,))
        val, err = weighted_intensity_integral(path, u)
        assert err == 0.0
        pts = sorted(
            {0.0, 8.0}
            | {t for t in path.events if 0.0 < t < 8.0}
            | {t + 1.0 for t in path.events if 0.0 < t + 1.0 < 8.0}
        )
        oracle = sum(
            hg.intensity_at(path, 0.5 * (a + b)) * (b - a)
            for a, b in zip(pts[:-1], pts[1:])
        )
        assert val == pytest.approx(oracle, rel=1e-12)

    def test_support_outside_window(self):
        stream, path = poisson_path((0.5,))
        with pytest.raises(ParameterError):
            hg.first_chaos(stream, path, hg.TestFunction((0.0, 2.0), (1.0,)))

    def test_quadrature_error_flagged_not_fatal(self):
        p = hg.HawkesParams(hg.ExponentialKernel(1.0, 0.5), hg.SaturatingExpLink(1.0, 3.0))
        stream, path = hg.simulate(hg.SimConfig(p, 10.0, seed=13))
        u = hg.TestFunction((0.0, 10.0), (1.0,))
        with pytest.warns(UserWarning, match="quadrature error"):
            s = hg.first_chaos(stream, path, u, quad_tol=0.0)
        assert s.quad_error > 0.0  # value still returned

    def test_mean_zero_small(self):
        p = hg.HawkesParams(hg.ExponentialKernel(1.0, 0.3), hg.LinearLink(1.0))
        u = hg.unit_variance_indicator(1.0, 0.3, 30.0)
        reps = replicate_innovations(p, u, 30.0, 0.0, 600, seed=23)
        se = reps.delta.std(ddof=1) / math.sqrt(reps.delta.size)
        assert abs(reps.delta.mean()) < 4 * se

    def test_isometry_nonlinear(self):
        # Var(delta(u)) equals E int u^2 lambda dt, here estimated from the
        # same replications (independent of the unit-variance normalization)
        p = hg.HawkesParams(hg.ExponentialKernel(1.0, 0.4), hg.SaturatingExpLink(1.0, 3.0))
        u = hg.TestFunction((0.0, 20.0), (0.25,))
        reps = replicate_innovations(p, u, 20.0, 0.0, 800, seed=31, collect_moments=True)
        var = reps.delta.var(ddof=1)
        target = reps.u2_lambda.mean()
        # variance of a sample variance is ~ (kurtosis-adjusted) 2 var^2 / M
        tol = 5.0 * target * math.sqrt(2.0 / reps.delta.size) + 4 * reps.u2_lambda.std(
            ddof=1
        ) / math.sqrt(reps.delta.size)
        assert abs(var - target) < tol


class TestApproxFirstChaos:
    def test_default_rate_linear(self):
        p = hg.HawkesParams(hg.ExponentialKernel(1.0, 0.5), hg.LinearLink(1.0))
        stream, path = hg.simulate(hg.SimConfig(p, 10.0, seed=1))
        u = hg.TestFunction((0.0, 10.0), (1.0,))
        s = hg.approx_first_chaos(stream, u, p)
        assert s.lambda_hat == pytest.approx(2.0)

    def test_default_rate_nonlinear_midpoint(self):
        p = hg.HawkesParams(hg.ExponentialKernel(1.0, 0.5), hg.SaturatingExpLink(1.0, 3.0))
        stream, path = hg.simulate(hg.SimConfig(p, 10.0, seed=1))
        u = hg.TestFunction((0.0, 10.0), (1.0,))
        s = hg.approx_first_chaos(stream, u, p)
        assert s.lambda_hat == pytest.approx(1.5)  # midpoint of [1, 2]

    def test_empty_stream_value(self):
        stream, _ = poisson_path(())
        u = hg.TestFunction((0.0, 1.0), (1.0,))
        p = hg.HawkesParams(hg.ExponentialKernel(1.0, 0.5), hg.LinearLink(1.0))
        s = hg.approx_first_chaos(stream, u, p, lambda_hat=2.0)
        assert s.value == pytest.approx(-2.0)

    def test_bracket_enforced(self):
        stream, _ = poisson_path((0.5,))
        u = hg.TestFunction((0.0, 1.0), (1.0,))
        p = hg.HawkesParams(hg.ExponentialKernel(1.0, 0.5), hg.LinearLink(1.0))
        with pytest.raises(ParameterError):
            hg.approx_first_chaos(stream, u, p, lambda_hat=5.0)
        with pytest.warns(UserWarning):
            s = hg.approx_first_chaos(
                stream, u, p, lambda_hat=5.0, allow_out_of_bracket=True
            )
        assert s.lambda_hat == 5.0

    def test_monte_carlo_rate_lands_in_bracket(self):
        p = hg.HawkesParams(hg.ExponentialKernel(1.0, 0.5), hg.SaturatingExpLink(1.0, 3.0))
        s, _ = hg.simulate(hg.SimConfig(p, 4000.0, burn_in=30.0, seed=37))
        rate = len(s) / 4000.0
        low, high = hg.intensity_bracket(p)
        assert low <= rate <= high

    def test_pathwise_identity(self):
        # delta - delta_a = integral of u * (lambda_hat - lambda) path by path
        p = hg.HawkesParams(hg.ExponentialKernel(1.0, 0.4), hg.LinearLink(1.0))
        u = hg.TestFunction((0.0, 15.0), (0.5,))
        for rep in range(5):
            stream, path = hg.simulate(hg.SimConfig(p, 15.0, seed=41, replication=rep))
            s = hg.first_chaos(stream, path, u)
            sa = hg.approx_first_chaos(stream, u, p)
            assert s.value - sa.value == pytest.approx(
                sa.compensator - s.compensator, abs=1e-12
            )


class TestMomentIntegrals:
    def test_against_quadrature(self):
        p = hg.HawkesParams(hg.ExponentialKernel(1.0, 0.4), hg.LinearLink(1.0))
        stream, path = hg.simulate(hg.SimConfig(p, 10.0, seed=2))
        u = hg.TestFunction((0.0, 10.0), (0.8,))
        m2, m3 = hg.intensity_moment_integrals(path, u)
        pts = sorted({0.0, 10.0, *(t for t in path.events if 0.0 < t < 10.0)})
        o2 = sum(
            quad(lambda t: 0.64 * hg.intensity_at(path, t), a, b, limit=200)[0]
            for a, b in zip(pts[:-1], pts[1:])
        )
        o3 = sum(
            quad(lambda t: 0.512 * hg.intensity_at(path, t), a, b, limit=200)[0]
            for a, b in zip(pts[:-1], pts[1:])
        )
        assert m2 == pytest.approx(o2, rel=1e-9)
        assert m3 == pytest.approx(o3, rel=1e-9)
