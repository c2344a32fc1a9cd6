"""Innovation computation: event sums, compensator integrals, rate estimates."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import exp1

import hawkesgauss as hg
from hawkesgauss.chaos import (
    _EIN_FAR, _EIN_SWITCH, _SHORT, _T_FAR, _T_STEP, _affine_integrals, _closed_form_integrals,
    _ein, _tanh_integral, weighted_intensity_integral,
)
from hawkesgauss.errors import ParameterError
from hawkesgauss.experiments import replicate_innovations


def event_cut_oracle(path, lo, hi):
    """int lambda over (lo, hi] by adaptive quadrature through intensity_at,
    cut at the events, where the intensity jumps, and for a tabulated kernel
    also at each event plus grid age, where it kinks."""
    ages = [0.0]
    if isinstance(path.kernel, hg.TabulatedKernel):
        ages = [k * path.kernel.step for k in range(len(path.kernel.values))]
    pts = sorted({lo, hi, *(t + a for t in path.events for a in ages if lo < t + a < hi)})
    return sum(
        quad(lambda t: hg.intensity_at(path, t), a, b, limit=300, epsabs=1e-12)[0]
        for a, b in zip(pts[:-1], pts[1:])
    )


#: tabulated kernels, whose excitation is affine between cuts; on the steep
#: one an event's term falls by 1.4 over its first cell
TABULATED = hg.TabulatedKernel(0.25, (0.6, 0.5, 0.4, 0.3, 0.3, 0.2, 0.1, 0.0))
STEEP = hg.TabulatedKernel(0.25, (2.0, 0.6, 0.1, 0.0))


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
        val = weighted_intensity_integral(path, u)
        pts = sorted({0.0, 10.0, *(t for t in path.events if 0.0 < t < 10.0)})
        oracle = 0.0
        for a, b in zip(pts[:-1], pts[1:]):
            piece, _ = quad(
                lambda t: hg.intensity_at(path, t), a, b, limit=300, epsabs=1e-12
            )
            oracle += 0.3 * piece
        assert val == pytest.approx(oracle, abs=1e-8)

    def test_quadrature_branch_matches_oracle(self):
        # a tabulated kernel takes the affine branch
        p = hg.HawkesParams(TABULATED, hg.TanhLink(1.0, 2.0))
        stream, path = hg.simulate(hg.SimConfig(p, 10.0, seed=13))
        u = hg.TestFunction((0.0, 10.0), (1.0,))
        val = weighted_intensity_integral(path, u)
        assert val == pytest.approx(event_cut_oracle(path, 0.0, 10.0), abs=1e-10)

    @pytest.mark.parametrize("seed", [13, 14, 15])
    def test_saturating_closed_form_matches_oracle(self, seed):
        # saturating-exp link on an exponential kernel: closed form through Ein
        p = hg.HawkesParams(hg.ExponentialKernel(1.0, 0.5), hg.SaturatingExpLink(1.0, 3.0))
        stream, path = hg.simulate(hg.SimConfig(p, 10.0, seed=seed))
        u = hg.TestFunction((0.0, 10.0), (1.0,))
        val = weighted_intensity_integral(path, u)
        assert val == pytest.approx(event_cut_oracle(path, 0.0, 10.0), abs=1e-10)

    @pytest.mark.parametrize(
        "link, kernel, t_end",
        [
            (hg.LinearLink(1.0), TABULATED, 20.0),
            (hg.SaturatingExpLink(1.0, 3.0), TABULATED, 20.0),
            (hg.TanhLink(1.0, 0.5), TABULATED, 20.0),
            (hg.TanhLink(0.5, 0.3), TABULATED, 40.0),
            (hg.SaturatingExpLink(0.5, 0.9), TABULATED, 40.0),
            (hg.TanhLink(0.5, 0.3), STEEP, 100.0),
            (hg.SaturatingExpLink(0.5, 0.9), STEEP, 100.0),
        ],
        ids=["linear", "saturating", "tanh", "tanh-small-amplitude", "saturating-low-cap",
             "tanh-small-amplitude-steep", "saturating-low-cap-steep"],
    )
    def test_tabulated_quadrature_branch_matches_oracle(self, link, kernel, t_end):
        # a tabulated kernel always takes the affine branch, in closed form
        # for every link; cut the oracle at every event age on the kernel's
        # grid (events and expiries included), where the intensity jumps or
        # kinks.  The small amplitude, the low cap and the steep kernel bend
        # the link most within a piece; with nu = 0.5, and with the steep
        # kernel's shorter support, the paths run longer for as many pieces
        p = hg.HawkesParams(kernel, link)
        stream, path = hg.simulate(hg.SimConfig(p, t_end, burn_in=1.0, seed=17))
        u = hg.TestFunction((0.0, t_end), (1.0,))
        val = weighted_intensity_integral(path, u)
        knots = [t + k * kernel.step for t in path.events for k in range(len(kernel.values))]
        pts = sorted({0.0, t_end} | {t for t in knots if 0.0 < t < t_end})
        assert len(pts) > 200
        oracle = sum(
            quad(lambda t: hg.intensity_at(path, t), a, b, limit=300, epsabs=1e-12)[0]
            for a, b in zip(pts[:-1], pts[1:])
        )
        assert val == pytest.approx(oracle, rel=1e-12)

    @pytest.mark.parametrize(
        "link", [hg.LinearLink(1.0), hg.TanhLink(1.0, 0.5)], ids=["linear", "tanh"]
    )
    def test_tabulated_expiry_jump_matches_oracle(self, link):
        # the last grid value is nonzero, so each event's term drops to zero
        # at its expiry; w reaches into the burn-in, so events before its
        # support also cut it
        kernel = hg.TabulatedKernel(0.25, (0.6, 0.5, 0.4, 0.3, 0.3, 0.25, 0.2, 0.2))
        p = hg.HawkesParams(kernel, link)
        stream, path = hg.simulate(hg.SimConfig(p, 12.0, burn_in=2.0, seed=13))
        u = hg.TestFunction((-1.3, 0.7, 12.0), (0.4, 1.0))
        val = weighted_intensity_integral(path, u)
        knots = [t + k * kernel.step for t in path.events for k in range(len(kernel.values))]
        pts = sorted({-1.3, 0.7, 12.0} | {t for t in knots if -1.3 < t < 12.0})
        oracle = sum(
            u(0.5 * (a + b))
            * quad(lambda t: hg.intensity_at(path, t), a, b, limit=300, epsabs=1e-12)[0]
            for a, b in zip(pts[:-1], pts[1:])
        )
        assert val == pytest.approx(oracle, abs=1e-10)

    def test_box_kernel_exact_segments(self):
        p = hg.HawkesParams(hg.BoxKernel(1.0, 0.4), hg.LinearLink(1.0))
        stream, path = hg.simulate(hg.SimConfig(p, 8.0, seed=19))
        u = hg.TestFunction((0.0, 8.0), (1.0,))
        val = weighted_intensity_integral(path, u)
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

    @pytest.mark.parametrize("support", [(0.0, 30.0), (-50.0, 5.0)], ids=["after", "before"])
    def test_integrals_outside_simulated_window(self, support):
        # the path only knows its events on [t_start, t_end]; beyond it the
        # intensity is unknown, as intensity_at says
        p = hg.HawkesParams(hg.ExponentialKernel(1.0, 0.4), hg.LinearLink(1.0))
        _, path = hg.simulate(hg.SimConfig(p, 10.0, seed=3))
        w = hg.TestFunction(support, (1.0,))
        with pytest.raises(ParameterError):
            weighted_intensity_integral(path, w)
        with pytest.raises(ParameterError):
            hg.intensity_moment_integrals(path, w)

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


def tight_quad(f, a, b, points=None):
    val, _ = quad(f, a, b, points=points, epsabs=0.0, epsrel=1e-13, limit=500)
    return val


class TestSaturatingClosedForm:
    """The closed form Ein(c) - Ein(c e^{-rL}) stays finite and exact where
    its terms over- or underflow: c = s_a/(cap - nu) at 0, tiny or large (Ein
    from its table or as ln z + gamma at both ends), and rate * length tiny or
    huge."""

    LINK = hg.SaturatingExpLink(1.0, 3.0)

    def test_fast_kernel_long_quiet_segment(self):
        # c e^{-rL} underflows to 0, where Ein takes its series
        kernel = hg.ExponentialKernel(rate=100.0, mass=0.5)
        path = hg.IntensityPath.build((1.0,), kernel, self.LINK, 0.0, 30.0)
        u = hg.TestFunction((0.0, 30.0), (1.0,))
        val = weighted_intensity_integral(path, u)
        f = lambda t: hg.intensity_at(path, t)
        oracle = tight_quad(f, 0.0, 1.0) + tight_quad(f, 1.0, 30.0, points=[1.01, 1.05, 1.2, 2.0])
        assert math.isfinite(val)
        assert abs(val - oracle) <= 1e-12 * oracle

    def test_ein_matches_exp1(self):
        # scipy is a test-only oracle: Ein(z) = E1(z) + ln z + gamma above the
        # series, across the table's panels and on both sides of its end
        z = np.concatenate([
            np.linspace(_EIN_SWITCH, 40.0, 4_001), np.geomspace(_EIN_SWITCH, 1e4, 1_001),
            _EIN_FAR + np.array([-1e-9, -1e-15, 0.0, 1e-14, 1e-9]),
        ])
        ref = exp1(z) + np.log(z) + np.euler_gamma
        assert np.all(np.abs(_ein(z) - ref) <= 1e-14 * ref)

    # c = 2.7 sits where the Ein series cancels most before it hands over to
    # the table; from c = 3.5 up, c e^{-rL} >= 3 on the shorter long pieces, so
    # both Ein values come from the table or ln z + gamma, and their difference
    # cancels in ln c
    @pytest.mark.parametrize("c", [0.0, 1e-300, 1e-12, 1e-3, 1.0, 2.7, 3.5, 50.0, 1e4])
    # rl straddles the switch between the short-piece rule and the Ein
    # difference at rate * length = 0.1, where the differences cancel worst,
    # and the earlier switch at 1e-2
    @pytest.mark.parametrize(
        "rl", [1e-12, 1e-3, 0.0099, 0.0101, 0.02, 0.0999, 0.1001, 1.0, 800.0]
    )
    def test_piece_matches_quad(self, c, rl):
        # one piece (0, L] at rate 1 whose start excitation is c * (cap - nu):
        # an event at 0 of that jump, or for c = 0 no event before the piece
        s = self.LINK.cap - self.LINK.nu
        if c > 0.0:
            kernel = hg.ExponentialKernel(rate=1.0, mass=c * s)
            events = (0.0,)
        else:
            kernel = hg.ExponentialKernel(rate=1.0, mass=0.5)
            events = (rl,)
        path = hg.IntensityPath.build(events, kernel, self.LINK, -1.0, rl)
        u = hg.TestFunction((0.0, rl), (1.0,))
        val = weighted_intensity_integral(path, u)
        points = [p for p in (1.0, 2.0, 4.0, 8.0, 16.0, 40.0) if p < rl] or None
        oracle = tight_quad(lambda t: hg.intensity_at(path, t), 0.0, rl, points)
        assert abs(val - oracle) <= 1e-12 * oracle


class TestTanhClosedForm:
    """The tanh link on an exponential kernel integrates in closed form
    through T(z) = int_0^z tanh(t)/t dt: a table of T below _T_FAR, its
    asymptotic form above, and the 4-node rule on pieces shorter than
    _SHORT."""

    @pytest.mark.parametrize(
        "z",
        [0.0, 1e-8, 0.5 * _T_STEP, _T_STEP, 1.5 * _T_STEP, 1.0, 1.0 + 0.5 * _T_STEP, 2.0,
         _T_FAR - _T_STEP, _T_FAR - 1e-9, _T_FAR, _T_FAR + 1e-9, _T_FAR + 0.5, 30.0],
    )
    def test_tanh_integral_matches_quad(self, z):
        got = _tanh_integral(np.array([z]))[0]
        if z == 0.0:
            assert got == 0.0
            return
        oracle = tight_quad(lambda t: math.tanh(t) / t, 0.0, z)
        assert abs(got - oracle) <= 1e-13 * oracle

    @pytest.mark.parametrize("c", [0.0, 1e-6, 1e-3, 0.5, 3.0, 18.0, 19.0, 1e4])
    @pytest.mark.parametrize(
        "rl", [1e-6, 1e-3, 0.5 * _SHORT, 0.999 * _SHORT, 1.001 * _SHORT, 1.0, 30.0, 300.0]
    )
    def test_piece_matches_quad(self, c, rl):
        # one piece (0, L] at rate 1 from S(0+) = c * amplitude; c = 0 is the
        # empty past
        kernel = hg.ExponentialKernel(rate=1.0, mass=0.5)
        for amplitude in (0.3, 2.0, 7.0):
            link = hg.TanhLink(1.0, amplitude)
            s_a = c * amplitude
            val = _closed_form_integrals(kernel, link, np.array([s_a]), np.array([rl]))[0]
            points = [p for p in (1.0, 2.0, 4.0, 8.0, 16.0, 40.0) if p < rl] or None
            oracle = tight_quad(lambda x: link(s_a * math.exp(-x)), 0.0, rl, points)
            assert abs(val - oracle) <= 1e-12 * oracle, amplitude

    @pytest.mark.parametrize("seed", [13, 14, 15])
    def test_simulated_path_matches_oracle(self, seed):
        p = hg.HawkesParams(hg.ExponentialKernel(1.0, 0.5), hg.TanhLink(1.0, 2.0))
        stream, path = hg.simulate(hg.SimConfig(p, 10.0, seed=seed))
        u = hg.TestFunction((0.0, 10.0), (1.0,))
        val = weighted_intensity_integral(path, u)
        assert val == pytest.approx(event_cut_oracle(path, 0.0, 10.0), abs=1e-10)

    def test_fast_kernel_long_path_is_small_and_exact(self):
        # rate * length reaches hundreds per piece: neither the work nor the
        # memory of a piece may grow with it
        p = hg.HawkesParams(hg.ExponentialKernel(100.0, 0.5), hg.TanhLink(1.0, 2.0))
        _, path = hg.simulate(hg.SimConfig(p, 200.0, seed=1))
        u = hg.TestFunction((0.0, 200.0), (1.0,))
        tracemalloc.start()
        try:
            val = weighted_intensity_integral(path, u)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5e6
        oracle = event_cut_oracle(path, 0.0, 200.0)
        assert abs(val - oracle) <= 1e-12 * oracle


#: (y, d) of affine pieces: start S(a+)/s and signed change (S(b-) - S(a+))/s,
#: with d of both signs and 0, |d| on both sides of _SHORT, and y + d >= 0
AFFINE_PIECES = [
    (y, d)
    for y in (0.0, 1e-3, 0.5, 3.0, 20.0)
    for d in (0.0, 1e-6, 0.999 * _SHORT, 1.001 * _SHORT, 1.0, 5.0, 25.0)
    for d in sorted({d, -d})
    if y + d >= 0.0
]


class TestAffineClosedForm:
    """On a tabulated kernel S runs affinely over a piece, and both
    nonlinear links integrate it by a difference of their primitive over d,
    or by the 4-node rule when |d| < _SHORT."""

    LINKS = (
        hg.SaturatingExpLink(1.0, 3.0),
        hg.SaturatingExpLink(0.5, 0.9),
        hg.TanhLink(1.0, 2.0),
        hg.TanhLink(0.5, 0.3),
    )

    @pytest.mark.parametrize("y, d", AFFINE_PIECES)
    def test_piece_matches_quad(self, y, d):
        length = 0.7
        for link in self.LINKS:
            s = link.cap - link.nu if isinstance(link, hg.SaturatingExpLink) else link.amplitude
            s_a, s_b = y * s, (y + d) * s
            val = _affine_integrals(link, np.array([s_a]), np.array([s_b]), np.array([length]))[0]
            oracle = tight_quad(lambda t: link(s_a + (s_b - s_a) * t / length), 0.0, length)
            assert abs(val - oracle) <= 1e-12 * oracle, link


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
    @pytest.mark.parametrize(
        "kernel, link",
        [
            (hg.ExponentialKernel(1.0, 0.4), hg.LinearLink(1.0)),
            (hg.ExponentialKernel(1.0, 0.4), hg.SaturatingExpLink(1.0, 3.0)),
            (hg.ExponentialKernel(1.0, 0.4), hg.TanhLink(1.0, 2.0)),
            (hg.BoxKernel(1.0, 0.4), hg.SaturatingExpLink(1.0, 3.0)),
        ],
        ids=["linear-exp", "saturating-exp", "tanh-exp", "saturating-box"],
    )
    def test_one_pass_equals_two_integrals(self, kernel, link):
        # the moments share one set of piece integrals; they must equal the
        # integrals of u^2 and |u|^3 taken on their own
        p = hg.HawkesParams(kernel, link)
        stream, path = hg.simulate(hg.SimConfig(p, 12.0, burn_in=2.0, seed=43))
        u = hg.TestFunction((0.0, 2.5, 4.0, 7.0, 12.0), (0.8, -1.5, 0.0, -0.3))
        m2, m3 = hg.intensity_moment_integrals(path, u)
        assert m2 == pytest.approx(weighted_intensity_integral(path, u.squared()), abs=1e-12)
        assert m3 == pytest.approx(
            weighted_intensity_integral(path, u.abs_power(3.0)), abs=1e-12
        )

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
