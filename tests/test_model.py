"""Domain-type tests: kernels, links, step functions, streams."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import hawkesgauss as hg
from hawkesgauss.errors import ParameterError, StabilityError


class TestKernels:
    def test_zero_for_nonpositive_times(self):
        for k in (
            hg.ExponentialKernel(2.0, 0.5),
            hg.BoxKernel(1.5, 0.3),
            hg.TabulatedKernel(0.5, (1.0, 0.5, 0.0)),
        ):
            assert k(0.0) == 0.0
            assert k(-1.0) == 0.0
            assert k(1e-6) >= 0.0

    def test_l1_is_constructor_mass(self):
        assert hg.l1_norm(hg.ExponentialKernel(1.0, 0.5)) == 0.5
        assert hg.l1_norm(hg.BoxKernel(2.0, 0.3)) == 0.3

    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    @pytest.mark.parametrize(
        "kernel",
        [
            hg.ExponentialKernel(rate=1.7, mass=0.4),
            hg.ExponentialKernel(rate=0.5, mass=0.9),
            hg.BoxKernel(width=2.0, mass=0.3),
            hg.TabulatedKernel(0.01, tuple(np.exp(-np.arange(0, 2001) * 0.01))),
        ],
    )
    def test_l1_against_quadrature(self, kernel):
        end = kernel.support_end if math.isfinite(kernel.support_end) else 60.0
        val, _ = quad(lambda t: float(kernel(t)), 0.0, end, limit=400)
        assert hg.l1_norm(kernel) == pytest.approx(val, rel=1e-6)

    def test_tabulated_exp_l1(self):
        # e^{-t} sampled on [0, 20] at step 1e-3 integrates to 1
        step = 1e-3
        vals = np.exp(-np.arange(0, 20001) * step)
        k = hg.TabulatedKernel(step, tuple(vals))
        assert hg.l1_norm(k) == pytest.approx(1.0, abs=1e-6)

    def test_l2_closed_forms(self):
        assert hg.l2_norm(hg.ExponentialKernel(rate=2.0, mass=1.0)) == pytest.approx(1.0)
        assert hg.l2_norm(hg.BoxKernel(width=4.0, mass=1.0)) == pytest.approx(0.5)
        assert hg.l2_norm(hg.BoxKernel(width=1.0, mass=0.0)) == 0.0

    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    @pytest.mark.parametrize(
        "kernel",
        [
            hg.ExponentialKernel(rate=3.0, mass=0.7),
            hg.BoxKernel(width=0.8, mass=0.6),
            hg.TabulatedKernel(0.02, tuple(1.0 / (1.0 + np.arange(0, 301) * 0.02) ** 2)),
        ],
    )
    def test_l2_against_quadrature(self, kernel):
        end = kernel.support_end if math.isfinite(kernel.support_end) else 40.0
        val, _ = quad(lambda t: float(kernel(t)) ** 2, 0.0, end, limit=400)
        assert hg.l2_norm(kernel) == pytest.approx(math.sqrt(val), rel=1e-6)

    def test_monotonicity_detection(self):
        assert hg.TabulatedKernel(0.1, (1.0, 0.8, 0.8, 0.2)).is_nonincreasing
        assert not hg.TabulatedKernel(0.1, (0.2, 0.8, 0.1)).is_nonincreasing

    def test_tabulated_arrays_built_once_and_read_only(self):
        k = hg.TabulatedKernel(0.25, (0.6, 0.5, 0.4, 0.1))
        k(np.linspace(0.0, 1.0, 9))
        assert k._array is k._array and k._grid is k._grid
        np.testing.assert_array_equal(k._grid, [0.0, 0.25, 0.5, 0.75])
        for arr in (k._array, k._grid):
            with pytest.raises(ValueError):
                arr[0] = 1.0
        assert k(0.125) == pytest.approx(0.55)

    def test_validation(self):
        with pytest.raises(ParameterError):
            hg.ExponentialKernel(rate=0.0, mass=0.5)
        with pytest.raises(ParameterError):
            hg.ExponentialKernel(rate=1.0, mass=-0.1)
        with pytest.raises(ParameterError):
            hg.BoxKernel(width=-1.0, mass=0.5)
        with pytest.raises(ParameterError):
            hg.TabulatedKernel(0.1, (0.5, -0.1))
        with pytest.raises(ParameterError):
            hg.TabulatedKernel(0.1, (0.5,))


# every link rejects these as its base rate nu
BAD_NU = (0.0, -1.0, math.nan, math.inf)


class TestLinks:
    @pytest.mark.parametrize(
        "link",
        [
            hg.LinearLink(nu=1.5),
            hg.SaturatingExpLink(nu=1.0, cap=3.0),
            hg.TanhLink(nu=0.7, amplitude=2.0),
        ],
    )
    def test_phi0_exact(self, link):
        assert link(0.0) == link.phi0
        assert link.phi0 > 0

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        x=st.floats(min_value=0.0, max_value=50.0),
        dx=st.floats(min_value=1e-9, max_value=10.0),
    )
    def test_lipschitz_and_monotone(self, x, dx):
        # quotient over the represented spacing, with slack for the rounding
        # of the two outputs themselves
        actual_dx = (x + dx) - x
        for link in (
            hg.LinearLink(nu=1.0),
            hg.SaturatingExpLink(nu=1.0, cap=2.5),
            hg.TanhLink(nu=1.0, amplitude=1.3),
        ):
            lo, hi = link(x), link(x + dx)
            assert hi >= lo
            slack = 2.0 * math.ulp(max(abs(hi), abs(lo), 1.0))
            assert hi - lo <= link.lipschitz * actual_dx * (1 + 1e-12) + slack

    def test_saturating_exp_stays_below_cap(self):
        link = hg.SaturatingExpLink(nu=1.0, cap=3.0)
        xs = np.linspace(0, 100, 500)
        assert np.all(link(xs) <= 3.0)
        assert link(100.0) == pytest.approx(3.0, abs=1e-6)

    @pytest.mark.parametrize(
        "link, kwargs",
        [(hg.LinearLink, {"nu": nu}) for nu in BAD_NU]
        + [(hg.SaturatingExpLink, {"nu": nu, "cap": 5.0}) for nu in BAD_NU]
        + [(hg.TanhLink, {"nu": nu, "amplitude": 2.0}) for nu in BAD_NU]
        + [(hg.SaturatingExpLink, {"nu": 2.0, "cap": cap}) for cap in (1.0, 2.0, math.inf)]
        + [(hg.TanhLink, {"nu": 1.0, "amplitude": a}) for a in (0.0, -1.0, math.nan)],
        ids=lambda v: (
            v.__name__ if isinstance(v, type) else "-".join(f"{k}={x}" for k, x in v.items())
        ),
    )
    def test_validation(self, link, kwargs):
        with pytest.raises(ParameterError):
            link(**kwargs)


def _step_functions():
    widths = st.lists(st.floats(min_value=0.01, max_value=5.0), min_size=1, max_size=5)
    values = st.lists(st.floats(min_value=-3.0, max_value=3.0), min_size=1, max_size=5)
    start = st.floats(min_value=-10.0, max_value=10.0)

    @st.composite
    def build(draw):
        w = draw(widths)
        v = draw(values.filter(lambda vs: True))
        n = min(len(w), len(v))
        t0 = draw(start)
        bp = [t0]
        for width in w[:n]:
            bp.append(bp[-1] + width)
        return hg.TestFunction(tuple(bp), tuple(v[:n]))

    return build()


class TestTestFunction:
    def test_halfopen_evaluation(self):
        u = hg.TestFunction((0.0, 1.0, 2.0), (2.0, -1.0))
        assert u(0.0) == 0.0  # left endpoint excluded
        assert u(0.5) == 2.0
        assert u(1.0) == 2.0  # interval closed at the right
        assert u(1.5) == -1.0
        assert u(2.0) == -1.0
        assert u(2.5) == 0.0

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(u=_step_functions(), p=st.sampled_from([1.0, 2.0, 3.0, 4.0]))
    def test_lp_norm_against_quadrature(self, u, p):
        lo, hi = u.support
        val, _ = quad(
            lambda t: abs(float(u(t))) ** p, lo, hi,
            points=list(u.breakpoints), limit=200,
        )
        assert u.lp_norm(p) ** p == pytest.approx(val, abs=1e-10, rel=1e-10)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(u=_step_functions())
    def test_square_norm_identity(self, u):
        # ||u^2||_2 equals ||u||_4^2 exactly for step functions
        assert u.squared().lp_norm(2) == pytest.approx(u.lp_norm(4) ** 2, rel=1e-12)

    def test_integral_signed(self):
        u = hg.TestFunction((0.0, 1.0, 3.0), (1.0, -0.5))
        assert u.integral() == pytest.approx(0.0)

    def test_validation(self):
        with pytest.raises(ParameterError):
            hg.TestFunction((0.0, 0.0), (1.0,))
        with pytest.raises(ParameterError):
            hg.TestFunction((0.0, 1.0), (1.0, 2.0))
        with pytest.raises(ParameterError):
            hg.TestFunction((0.0, 1.0), ())
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ParameterError, match="must be finite"):
                hg.TestFunction((0.0, bad, 3.0), (1.0, 2.0))
            with pytest.raises(ParameterError, match="must be finite"):
                hg.TestFunction((0.0, 1.0, 3.0), (1.0, bad))
        for descending in ((1.0, 0.0), (0.0, 2.0, 1.0), (0.0, 1.0, 1.0)):
            with pytest.raises(ParameterError, match="strictly ascending"):
                hg.TestFunction(descending, (1.0,) * (len(descending) - 1))
        # the widest finite support: its width overflows to inf, but the
        # breakpoints themselves are finite and ascending
        wide = hg.TestFunction((-1e308, 1e308), (1.0,))
        assert wide.support == (-1e308, 1e308)
        u = hg.TestFunction((0.0, 1.0), (0.5,))
        for p in (0.5, math.inf, math.nan):
            with pytest.raises(ParameterError):
                u.lp_norm(p)
        assert u.lp_norm(1) == 0.5


class TestUnitVarianceIndicator:
    def test_degenerate_no_excitation(self):
        u = hg.unit_variance_indicator(1.0, 0.0, 1.0)
        assert u.breakpoints == (0.0, 1.0)
        assert u.values == (1.0,)
        assert u.lp_norm(2) ** 2 == pytest.approx(1.0)

    @pytest.mark.parametrize("phi0,am,ell", [(1.0, 0.1, 100.0), (2.5, 0.6, 7.0), (0.3, 0.45, 12.0)])
    def test_norm_targets(self, phi0, am, ell):
        u = hg.unit_variance_indicator(phi0, am, ell)
        assert u.lp_norm(2) ** 2 == pytest.approx((1 - am) / phi0, rel=1e-12)
        assert u.lp_norm(1) == pytest.approx(math.sqrt((1 - am) * ell / phi0), rel=1e-12)

    def test_level_value(self):
        u = hg.unit_variance_indicator(1.0, 0.1, 100.0)
        assert u.values[0] == pytest.approx(0.09487, abs=5e-6)

    def test_domain(self):
        with pytest.raises(ParameterError):
            hg.unit_variance_indicator(0.0, 0.1, 1.0)
        with pytest.raises(ParameterError):
            hg.unit_variance_indicator(1.0, 1.0, 1.0)
        with pytest.raises(ParameterError):
            hg.unit_variance_indicator(1.0, 0.1, 0.0)


class TestHawkesParams:
    def test_alpha_mu_product(self):
        p = hg.HawkesParams(hg.ExponentialKernel(1.0, 0.5), hg.LinearLink(1.0))
        assert p.alpha_mu == 0.5
        assert p.phi0 == 1.0
        assert p.is_linear

    def test_stability_rejected(self):
        with pytest.raises(StabilityError):
            hg.HawkesParams(hg.ExponentialKernel(1.0, 1.0), hg.LinearLink(1.0))
        with pytest.raises(StabilityError):
            hg.HawkesParams(hg.ExponentialKernel(1.0, 1.2), hg.SaturatingExpLink(1.0, 2.0))


class TestEventStream:
    def test_roundtrip(self):
        s = hg.EventStream((0.5, 1.25, 2.0), (0.0, 2.0), seed=42)
        text = s.serialize()
        assert text.splitlines()[0] == "# window 0.0 2.0 42"
        back = hg.EventStream.parse(text)
        assert back.times == s.times
        assert back.window == s.window
        assert back.seed == 42

    def test_count_in(self):
        s = hg.EventStream((0.5, 1.0, 1.5), (0.0, 2.0))
        assert s.count_in(0.0, 1.0) == 2  # (0, 1] catches 0.5 and 1.0
        assert s.count_in(1.0, 2.0) == 1

    def test_validation(self):
        with pytest.raises(ParameterError):
            hg.EventStream((1.0, 1.0), (0.0, 2.0))
        with pytest.raises(ParameterError):
            hg.EventStream((0.0,), (0.0, 2.0))  # left endpoint excluded
        with pytest.raises(ParameterError):
            hg.EventStream((2.5,), (0.0, 2.0))
        with pytest.raises(ParameterError):
            hg.EventStream((), (2.0, 1.0))
        with pytest.raises(ParameterError):
            hg.EventStream((math.nan,), (0.0, 1.0))  # a lone NaN compares false
        # non-numeric window fields, seed and time lines, and a NaN time
        for text in ("# window a b -\n", "# window 0.0 2.0 x\n", "# window 0.0 2.0 -\nx\n",
                     "# window 0 1 -\nnan\n"):
            with pytest.raises(ParameterError):
                hg.EventStream.parse(text)
