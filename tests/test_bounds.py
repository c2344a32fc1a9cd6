"""Bound formula tests: frozen values, closed-expression cross-checks,
dominance and improvement sweeps."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hawkesgauss as hg
from hawkesgauss.errors import ParameterError, StabilityError, StatisticalError
from sweep_utils import random_linear_case

SQ = math.sqrt(2.0 / math.pi)

# float-roundoff allowance for comparisons that hold exactly in real
# arithmetic but are computed along different code paths
RTOL = 1e-9


def indicator_bound_closed(phi0, am, ell):
    """Independent evaluation of the nonlinear bound at the unit-variance
    indicator, reduced by hand to four scalar terms."""
    return (
        SQ * am
        + math.sqrt((1 - am) / (phi0 * ell))
        + 2 * SQ * am * (2 - am) / (1 - am)
        + am / math.sqrt(phi0 * ell * (1 - am))
    )


def params_for(phi0, am, rate=1.0):
    return hg.HawkesParams(hg.ExponentialKernel(rate, am), hg.LinearLink(phi0))


class TestNonlinearBound:
    def test_no_excitation_reduces_to_unit(self):
        p = params_for(1.0, 0.0)
        u = hg.TestFunction((0.0, 1.0), (1.0,))
        r = hg.bound_nonlinear(p, u)
        assert [v for _, v in r.terms] == [0.0, 1.0, 0.0, 0.0]
        assert r.total == 1.0

    def test_matches_closed_expression(self):
        for phi0, am, ell in [(1.0, 0.1, 100.0), (2.0, 0.45, 30.0), (0.5, 0.7, 8.0)]:
            p = params_for(phi0, am)
            u = hg.unit_variance_indicator(phi0, am, ell)
            general = hg.bound_nonlinear(p, u).total
            assert general == pytest.approx(indicator_bound_closed(phi0, am, ell), rel=1e-12)

    def test_reference_value(self):
        p = params_for(1.0, 0.1)
        u = hg.unit_variance_indicator(1.0, 0.1, 100.0)
        r = hg.bound_nonlinear(p, u)
        per_term = [round(v, 4) for _, v in r.terms]
        assert per_term == [0.0798, 0.0949, 0.3369, 0.0105]
        assert r.total == pytest.approx(0.522, abs=1e-3)

    def test_leading_term_for_indicator(self):
        p = params_for(1.3, 0.35)
        u = hg.unit_variance_indicator(1.3, 0.35, 20.0)
        assert hg.bound_nonlinear(p, u).term("rate_bracket_max") == pytest.approx(
            SQ * 0.35, rel=1e-12
        )


class TestNonlinearApprox:
    def test_reduces_without_excitation(self):
        p = params_for(1.0, 0.0)
        u = hg.TestFunction((0.0, 1.0), (1.0,))
        assert hg.bound_nonlinear_approx(p, u).total == hg.bound_nonlinear(p, u).total

    def test_correction_closed_form(self):
        phi0, am, ell = 1.0, 0.1, 100.0
        p = params_for(phi0, am)
        u = hg.unit_variance_indicator(phi0, am, ell)
        r = hg.bound_nonlinear_approx(p, u)
        corr = r.term("rate_estimate_error")
        assert corr == pytest.approx(2 * math.sqrt(phi0 * ell) * am / math.sqrt(1 - am), rel=1e-12)
        assert corr == pytest.approx(2.108, abs=1e-3)


class TestLinearBound:
    def test_unit_poisson(self):
        u = hg.TestFunction((0.0, 1.0), (1.0,))
        assert hg.bound_linear(1.0, hg.ExponentialKernel(1.0, 0.0), u).total == 1.0

    def test_reference_terms(self):
        u = hg.TestFunction((0.0, 1.0), (0.5,))
        r = hg.bound_linear(2.0, hg.ExponentialKernel(1.0, 0.5), u)
        vals = [v for _, v in r.terms]
        assert vals[0] == pytest.approx(0.0, abs=1e-15)
        assert vals[1] == pytest.approx(0.5)
        assert vals[2] == pytest.approx(2 * SQ * 2 * 0.5 * 1.5 / 0.25 * 0.25, rel=1e-12)
        assert vals[3] == pytest.approx(0.5)
        assert r.total == pytest.approx(3.394, abs=1e-3)

    def test_dominated_by_nonlinear(self):
        rng = np.random.default_rng(11)
        for _ in range(1500):
            nu, kernel, u = random_linear_case(rng)
            lin = hg.bound_linear(nu, kernel, u).total
            non = hg.bound_nonlinear(
                hg.HawkesParams(kernel, hg.LinearLink(nu)), u
            ).total
            assert lin <= non * (1 + RTOL) + 1e-12

    def test_approx_correction(self):
        u = hg.TestFunction((0.0, 1.0), (1.0,))
        k = hg.ExponentialKernel(1.0, 0.5)
        r = hg.bound_linear_approx(1.0, k, u)
        assert r.term("rate_estimate_error") == pytest.approx(2.0)
        k0 = hg.ExponentialKernel(1.0, 0.0)
        assert hg.bound_linear_approx(1.0, k0, u).total == hg.bound_linear(1.0, k0, u).total

    def test_stability_guard(self):
        u = hg.TestFunction((0.0, 1.0), (1.0,))
        with pytest.raises(StabilityError):
            hg.bound_linear(1.0, hg.ExponentialKernel(1.0, 1.0), u)
        with pytest.raises(ParameterError):
            hg.bound_linear(0.0, hg.ExponentialKernel(1.0, 0.5), u)


class TestSpectralBound:
    def test_no_excitation_min_term_vanishes(self):
        u = hg.TestFunction((0.0, 2.0), (0.6,))
        k = hg.ExponentialKernel(1.0, 0.0)
        nu = 1.3
        r = hg.bound_linear_spectral(nu, k, u)
        expected = SQ * abs(1 - nu * u.lp_norm(2) ** 2) + nu * u.lp_norm(3) ** 3
        assert r.total == pytest.approx(expected, rel=1e-12)

    def test_printed_expression_for_indicator(self):
        # spectral bound at the unit-variance indicator with kernel mass mu and
        # square-integrable density f: reduces to three displayed terms
        for nu, mu, ell, beta in [(1.0, 0.2, 50.0, 1.0), (2.0, 0.4, 10.0, 3.0)]:
            k = hg.ExponentialKernel(beta, mu)
            u = hg.unit_variance_indicator(nu, mu, ell)
            f_l2 = math.sqrt(beta / 2.0)  # L2 norm of the unit-mass density
            printed = (
                (SQ * min(ell**-0.5, f_l2) + ell**-0.5) * mu / math.sqrt(nu * (1 - mu))
                + math.sqrt((1 - mu) / (nu * ell))
                + 2 * SQ * mu / (1 - mu)
            )
            assert hg.bound_linear_spectral(nu, k, u).total == pytest.approx(printed, rel=1e-12)

    def test_approx_correction_value(self):
        # nu=1, mu=0.5, ||u||_1 = ||u||_2 = 1, ||h||_2 = 1 -> sqrt(2)^3/2 * 0.5
        u = hg.TestFunction((0.0, 1.0), (1.0,))
        k = hg.ExponentialKernel(8.0, 0.5)  # l2 = 0.5*sqrt(4) = 1
        assert hg.l2_norm(k) == pytest.approx(1.0)
        r = hg.bound_linear_spectral_approx(1.0, k, u)
        assert r.term("rate_estimate_error") == pytest.approx(1.41421356, abs=1e-6)

    def test_approx_correction_indicator_form(self):
        nu, mu, ell, beta = 1.0, 0.3, 40.0, 2.0
        k = hg.ExponentialKernel(beta, mu)
        u = hg.unit_variance_indicator(nu, mu, ell)
        f_l2 = math.sqrt(beta / 2.0)
        r = hg.bound_linear_spectral_approx(nu, k, u)
        expected = mu / (1 - mu) * min(1.0, math.sqrt(ell) * f_l2)
        assert r.term("rate_estimate_error") == pytest.approx(expected, rel=1e-12)

    def test_zero_mass_correction_vanishes(self):
        u = hg.TestFunction((0.0, 1.0), (1.0,))
        k = hg.ExponentialKernel(1.0, 0.0)
        r = hg.bound_linear_spectral_approx(1.0, k, u)
        assert r.term("rate_estimate_error") == 0.0


class TestCompareConditions:
    def test_indicator_equivalence(self):
        # both conditions collapse to nu >= min(1/ell, ||f||_2^2)/(4(1-mu))
        rng = np.random.default_rng(3)
        for _ in range(300):
            mu = float(rng.uniform(0.05, 0.9))
            ell = float(np.exp(rng.uniform(0.0, 4.0)))
            beta = float(np.exp(rng.uniform(-1.0, 2.0)))
            nu = float(np.exp(rng.uniform(-3.0, 2.0)))
            k = hg.ExponentialKernel(beta, mu)
            u = hg.unit_variance_indicator(nu, mu, ell)
            conds = hg.compare_conditions(nu, k, u)
            reference = nu >= min(1.0 / ell, beta / 2.0) / (4 * (1 - mu))
            assert conds["cond_i"] == reference
            assert conds["cond_ii"] == reference

    def test_improvement_sweep(self):
        rng = np.random.default_rng(29)
        checked_i = checked_ii = 0
        for _ in range(1500):
            nu, kernel, u = random_linear_case(rng)
            conds = hg.compare_conditions(nu, kernel, u)
            if conds["cond_i"]:
                checked_i += 1
                lo = hg.bound_linear_spectral(nu, kernel, u).total
                hi = hg.bound_linear(nu, kernel, u).total
                assert lo <= hi * (1 + RTOL) + 1e-12
            if conds["cond_ii"]:
                checked_ii += 1
                lo = hg.bound_linear_spectral_approx(nu, kernel, u).total
                hi = hg.bound_linear_approx(nu, kernel, u).total
                assert lo <= hi * (1 + RTOL) + 1e-12
        assert checked_i > 100 and checked_ii > 100


class TestIntensityBracket:
    def test_reference(self):
        assert hg.intensity_bracket(params_for(1.0, 0.5)) == (1.0, 2.0)

    def test_degenerate(self):
        lo, hi = hg.intensity_bracket(params_for(1.7, 0.0))
        assert lo == hi == 1.7

    def test_contains_linear_rate(self):
        p = params_for(1.2, 0.35)
        lo, hi = hg.intensity_bracket(p)
        assert lo <= 1.2 / (1 - 0.35) <= hi


class TestResolventBound:
    def small_samples(self, p, u, n=150, seed=0, t_end=25.0):
        m2, m3 = [], []
        for k in range(n):
            _, path = hg.simulate(hg.SimConfig(p, t_end, seed=seed, replication=k))
            a, b = hg.intensity_moment_integrals(path, u)
            m2.append(a)
            m3.append(b)
        return m2, m3

    def test_zero_kernel_reduces_to_poisson_case(self):
        p = params_for(1.0, 0.0)
        u = hg.TestFunction((0.0, 1.0), (1.0,))
        psi = hg.resolvent(p.kernel, 1.0, step=1e-2, horizon=2.0)
        m2, m3 = self.small_samples(p, u, t_end=1.0)
        r = hg.bound_general_resolvent(p, u, psi, m2, m3)
        assert r.term("gradient_first") == 0.0
        assert r.term("gradient_second") == 0.0
        # Poisson case: int u^2 lambda = 1 and int |u|^3 lambda = 1 exactly
        assert r.term("variance_mismatch_mc") == pytest.approx(0.0, abs=1e-12)
        assert r.term("third_moment_mc") == pytest.approx(1.0, abs=1e-12)

    def test_dominated_by_nonlinear_bound(self):
        p = params_for(1.0, 0.3)
        u = hg.unit_variance_indicator(1.0, 0.3, 25.0)
        psi = hg.resolvent(p.kernel, 1.0, step=5e-3, horizon=25.0)
        m2, m3 = self.small_samples(p, u)
        r = hg.bound_general_resolvent(p, u, psi, m2, m3)
        nb = hg.bound_nonlinear(p, u)
        assert r.total <= nb.total + 4 * r.mc_se

    def test_gradient_term_linear_majorant(self):
        nu, mu = 1.0, 0.3
        p = params_for(nu, mu)
        u = hg.unit_variance_indicator(nu, mu, 25.0)
        psi = hg.resolvent(p.kernel, 1.0, step=5e-3, horizon=25.0)
        m2, m3 = self.small_samples(p, u)
        r = hg.bound_general_resolvent(p, u, psi, m2, m3)
        majorant = 2 * SQ * (nu / (1 - mu)) * (mu / (1 - mu)) * u.lp_norm(2) ** 2
        assert r.term("gradient_first") <= majorant * (1 + 1e-9)

    def test_needs_enough_samples(self):
        p = params_for(1.0, 0.3)
        u = hg.TestFunction((0.0, 1.0), (1.0,))
        psi = hg.resolvent(p.kernel, 1.0, step=1e-2, horizon=5.0)
        with pytest.raises(StatisticalError):
            hg.bound_general_resolvent(p, u, psi, [1.0] * 50, [1.0] * 50)


class TestReportPlumbing:
    def test_total_is_term_sum_and_nonnegative(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            nu, kernel, u = random_linear_case(rng)
            for r in hg.evaluate_all(
                hg.HawkesParams(kernel, hg.LinearLink(nu)), u, stationary=True
            ):
                assert all(v >= 0.0 for _, v in r.terms)
                assert r.total == sum(v for _, v in r.terms)

    def test_norm_echo_scales_exactly(self):
        u = hg.TestFunction((0.0, 1.0, 2.5), (0.7, -0.3))
        p = params_for(1.0, 0.4)
        base = hg.bound_nonlinear(p, u).inputs
        scaled = hg.bound_nonlinear(p, u.scaled(2.0)).inputs
        assert scaled["u_l1"] == pytest.approx(2.0 * base["u_l1"], rel=1e-12)
        assert scaled["u_l2"] == pytest.approx(2.0 * base["u_l2"], rel=1e-12)
        assert scaled["u_l3"] == pytest.approx(2.0 * base["u_l3"], rel=1e-12)
        assert scaled["u_sq_l2"] == pytest.approx(4.0 * base["u_sq_l2"], rel=1e-12)
        assert scaled["u_sq_l1"] == pytest.approx(4.0 * base["u_sq_l1"], rel=1e-12)

    def test_vacuity_flag(self):
        p = params_for(1.0, 0.0)
        u = hg.TestFunction((0.0, 1.0), (1.0,))
        assert not hg.bound_nonlinear(p, u).vacuous
        assert hg.bound_nonlinear(p, u.scaled(4.0)).vacuous

    def test_applicability_matrix(self):
        u = hg.TestFunction((0.0, 1.0), (1.0,))
        lin = hg.HawkesParams(hg.ExponentialKernel(1.0, 0.5), hg.LinearLink(1.0))
        assert len(hg.evaluate_all(lin, u, stationary=True)) == 6
        assert len(hg.evaluate_all(lin, u, stationary=False)) == 2
        box = hg.HawkesParams(hg.BoxKernel(1.0, 0.5), hg.LinearLink(1.0))
        names = {r.name for r in hg.evaluate_all(box, u, stationary=True)}
        assert "linear_spectral" in names
        nonlin = hg.HawkesParams(
            hg.ExponentialKernel(1.0, 0.5), hg.SaturatingExpLink(1.0, 3.0)
        )
        names = {r.name for r in hg.evaluate_all(nonlin, u, stationary=True)}
        assert names == {"nonlinear", "nonlinear_approx"}
        # per family: (requires_linear, requires_l2, stationary_only, approx),
        # the same from evaluate_all and from the direct entry point
        expected = {
            "nonlinear": (False, False, False, False),
            "nonlinear_approx": (False, False, False, True),
            "linear": (True, False, True, False),
            "linear_approx": (True, False, True, True),
            "linear_spectral": (True, True, True, False),
            "linear_spectral_approx": (True, True, True, True),
        }
        reports = hg.evaluate_all(lin, u, stationary=True)
        assert [r.name for r in reports] == list(expected)
        for r in reports:
            entry = getattr(hg, f"bound_{r.name}")
            direct = entry(lin, u) if r.name.startswith("nonlinear") else entry(1.0, lin.kernel, u)
            for rep in (r, direct):
                flags = (rep.requires_linear, rep.requires_l2, rep.stationary_only, rep.approx)
                assert flags == expected[r.name]
            assert (direct.name, direct.terms, direct.inputs) == (r.name, r.terms, r.inputs)


class TestImportCost:
    def test_bounds_do_not_load_scipy_special(self):
        # scipy.special costs about 0.3 s and 25 MB to import; the package
        # and the closed-form bounds must not load it, the normal CDF must
        code = "\n".join([
            "import sys",
            "import hawkesgauss as hg",
            "from hawkesgauss.experiments import PRESETS",
            "for p in PRESETS.values():",
            "    hg.evaluate_all(p.params, p.u, stationary=p.stationary)",
            "print('scipy.special' in sys.modules)",
            "hg.normal_cdf(0.0)",
            "print('scipy.special' in sys.modules)",
        ])
        src = str(Path(hg.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert done.stdout.split() == ["False", "True"]
