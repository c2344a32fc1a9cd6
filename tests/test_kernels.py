"""Resolvent and cross-energy tests, checked against analytic forms, the
literal Picard iteration, the exponential kernel's FFT-free recursion, and
brute-force Riemann sums."""

import math

import numpy as np
import pytest

import hawkesgauss as hg
from hawkesgauss.errors import HorizonError, NumericError, ParameterError, StabilityError
from hawkesgauss.kernels import (
    RESOLVENT_TOL,
    _conv_trapezoid,
    _fft_convolve,
    _grid_samples,
    _tail_solve,
    default_horizon,
)


def picard_resolvent(kernel, alpha, step, horizon, tol=RESOLVENT_TOL, max_iter=200):
    """Reference solver: literal Picard iteration psi <- alpha*h + alpha*h*psi
    on the resolvent's grid and trapezoid rule.

    Geometric convergence at rate alpha*mu; an independent oracle for the
    direct solver (quadratic in grid size per iteration, so use coarse
    grids).
    """
    am = alpha * kernel.l1_norm()
    if am >= 1:
        raise StabilityError(f"alpha*mu must be < 1, got {am}")
    n = int(round(horizon / step)) + 1
    grid = np.arange(n) * step
    ah = alpha * _grid_samples(kernel, grid, step)
    psi = np.zeros(n)
    for _ in range(max_iter):
        nxt = ah + _conv_trapezoid(ah, psi, step)
        if float(np.max(np.abs(nxt - psi))) < tol:
            return nxt
        psi = nxt
    raise NumericError(f"Picard iteration did not reach {tol:.1e} in {max_iter} steps")


def exp_resolvent_exact(rate, mass, alpha, t):
    # geometric series of convolution powers of an exponential kernel sums to
    # alpha*mass*rate * exp(-rate*(1 - alpha*mass) * t)
    return alpha * mass * rate * np.exp(-rate * (1.0 - alpha * mass) * np.asarray(t))


class TestResolvent:
    def test_exponential_analytic(self):
        tab = hg.resolvent(hg.ExponentialKernel(1.0, 0.5), alpha=1.0, step=1e-3, horizon=15.0)
        grid = np.arange(len(tab.values)) * tab.step
        exact = exp_resolvent_exact(1.0, 0.5, 1.0, grid)
        assert tab.values[0] == pytest.approx(0.5)
        assert float(np.max(np.abs(tab.values - exact))) < 1e-6
        assert tab.grid_mass() + tab.tail_bound == pytest.approx(1.0, abs=1e-12)

    def test_alpha_zero_is_identically_zero(self):
        tab = hg.resolvent(hg.BoxKernel(1.0, 0.5), alpha=0.0, step=1e-2, horizon=5.0)
        assert np.all(tab.values == 0.0)
        assert tab.tail_bound == 0.0

    def test_box_mass_identity(self):
        tab = hg.resolvent(hg.BoxKernel(1.0, 0.5), alpha=1.0, step=1e-3, horizon=30.0)
        assert tab.grid_mass() == pytest.approx(1.0, abs=1e-3)
        assert abs(tab.tail_bound) < 1e-3

    def test_tabulated_end_jump_matches_box(self):
        # a table ending on a nonzero value jumps to 0 at its support end,
        # as a box does: the node there carries the mean of the two limits
        tab = hg.resolvent(hg.TabulatedKernel(0.5, (0.8, 0.8)), alpha=1.0)
        box = hg.resolvent(hg.BoxKernel(0.5, 0.4), alpha=1.0)
        assert np.array_equal(tab.values, box.values)
        assert tab.tail_bound == box.tail_bound
        assert tab.tail_bound >= 0.0

    def test_fixed_point_residual(self):
        for kernel in (hg.ExponentialKernel(2.0, 0.4), hg.BoxKernel(0.7, 0.6)):
            tab = hg.resolvent(kernel, alpha=1.0, step=2e-3, horizon=10.0)
            assert tab.residual_sup <= 1e-9

    def test_nonnegative(self):
        tab = hg.resolvent(hg.BoxKernel(1.3, 0.8), alpha=1.0, step=2e-3, horizon=25.0)
        assert np.all(tab.values >= 0.0)

    def test_monotone_in_alpha(self):
        k = hg.ExponentialKernel(1.0, 0.9)
        lo = hg.resolvent(k, alpha=0.5, step=5e-3, horizon=20.0)
        hi = hg.resolvent(k, alpha=0.9, step=5e-3, horizon=20.0)
        assert np.all(lo.values <= hi.values + 1e-12)

    def test_picard_oracle_agrees(self):
        # 801 and 2668 nodes: the tail solve's last Newton step ends between
        # doubling edges
        for step in (0.01, 0.003):
            for kernel in (hg.ExponentialKernel(1.0, 0.5), hg.BoxKernel(1.0, 0.4)):
                direct = hg.resolvent(kernel, alpha=1.0, step=step, horizon=8.0)
                iterated = picard_resolvent(kernel, alpha=1.0, step=step, horizon=8.0)
                assert float(np.max(np.abs(direct.values - iterated))) < 1e-8

    def test_stability_guard(self):
        with pytest.raises(StabilityError):
            hg.resolvent(hg.ExponentialKernel(1.0, 1.0), alpha=1.0)
        with pytest.raises(StabilityError):
            hg.resolvent(hg.ExponentialKernel(1.0, 0.6), alpha=2.0)

    def test_coarse_grid_guard(self):
        # step * alpha * h(0+) / 2 >= 1 makes the forward solve ill-posed
        with pytest.raises(NumericError):
            hg.resolvent(hg.ExponentialKernel(1000.0, 0.9), alpha=1.0, step=0.01, horizon=1.0)

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf, -math.inf])
    def test_argument_validation(self, bad):
        # step, horizon and tol must be finite and > 0; NaN and infinity would
        # reach int(round(horizon / step)) with an untyped error, and a NaN
        # tol would switch the residual check off
        k = hg.ExponentialKernel(1.0, 0.5)
        with pytest.raises(ParameterError):
            hg.resolvent(k, alpha=1.0, step=bad, horizon=5.0)
        with pytest.raises(ParameterError):
            hg.resolvent(k, alpha=1.0, step=1e-2, horizon=bad)
        with pytest.raises(ParameterError):
            hg.resolvent(k, alpha=1.0, step=1e-2, horizon=5.0, tol=bad)

    def test_default_horizon_tail(self):
        k = hg.ExponentialKernel(1.0, 0.5)
        T = default_horizon(k, 1.0)
        tab = hg.resolvent(k, 1.0, step=5e-3, horizon=T)
        assert tab.tail_bound <= 1e-6 * tab.total_mass * 1.01

    @pytest.mark.parametrize("tail_fraction", [0.0, -0.5, 1.0, 2.0, math.nan])
    @pytest.mark.parametrize("kernel", [hg.ExponentialKernel(1.0, 0.5), hg.BoxKernel(1.0, 0.5)])
    def test_default_horizon_rejects_tail_fraction(self, kernel, tail_fraction):
        with pytest.raises(ParameterError):
            default_horizon(kernel, 1.0, tail_fraction)


def blocked_resolvent_values(kernel, alpha, step, horizon, block=1024):
    """Frozen copy of the earlier forward solve: blocks of ``block`` steps,
    each block's history one FFT convolution, and the block's own Toeplitz
    inverse by forward substitution."""
    n = int(round(horizon / step)) + 1
    ah = alpha * _grid_samples(kernel, np.arange(n) * step, step)
    psi = np.empty(n)
    psi[0] = ah[0]
    denom = 1.0 - 0.5 * step * ah[0]
    m = min(block, n)
    inv = np.empty(m)
    inv[0] = 1.0 / denom
    for k in range(1, m):
        inv[k] = step * float(np.dot(ah[1 : k + 1], inv[k - 1 :: -1])) / denom
    rhs = ah * (1.0 + 0.5 * step * psi[0])
    for start in range(1, n, block):
        stop = min(start + block, n)
        part = rhs[start:stop]
        if start > 1:
            history = _fft_convolve(psi[1:start], ah[1:stop], stop - 2)[start - 2 :]
            part = part + step * history
        psi[start:stop] = _fft_convolve(inv, part, stop - start)
    return psi


def exponential_recursion_values(kernel, alpha, step, horizon):
    """FFT-free oracle for an exponential kernel: ah_m = A*q^m with
    A = alpha*h(0+) and q = exp(-rate*step), so the trapezoid system's history
    S_k = sum_{j<k} q^(k-j) psi_j obeys S_{k+1} = q*(S_k + psi_k), and
    psi_k = ah_k + step*A*S_k/denom with denom = 1 - step*A/2."""
    n = int(round(horizon / step)) + 1
    ah = alpha * _grid_samples(kernel, np.arange(n) * step, step)
    q = math.exp(-kernel.rate * step)
    b = step * ah[0] / (1.0 - 0.5 * step * ah[0])
    psi = np.empty(n)
    s = 0.0
    for k in range(n):
        psi[k] = ah[k] + b * s
        s = q * (s + psi[k])
    return psi


ORACLE_KERNELS = (
    hg.ExponentialKernel(1.0, 0.5),
    hg.BoxKernel(1.5, 0.5),
    hg.TabulatedKernel(0.5, (0.0, 0.4, 0.6, 0.3, 0.1, 0.0)),
)


class TestSeriesSolve:
    # node counts 1, 2 and 3 are the smallest systems; 1024, 1025 and 2049
    # cross the earlier solve's block edges and the doubling edges 2^k + 1
    @pytest.mark.parametrize("nodes", [1, 2, 3, 1024, 1025, 2049, 15001])
    @pytest.mark.parametrize("kernel", ORACLE_KERNELS, ids=["exponential", "box", "tabulated"])
    def test_matches_blocked_solve(self, kernel, nodes):
        step = 1e-3
        horizon = (nodes - 1) * step if nodes > 1 else 0.4 * step
        tab = hg.resolvent(kernel, alpha=1.0, step=step, horizon=horizon)
        frozen = blocked_resolvent_values(kernel, 1.0, step, horizon)
        assert len(tab.values) == nodes
        assert float(np.max(np.abs(tab.values - frozen))) <= 1e-13
        assert tab.residual_sup <= 1e-9

    @pytest.mark.parametrize("size", [1, 2, 3, 5, 1024, 1025])
    def test_series_inverse_is_inverse(self, size):
        # the tail solve forms no series inverse, but 1 + (b/a)*P is the
        # inverse of 1 - b*g exactly when P = a*g + b*g*P, so check that
        # fixed point against np.convolve
        rng = np.random.default_rng(size)
        denom = 1.0 - rng.uniform(0.0, 0.5)
        a, b = rng.uniform(1.0, 1.5) / denom, 1e-3 / denom
        g = rng.uniform(0.0, 2.0, size)
        g[0] = 0.0
        p = _tail_solve(g, a, b)
        assert len(p) == size and p[0] == 0.0
        fixed = a * g + b * np.convolve(g, p)[:size]
        assert float(np.max(np.abs(p - fixed))) <= 1e-14 * float(np.max(np.abs(fixed)))

    @pytest.mark.parametrize("nodes", [1, 2, 3, 1025, 15001])
    def test_matches_exponential_recursion(self, nodes):
        kernel, step = ORACLE_KERNELS[0], 1e-3
        horizon = (nodes - 1) * step if nodes > 1 else 0.4 * step
        tab = hg.resolvent(kernel, alpha=1.0, step=step, horizon=horizon)
        oracle = exponential_recursion_values(kernel, 1.0, step, horizon)
        assert len(tab.values) == nodes
        err = float(np.max(np.abs(tab.values - oracle)))
        assert err <= 1e-13 * float(np.max(np.abs(oracle)))

    @pytest.mark.parametrize("kernel", ORACLE_KERNELS, ids=["exponential", "box", "tabulated"])
    def test_residual_on_c05_grid(self, kernel):
        tab = hg.resolvent(kernel, alpha=1.0, step=1e-3, horizon=15.0)
        assert len(tab.values) == 15001
        assert tab.residual_sup <= 1e-14


class TestCrossEnergy:
    def test_zero_resolvent(self):
        tab = hg.resolvent(hg.BoxKernel(1.0, 0.5), alpha=0.0, step=1e-2, horizon=3.0)
        f = hg.TestFunction((0.0, 1.0), (1.0,))
        assert hg.cross_energy(f, f, tab) == 0.0

    def test_exponential_closed_form(self):
        # f = g = 1_(0,L], psi = c*exp(-b t): integral is (c/b)(L - (1-e^{-bL})/b)
        tab = hg.resolvent(hg.ExponentialKernel(1.0, 0.5), alpha=1.0, step=1e-3, horizon=40.0)
        c, b = 0.5, 0.5
        for L in (1.0, 5.0, 20.0):
            f = hg.TestFunction((0.0, L), (1.0,))
            exact = (c / b) * (L - (1.0 - math.exp(-b * L)) / b)
            assert hg.cross_energy(f, f, tab) == pytest.approx(exact, rel=1e-5)

    def test_riemann_oracle(self):
        tab = hg.resolvent(hg.ExponentialKernel(1.5, 0.4), alpha=1.0, step=2e-3, horizon=25.0)
        f = hg.TestFunction((0.0, 2.0, 5.0), (1.0, 0.25))
        g = hg.TestFunction((1.0, 4.0, 6.0), (0.5, 2.0))
        # brute-force midpoint double Riemann sum; O(dt) error from the jump
        # of psi along the diagonal, so keep dt small
        dt = 0.0025
        ts = np.arange(0.0 + dt / 2, 5.0, dt)
        ss = np.arange(1.0 + dt / 2, 6.0, dt)
        fv = np.abs(np.asarray(f(ts)))
        gv = np.abs(np.asarray(g(ss)))
        lag = ss[None, :] - ts[:, None]
        psi_mat = np.where(lag > 0, tab(lag), 0.0)
        riemann = float(fv @ psi_mat @ gv) * dt * dt
        assert hg.cross_energy(f, g, tab) == pytest.approx(riemann, rel=2e-3)

    def test_cauchy_schwarz_majorant(self):
        rng = np.random.default_rng(5)
        tab = hg.resolvent(hg.ExponentialKernel(1.0, 0.6), alpha=1.0, step=2e-3, horizon=60.0)
        for _ in range(25):
            bp = np.cumsum(rng.uniform(0.2, 2.0, size=4))
            f = hg.TestFunction(tuple(bp), tuple(rng.uniform(-2, 2, size=3)))
            bp2 = np.cumsum(rng.uniform(0.2, 2.0, size=4))
            g = hg.TestFunction(tuple(bp2), tuple(rng.uniform(-2, 2, size=3)))
            val = hg.cross_energy(f, g, tab)
            majorant = f.lp_norm(2) * g.lp_norm(2) * tab.total_mass
            assert val <= majorant * (1 + 1e-9)

    def test_horizon_error_names_requirement(self):
        tab = hg.resolvent(hg.ExponentialKernel(1.0, 0.5), alpha=1.0, step=1e-2, horizon=5.0)
        f = hg.TestFunction((0.0, 1.0), (1.0,))
        g = hg.TestFunction((4.0, 8.0), (1.0,))
        with pytest.raises(HorizonError) as err:
            hg.cross_energy(f, g, tab)
        assert err.value.required_horizon == pytest.approx(8.0)
