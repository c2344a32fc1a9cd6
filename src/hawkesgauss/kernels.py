"""Kernel numerics: L1/L2 norms, the resolvent of the renewal equation
psi = alpha*h + alpha*h*psi (* = convolution), and double integrals of step
functions against the resolvent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import HorizonError, NumericError, ParameterError, StabilityError
from .model import BoxKernel, ExponentialKernel, Kernel, TestFunction

RESOLVENT_TOL = 1e-9
_BLOCK = 1024  # grid steps per block of the resolvent's forward solve


def l1_norm(kernel: Kernel) -> float:
    """Total integral of the kernel (exact for parametric forms)."""
    return kernel.l1_norm()


def l2_norm(kernel: Kernel) -> float:
    """L2 norm of the kernel; closed form for exponential and box."""
    return kernel.l2_norm()


@dataclass(frozen=True)
class ResolventTable:
    """Resolvent psi sampled on the uniform grid k*step, k = 0..K.

    ``tail_bound`` is the L1 mass of psi beyond the horizon, computed as
    alpha*mu/(1-alpha*mu) minus the tabulated mass.  ``residual_sup`` is the
    sup-norm residual of the discretized renewal equation.
    """

    step: float
    values: np.ndarray
    alpha: float
    alpha_mu: float
    tail_bound: float
    residual_sup: float

    @property
    def horizon(self) -> float:
        return (len(self.values) - 1) * self.step

    @property
    def total_mass(self) -> float:
        """alpha*mu/(1-alpha*mu), the exact mass of psi on (0, inf)."""
        return self.alpha_mu / (1.0 - self.alpha_mu)

    @cached_property
    def _double_antiderivative(self) -> np.ndarray:
        """p2(x) = int_0^x p1 with p1(x) = int_0^x psi, both by the trapezoid
        rule on the table grid; computed once per table."""
        step, vals = self.step, self.values
        p1 = np.concatenate(([0.0], np.cumsum(0.5 * (vals[1:] + vals[:-1]) * step)))
        p2 = np.concatenate(([0.0], np.cumsum(0.5 * (p1[1:] + p1[:-1]) * step)))
        p2.setflags(write=False)  # shared by every later call
        return p2

    def grid_mass(self) -> float:
        """Trapezoid integral of the tabulated values."""
        return float(np.trapezoid(self.values, dx=self.step))

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        grid = np.arange(len(self.values)) * self.step
        out = np.interp(t, grid, self.values, left=0.0, right=0.0)
        out = np.where(t >= 0, out, 0.0)
        return out if out.ndim else float(out)


def default_horizon(kernel: Kernel, alpha: float, tail_fraction: float = 1e-6) -> float:
    """Horizon T such that the resolvent mass beyond T is below
    ``tail_fraction`` of its total mass alpha*mu/(1-alpha*mu)."""
    am = alpha * kernel.l1_norm()
    if am <= 0:
        return 1.0
    if am >= 1:
        raise StabilityError(f"alpha*mu must be < 1, got {am}")
    if isinstance(kernel, ExponentialKernel):
        # psi(t) = alpha*mu*rate*exp(-rate*(1-alpha*mu)*t): tail fraction is
        # exp(-rate*(1-am)*T)
        return -math.log(tail_fraction) / (kernel.rate * (1.0 - am))
    # compactly supported kernels: psi beyond n*support has mass <= am**n/(1-am)
    span = kernel.support_end
    n = max(2, math.ceil(math.log(tail_fraction) / math.log(am)) + 1)
    return n * span


def _grid_samples(kernel: Kernel, grid: np.ndarray, step: float) -> np.ndarray:
    """Kernel sampled for quadrature: node 0 carries the right limit h(0+);
    a node sitting exactly on a jump carries the mean of the two limits."""
    h = np.asarray(kernel(grid), dtype=float).copy()
    h[0] = kernel.jump
    if isinstance(kernel, BoxKernel):
        k = kernel.width / step
        k_round = round(k)
        if abs(k - k_round) < 1e-9 and 0 < k_round < len(grid):
            h[k_round] = 0.5 * kernel.jump
    return h


def _fft_convolve(f: np.ndarray, g: np.ndarray, size: int) -> np.ndarray:
    """First ``size`` entries of the linear convolution f*g, by real FFT.

    ``np.convolve`` takes one BLAS dot per output, and OpenBLAS runs dots
    longer than about 10 000 entries on its thread pool, whose start-up and
    spin then dominate the cost; the FFT makes no BLAS call.
    """
    nfft = 1 << max(len(f) + len(g) - 2, 1).bit_length()
    return np.fft.irfft(np.fft.rfft(f, nfft) * np.fft.rfft(g, nfft), nfft)[:size]


def _conv_trapezoid(f: np.ndarray, g: np.ndarray, step: float) -> np.ndarray:
    """Trapezoid discretization of (f*g)(k*step) on the shared grid."""
    n = len(f)
    full = _fft_convolve(f, g, n)
    full -= 0.5 * f[0] * g + 0.5 * g[0] * f
    full[0] = 0.0
    return step * full


def _toeplitz_inverse(ah: np.ndarray, step: float, denom: float) -> np.ndarray:
    """First column of the inverse of the lower-triangular Toeplitz matrix
    with first column (denom, -step*ah_1, -step*ah_2, ...), by forward
    substitution on the unit vector."""
    inv = np.empty(len(ah))
    inv[0] = 1.0 / denom
    for k in range(1, len(ah)):
        inv[k] = step * float(np.dot(ah[1 : k + 1], inv[k - 1 :: -1])) / denom
    return inv


def resolvent(
    kernel: Kernel,
    alpha: float,
    step: float = 1e-3,
    horizon: float | None = None,
    tol: float = RESOLVENT_TOL,
) -> ResolventTable:
    """Solve the discretized renewal equation psi = alpha*h + alpha*h*psi.

    The lower-triangular system produced by the trapezoid rule is solved
    forward in blocks, which lands on the fixed point of the discretized
    Picard map directly; the residual of the fixed-point equation is checked
    against ``tol`` afterwards.  Every long sum goes through an FFT rather
    than BLAS, so the cost does not depend on the BLAS thread pool.
    """
    if not (alpha >= 0 and math.isfinite(alpha)):
        raise ParameterError(f"alpha must be >= 0, got {alpha}")
    if step <= 0:
        raise ParameterError(f"step must be > 0, got {step}")
    am = alpha * kernel.l1_norm()
    if am >= 1:
        raise StabilityError(f"resolvent requires alpha*mu < 1, got {am}")
    if horizon is None:
        horizon = default_horizon(kernel, alpha)
    if horizon <= 0:
        raise ParameterError(f"horizon must be > 0, got {horizon}")

    n = int(round(horizon / step)) + 1
    grid = np.arange(n) * step
    h = _grid_samples(kernel, grid, step)
    ah = alpha * h

    psi = np.empty(n)
    psi[0] = ah[0]
    denom = 1.0 - 0.5 * step * ah[0]
    if denom <= 0:
        raise NumericError(
            f"grid too coarse: step*alpha*h(0+)/2 = {0.5 * step * ah[0]} >= 1"
        )
    # for k >= 1 the trapezoid rule gives the lower-triangular Toeplitz system
    #   denom*psi_k - step*sum_{j=1..k-1} ah_{k-j} psi_j = ah_k*(1 + step*psi_0/2),
    # solved forward in blocks of _BLOCK steps.  The history of a block
    # (j before it) is one FFT convolution; the block's own system matrix is
    # the same every time, and its inverse is again lower-triangular Toeplitz,
    # so it is applied as a convolution with the inverse's first column.
    rhs = ah * (1.0 + 0.5 * step * psi[0])
    inv = _toeplitz_inverse(ah[:_BLOCK], step, denom)
    for start in range(1, n, _BLOCK):
        stop = min(start + _BLOCK, n)
        block = rhs[start:stop]
        if start > 1:
            # history sum_{j=1..start-1} ah_{k-j} psi_j for k = start..stop-1
            history = _fft_convolve(psi[1:start], ah[1:stop], stop - 2)[start - 2 :]
            block = block + step * history
        psi[start:stop] = _fft_convolve(inv, block, stop - start)

    residual = psi - (ah + _conv_trapezoid(ah, psi, step))
    residual_sup = float(np.max(np.abs(residual)))
    if residual_sup > tol:
        raise NumericError(
            f"renewal-equation residual {residual_sup:.3e} exceeds tolerance {tol:.1e}"
        )

    total = am / (1.0 - am) if am > 0 else 0.0
    tail = total - float(np.trapezoid(psi, dx=step))
    psi.flags.writeable = False
    return ResolventTable(
        step=step,
        values=psi,
        alpha=alpha,
        alpha_mu=am,
        tail_bound=tail,
        residual_sup=residual_sup,
    )


def picard_resolvent(
    kernel: Kernel,
    alpha: float,
    step: float,
    horizon: float,
    tol: float = RESOLVENT_TOL,
    max_iter: int = 200,
) -> np.ndarray:
    """Reference solver: literal Picard iteration psi <- alpha*h + alpha*h*psi.

    Geometric convergence at rate alpha*mu; kept as an independent oracle for
    the direct solver (quadratic in grid size per iteration, so use coarse
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


def cross_energy(f: TestFunction, g: TestFunction, psi: ResolventTable) -> float:
    """Double integral of |f(t)| * psi(s - t) * |g(s)| over s > t.

    Uses the double antiderivative of psi, so each pair of constant pieces
    contributes a closed-form combination; never exceeds
    ||f||_2 ||g||_2 * alpha*mu/(1-alpha*mu).
    """
    lag_max = g.breakpoints[-1] - f.breakpoints[0]
    if lag_max > psi.horizon:
        raise HorizonError(
            f"supports need resolvent values up to lag {lag_max}, "
            f"table horizon is {psi.horizon}",
            required_horizon=lag_max,
        )

    p2 = psi._double_antiderivative
    grid = np.arange(len(p2)) * psi.step

    def P2(x: np.ndarray) -> np.ndarray:
        return np.where(x <= 0, 0.0, np.interp(x, grid, p2))

    fa = np.abs(np.asarray(f.values))
    ga = np.abs(np.asarray(g.values))
    fb = np.asarray(f.breakpoints)
    gb = np.asarray(g.breakpoints)

    total = 0.0
    for i in range(len(fa)):
        if fa[i] == 0.0:
            continue
        a, b = fb[i], fb[i + 1]
        c, d = gb[:-1], gb[1:]
        rect = P2(d - a) - P2(d - b) - P2(c - a) + P2(c - b)
        total += fa[i] * float(np.dot(ga, np.maximum(rect, 0.0)))
    return total
