"""Kernel numerics: L1/L2 norms, the resolvent of the renewal equation
psi = alpha*h + alpha*h*psi (* = convolution), and double integrals of step
functions against the resolvent.

The trapezoid rule turns the renewal equation into a fixed-point equation
P = a*g + b*g*P for the power series P of psi's tail.  For an exponential
kernel g is geometric, and so is P, in closed form (the discrete twin of
Hawkes 1971, Biometrika 58).  For box and tabulated kernels Newton doubling
(Brent & Kung 1978, J. ACM 25) solves for P itself by FFT, with one middle
product (Hanrot, Quercia & Zimmermann 2004, AAECC 14) per step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import HorizonError, NumericError, ParameterError, StabilityError
from .model import ExponentialKernel, Kernel, TestFunction

RESOLVENT_TOL = 1e-9


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
    def _grid(self) -> np.ndarray:
        """The nodes k*step of the table, built once per table."""
        grid = np.arange(len(self.values)) * self.step
        grid.setflags(write=False)  # shared by every later call
        return grid

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
        out = np.interp(t, self._grid, self.values, left=0.0, right=0.0)
        out = np.where(t >= 0, out, 0.0)
        return out if out.ndim else float(out)


def default_horizon(kernel: Kernel, alpha: float, tail_fraction: float = 1e-6) -> float:
    """Horizon T such that the resolvent mass beyond T is below
    ``tail_fraction`` of its total mass alpha*mu/(1-alpha*mu)."""
    if not 0.0 < tail_fraction < 1.0:
        raise ParameterError(f"tail_fraction must lie in (0, 1), got {tail_fraction}")
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
    a node sitting exactly on the end of a finite support, where h jumps to
    0, carries the mean of the two limits."""
    h = np.asarray(kernel(grid), dtype=float).copy()
    h[0] = kernel.jump
    end = kernel.support_end
    if math.isfinite(end):
        k = end / step
        k_round = round(k)
        if abs(k - k_round) < 1e-9 and 0 < k_round < len(grid):
            h[k_round] = 0.5 * kernel(end)
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


def _tail_solve(g: np.ndarray, a: float, b: float) -> np.ndarray:
    """First len(g) coefficients of the P with P = a*g + b*g*P (g[0] = 0, a > 0).

    Newton doubling: if P is exact mod z^h, R = a*g + b*g*P - P vanishes below
    h and P + R*(1 + (b/a)*P) is exact mod z^2h, as 1/(1 - b*g) = 1 + (b/a)*P.
    At FFT length L >= k = min(2h, len(g)), R[h:k] is the middle product of
    g[:k] and P[:h] (wrapped terms fall below h), and the correction needs the
    first k - h terms of R*P[:h]; both products share P's transform.
    """
    p = np.zeros(len(g))
    h = 1
    while h < len(g):
        k = min(2 * h, len(g))
        nfft = 1 << (k - 1).bit_length()
        p_hat = np.fft.rfft(p[:h], nfft)
        r = a * g[h:k] + b * np.fft.irfft(np.fft.rfft(g[:k], nfft) * p_hat, nfft)[h:k]
        p[h:k] = r + (b / a) * np.fft.irfft(np.fft.rfft(r, nfft) * p_hat, nfft)[: k - h]
        h = k
    return p


def resolvent(
    kernel: Kernel,
    alpha: float,
    step: float = 1e-3,
    horizon: float | None = None,
    tol: float = RESOLVENT_TOL,
) -> ResolventTable:
    """Solve the discretized renewal equation psi = alpha*h + alpha*h*psi.

    The trapezoid rule's lower-triangular Toeplitz system has, for psi's
    tail, a geometric solution when the kernel is exponential, which is
    taken in closed form; for box and tabulated kernels it is solved by
    Newton doubling on the tail itself (``_tail_solve``).  Both land on the
    fixed point of the discretized Picard map, and its residual is checked
    against ``tol`` afterwards.  Every long sum is an FFT, not BLAS, so the
    cost does not depend on the BLAS thread pool.  On the 15 001-node c05
    grid, on a 2-vCPU Xeon, a solve takes about 1.6 ms with an exponential
    kernel (3.4 ms by Newton doubling) and 3.4-4.6 ms with a box or
    tabulated one, of which the residual check is about two thirds for the
    exponential kernel.
    """
    if not (alpha >= 0 and math.isfinite(alpha)):
        raise ParameterError(f"alpha must be >= 0, got {alpha}")
    if not (step > 0 and math.isfinite(step)):
        raise ParameterError(f"step must be finite and > 0, got {step}")
    am = alpha * kernel.l1_norm()
    if am >= 1:
        raise StabilityError(f"resolvent requires alpha*mu < 1, got {am}")
    if horizon is None:
        horizon = default_horizon(kernel, alpha)
    if not (horizon > 0 and math.isfinite(horizon)):
        raise ParameterError(f"horizon must be finite and > 0, got {horizon}")
    if not (tol > 0 and math.isfinite(tol)):
        raise ParameterError(f"tol must be finite and > 0, got {tol}")

    n = int(round(horizon / step)) + 1
    ah = alpha * _grid_samples(kernel, np.arange(n) * step, step)

    denom = 1.0 - 0.5 * step * ah[0]
    if denom <= 0:
        raise NumericError(f"grid too coarse: step*alpha*h(0+)/2 = {0.5 * step * ah[0]} >= 1")
    # for k >= 1 the trapezoid rule gives denom*psi_k - step*sum_{j=1..k-1}
    # ah_{k-j} psi_j = ah_k*(1 + step*psi_0/2): with g = ah but g_0 = 0, the tail
    # P = sum_{k>=1} psi_k z^k solves P = a*g + b*g*P
    a, b = (1.0 + 0.5 * step * ah[0]) / denom, step / denom
    if isinstance(kernel, ExponentialKernel):
        # g_k = ah_0*r^k with r = exp(-rate*step) makes P = a*ah_0*r*z/(1 - q*z),
        # q = r*(1 + b*ah_0): P_k = a*ah_0*r*q^(k-1), with q^(k-1) taken as
        # exp((k-1)*log q), since a rounded q would drift by k*eps
        log_q = math.log1p(b * ah[0]) - kernel.rate * step
        psi = np.empty(n)
        psi[1:] = a * ah[0] * math.exp(-kernel.rate * step) * np.exp(np.arange(n - 1) * log_q)
    else:
        psi = _tail_solve(np.concatenate(([0.0], ah[1:])), a, b)
    psi[0] = ah[0]

    residual = psi - (ah + _conv_trapezoid(ah, psi, step))
    residual_sup = float(np.max(np.abs(residual)))
    if residual_sup > tol:
        raise NumericError(
            f"renewal-equation residual {residual_sup:.3e} exceeds tolerance {tol:.1e}"
        )

    total = am / (1.0 - am) if am > 0 else 0.0
    tail = total - float(np.trapezoid(psi, dx=step))
    psi.flags.writeable = False
    return ResolventTable(step=step, values=psi, alpha=alpha, alpha_mu=am,
                          tail_bound=tail, residual_sup=residual_sup)


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

    p2, grid = psi._double_antiderivative, psi._grid

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
