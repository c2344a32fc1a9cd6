"""First chaos of a simulated path: the compensated integral
delta(u) = sum_i u(T_i) - int u(t) lambda(t) dt, and its approximation with a
constant rate estimate in place of lambda(t).

The compensator integral is exact per inter-event segment for the
linear/exponential pair and for piecewise-constant intensities (box kernels,
zero kernels); elsewhere it falls back to composite Simpson with a
step-halving error estimate.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .bounds import intensity_bracket
from .errors import ParameterError
from .model import (
    BoxKernel,
    EventStream,
    ExponentialKernel,
    HawkesParams,
    LinearLink,
    TestFunction,
)
from .simulator import IntensityPath

DEFAULT_QUAD_STEP = 1e-3


@dataclass(frozen=True)
class InnovationSample:
    """One replication's innovation value with its two parts.

    ``value == event_sum - compensator`` holds exactly by construction;
    ``quad_error`` estimates the compensator quadrature error (zero when the
    integral is closed form).
    """

    value: float
    event_sum: float
    compensator: float
    quad_error: float
    lambda_hat: float | None = None


def _segment_points(path: IntensityPath, a: float, b: float) -> list[float]:
    """Boundaries inside (a, b) where the intensity is kinked or jumps:
    event times, plus event expiry times for compactly supported kernels."""
    events = np.asarray(path.events)
    pts = set()
    inside = events[(events > a) & (events < b)]
    pts.update(inside.tolist())
    k = path.kernel
    if math.isfinite(k.support_end):
        expiry = events + k.support_end
        inside = expiry[(expiry > a) & (expiry < b)]
        pts.update(inside.tolist())
    return sorted(pts)


def _simpson_pair(fvals: np.ndarray, h2: float) -> tuple[float, float]:
    """Composite Simpson from values on the half-step grid; Richardson-style
    error estimate |I_fine - I_coarse| / 15."""
    fine = fvals
    coarse = fvals[::2]
    w_f = np.ones(len(fine))
    w_f[1:-1:2] = 4.0
    w_f[2:-1:2] = 2.0
    i_fine = h2 / 3.0 * float(np.dot(w_f, fine))
    w_c = np.ones(len(coarse))
    w_c[1:-1:2] = 4.0
    w_c[2:-1:2] = 2.0
    i_coarse = 2.0 * h2 / 3.0 * float(np.dot(w_c, coarse))
    return i_fine, abs(i_fine - i_coarse) / 15.0


def _integrate_intensity(path: IntensityPath, a: float, b: float, h_quad: float) -> tuple[float, float]:
    """Integral of lambda over (a, b) containing no events, expiries, or
    weight breakpoints in its interior; returns (value, error_estimate)."""
    length = b - a
    if length <= 0:
        return 0.0, 0.0
    kernel, link = path.kernel, path.link

    if kernel.l1_norm() == 0 or isinstance(kernel, BoxKernel):
        # excitation constant on the segment interior; evaluate away from the
        # endpoints so events/expiries sitting exactly on a cut cannot leak in
        s_mid = path.excitation_before(0.5 * (a + b))
        return float(link(s_mid)) * length, 0.0

    if isinstance(kernel, ExponentialKernel) and isinstance(link, LinearLink):
        # int (nu + s_a e^{-rate u}) du in closed form
        rate = kernel.rate
        s_a = path.excitation_after(a)
        return link.nu * length + s_a * (1.0 - math.exp(-rate * length)) / rate, 0.0

    n = max(8, math.ceil(length / h_quad))
    n += n % 2
    h2 = length / (2 * n)
    u = np.arange(2 * n + 1) * h2
    if isinstance(kernel, ExponentialKernel):
        s = path.excitation_after(a) * np.exp(-kernel.rate * u)
    else:
        s = path._excitation_grid(a + u)
    return _simpson_pair(np.asarray(link(s), dtype=float), h2)


def weighted_intensity_integral(
    path: IntensityPath,
    w: TestFunction,
    h_quad: float = DEFAULT_QUAD_STEP,
) -> tuple[float, float]:
    """int w(t) lambda(t) dt over the support of the step function w."""
    total = 0.0
    err = 0.0
    bp = w.breakpoints
    for i, v in enumerate(w.values):
        if v == 0.0:
            continue
        a, b = bp[i], bp[i + 1]
        cuts = [a] + _segment_points(path, a, b) + [b]
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            piece, e = _integrate_intensity(path, lo, hi, h_quad)
            total += v * piece
            err += abs(v) * e
    return total, err


def _check_support(u: TestFunction, stream: EventStream) -> None:
    lo, hi = u.support
    t0, t1 = stream.window
    if lo < t0 or hi > t1:
        raise ParameterError(
            f"support ({lo}, {hi}] of u must lie inside the reported window "
            f"({t0}, {t1}]"
        )


def first_chaos(
    stream: EventStream,
    path: IntensityPath,
    u: TestFunction,
    h_quad: float = DEFAULT_QUAD_STEP,
    quad_tol: float | None = None,
) -> InnovationSample:
    """delta(u): event sum minus the pathwise compensator integral.

    A quadrature error estimate above ``quad_tol`` is flagged with a warning,
    not an exception.
    """
    _check_support(u, stream)
    times = np.asarray(stream.times)
    event_sum = float(np.sum(u(times))) if times.size else 0.0
    compensator, err = weighted_intensity_integral(path, u, h_quad)
    if quad_tol is not None and err > quad_tol:
        warnings.warn(
            f"compensator quadrature error estimate {err:.3e} exceeds {quad_tol:.1e}",
            stacklevel=2,
        )
    return InnovationSample(
        value=event_sum - compensator,
        event_sum=event_sum,
        compensator=compensator,
        quad_error=err,
    )


def default_lambda_hat(params: HawkesParams) -> float:
    """nu/(1-mu) in the linear case (the exact rate), otherwise the midpoint
    of the intensity bracket."""
    if params.is_linear:
        return params.link.nu / (1.0 - params.kernel.l1_norm())
    low, high = intensity_bracket(params)
    return 0.5 * (low + high)


def approx_first_chaos(
    stream: EventStream,
    u: TestFunction,
    params: HawkesParams,
    lambda_hat: float | None = None,
    allow_out_of_bracket: bool = False,
) -> InnovationSample:
    """delta_a(u): event sum minus lambda_hat times the exact integral of u.

    ``lambda_hat`` defaults to the rate estimate of ``default_lambda_hat``;
    a user-supplied value outside the intensity bracket is rejected unless
    ``allow_out_of_bracket`` is set (then only warned about).
    """
    _check_support(u, stream)
    if lambda_hat is None:
        lam = default_lambda_hat(params)
    else:
        lam = float(lambda_hat)
        low, high = intensity_bracket(params)
        if not (low <= lam <= high):
            if not allow_out_of_bracket:
                raise ParameterError(
                    f"lambda_hat={lam} outside the intensity bracket [{low}, {high}]"
                )
            warnings.warn(
                f"lambda_hat={lam} outside the intensity bracket [{low}, {high}]",
                stacklevel=2,
            )
    times = np.asarray(stream.times)
    event_sum = float(np.sum(u(times))) if times.size else 0.0
    compensator = lam * u.integral()
    return InnovationSample(
        value=event_sum - compensator,
        event_sum=event_sum,
        compensator=compensator,
        quad_error=0.0,
        lambda_hat=lam,
    )


def intensity_moment_integrals(
    path: IntensityPath,
    u: TestFunction,
    h_quad: float = DEFAULT_QUAD_STEP,
) -> tuple[float, float]:
    """Pathwise (int u^2 lambda dt, int |u|^3 lambda dt), the Monte Carlo
    inputs of the resolvent-majorant bound."""
    m2, _ = weighted_intensity_integral(path, u.squared(), h_quad)
    m3, _ = weighted_intensity_integral(path, u.abs_power(3.0), h_quad)
    return m2, m3
