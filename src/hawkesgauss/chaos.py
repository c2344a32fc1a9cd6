"""First chaos of a simulated path: the compensated integral
delta(u) = sum_i u(T_i) - int u(t) lambda(t) dt, and its approximation with a
constant rate estimate in place of lambda(t).

The compensator integral is cut into pieces at w's breakpoints, at events
and at kernel expiries, and every piece of a path is integrated in one numpy
pass: in closed form for the linear and the saturating-exp link on an
exponential kernel (the latter through the exponential integral E1), and
piecewise constant for box and zero kernels.  Only the tanh link and
tabulated kernels, which have no closed form, fall back to composite Simpson
per piece with a step-halving error estimate.  The closed forms take each
piece's start excitation and length (``_closed_form_integrals``), so the
lockstep engine in ``_lockstep`` integrates with the same code.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import exp1

from .bounds import intensity_bracket
from .errors import ParameterError
from .model import (
    BoxKernel,
    EventStream,
    ExponentialKernel,
    HawkesParams,
    LinearLink,
    SaturatingExpLink,
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


def _segment_points(path: IntensityPath, w: TestFunction) -> np.ndarray:
    """Ascending cuts of the support of w where w or the intensity jumps or
    kinks: w's breakpoints, and the events inside the support, plus their
    expiry times for compactly supported kernels."""
    bp = np.asarray(w.breakpoints)
    lo, hi = bp[0], bp[-1]
    events = np.asarray(path.events)
    cuts = np.union1d(bp, events[(events > lo) & (events < hi)])
    if math.isfinite(path.kernel.support_end):
        expiry = events + path.kernel.support_end
        cuts = np.union1d(cuts, expiry[(expiry > lo) & (expiry < hi)])
    return cuts


def _pieces(path: IntensityPath, w: TestFunction) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(starts, ends, values of w) of the pieces between consecutive cuts on
    which w is nonzero."""
    cuts = _segment_points(path, w)
    a, b = cuts[:-1], cuts[1:]
    idx = np.searchsorted(np.asarray(w.breakpoints), a, side="right") - 1
    v = np.asarray(w.values)[idx]
    keep = v != 0.0
    return a[keep], b[keep], v[keep]


# Ein(z) = int_0^z (1 - e^{-t})/t dt = sum_k (-1)^{k+1} z^k / (k k!): 28 terms
# reach rounding for z < _EIN_SWITCH and cost less than scipy's exp1 there,
# which takes about 1 us per value on [1, 3] against 0.15 us below 1 and
# above 5 (2-vCPU x86)
_EIN_SWITCH = 3.0
_EIN_SERIES = [(-1) ** (k + 1) / (k * math.factorial(k)) for k in range(28, 0, -1)]
# pieces with rate * length below _SHORT take the 4-node Gauss-Legendre rule
# on [-1, 1], whose truncation error there stays below 2e-15 relative; above
# it the Ein and E1 differences cancel by at most a factor of about 10.  Nodes
# and weights in closed form (numpy's leggauss would start LAPACK at import)
_SHORT = 0.1
_GL_INNER, _GL_OUTER = (math.sqrt(3 / 7 + q * 2 / 7 * math.sqrt(6 / 5)) for q in (-1, 1))
_GL_NODES = np.array([-_GL_OUTER, -_GL_INNER, _GL_INNER, _GL_OUTER])
_GL_WEIGHTS = (18 + math.sqrt(30) * np.array([-1, 1, 1, -1])) / 36


def _ein(z: np.ndarray) -> np.ndarray:
    """Ein(z) = E1(z) + ln z + gamma for z >= 0, without cancellation: by its
    series below _EIN_SWITCH, through E1 above."""
    out = np.empty_like(z)
    small = z < _EIN_SWITCH
    zs = z[small]
    acc = np.full_like(zs, _EIN_SERIES[0])
    for coef in _EIN_SERIES[1:]:
        acc *= zs
        acc += coef
    out[small] = zs * acc
    big = z[~small]
    out[~small] = exp1(big) + np.log(big) + np.euler_gamma
    return out


def _saturating_excess(c: np.ndarray, d: np.ndarray) -> np.ndarray:
    """int_0^d (1 - exp(-c e^{-t})) dt for c, d >= 0, to rounding.

    With y0 = c e^{-d} this is Ein(c) - Ein(y0) = d - (E1(y0) - E1(c)).  The
    E1 form serves y0 >= _EIN_SWITCH, where both E1 values are small; Ein
    serves smaller y0, so c = 0 and an underflowing y0 need no E1 call.
    Short pieces, where either difference would cancel, take Gauss-Legendre
    nodes.
    """
    out = np.empty_like(c)
    short = d < _SHORT
    half = 0.5 * d[short]
    t = half[:, None] * (1.0 + _GL_NODES)
    f = -np.expm1(-c[short, None] * np.exp(-t))
    out[short] = (f * _GL_WEIGHTS).sum(axis=1) * half
    y0 = c * np.exp(-d)
    far = ~short & (y0 >= _EIN_SWITCH)
    out[far] = d[far] - (exp1(y0[far]) - exp1(c[far]))
    near = ~short & (y0 < _EIN_SWITCH)
    out[near] = _ein(c[near]) - _ein(y0[near])
    return out


def _has_closed_form(kernel, link) -> bool:
    """Whether ``_closed_form_integrals`` serves this kernel and link."""
    return isinstance(kernel, ExponentialKernel) and isinstance(
        link, (LinearLink, SaturatingExpLink)
    )


def _closed_form_integrals(
    kernel: ExponentialKernel, link, s_a: np.ndarray, length: np.ndarray
) -> np.ndarray:
    """Integrals of lambda over pieces of the given lengths that hold no
    event, from the excitation s_a = S(a+) at each piece's start a, for an
    exponential kernel with the linear or the saturating-exp link."""
    rate = kernel.rate
    if isinstance(link, LinearLink):
        # int (nu + s_a e^{-rate u}) du
        return link.nu * length - s_a * np.expm1(-rate * length) / rate
    # int (cap - s exp(-(s_a/s) e^{-rate u})) du with s = cap - nu
    s = link.cap - link.nu
    return link.nu * length + s * _saturating_excess(s_a / s, rate * length) / rate


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


def _piece_integrals(
    path: IntensityPath, a: np.ndarray, b: np.ndarray, h_quad: float
) -> tuple[np.ndarray, np.ndarray]:
    """Integrals of lambda over the pieces (a[i], b[i]), none containing an
    event or expiry in its interior, with their error estimates."""
    kernel, link = path.kernel, path.link
    length = b - a
    exact = np.zeros_like(length)

    if kernel.l1_norm() == 0 or isinstance(kernel, BoxKernel):
        # excitation constant on the piece interior: take it at the midpoint,
        # so that events and expiries sitting exactly on a cut cannot leak in
        return link(path._excitation_at(0.5 * (a + b), "left")) * length, exact

    if isinstance(kernel, ExponentialKernel):
        s_a = path._excitation_at(a, "right")
        if _has_closed_form(kernel, link):
            return _closed_form_integrals(kernel, link, s_a, length), exact

    # no closed form: composite Simpson per piece
    vals = np.empty_like(length)
    errs = np.empty_like(length)
    for i, (lo, span) in enumerate(zip(a.tolist(), length.tolist())):
        n = max(8, math.ceil(span / h_quad))
        n += n % 2
        h2 = span / (2 * n)
        u = np.arange(2 * n + 1) * h2
        if isinstance(kernel, ExponentialKernel):
            s = s_a[i] * np.exp(-kernel.rate * u)
        else:
            s = path._excitation_grid(lo + u)
        vals[i], errs[i] = _simpson_pair(np.asarray(link(s), dtype=float), h2)
    return vals, errs


def weighted_intensity_integral(
    path: IntensityPath,
    w: TestFunction,
    h_quad: float = DEFAULT_QUAD_STEP,
) -> tuple[float, float]:
    """int w(t) lambda(t) dt over the support of the step function w."""
    a, b, v = _pieces(path, w)
    vals, errs = _piece_integrals(path, a, b, h_quad)
    return float(np.sum(v * vals)), float(np.sum(np.abs(v) * errs))


def _check_support(u: TestFunction, window: tuple) -> None:
    lo, hi = u.support
    t0, t1 = window
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
    _check_support(u, stream.window)
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
    _check_support(u, stream.window)
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
    inputs of the resolvent-majorant bound; the pieces of u are integrated
    once for both."""
    a, b, v = _pieces(path, u)
    vals, _ = _piece_integrals(path, a, b, h_quad)
    return float(np.sum(v * v * vals)), float(np.sum(np.abs(v) ** 3.0 * vals))
