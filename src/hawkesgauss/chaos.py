"""First chaos of a simulated path: the compensated integral
delta(u) = sum_i u(T_i) - int u(t) lambda(t) dt, and its approximation with a
constant rate estimate in place of lambda(t).

The compensator integral is cut into pieces at w's breakpoints, at events
and at every later age where an event's kernel term jumps or kinks (kernel
expiries, and the grid nodes of tabulated kernels), and every piece of a path
is integrated in one numpy pass: in closed form for the linear and the
saturating-exp link on an exponential kernel (the latter through the
exponential integral E1), and piecewise constant for box and zero kernels.
The tanh link and tabulated kernels, which have no closed form, take the
4-node Gauss-Legendre rule on every piece at once, with the difference from
the 3-node rule as error estimate; on a tabulated piece the excitation is
affine, so the linear link is exact there.  One pass integrates the pieces
once for the rows u, u^2 and |u|^3 of ``_weight_rows``.  The closed forms take
each piece's start excitation and length (``_closed_form_integrals``), so the
lockstep engine in ``_lockstep`` integrates its record of inter-event
intervals with the same code and rows, on pieces cut at events as here.
``scipy.special`` (about 0.3 s and 25 MB to import on a 2-vCPU x86 machine)
is imported where E1 is evaluated, not with the module.
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
    SaturatingExpLink,
    TabulatedKernel,
    TestFunction,
)
from .simulator import IntensityPath


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


def _kink_ages(kernel) -> np.ndarray:
    """Ages at which an event's term h(t - e) jumps or kinks: the grid nodes
    of a tabulated kernel, otherwise 0 and the end of the support."""
    if isinstance(kernel, TabulatedKernel):
        return kernel._grid
    return np.array([0.0, kernel.support_end])


def _segment_points(path: IntensityPath, w: TestFunction) -> np.ndarray:
    """Ascending cuts of the support of w where w or the intensity jumps or
    kinks: w's breakpoints, and each event plus each kink age inside the
    support, also for events before it."""
    bp = np.asarray(w.breakpoints)
    lo, hi = bp[0], bp[-1]
    knots = (np.asarray(path.events)[:, None] + _kink_ages(path.kernel)).ravel()
    return np.union1d(bp, knots[(knots > lo) & (knots < hi)])


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
# the 3-node rule, whose difference from the 4-node one is the error estimate
# where no closed form exists
_GL3_NODES = math.sqrt(3 / 5) * np.array([-1.0, 0.0, 1.0])
_GL3_WEIGHTS = np.array([5.0, 8.0, 5.0]) / 9
_QUAD_NODES = np.concatenate([_GL_NODES, _GL3_NODES])


def _ein(z: np.ndarray) -> np.ndarray:
    """Ein(z) = E1(z) + ln z + gamma for z >= 0, without cancellation: by its
    series below _EIN_SWITCH, through E1 above."""
    from scipy.special import exp1

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
    from scipy.special import exp1

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


#: the links that ``_closed_form_integrals`` serves on an exponential kernel
_CLOSED_FORM_LINKS = (LinearLink, SaturatingExpLink)


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


def _piece_integrals(
    path: IntensityPath, a: np.ndarray, b: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Integrals of lambda over the pieces (a[i], b[i]), none containing a cut
    of ``_segment_points`` in its interior, with their error estimates."""
    kernel, link = path.kernel, path.link
    length = b - a
    exact = np.zeros_like(length)

    if kernel.l1_norm() == 0 or isinstance(kernel, BoxKernel):
        # excitation constant on the piece interior: take it at the midpoint,
        # so that events and expiries sitting exactly on a cut cannot leak in
        return link(path._excitation_at(0.5 * (a + b), "left")) * length, exact

    if isinstance(kernel, ExponentialKernel):
        s_a = path._excitation_at(a, "right")
        if isinstance(link, _CLOSED_FORM_LINKS):
            return _closed_form_integrals(kernel, link, s_a, length), exact
        # S(a + x) = s_a e^{-rate x}, on equal sub-pieces with rate * length
        # below _SHORT
        n_sub = np.ceil(kernel.rate * length / _SHORT).astype(np.int64)
        piece = np.repeat(np.arange(length.size), n_sub)
        k = np.arange(piece.size) - np.repeat(np.cumsum(n_sub) - n_sub, n_sub)
        width = (length / n_sub)[piece]
        x = (k + 0.5 * (1.0 + _QUAD_NODES[:, None])) * width
        s = s_a[piece] * np.exp(-kernel.rate * x)
    else:
        # tabulated: every event's age stays within one grid cell, so S is
        # affine on the piece; read it at the quarter points
        piece, width = np.arange(length.size), length
        quarters = np.array([a + 0.25 * length, b - 0.25 * length])
        q0, q1 = path._excitation_at(quarters.ravel(), "left").reshape(2, -1)
        s = 0.5 * (q0 + q1) + (q1 - q0) * _QUAD_NODES[:, None]
    # one row per node: the 4-node rule, then the 3-node one
    f = np.asarray(link(s), dtype=float)
    i4 = 0.5 * width * (_GL_WEIGHTS @ f[:4])
    i3 = 0.5 * width * (_GL3_WEIGHTS @ f[4:])
    return (
        np.bincount(piece, i4, minlength=length.size),
        np.bincount(piece, np.abs(i4 - i3), minlength=length.size),
    )


def _weight_rows(values, moments: bool) -> np.ndarray:
    """Weights of a step function's pieces: the row of its values, then, with
    ``moments``, the rows of their squares and absolute cubes."""
    v = np.asarray(values, dtype=float)
    return np.stack([v, v * v, np.abs(v) ** 3.0]) if moments else v[None, :]


def _weighted_integrals(
    path: IntensityPath, w: TestFunction, rows: np.ndarray
) -> tuple[np.ndarray, float]:
    """int r(t) lambda(t) dt for each row r of ``rows`` (the step function
    with w's breakpoints and r as values), integrating the pieces once, and
    the first row's error estimate; w's support must lie in the window."""
    _check_support(w, (path.t_start, path.t_end))
    cuts = _segment_points(path, w)
    a, b = cuts[:-1], cuts[1:]
    idx = np.searchsorted(np.asarray(w.breakpoints), a, side="right") - 1
    keep = np.asarray(w.values)[idx] != 0.0
    a, b, idx = a[keep], b[keep], idx[keep]
    vals, errs = _piece_integrals(path, a, b)
    sums = np.array([np.sum(row[idx] * vals) for row in rows])
    return sums, float(np.sum(np.abs(rows[0][idx]) * errs))


def weighted_intensity_integral(path: IntensityPath, w: TestFunction) -> tuple[float, float]:
    """int w(t) lambda(t) dt over the support of the step function w, which
    must lie in the simulated window of the path."""
    sums, err = _weighted_integrals(path, w, _weight_rows(w.values, False))
    return float(sums[0]), err


def _check_support(u: TestFunction, window: tuple) -> None:
    lo, hi = u.support
    t0, t1 = window
    if lo < t0 or hi > t1:
        raise ParameterError(
            f"support ({lo}, {hi}] of u must lie inside the window ({t0}, {t1}]"
        )


def _event_sum(stream: EventStream, u: TestFunction) -> float:
    """sum_i u(T_i) over the events of the stream."""
    times = np.asarray(stream.times)
    return float(np.sum(u(times))) if times.size else 0.0


def first_chaos(
    stream: EventStream,
    path: IntensityPath,
    u: TestFunction,
    quad_tol: float | None = None,
) -> InnovationSample:
    """delta(u): event sum minus the pathwise compensator integral.

    A quadrature error estimate above ``quad_tol`` is flagged with a warning,
    not an exception.
    """
    _check_support(u, stream.window)
    event_sum = _event_sum(stream, u)
    compensator, err = weighted_intensity_integral(path, u)
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
    event_sum = _event_sum(stream, u)
    compensator = lam * u.integral()
    return InnovationSample(
        value=event_sum - compensator,
        event_sum=event_sum,
        compensator=compensator,
        quad_error=0.0,
        lambda_hat=lam,
    )


def intensity_moment_integrals(path: IntensityPath, u: TestFunction) -> tuple[float, float]:
    """Pathwise (int u^2 lambda dt, int |u|^3 lambda dt), the Monte Carlo
    inputs of the resolvent-majorant bound; the pieces of u are integrated
    once for both."""
    sums, _ = _weighted_integrals(path, u, _weight_rows(u.values, True))
    return float(sums[1]), float(sums[2])
