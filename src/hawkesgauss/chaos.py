"""First chaos of a simulated path: the compensated integral
delta(u) = sum_i u(T_i) - int u(t) lambda(t) dt, and its approximation with a
constant rate estimate in place of lambda(t).

The compensator integral is cut into pieces at w's breakpoints, at events
and at every later age where an event's kernel term jumps or kinks (kernel
expiries, and the grid nodes of tabulated kernels), and every piece of a path
is integrated in one numpy pass.  On an exponential kernel S = s e^{-rate x}
on a piece, so every link integrates in closed form in S: the linear link
directly, and both nonlinear links by one difference F(c) - F(c e^{-rate L})
of a primitive, F = Ein(z) = int_0^z (1 - e^{-t})/t dt for the saturating-exp
link and F = T(z) = int_0^z tanh(t)/t dt for the tanh link.  Box and zero
kernels are piecewise constant.  Tabulated kernels take the 4-node
Gauss-Legendre rule on every piece at once, with the difference from the
3-node rule as error estimate; their excitation is affine on a piece, so the
linear link is exact there.  One pass integrates the pieces once for the rows
u, u^2 and |u|^3 of ``_weight_rows``.  The closed forms take each piece's
start excitation and length (``_closed_form_integrals``), so the lockstep
engine in ``_lockstep`` integrates its record of inter-event intervals with
the same code and rows.  T and, beyond its series, Ein are read from
cumulative tables of 4-node panels built at import (``_panel_table``), so
no special-function library is needed.
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
    # sort and drop repeats by hand: np.unique (and np.union1d through it)
    # imports numpy.ma on first use, about 15 ms
    cuts = np.sort(np.concatenate([bp, knots[(knots > lo) & (knots < hi)]]))
    return cuts[np.concatenate([[True], cuts[1:] != cuts[:-1]])]


# pieces with rate * length below _SHORT take the 4-node Gauss-Legendre rule
# on [-1, 1], whose truncation error there stays below 2e-15 relative; above
# it the Ein and T differences cancel by at most a factor of about 10.  Nodes and
# weights in closed form (numpy's leggauss would start LAPACK at import)
_SHORT = 0.1
_GL_INNER, _GL_OUTER = (math.sqrt(3 / 7 + q * 2 / 7 * math.sqrt(6 / 5)) for q in (-1, 1))
_GL_NODES = np.array([-_GL_OUTER, -_GL_INNER, _GL_INNER, _GL_OUTER])
_GL_WEIGHTS = (18 + math.sqrt(30) * np.array([-1, 1, 1, -1])) / 36
# the 3-node rule: its difference from the 4-node one is the error estimate
_GL3_NODES = math.sqrt(3 / 5) * np.array([-1.0, 0.0, 1.0])
_GL3_WEIGHTS = np.array([5.0, 8.0, 5.0]) / 9
_QUAD_NODES = np.concatenate([_GL_NODES, _GL3_NODES])
# T(z) = int_0^z tanh(t)/t dt is tabulated at multiples of _T_STEP below
# _T_FAR, one 4-node panel each (tanh's poles lie pi/2 off the axis, so a
# panel's error is below 1e-16); beyond, T(z) = ln z + ln(4/pi) + gamma up to
# less than e^{-2z}/z
_T_STEP, _T_FAR = 1 / 16, 18.5
# Ein(z) = int_0^z (1 - e^{-t})/t dt = sum_k (-1)^{k+1} z^k / (k k!): 28 terms
# reach rounding for z < _EIN_SWITCH, beyond which the alternating terms
# cancel; from there to _EIN_FAR Ein is tabulated like T (its integrand is
# entire), and beyond, Ein(z) = ln z + gamma up to E1(z) < 3e-18
_EIN_SWITCH, _EIN_FAR = 3.0, 37.0
_EIN_SERIES = [(-1) ** (k + 1) / (k * math.factorial(k)) for k in range(28, 0, -1)]


def _gauss4(f, a, b) -> np.ndarray:
    """int_a^b f(t) dt by the 4-node rule, one panel per entry of b."""
    half = 0.5 * (b - a)
    t = np.reshape(a, (-1, 1)) + half[:, None] * (1.0 + _GL_NODES)
    return (f(t) * _GL_WEIGHTS).sum(axis=1) * half


def _tanh_ratio(t: np.ndarray) -> np.ndarray:
    """tanh(t)/t, continued by 1 at t = 0."""
    return np.divide(np.tanh(t), t, out=np.ones_like(t), where=t != 0.0)


def _ein_ratio(t: np.ndarray) -> np.ndarray:
    """(1 - e^{-t})/t for t > 0."""
    return -np.expm1(-t) / t


def _panel_table(ratio, far: float) -> np.ndarray:
    """int_0^{k _T_STEP} ratio(t) dt for k = 0 .. far/_T_STEP, one 4-node
    panel per step."""
    edges = np.arange(far / _T_STEP + 1) * _T_STEP
    return np.concatenate([[0.0], np.cumsum(_gauss4(ratio, edges[:-1], edges[1:]))])


_T_TABLE = _panel_table(_tanh_ratio, _T_FAR)
_EIN_TABLE = _panel_table(_ein_ratio, _EIN_FAR)


def _tabulated(z: np.ndarray, ratio, table: np.ndarray, far_offset: float) -> np.ndarray:
    """int_0^z ratio(t) dt for z >= 0 from its ``_panel_table``: the nearest
    table entry plus one panel to z below the table's end, ln z + far_offset
    beyond."""
    far = (table.size - 1) * _T_STEP
    out = np.log(np.maximum(z, far)) + far_offset
    near = z < far
    k = np.rint(z[near] / _T_STEP).astype(np.intp)
    out[near] = table[k] + _gauss4(ratio, k * _T_STEP, z[near])
    return out


def _tanh_integral(z: np.ndarray) -> np.ndarray:
    """T(z) for z >= 0."""
    return _tabulated(z, _tanh_ratio, _T_TABLE, math.log(4 / math.pi) + np.euler_gamma)


def _ein(z: np.ndarray) -> np.ndarray:
    """Ein(z) = E1(z) + ln z + gamma for z >= 0, without cancellation: by its
    series below _EIN_SWITCH, from its table above."""
    out = np.empty_like(z)
    small = z < _EIN_SWITCH
    zs = z[small]
    acc = np.full_like(zs, _EIN_SERIES[0])
    for coef in _EIN_SERIES[1:]:
        acc *= zs
        acc += coef
    out[small] = zs * acc
    out[~small] = _tabulated(z[~small], _ein_ratio, _EIN_TABLE, np.euler_gamma)
    return out


def _closed_form_integrals(
    kernel: ExponentialKernel, link, s_a: np.ndarray, length: np.ndarray
) -> np.ndarray:
    """Integrals of lambda over pieces of the given lengths that hold no
    event, from the excitation s_a = S(a+) at each piece's start a, for an
    exponential kernel: S = s_a e^{-rate u} on the piece."""
    rate = kernel.rate
    if isinstance(link, LinearLink):
        # int (nu + s_a e^{-rate u}) du
        return link.nu * length - s_a * np.expm1(-rate * length) / rate
    # int (nu + s g(S/s)) du = nu L + (s/rate) int_0^d g(c e^{-t}) dt with
    # c = s_a/s and d = rate L: F(c) - F(c e^{-d}) with F(z) = int_0^z g(t)/t dt,
    # or on short pieces, where that difference would cancel, the 4-node rule in t
    if isinstance(link, SaturatingExpLink):
        s, g, primitive = link.cap - link.nu, lambda y: -np.expm1(-y), _ein
    else:
        s, g, primitive = link.amplitude, np.tanh, _tanh_integral
    c, d = s_a / s, rate * length
    excess = np.empty_like(c)
    short = d < _SHORT
    excess[short] = _gauss4(lambda t: g(c[short, None] * np.exp(-t)), 0.0, d[short])
    cl = c[~short]
    excess[~short] = primitive(cl) - primitive(cl * np.exp(-d[~short]))
    return link.nu * length + s * excess / rate


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
        return _closed_form_integrals(kernel, link, s_a, length), exact

    # tabulated: every event's age stays within one grid cell, so S is affine
    # on the piece; read it at the quarter points
    quarters = np.array([a + 0.25 * length, b - 0.25 * length])
    q0, q1 = path._excitation_at(quarters.ravel(), "left").reshape(2, -1)
    s = 0.5 * (q0 + q1) + (q1 - q0) * _QUAD_NODES[:, None]
    # one row per node: the 4-node rule, then the 3-node one
    f = np.asarray(link(s), dtype=float)
    i4 = 0.5 * length * (_GL_WEIGHTS @ f[:4])
    i3 = 0.5 * length * (_GL3_WEIGHTS @ f[4:])
    return i4, np.abs(i4 - i3)


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
