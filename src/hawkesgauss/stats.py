"""Empirical distances to the standard normal, normal special functions,
and the confidence-interval recipe driven by a Wasserstein bound.

The normal CDF and quantile come from the standard library, ``math.erfc``
and ``statistics.NormalDist.inv_cdf`` (Wichura's AS 241), one element at a
time; scipy is not imported, which spares a verification run about 0.2 s and
17 MB (2-vCPU x86).  The W1 distances need Phi^-1(i/m) and A there for each
sample size m, computed once per size by ``_w1_roots``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from statistics import NormalDist

import numpy as np

from .errors import ParameterError, StatisticalError

_SQRT2 = math.sqrt(2.0)
_SQRT2PI = math.sqrt(2.0 * math.pi)


def _elementwise(f, x: np.ndarray) -> np.ndarray:
    """The scalar function f applied to every element of the float array x."""
    return np.fromiter(map(f, x.ravel().tolist()), float, x.size).reshape(x.shape)


def normal_cdf(x):
    """Standard normal CDF, accurate to full double precision."""
    x = np.asarray(x, dtype=float)
    out = 0.5 * _elementwise(math.erfc, -x / _SQRT2)
    return out if out.ndim else float(out)


def normal_pdf(x):
    x = np.asarray(x, dtype=float)
    out = np.exp(-0.5 * x * x) / _SQRT2PI
    return out if out.ndim else float(out)


def normal_quantile(q):
    """Inverse standard normal CDF (``statistics.NormalDist.inv_cdf``); q
    must lie strictly in (0, 1)."""
    scalar = np.isscalar(q) or np.asarray(q).ndim == 0
    q_arr = np.atleast_1d(np.asarray(q, dtype=float))
    if np.any(~((q_arr > 0.0) & (q_arr < 1.0))):
        raise ParameterError("quantile argument must lie strictly in (0, 1)")
    x = _elementwise(NormalDist().inv_cdf, q_arr)
    return float(x[0]) if scalar else x


@dataclass(frozen=True)
class SampleSet:
    """Sorted replication values with provenance metadata."""

    values: np.ndarray
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 1:
            raise StatisticalError(f"samples must be one-dimensional, got shape {vals.shape}")
        vals = np.sort(vals)
        if vals.size < 2:
            raise StatisticalError(f"need at least 2 samples, got {vals.size}")
        if not np.all(np.isfinite(vals)):
            raise StatisticalError("samples must be finite")
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    @property
    def count(self) -> int:
        return int(self.values.size)


def _antideriv(x: np.ndarray) -> np.ndarray:
    """A(x) = x*Phi(x) + pdf(x), an antiderivative of Phi."""
    return x * normal_cdf(x) + normal_pdf(x)


@lru_cache(maxsize=4)
def _w1_roots(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only Phi^-1(i/m) for i = 1..m-1 and A there, the roots that
    ``_w1_rows`` takes for samples of size m."""
    roots = normal_quantile(np.arange(1, m) / m)
    a_roots = _antideriv(roots)
    roots.flags.writeable = a_roots.flags.writeable = False
    return roots, a_roots


def _w1_rows(
    x: np.ndarray, a_x: np.ndarray, roots: np.ndarray, a_roots: np.ndarray
) -> np.ndarray:
    """Exact integral of |F_M - Phi| for each sorted row of x, shape (B, M).

    ``a_x`` must be A(x), ``roots`` Phi^-1(i/M) for i = 1..M-1 and
    ``a_roots`` A(roots).
    Between consecutive order statistics l <= r the empirical CDF is the
    constant c = i/M, so each piece is G(l) + G(r) - 2*G(clip(root)) with
    G(t) = A(t) - c*t, the clipped root taking A from l, r or the root; the
    two tails integrate to A(x_1) and A(x_M) - x_M in closed form.
    """
    c = np.arange(1, x.shape[1]) / x.shape[1]
    left, right, a_left, a_right = x[:, :-1], x[:, 1:], a_x[:, :-1], a_x[:, 1:]
    below, above = roots < left, roots > right
    rc = np.where(below, left, np.where(above, right, roots))
    a_rc = np.where(below, a_left, np.where(above, a_right, a_roots))
    pieces = (a_left - c * left) + (a_right - c * right) - 2.0 * (a_rc - c * rc)
    return a_x[:, 0] + (a_x[:, -1] - x[:, -1]) + np.sum(pieces, axis=1)


def empirical_w1_to_normal(s: SampleSet) -> float:
    """Wasserstein-1 distance between the empirical distribution and the
    standard normal, computed exactly from the order statistics."""
    x = s.values[None, :]
    return float(_w1_rows(x, _antideriv(x), *_w1_roots(s.count))[0])


def kolmogorov_to_normal(s: SampleSet) -> float:
    """One-sample Kolmogorov-Smirnov statistic against the standard normal."""
    x = s.values
    m = x.size
    cdf = normal_cdf(x)
    upper = np.arange(1, m + 1) / m - cdf
    lower = cdf - np.arange(0, m) / m
    return float(max(np.max(upper), np.max(lower)))


#: values that ``bootstrap_w1_se`` resamples and integrates at a time, in
#: blocks of max(1, _BOOT_BLOCK // m) resamples; the draws do not depend on it
_BOOT_BLOCK = 2**12


def bootstrap_w1_se(s: SampleSet, n_boot: int = 200, seed: int = 0) -> float:
    """Plain bootstrap standard error of the empirical W1 distance; resample
    b is the b-th ``rng.choice(values, size=m)`` of ``default_rng(seed)``.

    The draws are taken as the indices ``rng.integers(0, m)`` that
    ``rng.choice`` draws; the values being sorted, the sorted indices of a
    resample gather it sorted, with A(x) = x Phi(x) + phi(x) computed once
    per sample value rather than once per resampled value."""
    if not isinstance(n_boot, (int, np.integer)) or n_boot < 2:
        raise ParameterError(f"n_boot must be an integer >= 2, got {n_boot!r}")
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ParameterError(f"seed must be a nonnegative integer, got {seed!r}")
    m = s.count
    roots, a_roots = _w1_roots(m)
    a_values = _antideriv(s.values)
    rng = np.random.default_rng(seed)
    rows = max(1, _BOOT_BLOCK // m)
    stats = np.empty(n_boot)
    for start in range(0, n_boot, rows):
        k = min(rows, n_boot - start)
        idx = np.sort(rng.integers(0, m, size=(k, m)), axis=1)
        stats[start:start + k] = _w1_rows(s.values[idx], a_values[idx], roots, a_roots)
    return float(np.std(stats, ddof=1))


@dataclass(frozen=True)
class ConfidenceInterval:
    """Two-sided interval with a guaranteed coverage floor, or the smallest
    usable beta when the Wasserstein bound is too large."""

    feasible: bool
    lower: float | None
    upper: float | None
    coverage_floor: float | None
    min_feasible_beta: float


def confidence_interval(bound: float, beta: float) -> ConfidenceInterval:
    """Interval (Phi^-1(beta/2), Phi^-1(1-beta/2)] covering the innovation
    with probability at least 1-2*beta, feasible when 2*sqrt(bound) <= beta/2.
    """
    if not (bound >= 0 and math.isfinite(bound)):
        raise ParameterError(f"bound must be a finite nonnegative real, got {bound}")
    if not (0 < beta < 0.5):
        raise ParameterError(f"beta must lie in (0, 1/2), got {beta}")
    min_beta = 4.0 * math.sqrt(bound)
    if 2.0 * math.sqrt(bound) <= beta / 2.0:
        return ConfidenceInterval(
            feasible=True,
            lower=normal_quantile(beta / 2.0),
            upper=normal_quantile(1.0 - beta / 2.0),
            coverage_floor=1.0 - 2.0 * beta,
            min_feasible_beta=min_beta,
        )
    return ConfidenceInterval(
        feasible=False,
        lower=None,
        upper=None,
        coverage_floor=None,
        min_feasible_beta=min_beta,
    )
