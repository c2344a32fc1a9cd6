"""Empirical distances to the standard normal, normal special functions,
and the confidence-interval recipe driven by a Wasserstein bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import erfc, ndtri

from .errors import ParameterError, StatisticalError

_SQRT2 = math.sqrt(2.0)
_SQRT2PI = math.sqrt(2.0 * math.pi)


def normal_cdf(x):
    """Standard normal CDF, accurate to full double precision."""
    x = np.asarray(x, dtype=float)
    out = 0.5 * erfc(-x / _SQRT2)
    return out if out.ndim else float(out)


def normal_pdf(x):
    x = np.asarray(x, dtype=float)
    out = np.exp(-0.5 * x * x) / _SQRT2PI
    return out if out.ndim else float(out)


def normal_quantile(q):
    """Inverse standard normal CDF (``scipy.special.ndtri``); q must lie
    strictly in (0, 1)."""
    scalar = np.isscalar(q) or np.asarray(q).ndim == 0
    q_arr = np.atleast_1d(np.asarray(q, dtype=float))
    if np.any(~((q_arr > 0.0) & (q_arr < 1.0))):
        raise ParameterError("quantile argument must lie strictly in (0, 1)")
    x = ndtri(q_arr)
    return float(x[0]) if scalar else x


@dataclass(frozen=True)
class SampleSet:
    """Sorted replication values with provenance metadata."""

    values: np.ndarray
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        vals = np.sort(np.asarray(self.values, dtype=float))
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


def _w1_sorted(x: np.ndarray, roots: np.ndarray) -> float:
    """Exact integral of |F_M - Phi| for sorted samples x.

    ``roots`` must be Phi^-1(i/M) for i = 1..M-1.  Between consecutive order
    statistics the empirical CDF is the constant c = i/M, so each piece is
    G(l) + G(r) - 2*G(clip(root)) with G(t) = A(t) - c*t; the two tails
    integrate to A(x_1) and A(x_M) - x_M in closed form.
    """
    m = x.size
    total = float(_antideriv(x[0]) + (_antideriv(x[-1]) - x[-1]))
    if m == 1:
        return total
    c = np.arange(1, m) / m
    left, right = x[:-1], x[1:]
    rc = np.clip(roots, left, right)
    g_left = _antideriv(left) - c * left
    g_right = _antideriv(right) - c * right
    g_root = _antideriv(rc) - c * rc
    total += float(np.sum(g_left + g_right - 2.0 * g_root))
    return total


def empirical_w1_to_normal(s: SampleSet) -> float:
    """Wasserstein-1 distance between the empirical distribution and the
    standard normal, computed exactly from the order statistics."""
    m = s.count
    roots = normal_quantile(np.arange(1, m) / m)
    return _w1_sorted(s.values, roots)


def kolmogorov_to_normal(s: SampleSet) -> float:
    """One-sample Kolmogorov-Smirnov statistic against the standard normal."""
    x = s.values
    m = x.size
    cdf = normal_cdf(x)
    upper = np.arange(1, m + 1) / m - cdf
    lower = cdf - np.arange(0, m) / m
    return float(max(np.max(upper), np.max(lower)))


def bootstrap_w1_se(s: SampleSet, n_boot: int = 200, seed: int = 0) -> float:
    """Plain bootstrap standard error of the empirical W1 distance."""
    if n_boot < 2:
        raise ParameterError(f"n_boot must be >= 2, got {n_boot}")
    m = s.count
    roots = normal_quantile(np.arange(1, m) / m)
    rng = np.random.default_rng(seed)
    stats = np.empty(n_boot)
    for b in range(n_boot):
        resample = np.sort(rng.choice(s.values, size=m, replace=True))
        stats[b] = _w1_sorted(resample, roots)
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
