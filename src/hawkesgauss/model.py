"""Domain types: excitation kernels, link functions, step test functions,
process parameters and event streams.

All types are immutable after construction and safe to share across workers.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import Union

import numpy as np

from .errors import ParameterError, StabilityError


def _check_finite(name, x):
    if not math.isfinite(x):
        raise ParameterError(f"{name} must be finite, got {x!r}")


# ---------------------------------------------------------------------------
# Excitation kernels
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExponentialKernel:
    """h(t) = mass * rate * exp(-rate * t) for t > 0, zero for t <= 0.

    ``mass`` is the total integral of h; ``rate`` the decay rate.
    """

    rate: float
    mass: float

    def __post_init__(self):
        _check_finite("rate", self.rate)
        _check_finite("mass", self.mass)
        if self.rate <= 0:
            raise ParameterError(f"rate must be > 0, got {self.rate}")
        if self.mass < 0:
            raise ParameterError(f"mass must be >= 0, got {self.mass}")

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        out = np.where(t > 0, self.mass * self.rate * np.exp(-self.rate * np.maximum(t, 0.0)), 0.0)
        return out if out.ndim else float(out)

    def l1_norm(self) -> float:
        return self.mass

    def l2_norm(self) -> float:
        return self.mass * math.sqrt(self.rate / 2.0)

    @property
    def jump(self) -> float:
        """Right limit h(0+), the largest kernel value."""
        return self.mass * self.rate

    @property
    def support_end(self) -> float:
        return math.inf

    @property
    def is_nonincreasing(self) -> bool:
        return True


@dataclass(frozen=True)
class BoxKernel:
    """h(t) = mass / width on (0, width], zero elsewhere."""

    width: float
    mass: float

    def __post_init__(self):
        _check_finite("width", self.width)
        _check_finite("mass", self.mass)
        if self.width <= 0:
            raise ParameterError(f"width must be > 0, got {self.width}")
        if self.mass < 0:
            raise ParameterError(f"mass must be >= 0, got {self.mass}")

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        out = np.where((t > 0) & (t <= self.width), self.mass / self.width, 0.0)
        return out if out.ndim else float(out)

    def l1_norm(self) -> float:
        return self.mass

    def l2_norm(self) -> float:
        return self.mass / math.sqrt(self.width)

    @property
    def jump(self) -> float:
        return self.mass / self.width

    @property
    def support_end(self) -> float:
        return self.width

    @property
    def is_nonincreasing(self) -> bool:
        return True


@dataclass(frozen=True)
class TabulatedKernel:
    """Kernel given by values on the uniform grid 0, step, ..., K*step.

    Evaluation interpolates linearly inside [0, K*step] and is zero beyond.
    Norms integrate the interpolant exactly (trapezoid for L1, piecewise
    quadratic for L2); they and ``is_nonincreasing`` are computed once per
    kernel.
    """

    step: float
    values: tuple

    def __post_init__(self):
        _check_finite("step", self.step)
        if self.step <= 0:
            raise ParameterError(f"step must be > 0, got {self.step}")
        vals = tuple(float(v) for v in self.values)
        if len(vals) < 2:
            raise ParameterError("need at least two grid values")
        arr = np.asarray(vals)
        if not np.all(np.isfinite(arr)):
            raise ParameterError("kernel values must be finite")
        if np.any(arr < 0):
            raise ParameterError("kernel values must be nonnegative")
        object.__setattr__(self, "values", vals)

    @cached_property
    def _array(self) -> np.ndarray:
        """The grid values as a read-only array, built once per kernel."""
        arr = np.asarray(self.values)
        arr.setflags(write=False)
        return arr

    @cached_property
    def _grid(self) -> np.ndarray:
        """The grid nodes 0, step, ..., K*step, read-only, built once per kernel."""
        grid = np.arange(len(self.values)) * self.step
        grid.setflags(write=False)
        return grid

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        out = np.interp(t, self._grid, self._array, left=0.0, right=0.0)
        out = np.where((t > 0) & (t <= self.support_end), out, 0.0)
        return out if out.ndim else float(out)

    @cached_property
    def _l1(self) -> float:
        return float(np.trapezoid(self._array, dx=self.step))

    @cached_property
    def _l2(self) -> float:
        v = self._array
        a, b = v[:-1], v[1:]
        # exact integral of the squared linear interpolant per cell
        sq = self.step * np.sum(a * a + a * b + b * b) / 3.0
        return math.sqrt(sq)

    def l1_norm(self) -> float:
        return self._l1

    def l2_norm(self) -> float:
        return self._l2

    @property
    def jump(self) -> float:
        return float(self.values[0])

    @property
    def support_end(self) -> float:
        return (len(self.values) - 1) * self.step

    @cached_property
    def is_nonincreasing(self) -> bool:
        return bool(np.all(np.diff(self._array) <= 0))


Kernel = Union[ExponentialKernel, BoxKernel, TabulatedKernel]


# ---------------------------------------------------------------------------
# Link functions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Link:
    """What every link shares: phi(0) = nu > 0 and slope at most 1, the two
    facts the bounds read, as ``phi0`` and ``lipschitz``."""

    nu: float

    def __post_init__(self):
        _check_finite("nu", self.nu)
        if self.nu <= 0:
            raise ParameterError(f"nu must be > 0, got {self.nu}")

    @property
    def phi0(self) -> float:
        return self.nu

    @property
    def lipschitz(self) -> float:
        return 1.0


@dataclass(frozen=True)
class LinearLink(_Link):
    """phi(x) = nu + x."""

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        out = self.nu + x
        return out if out.ndim else float(out)


@dataclass(frozen=True)
class SaturatingExpLink(_Link):
    """phi(x) = cap - (cap - nu) * exp(-x / (cap - nu)).

    Starts at nu, saturates at cap; slope exp(-x/(cap-nu)) <= 1.
    """

    cap: float

    def __post_init__(self):
        super().__post_init__()
        _check_finite("cap", self.cap)
        if self.cap <= self.nu:
            raise ParameterError(f"cap must exceed nu, got cap={self.cap}, nu={self.nu}")

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        s = self.cap - self.nu
        out = self.cap - s * np.exp(-x / s)
        return out if out.ndim else float(out)


@dataclass(frozen=True)
class TanhLink(_Link):
    """phi(x) = nu + amplitude * tanh(x / amplitude); slope at most 1."""

    amplitude: float

    def __post_init__(self):
        super().__post_init__()
        _check_finite("amplitude", self.amplitude)
        if self.amplitude <= 0:
            raise ParameterError(f"amplitude must be > 0, got {self.amplitude}")

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        out = self.nu + self.amplitude * np.tanh(x / self.amplitude)
        return out if out.ndim else float(out)


LinkFunction = Union[LinearLink, SaturatingExpLink, TanhLink]


# ---------------------------------------------------------------------------
# Step test functions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TestFunction:
    """Piecewise-constant function with bounded support.

    ``values[i]`` holds on the half-open interval (breakpoints[i],
    breakpoints[i+1]]; the function is zero outside the support.  All L^p
    norms are exact finite sums.
    """

    breakpoints: tuple
    values: tuple

    def __post_init__(self):
        bp = tuple(float(b) for b in self.breakpoints)
        vals = tuple(float(v) for v in self.values)
        if len(bp) != len(vals) + 1:
            raise ParameterError("need exactly one more breakpoint than values")
        if len(vals) == 0:
            raise ParameterError("need at least one interval")
        if not all(map(math.isfinite, bp)) or not all(map(math.isfinite, vals)):
            raise ParameterError("breakpoints and values must be finite")
        if not all(map(float.__lt__, bp, bp[1:])):
            raise ParameterError("breakpoints must be strictly ascending")
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "values", vals)

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        bp = np.asarray(self.breakpoints)
        vals = np.asarray(self.values)
        idx = np.searchsorted(bp, t, side="left")
        inside = (idx >= 1) & (idx <= len(vals))
        out = np.where(inside, vals[np.clip(idx - 1, 0, len(vals) - 1)], 0.0)
        return out if out.ndim else float(out)

    @property
    def widths(self) -> np.ndarray:
        return np.diff(np.asarray(self.breakpoints))

    @property
    def support(self) -> tuple:
        return (self.breakpoints[0], self.breakpoints[-1])

    @cached_property
    def norms(self) -> MappingProxyType:
        """Read-only record of the norms the bounds read, computed once:
        ``u_l1``, ``u_l2``, ``u_l3`` = ||u||_p and ``u_sq_l2``, ``u_sq_l1`` =
        ||u^2||_p, each bit for bit what ``lp_norm`` returns.  The products and
        roots are Python float arithmetic, which rounds as numpy does; the
        cube and the sums stay numpy's, whose power and pairwise summation
        round differently from Python's."""
        bp = self.breakpoints
        widths = list(map(float.__sub__, bp[1:], bp))
        a = list(map(abs, self.values))
        sq = [x * x for x in a]
        rows = np.array((a, sq, np.array(a) ** 3, [x * x for x in sq], sq))
        l1, l2sq, l3cube, sq_l2sq, sq_l1 = (rows * widths).sum(axis=1).tolist()
        return MappingProxyType({"u_l1": l1, "u_l2": l2sq**0.5, "u_l3": l3cube ** (1.0 / 3.0),
                                 "u_sq_l2": sq_l2sq**0.5, "u_sq_l1": sq_l1})

    def lp_norm(self, p: float) -> float:
        if not 1 <= p < math.inf:
            raise ParameterError(f"p must be in [1, inf), got {p}")
        vals = np.abs(np.asarray(self.values))
        return float(np.sum(vals**p * self.widths) ** (1.0 / p))

    def integral(self) -> float:
        """Signed integral of the function over its support."""
        return float(np.sum(np.asarray(self.values) * self.widths))

    def squared(self) -> "TestFunction":
        return TestFunction(self.breakpoints, tuple(v * v for v in self.values))

    def abs_power(self, p: float) -> "TestFunction":
        return TestFunction(self.breakpoints, tuple(abs(v) ** p for v in self.values))

    def scaled(self, c: float) -> "TestFunction":
        return TestFunction(self.breakpoints, tuple(c * v for v in self.values))


def unit_variance_indicator(phi0: float, alpha_mu: float, ell: float) -> TestFunction:
    """Indicator of (0, ell] scaled so the stationary innovation has unit variance.

    The level is 1/sqrt(phi0*ell/(1-alpha_mu)), which makes
    ||u||_{L2}^2 = (1-alpha_mu)/phi0 and ||u||_{L1} = sqrt((1-alpha_mu)*ell/phi0).
    """
    if not (phi0 > 0 and math.isfinite(phi0)):
        raise ParameterError(f"phi0 must be > 0, got {phi0}")
    if not (0 <= alpha_mu < 1):
        raise ParameterError(f"alpha_mu must be in [0, 1), got {alpha_mu}")
    if not (ell > 0 and math.isfinite(ell)):
        raise ParameterError(f"ell must be > 0, got {ell}")
    level = math.sqrt((1.0 - alpha_mu) / (phi0 * ell))
    return TestFunction((0.0, ell), (level,))


# ---------------------------------------------------------------------------
# Process parameters and event streams
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HawkesParams:
    """Kernel/link pair; construction enforces the stability product alpha*mu < 1."""

    kernel: Kernel
    link: LinkFunction

    def __post_init__(self):
        am = self.alpha_mu
        if not am < 1:
            raise StabilityError(
                f"stability requires alpha*mu < 1, got alpha*mu = {am}"
            )

    @property
    def alpha_mu(self) -> float:
        return self.link.lipschitz * self.kernel.l1_norm()

    @property
    def phi0(self) -> float:
        return self.link.phi0

    @property
    def is_linear(self) -> bool:
        return isinstance(self.link, LinearLink)


@dataclass(frozen=True)
class EventStream:
    """Strictly ascending event times on the half-open window (t_start, t_end]."""

    times: tuple
    window: tuple
    seed: int | None = None

    def __post_init__(self):
        t0, t1 = (float(self.window[0]), float(self.window[1]))
        if not (math.isfinite(t0) and math.isfinite(t1) and t0 < t1):
            raise ParameterError(f"window must be a finite increasing pair, got {self.window}")
        times = tuple(float(t) for t in self.times)
        arr = np.asarray(times)
        if arr.size:
            if not np.all(np.isfinite(arr)):
                raise ParameterError("event times must be finite")
            if not np.all(np.diff(arr) > 0):
                raise ParameterError("event times must be strictly ascending")
            if arr[0] <= t0 or arr[-1] > t1:
                raise ParameterError("event times must lie in (t_start, t_end]")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "window", (t0, t1))

    def __len__(self):
        return len(self.times)

    def count_in(self, a: float, b: float) -> int:
        """Number of events in (a, b]."""
        return bisect_right(self.times, b) - bisect_right(self.times, a)

    def serialize(self) -> str:
        t0, t1 = self.window
        seed = self.seed if self.seed is not None else "-"
        lines = [f"# window {t0!r} {t1!r} {seed}"]
        lines.extend(repr(t) for t in self.times)
        return "\n".join(lines) + "\n"

    @classmethod
    def parse(cls, text: str) -> "EventStream":
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines or not lines[0].startswith("# window"):
            raise ParameterError("missing '# window t_start t_end seed' header")
        head = lines[0].split()
        if len(head) != 5:
            raise ParameterError(f"malformed header: {lines[0]!r}")
        try:
            t0, t1 = float(head[2]), float(head[3])
            seed = None if head[4] == "-" else int(head[4])
            times = tuple(float(ln) for ln in lines[1:])
        except ValueError as exc:
            raise ParameterError(f"malformed event stream: {exc}") from None
        return cls(times=times, window=(t0, t1), seed=seed)
