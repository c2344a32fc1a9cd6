"""Event-stream generation.

``simulate`` is the production engine: Ogata-style thinning with a per-event
dominating rate, valid because the built-in kernels are nonincreasing and the
links nondecreasing, so the intensity only decays between events.

``embedding_simulate`` is a small-scale cross-validator that runs the literal
iterative construction driven by one shared planar Poisson field, truncated
to a finite mark strip.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ParameterError, SimulationError, TruncationError
from .kernels import default_horizon
from .model import (
    BoxKernel,
    EventStream,
    ExponentialKernel,
    HawkesParams,
)


@dataclass(frozen=True)
class SimConfig:
    """One replication's full description; identical configs give identical output."""

    params: HawkesParams
    t_end: float
    burn_in: float = 0.0
    seed: int = 0
    replication: int = 0

    def __post_init__(self):
        if not (self.t_end > 0 and math.isfinite(self.t_end)):
            raise ParameterError(f"t_end must be > 0, got {self.t_end}")
        if not (self.burn_in >= 0 and math.isfinite(self.burn_in)):
            raise ParameterError(f"burn_in must be >= 0, got {self.burn_in}")
        if not (0 <= int(self.seed) < 2**64):
            raise ParameterError("seed must fit in 64 bits")
        if int(self.replication) < 0:
            raise ParameterError("replication index must be >= 0")


def rng_for(seed: int, replication: int) -> np.random.Generator:
    """Counter-based stream keyed by (seed, replication): serial and parallel
    execution orders see identical draws."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(int(replication),))
    return np.random.Generator(np.random.Philox(ss))


def default_burn_in(params: HawkesParams, tail_fraction: float = 1e-4) -> float:
    """Burn-in long enough that the resolvent mass beyond it is below
    ``tail_fraction`` of its total (``kernels.default_horizon``); 0 when
    there is no excitation."""
    if params.alpha_mu <= 0:
        return 0.0
    return default_horizon(params.kernel, params.link.lipschitz, tail_fraction)


class _ExcitationState:
    """Right limit S(t+) of the excitation sum over past events; an event
    exactly at t counts with weight h(0+)."""

    def __init__(self, kernel):
        self.kernel = kernel
        self.events: list[float] = []

    def value_at(self, t: float) -> float:
        raise NotImplementedError

    def add_event(self, t: float) -> None:
        self.events.append(t)


class _ExponentialState(_ExcitationState):
    """O(1) Markov recursion: S decays by exp(-rate*dt) between events."""

    def __init__(self, kernel: ExponentialKernel):
        super().__init__(kernel)
        self._s = 0.0
        self._t = None

    def value_at(self, t: float) -> float:
        if self._t is None:
            return 0.0
        return self._s * math.exp(-self.kernel.rate * (t - self._t))

    def add_event(self, t: float) -> None:
        self._s = self.value_at(t) + self.kernel.jump
        self._t = t
        super().add_event(t)


class _WindowState(_ExcitationState):
    """Sliding event-window sum for compactly supported kernels."""

    def value_at(self, t: float) -> float:
        lo = bisect_left(self.events, t - self.kernel.support_end)
        hi = bisect_right(self.events, t)
        if isinstance(self.kernel, BoxKernel):
            return (hi - lo) * self.kernel.jump
        if hi == lo:
            return 0.0
        ages = t - np.asarray(self.events[lo:hi])
        vals = np.asarray(self.kernel(ages), dtype=float)
        vals[ages <= 0] = self.kernel.jump
        return float(vals.sum())


def _make_state(kernel) -> _ExcitationState:
    if isinstance(kernel, ExponentialKernel):
        return _ExponentialState(kernel)
    return _WindowState(kernel)


def simulate(
    cfg: SimConfig,
    dominating_rate: Callable[[float], float] | None = None,
) -> tuple[EventStream, "IntensityPath"]:
    """Thinning simulation on (-burn_in, t_end] from an empty past.

    The dominating rate after each accepted or rejected candidate is
    phi(S(t+)), exact for nonincreasing kernels.  Tabulated kernels that are
    not nonincreasing need ``dominating_rate``, a map from the post-event
    excitation sum to a bound on all later intensity values.
    """
    params = cfg.params
    kernel, link = params.kernel, params.link
    if kernel.l1_norm() > 0 and not kernel.is_nonincreasing and dominating_rate is None:
        raise SimulationError(
            "kernel is not nonincreasing: supply dominating_rate to bound the intensity"
        )
    envelope = dominating_rate if dominating_rate is not None else link

    rng = rng_for(cfg.seed, cfg.replication)
    t_start = -cfg.burn_in
    t = t_start
    state = _make_state(kernel)
    events: list[float] = []

    while True:
        lam_bar = float(envelope(state.value_at(t)))
        if lam_bar <= 0:
            raise SimulationError(f"dominating rate {lam_bar} <= 0 at t={t}", time=t)
        t_cand = t + rng.exponential(1.0 / lam_bar)
        if t_cand > cfg.t_end:
            break
        lam_cand = float(link(state.value_at(t_cand)))
        if lam_cand > lam_bar * (1.0 + 1e-9):
            raise SimulationError(
                f"candidate intensity {lam_cand} exceeds dominating rate {lam_bar} "
                f"at t={t_cand}",
                time=t_cand,
            )
        if rng.random() * lam_bar <= lam_cand:
            state.add_event(t_cand)
            events.append(t_cand)
        t = t_cand

    reported = tuple(e for e in events if e > 0.0)
    stream = EventStream(
        times=reported,
        window=(0.0, cfg.t_end),
        burn_in=cfg.burn_in,
        seed=cfg.seed,
    )
    path = IntensityPath.build(
        events=tuple(events),
        kernel=kernel,
        link=link,
        t_start=t_start,
        t_end=cfg.t_end,
    )
    return stream, path


# ---------------------------------------------------------------------------
# Intensity paths
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IntensityPath:
    """Everything needed to evaluate the (left-continuous) intensity exactly:
    the raw event list including the burn-in prefix, plus kernel and link.

    For exponential kernels ``s_plus[i]`` caches the excitation sum right
    after event i, giving O(1) evaluation between events.
    """

    events: tuple
    kernel: object
    link: object
    t_start: float
    t_end: float
    s_plus: tuple = field(default=(), repr=False)

    @classmethod
    def build(cls, events, kernel, link, t_start, t_end) -> "IntensityPath":
        s_plus: tuple = ()
        if isinstance(kernel, ExponentialKernel) and events:
            acc = []
            s = 0.0
            prev = None
            for e in events:
                s = (s * math.exp(-kernel.rate * (e - prev)) if prev is not None else 0.0)
                s += kernel.jump
                acc.append(s)
                prev = e
            s_plus = tuple(acc)
        return cls(
            events=tuple(events),
            kernel=kernel,
            link=link,
            t_start=float(t_start),
            t_end=float(t_end),
            s_plus=s_plus,
        )

    def excitation_before(self, t: float) -> float:
        """S(t) using events strictly before t (predictable evaluation)."""
        events = self.events
        idx = bisect_left(events, t) - 1
        if idx < 0:
            return 0.0
        k = self.kernel
        if isinstance(k, ExponentialKernel):
            return self.s_plus[idx] * math.exp(-k.rate * (t - events[idx]))
        lo = bisect_left(events, t - k.support_end)
        if isinstance(k, BoxKernel):
            return (idx + 1 - lo) * k.jump
        total = 0.0
        for i in range(lo, idx + 1):
            total += k(t - events[i])
        return total

    def excitation_after(self, t: float) -> float:
        """Right limit S(t+), counting an event at t with weight h(0+)."""
        events = self.events
        idx = bisect_right(events, t) - 1
        if idx < 0:
            return 0.0
        k = self.kernel
        if isinstance(k, ExponentialKernel):
            return self.s_plus[idx] * math.exp(-k.rate * (t - events[idx]))
        s = self.excitation_before(t)
        if idx >= 0 and events[idx] == t:
            s += k.jump
        return s


def intensity_at(path: IntensityPath, t: float) -> float:
    """lambda(t) = phi(S(t)) from events strictly before t; at an event time
    this is the left limit, so the event does not count itself."""
    if not (path.t_start <= t <= path.t_end):
        raise ParameterError(
            f"t={t} outside the simulated window [{path.t_start}, {path.t_end}]"
        )
    return float(path.link(path.excitation_before(t)))


# ---------------------------------------------------------------------------
# Iterative embedding construction
# ---------------------------------------------------------------------------

def embedding_simulate(
    cfg: SimConfig,
    n_iters: int,
    z_cap: float,
) -> list[EventStream]:
    """Iterate the fixed-point construction on one shared Poisson field.

    Field points live on (-burn_in, t_end] x (0, z_cap].  Iterate n keeps the
    points lying under the intensity built from iterate n-1; the point sets
    grow monotonically in n for nondecreasing links.  Any intensity value
    above ``z_cap`` invalidates the run and raises ``TruncationError``.
    """
    if n_iters < 1:
        raise ParameterError(f"n_iters must be >= 1, got {n_iters}")
    if not (z_cap > 0 and math.isfinite(z_cap)):
        raise ParameterError(f"z_cap must be finite and > 0, got {z_cap}")
    if cfg.params.phi0 > z_cap:
        raise TruncationError(
            f"baseline intensity {cfg.params.phi0} already exceeds mark cap {z_cap}",
            exceedance=cfg.params.phi0 - z_cap,
        )

    params = cfg.params
    kernel, link = params.kernel, params.link
    rng = rng_for(cfg.seed, cfg.replication)
    t_start = -cfg.burn_in
    span = cfg.t_end - t_start

    n_pts = rng.poisson(span * z_cap)
    times = np.sort(t_start + span * rng.random(n_pts))
    marks = z_cap * rng.random(n_pts)

    # pairwise kernel weights between field points (w[i, j] = h(t_i - t_j) for
    # t_j < t_i); toy scale keeps this dense matrix small
    diffs = times[:, None] - times[None, :]
    weights = np.asarray(kernel(diffs), dtype=float)
    weights[diffs <= 0] = 0.0

    def check_cap(lam_values, where):
        worst = float(np.max(lam_values)) if lam_values.size else 0.0
        if worst > z_cap:
            raise TruncationError(
                f"intensity {worst} exceeded mark cap {z_cap} ({where})",
                exceedance=worst - z_cap,
            )

    streams: list[EventStream] = []
    accepted = np.zeros(n_pts, dtype=bool)
    for n in range(1, n_iters + 1):
        if n_pts:
            excitation = weights[:, accepted].sum(axis=1)
            lam = np.asarray(link(excitation), dtype=float)
        else:
            lam = np.zeros(0)
        check_cap(lam, f"iterate {n} at field points")
        if n_pts:
            # the post-event right limit is the supremum between events for
            # nonincreasing kernels; check it at the previous iterate's points
            post = np.asarray(
                link(excitation + np.where(accepted, kernel.jump, 0.0)), dtype=float
            )
            check_cap(post[accepted], f"iterate {n} after events")
        accepted = marks <= lam
        kept = times[accepted]
        kept = kept[kept > 0.0]
        streams.append(
            EventStream(
                times=tuple(kept),
                window=(0.0, cfg.t_end),
                burn_in=cfg.burn_in,
                seed=cfg.seed,
            )
        )
    return streams
