"""Event-stream generation.

``simulate`` is the production engine: Ogata-style thinning with a per-event
dominating rate, valid because the built-in kernels are nonincreasing and the
links nondecreasing, so the intensity only decays between events.

The excitation state is the event list plus, for exponential kernels, the
right limits ``s_plus`` after each event.  One append step records it, one
evaluator reads S(t) from it and one window sum serves compactly supported
kernels; thinning, ``IntensityPath`` and the compensator quadrature in
``chaos`` all go through them, so the compensator integrates the intensity
that drew the events.

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


def _window_sum(kernel, t, window):
    """Sum of h(t - e) over the event times e of ``window``, none after t (for
    an array of times, none after the first); an event at t weighs h(0+).
    For a box kernel every event must lie within the support of t."""
    if isinstance(kernel, BoxKernel):
        return len(window) * kernel.jump
    ages = t - np.asarray(window)
    vals = np.asarray(kernel(ages), dtype=float)
    vals[ages <= 0] = kernel.jump
    return vals.sum(axis=0)


def _excitation(kernel, events, s_plus, t: float, n: int) -> float:
    """S at t from the first n events, none of them after t: n counts the
    events before t for the left limit S(t), and also those at t for the
    right limit S(t+), where an event at t weighs h(0+)."""
    if n == 0:
        return 0.0
    if isinstance(kernel, ExponentialKernel):
        return s_plus[n - 1] * math.exp(-kernel.rate * (t - events[n - 1]))
    lo = bisect_left(events, t - kernel.support_end, 0, n)
    return float(_window_sum(kernel, t, events[lo:n]))


def _append_event(kernel, events: list, s_plus: list, t: float) -> None:
    """Add an event at t, later than every recorded one; for exponential
    kernels also record S(t+) = S(t) + h(0+), the Markov recursion that makes
    evaluation between events O(1)."""
    if isinstance(kernel, ExponentialKernel):
        s_plus.append(_excitation(kernel, events, s_plus, t, len(events)) + kernel.jump)
    events.append(t)


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
    events: list[float] = []
    s_plus: list[float] = []

    # every recorded event is at or before t and before t_cand, so both
    # evaluations use all of them: S(t+) for the envelope, S(t_cand) for lambda
    while True:
        lam_bar = float(envelope(_excitation(kernel, events, s_plus, t, len(events))))
        if lam_bar <= 0:
            raise SimulationError(f"dominating rate {lam_bar} <= 0 at t={t}", time=t)
        t_cand = t + rng.exponential(1.0 / lam_bar)
        if t_cand > cfg.t_end:
            break
        lam_cand = float(link(_excitation(kernel, events, s_plus, t_cand, len(events))))
        if lam_cand > lam_bar * (1.0 + 1e-9):
            raise SimulationError(
                f"candidate intensity {lam_cand} exceeds dominating rate {lam_bar} "
                f"at t={t_cand}",
                time=t_cand,
            )
        if rng.random() * lam_bar <= lam_cand:
            _append_event(kernel, events, s_plus, t_cand)
        t = t_cand

    stream = EventStream(
        times=tuple(e for e in events if e > 0.0),
        window=(0.0, cfg.t_end),
        burn_in=cfg.burn_in,
        seed=cfg.seed,
    )
    path = IntensityPath(
        events=tuple(events),
        kernel=kernel,
        link=link,
        t_start=float(t_start),
        t_end=float(cfg.t_end),
        s_plus=tuple(s_plus),
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
    after event i, giving O(1) evaluation between events.  ``simulate``
    records it while thinning; ``build`` computes it for callers who bring
    their own events.
    """

    events: tuple
    kernel: object
    link: object
    t_start: float
    t_end: float
    s_plus: tuple = field(default=(), repr=False)

    @classmethod
    def build(cls, events, kernel, link, t_start, t_end) -> "IntensityPath":
        """Path of the given events, which must be finite, strictly ascending
        and inside (t_start, t_end]."""
        t_start, t_end = float(t_start), float(t_end)
        times = tuple(float(e) for e in events)
        if not (
            all(map(math.isfinite, times))
            and all(a < b for a, b in zip((t_start,) + times, times))
            and (not times or times[-1] <= t_end)
        ):
            raise ParameterError(
                f"events must be finite, strictly ascending and inside "
                f"({t_start}, {t_end}]"
            )
        recorded: list[float] = []
        s_plus: list[float] = []
        for e in times:
            _append_event(kernel, recorded, s_plus, e)
        return cls(times, kernel, link, t_start, t_end, tuple(s_plus))

    def excitation_before(self, t: float) -> float:
        """S(t) using events strictly before t (predictable evaluation)."""
        n = bisect_left(self.events, t)
        return _excitation(self.kernel, self.events, self.s_plus, t, n)

    def excitation_after(self, t: float) -> float:
        """Right limit S(t+), counting an event at t with weight h(0+)."""
        n = bisect_right(self.events, t)
        return _excitation(self.kernel, self.events, self.s_plus, t, n)

    def _excitation_grid(self, ts: np.ndarray) -> np.ndarray:
        """S at the ascending times ``ts`` from the events up to ts[0], one at
        ts[0] weighing h(0+); exact when no event or kernel expiry lies in
        (ts[0], ts[-1]) and the kernel is not a box."""
        events = self.events
        lo = bisect_left(events, ts[0] - self.kernel.support_end)
        hi = bisect_right(events, ts[0])
        return _window_sum(self.kernel, ts, np.asarray(events[lo:hi])[:, None])


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
