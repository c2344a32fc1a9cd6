"""Event-stream generation.

``simulate`` thins one path: Ogata-style thinning with a per-event
dominating rate, valid because the links are nondecreasing and the envelope
sums the kernel's nonincreasing majorant, which only decays between events.

The excitation state is the event list plus, for exponential kernels, the
right limits ``s_plus`` after each event, which thinning extends as it
accepts events and ``IntensityPath`` derives from its events.  One evaluator
reads S(t) from it, summing the kernel terms of the events within reach for
compactly supported kernels; thinning and ``IntensityPath`` go through it.
``IntensityPath._excitation_at``, its form for many times at once, gathers
all the windows of those sums in one flat numpy pass and serves the
compensator in ``chaos``, so the compensator integrates the intensity that
drew the events.

Candidate j of replication k reads uniforms 2j and 2j + 1 of
``rng_for(seed, k).random()`` (``_candidate_draws``), read ``_BLOCK`` at a
time.  The lockstep engine in ``_lockstep`` reads the same streams for many
paths at once, in blocks of the same size, through ``_stream_reader``:
Philox is counter-based, so one Philox whose key (``_stream_keys``, numpy's
``SeedSequence`` hash run once over a (4, n) array of pool words) and
counter are set per block reads any block of any replication's stream,
without a generator per replication.  How the stream is split into blocks
does not change the draws.

``embedding_simulate`` is the cross-validator that runs the literal
iterative construction driven by one shared planar Poisson field, truncated
to a finite mark strip; each iterate reads S through ``IntensityPath``.
"""

from __future__ import annotations

import math
import numbers
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ParameterError, SimulationError, TruncationError
from .kernels import default_horizon
from .model import (
    BoxKernel,
    EventStream,
    ExponentialKernel,
    HawkesParams,
    TabulatedKernel,
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
        if not (isinstance(self.seed, numbers.Integral) and 0 <= self.seed < 2**64):
            raise ParameterError(f"seed must be an integer below 2**64, got {self.seed!r}")
        if not (isinstance(self.replication, numbers.Integral) and self.replication >= 0):
            raise ParameterError(f"replication must be an integer >= 0, got {self.replication!r}")


def rng_for(seed: int, replication: int) -> np.random.Generator:
    """Counter-based stream keyed by (seed, replication): serial and parallel
    execution orders see identical draws."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(int(replication),))
    return np.random.Generator(np.random.Philox(ss))


#: numpy's ``SeedSequence`` hash constants (O'Neill's seed_seq_fe): the
#: entropy mix's start and multiplier, the pool mix's two multipliers and
#: ``generate_state``'s start and multiplier; then, as columns, the running
#: hash constants of the entropy mix from the spawn key's first word on (16
#: hashes fill and mix the pool before it) and of ``generate_state``
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_HASH_A = np.array([_INIT_A * pow(_MULT_A, i, 2**32) % 2**32 for i in range(16, 25)],
                   dtype=np.uint32)[:, None]
_HASH_B = np.array([_INIT_B * pow(_MULT_B, i, 2**32) % 2**32 for i in range(5)],
                   dtype=np.uint32)[:, None]


def _stream_keys(seed: int, reps) -> np.ndarray:
    """The (n, 2) uint64 Philox keys of ``rng_for(seed, k)`` for k in ``reps``,
    that is ``SeedSequence(seed, spawn_key=(k,)).generate_state(2, np.uint64)``,
    computed for all k at once.  The seed, below 2**64 and so at most two of
    the pool's four words, fills and mixes the pool in 16 hashes before the
    spawn key enters, so the pool of ``SeedSequence(seed)`` is shared by
    every k.  Each spawn-key word (one below 2**32, two from there to 2**64)
    is hashed against each of the four pool words and mixed into it, and the
    output hash reads the pool, all as (4, n) uint32 arrays."""
    reps = np.asarray(reps, dtype=np.uint64)
    pool = np.repeat(np.random.SeedSequence(int(seed)).pool[:, None], reps.size, axis=1)

    def mix_word(pool, word, hash_const):
        value = (word ^ hash_const[:-1]) * hash_const[1:]
        value ^= value >> np.uint32(16)
        mixed = pool * np.uint32(_MIX_MULT_L) - value * np.uint32(_MIX_MULT_R)
        return mixed ^ (mixed >> np.uint32(16))

    pool = mix_word(pool, reps.astype(np.uint32), _HASH_A[:5])
    wide = reps >= 2**32
    if wide.any():
        high = (reps >> np.uint64(32)).astype(np.uint32)
        pool = np.where(wide, mix_word(pool, high, _HASH_A[4:]), pool)
    out = (pool ^ _HASH_B[:-1]) * _HASH_B[1:]
    out ^= out >> np.uint32(16)
    out = out.astype(np.uint64)
    return (out[0::2] | out[1::2] << np.uint64(32)).T


def _stream_reader(seed: int, reps):
    """``read(rows, idx, words)``: row i of ``rows`` gets uniforms words,
    words + 1, ... of ``rng_for(seed, reps[idx[i]]).random()``, one row per
    entry of ``idx``.  One Philox serves every replication: a Philox4x64
    block is 4 words, one uniform each, and a fresh Philox adds 1 to its
    counter before it fills its buffer, so setting the key of replication k,
    the counter to words // 4 and an empty buffer, then skipping words % 4
    raw words, reads k's stream from word ``words`` on."""
    keys = _stream_keys(seed, reps).tolist()
    bits = np.random.Philox(0)
    gen = np.random.Generator(bits)
    state = bits.state
    state["buffer_pos"] = 4  # an empty buffer: the next word opens a block

    def read(rows, idx, words):
        state["state"]["counter"] = np.array([words // 4, 0, 0, 0], dtype=np.uint64)
        skip = words % 4
        for row, i in zip(rows, idx):
            state["state"]["key"] = keys[i]
            bits.state = state
            if skip:
                bits.random_raw(skip)
            gen.random(out=row)

    return read


#: uniforms read from a path's stream at a time, by ``simulate`` and by the
#: lockstep engine alike.  A multiple of 4, so that no candidate's pair
#: straddles two blocks and every block starts on a Philox block of 4 words,
#: which ``_stream_reader`` reads without skipping words.  The draws do not
#: depend on it.
_BLOCK = 256


def _candidate_draws(rng: np.random.Generator):
    """The thinning stream layout: candidate j of a path reads uniforms 2j
    (its waiting time, -log1p(-U) / rate) and 2j + 1 (its acceptance test)
    of ``rng.random()``, taken ``_BLOCK`` at a time."""
    while True:
        draws = iter(rng.random(_BLOCK).tolist())
        yield from zip(draws, draws)


# relative slack of the envelope check: a candidate's intensity may exceed
# the dominating rate by rounding only
_ENVELOPE_SLACK = 1e-9


def _rate_error(lam_bar: float, t: float) -> SimulationError:
    return SimulationError(f"dominating rate {lam_bar} <= 0 at t={t}", time=t)


def _envelope_error(lam_cand: float, lam_bar: float, t: float) -> SimulationError:
    return SimulationError(
        f"candidate intensity {lam_cand} exceeds dominating rate {lam_bar} at t={t}", time=t
    )


#: share of the resolvent mass that ``default_burn_in`` leaves beyond the burn-in
BURN_IN_TAIL = 1e-4


def default_burn_in(params: HawkesParams) -> float:
    """Burn-in long enough that the resolvent mass beyond it is below
    ``BURN_IN_TAIL`` of its total (``kernels.default_horizon``); 0 when
    there is no excitation."""
    if params.alpha_mu <= 0:
        return 0.0
    return default_horizon(params.kernel, params.link.lipschitz, BURN_IN_TAIL)


def burn_in_for(params: HawkesParams, stationary: bool) -> float:
    """The start rule: how long before 0 a run starts from an empty past.  A
    stationary run, under which the linear and spectral bounds hold, takes
    ``default_burn_in``; an R+ run, where the nonlinear bound holds, starts at 0."""
    return default_burn_in(params) if stationary else 0.0


def _majorant(kernel):
    """The least nonincreasing kernel above ``kernel`` on its grid: itself, or
    for a rising tabulated kernel the reversed running maximum of its values."""
    if kernel.is_nonincreasing:
        return kernel
    return TabulatedKernel(kernel.step, np.maximum.accumulate(kernel.values[::-1])[::-1])


def _kernel_terms(kernel, ages: np.ndarray) -> np.ndarray:
    """h at the given nonnegative event ages, an event of age 0 weighing h(0+)."""
    vals = np.asarray(kernel(ages), dtype=float)
    vals[ages <= 0] = kernel.jump
    return vals


def _excitation(kernel, events, s_plus, t: float, n: int, side: str = "left") -> float:
    """S at t from the first n events, none of them after t: n counts the
    events before t for the left limit S(t) (side="left"), and also those at
    t for the right limit S(t+) (side="right"), where an event at t weighs
    h(0+) and an event whose term ends at t no longer counts."""
    if n == 0:
        return 0.0
    if isinstance(kernel, ExponentialKernel):
        return s_plus[n - 1] * math.exp(-kernel.rate * (t - events[n - 1]))
    # the events that h still reaches: from t - support_end on, that end
    # included for the left limit only
    lo = (bisect_right if side == "right" else bisect_left)(events, t - kernel.support_end, 0, n)
    if isinstance(kernel, BoxKernel):
        return (n - lo) * kernel.jump
    return float(_kernel_terms(kernel, t - np.asarray(events[lo:n])).sum())


def simulate(cfg: SimConfig) -> tuple[EventStream, "IntensityPath"]:
    """Thinning simulation on (-burn_in, t_end] from an empty past.  The
    dominating rate after each candidate is phi(S(t+)), S summed over the
    kernel's nonincreasing majorant: exact for nonincreasing kernels."""
    params = cfg.params
    kernel, link = params.kernel, params.link
    majorant = _majorant(kernel)

    draws = _candidate_draws(rng_for(cfg.seed, cfg.replication))
    t_start = -cfg.burn_in
    t = t_start
    events: list[float] = []
    # S(e+) after each event, for exponential kernels: S(e) + h(0+)
    s_plus: list[float] = []
    exponential = isinstance(kernel, ExponentialKernel)

    # every recorded event is at or before t and before t_cand, so both
    # evaluations use all of them: S(t+) for the envelope, S(t_cand) for lambda
    while True:
        lam_bar = float(link(_excitation(majorant, events, s_plus, t, len(events), "right")))
        if lam_bar <= 0:
            raise _rate_error(lam_bar, t)
        u_wait, u_accept = next(draws)
        t_cand = t - math.log1p(-u_wait) / lam_bar
        if t_cand > cfg.t_end:
            break
        s_cand = _excitation(kernel, events, s_plus, t_cand, len(events))
        lam_cand = float(link(s_cand))
        if lam_cand > lam_bar * (1.0 + _ENVELOPE_SLACK):
            raise _envelope_error(lam_cand, lam_bar, t_cand)
        if u_accept * lam_bar <= lam_cand:
            if exponential:
                s_plus.append(s_cand + kernel.jump)
            events.append(t_cand)
        t = t_cand

    stream = EventStream(
        times=tuple(e for e in events if e > 0.0),
        window=(0.0, cfg.t_end),
        seed=cfg.seed,
    )
    path = IntensityPath(
        events=tuple(events),
        kernel=kernel,
        link=link,
        t_start=float(t_start),
        t_end=float(cfg.t_end),
    )
    return stream, path


# ---------------------------------------------------------------------------
# Intensity paths
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IntensityPath:
    """Everything needed to evaluate the (left-continuous) intensity exactly:
    the raw event list including the burn-in prefix, plus kernel and link.
    The constructor takes the events as given: thinning builds through it,
    and a candidate drawn with U = 0 lands on t_start.  ``build`` checks them.
    """

    events: tuple
    kernel: object
    link: object
    t_start: float
    t_end: float

    @classmethod
    def build(cls, events, kernel, link, t_start, t_end) -> "IntensityPath":
        """Path of the given events, which must be finite, strictly ascending
        and inside (t_start, t_end], as an ``EventStream`` on that window checks."""
        stream = EventStream(events, (t_start, t_end))
        return cls(stream.times, kernel, link, *stream.window)

    @cached_property
    def s_plus(self) -> tuple:
        """For exponential kernels S(e+) right after each event e, by the
        Markov recursion S(e+) = S(e'+) * exp(-rate * (e - e')) + h(0+) from the
        event e' before, which makes evaluation between events O(1); () for
        other kernels.  Derived from ``events`` on first use."""
        kernel, events = self.kernel, self.events
        if not (isinstance(kernel, ExponentialKernel) and events):
            return ()
        rate, jump = kernel.rate, kernel.jump
        s = jump
        s_plus = [s]
        for last, e in zip(events, events[1:]):
            s = s * math.exp(-rate * (e - last)) + jump
            s_plus.append(s)
        return tuple(s_plus)

    def excitation_before(self, t: float) -> float:
        """S(t) using events strictly before t (predictable evaluation)."""
        n = bisect_left(self.events, t)
        return _excitation(self.kernel, self.events, self.s_plus, t, n)

    def excitation_after(self, t: float) -> float:
        """Right limit S(t+): an event at t weighs h(0+), one expiring at t nothing."""
        n = bisect_right(self.events, t)
        return _excitation(self.kernel, self.events, self.s_plus, t, n, "right")

    def _excitation_at(self, ts: np.ndarray, side: str) -> np.ndarray:
        """S at each of the times ``ts``: the left limit S(t) for side="left",
        the right limit S(t+) for side="right", as ``excitation_before`` and
        ``excitation_after`` give them one by one."""
        kernel = self.kernel
        events = np.asarray(self.events)
        n = np.searchsorted(events, ts, side)
        if isinstance(kernel, ExponentialKernel):
            if events.size == 0:
                return np.zeros_like(ts)
            last = np.maximum(n - 1, 0)
            age = np.where(n > 0, ts - events[last], np.inf)
            return np.asarray(self.s_plus)[last] * np.exp(-kernel.rate * age)
        # the windows of _excitation
        lo = np.searchsorted(events, ts - kernel.support_end, side)
        if isinstance(kernel, BoxKernel):
            return (n - lo) * kernel.jump
        # every window in one flat gather, summed per time; taking the
        # windows' first events first, then their second ones and so on, keeps
        # the ages in near order for the kernel's interpolation search
        rank = np.arange(np.max(n - lo, initial=0))[:, None]
        keep = rank < n - lo
        owner = np.broadcast_to(np.arange(ts.size), keep.shape)[keep]
        terms = _kernel_terms(kernel, ts[owner] - events[(lo + rank)[keep]])
        return np.bincount(owner, terms, minlength=ts.size)


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
    Once an iterate repeats the one before, every later one repeats it too.
    """
    if not (isinstance(n_iters, numbers.Integral) and n_iters >= 1):
        raise ParameterError(f"n_iters must be an integer >= 1, got {n_iters!r}")
    if not (z_cap > 0 and math.isfinite(z_cap)):
        raise ParameterError(f"z_cap must be finite and > 0, got {z_cap}")
    if cfg.params.phi0 > z_cap:
        raise TruncationError(
            f"baseline intensity {cfg.params.phi0} already exceeds mark cap {z_cap}",
            exceedance=cfg.params.phi0 - z_cap,
        )

    params = cfg.params
    kernel, link = params.kernel, params.link
    majorant = _majorant(kernel)
    rng = rng_for(cfg.seed, cfg.replication)
    t_start = -cfg.burn_in
    span = cfg.t_end - t_start

    n_pts = rng.poisson(span * z_cap)
    times = np.sort(t_start + span * rng.random(n_pts))
    marks = z_cap * rng.random(n_pts)
    # a field point may sit exactly at t_start, which a path's window excludes
    window = (math.nextafter(t_start, -math.inf), cfg.t_end)

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
        events = times[accepted]
        path = IntensityPath.build(events, kernel, link, *window)
        lam = np.asarray(link(path._excitation_at(times, "left")), dtype=float)
        check_cap(lam, f"iterate {n} at field points")
        # S over the majorant is nonincreasing between events, so its
        # post-event right limits at the previous iterate's points bound
        # the intensity there
        if majorant is not kernel:
            path = IntensityPath.build(events, majorant, link, *window)
        post = np.asarray(link(path._excitation_at(events, "left") + majorant.jump), dtype=float)
        check_cap(post, f"iterate {n} after events")
        accepted, previous = marks <= lam, accepted
        kept = times[accepted]
        kept = kept[kept > 0.0]
        streams.append(
            EventStream(times=tuple(kept), window=(0.0, cfg.t_end), seed=cfg.seed)
        )
        if np.array_equal(accepted, previous):
            streams += streams[-1:] * (n_iters - n)
            break
    return streams
