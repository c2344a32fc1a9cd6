"""Replication engine: per replication, the event sum and the integrals of
u, u^2 and |u|^3 against lambda (``replication_sums``).

Exponential kernels, with any link, thin all paths in lockstep as numpy
vectors.  Each running path keeps its Markov state: the time t of its last
candidate, its last event t_last and S(t_last+).  Step j draws candidate j of every path from the stream layout
of ``simulate`` (uniforms 2j and 2j + 1 of ``rng_for(seed, k).random()``)
and thins; it integrates nothing.  Between events lambda is deterministic,
so the compensator is fixed by the accepted events alone (Ogata 1981): each
event, and each path's end at t_end, closes one inter-event interval
(t_last, t], which goes to a record of at most ``_RECORD`` rows.  A full
record, and the record at a chunk's end, is integrated in one pass: the
intervals are met with u's nonzero pieces and each weight row times lambda
is integrated in the closed forms of ``chaos``, on the pieces cut at events
as in ``chaos.first_chaos``.  Only running sums are kept, and memory grows
with the number of paths thinned together, at most ``_CHUNK``, plus the
fixed record.  Box and tabulated kernels run ``simulate`` path by path, and
``chaos`` integrates each path's pieces in closed form too.
"""

from __future__ import annotations

import numpy as np

from .chaos import (
    _check_support, _closed_form_integrals, _event_sum, _weight_rows, _weighted_integrals,
)
from .model import ExponentialKernel, HawkesParams, TestFunction
from .simulator import (
    _ENVELOPE_SLACK, SimConfig, _block_size, _envelope_error, _rate_error, rng_for, simulate,
)


#: most paths thinned together; longer runs go chunk by chunk, which keeps
#: memory bounded at about 1.5 kB per path of a chunk (its generator and its
#: block of uniforms) and leaves every replication's numbers unchanged
_CHUNK = 8192

#: closed inter-event intervals that a chunk integrates at a time (the rows
#: of ``_Intervals``); a fixed cap keeps the record small however many paths
#: run, and leaves every replication's numbers unchanged
_RECORD = 2**12


def _thins_in_lockstep(kernel) -> bool:
    """Whether the replications thin in lockstep: an exponential kernel,
    whatever the link.  Other kernels run ``simulate`` path by path."""
    return isinstance(kernel, ExponentialKernel)


def replication_sums(
    params: HawkesParams,
    u: TestFunction,
    t_end: float,
    burn_in: float,
    n_reps: int,
    seed: int,
    collect_moments: bool,
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Per replication k of ``n_reps``: the event sum sum_i u(T_i) over
    (0, t_end], and the rows int u lambda, then int u^2 lambda and
    int |u|^3 lambda when ``collect_moments`` is set, each its own array,
    so that a caller keeping one row keeps no other.  Every compensator is
    in closed form, on both routes.

    Replication k thins the path of ``simulate`` for
    ``SimConfig(params, t_end, burn_in, seed, k)``.
    """
    _check_support(u, (0.0, t_end))
    rows = _weight_rows(u.values, collect_moments)
    if not _thins_in_lockstep(params.kernel):
        event_sum = np.empty(n_reps)
        integrals = [np.empty(n_reps) for _ in rows]
        for k in range(n_reps):
            stream, path = simulate(SimConfig(params, t_end, burn_in, seed, k))
            event_sum[k] = _event_sum(stream, u)
            for out, value in zip(integrals, _weighted_integrals(path, u, rows)):
                out[k] = value
        return event_sum, integrals
    bp = np.asarray(u.breakpoints)
    nonzero = np.asarray(u.values) != 0.0
    pieces = (bp[:-1][nonzero], bp[1:][nonzero], rows[:, nonzero])
    event_sum = np.zeros(n_reps)
    integrals = [np.zeros(n_reps) for _ in rows]
    for first in range(0, n_reps, _CHUNK):
        chunk = slice(first, min(first + _CHUNK, n_reps))
        _thin_chunk(
            params, u, pieces, t_end, burn_in, seed, first,
            event_sum[chunk], [out[chunk] for out in integrals],
        )
    return event_sum, integrals


def _thin_chunk(params, u, pieces, t_end, burn_in, seed, first, event_sum, integrals):
    """Thin replications first, first + 1, ... (one per entry of
    ``event_sum``) to t_end, adding their sums into ``event_sum`` and the
    arrays of ``integrals``, one per weight row; ``pieces`` holds the
    starts, ends and weight rows of u's nonzero pieces.  The step loop only
    thins; every closed inter-event interval goes to an ``_Intervals``
    record, which integrates the compensator."""
    kernel, link = params.kernel, params.link
    rate, jump = kernel.rate, kernel.jump
    n = event_sum.size
    record = _Intervals(kernel, link, u, pieces, t_end, event_sum, integrals)
    gens = [rng_for(seed, first + k) for k in range(n)]
    block = _block_size(n)
    buf = np.empty((n, block))
    pos = block
    rep = np.arange(n)  # chunk index of each running path
    t = np.full(n, -float(burn_in))
    t_last = t.copy()
    s_last = np.zeros(n)
    while rep.size:
        if pos == block:
            # every running path has read its block: read the next ones into
            # the first rows
            for row, k in zip(buf, rep.tolist()):
                gens[k].random(out=row)
            row_of = np.arange(rep.size)
            pos = 0
        u_wait, u_accept = buf[row_of, pos], buf[row_of, pos + 1]
        pos += 2
        lam_bar = link(s_last * np.exp(-rate * (t - t_last)))
        bad = lam_bar <= 0
        if bad.any():
            i = bad.nonzero()[0][0]
            raise _rate_error(float(lam_bar[i]), float(t[i]))
        t_cand = t - np.log1p(-u_wait) / lam_bar
        s_cand = s_last * np.exp(-rate * (t_cand - t_last))
        lam_cand = link(s_cand)
        alive = t_cand <= t_end
        bad = alive & (lam_cand > lam_bar * (1.0 + _ENVELOPE_SLACK))
        if bad.any():
            i = bad.nonzero()[0][0]
            raise _envelope_error(float(lam_cand[i]), float(lam_bar[i]), float(t_cand[i]))
        hit = (alive & (u_accept * lam_bar <= lam_cand)).nonzero()[0]
        if hit.size:
            t_hit = t_cand[hit]
            record.add(rep[hit], t_last[hit], s_last[hit], t_hit)
            t_last[hit] = t_hit
            s_last[hit] = s_cand[hit] + jump
        t = t_cand
        if np.count_nonzero(alive) < rep.size:
            end = ~alive
            record.add(rep[end], t_last[end], s_last[end])
            rep, t, t_last, s_last, row_of = (
                x[alive] for x in (rep, t, t_last, s_last, row_of)
            )
    record.integrate()


class _Intervals:
    """Record of the closed inter-event intervals of a chunk's paths, each
    (path, t0, S(t0+), t1, event): an event at t1 closes (t0, t1], and so
    does a path's end at t1 = t_end, without an event.  When ``_RECORD`` rows
    are held, and at the chunk's end, ``integrate`` adds u(t1) of the events
    to ``event_sum`` and the integrals of the weight rows times lambda over
    each interval, met with u's nonzero pieces, to ``integrals``, both with
    ``np.add.at`` in record order: each path's sums add up one by one, in
    time order, whatever the capacity."""

    def __init__(self, kernel, link, u, pieces, t_end, event_sum, integrals):
        self.kernel, self.link, self.u, self.pieces = kernel, link, u, pieces
        self.t_end = t_end
        self.event_sum, self.integrals = event_sum, integrals
        self.path = np.empty(_RECORD, dtype=np.intp)
        self.t0, self.s0, self.t1 = np.empty((3, _RECORD))
        self.event = np.empty(_RECORD, dtype=bool)
        self.size = 0

    def add(self, path, t0, s0, t1=None) -> None:
        """Append the intervals (t0[i], t1[i]] of paths path[i], from
        S(t0[i]+) = s0[i], each closed by an event at t1[i]; without t1,
        closed by the path's end at t_end."""
        done = 0
        while done < path.size:
            take = min(path.size - done, _RECORD - self.size)
            src, dst = slice(done, done + take), slice(self.size, self.size + take)
            self.path[dst], self.t0[dst], self.s0[dst] = path[src], t0[src], s0[src]
            self.t1[dst] = self.t_end if t1 is None else t1[src]
            self.event[dst] = t1 is not None
            self.size += take
            done += take
            if self.size == _RECORD:
                self.integrate()

    def integrate(self) -> None:
        """Integrate the held intervals into the sums and empty the record."""
        n, self.size = self.size, 0
        path, t0, s0, t1 = self.path[:n], self.t0[:n], self.s0[:n], self.t1[:n]
        event = self.event[:n]
        np.add.at(self.event_sum, path[event], self.u(t1[event]))
        lo, hi, weights = self.pieces
        a = np.clip(t0[:, None], lo, hi)
        length = np.clip(t1[:, None], lo, hi) - a
        row, piece = np.nonzero(length > 0)
        if not row.size:
            return
        s_a = s0[row] * np.exp(-self.kernel.rate * (a[row, piece] - t0[row]))
        vals = _closed_form_integrals(self.kernel, self.link, s_a, length[row, piece])
        for out, w in zip(self.integrals, weights):
            np.add.at(out, path[row], w[piece] * vals)
