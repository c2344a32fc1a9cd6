"""Replication engine: per replication, the event sum and the integrals of
u, u^2 and |u|^3 against lambda (``replication_sums``).

Exponential kernels, with any link, thin all paths in lockstep as numpy
vectors.  Each running path keeps its Markov state: the time t of its last
candidate, its last event t_last and S(t_last+), and the dominating rate
lambda-bar = link(S(t+)) of its next candidate.  That rate is carried from
the step before rather than recomputed: a rejected candidate leaves it at
lambda(t_cand), an accepted one at link(S(t_cand) + h(0+)), the same values
that link(S(t_last+) * exp(-rate * (t - t_last))) gives.  Step j draws
candidate j of every path from the stream layout of ``simulate`` (uniforms
2j and 2j + 1 of ``rng_for(seed, k).random()``) and thins; it integrates
nothing.  The uniforms come in blocks of ``simulator._BLOCK`` per path, read
through one Philox per chunk, whose key and counter are set per path and
block (``simulator._stream_reader``), so no path builds a generator of its
own.
Between events lambda is deterministic, so the compensator is fixed by the
accepted events alone (Ogata 1981): each event, and each path's end at
t_end, closes one inter-event interval (t_last, t], which goes to a list
of batches, one per step for the events and one for the ends.  Once the
batches hold ``_RECORD`` rows, and at a chunk's end, they are integrated in
one pass: the intervals are met with u's nonzero pieces and each weight row
times lambda is integrated in the closed forms of ``chaos``, on the pieces
cut at events as in ``chaos.first_chaos``.  Only running sums are kept, and
memory grows with the number of paths thinned together, at most ``_CHUNK``,
plus the batches, fewer than ``_RECORD`` + ``_CHUNK`` rows.  Box and tabulated
kernels run ``simulate`` path by path, and ``chaos`` integrates each path's
pieces in closed form too.
"""

from __future__ import annotations

import numpy as np

from .chaos import (
    _check_support, _closed_form_integrals, _event_sum, _weight_rows, _weighted_integrals,
)
from .model import ExponentialKernel, HawkesParams, TestFunction
from .simulator import (
    _BLOCK, _ENVELOPE_SLACK, SimConfig, _envelope_error, _rate_error, _stream_reader, simulate,
)


#: most paths thinned together; longer runs go chunk by chunk, which keeps
#: memory bounded at about 2.1 kB per path of a full chunk (its block of
#: ``_BLOCK`` = 256 uniforms, 8 MiB over the chunk, then its Philox key and
#: running state) and leaves every replication's numbers unchanged
_CHUNK = 4096

#: closed inter-event intervals at which a chunk integrates the batches it
#: holds (``_integrate``); a fixed cap keeps them small however many paths
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
    thins; each closed inter-event interval (path, t0, S(t0+), t1) goes to a
    batch of ``events``, or of ``ends`` when the path's end closes it at
    t1 = t_end, which ``_integrate`` integrates once they hold ``_RECORD``
    rows, and at the chunk's end."""
    kernel, link = params.kernel, params.link
    rate, jump = kernel.rate, kernel.jump
    n = event_sum.size
    read = _stream_reader(seed, np.arange(first, first + n))
    buf = np.empty((n, _BLOCK))
    pos = _BLOCK
    words = 0  # uniforms that every running path has read
    rep = np.arange(n)  # chunk index of each running path
    t = np.full(n, -float(burn_in))
    t_last = t.copy()
    s_last = np.zeros(n)
    # the dominating rate link(S(t+)) of each path's next candidate, carried
    # from step to step: at the start S = 0
    lam_bar = link(s_last)
    events, ends, held = [], [], 0
    while rep.size:
        if pos == _BLOCK:
            # every running path has read its block: read the next ones into
            # the first rows
            read(buf, rep.tolist(), words)
            words += _BLOCK
            row_of = np.arange(rep.size)
            pos = 0
        u_wait, u_accept = buf[row_of, pos], buf[row_of, pos + 1]
        pos += 2
        bad = lam_bar <= 0
        if np.count_nonzero(bad):
            i = bad.nonzero()[0][0]
            raise _rate_error(float(lam_bar[i]), float(t[i]))
        t_cand = t - np.log1p(-u_wait) / lam_bar
        s_cand = s_last * np.exp(-rate * (t_cand - t_last))
        lam_cand = link(s_cand)
        alive = t_cand <= t_end
        bad = alive & (lam_cand > lam_bar * (1.0 + _ENVELOPE_SLACK))
        if np.count_nonzero(bad):
            i = bad.nonzero()[0][0]
            raise _envelope_error(float(lam_cand[i]), float(lam_bar[i]), float(t_cand[i]))
        hit = (alive & (u_accept * lam_bar <= lam_cand)).nonzero()[0]
        # the next candidate's dominating rate: lam_cand where rejected,
        # link(S(t_cand) + h(0+)) where accepted
        lam_bar = lam_cand
        if hit.size:
            t_hit = t_cand[hit]
            events.append((rep[hit], t_last[hit], s_last[hit], t_hit))
            held += hit.size
            t_last[hit] = t_hit
            s_last[hit] = s_cand[hit] + jump
            lam_bar[hit] = link(s_last[hit])
        t = t_cand
        if np.count_nonzero(alive) < rep.size:
            end = (~alive).nonzero()[0]
            ends.append((rep[end], t_last[end], s_last[end], np.full(end.size, t_end)))
            held += end.size
            rep, t, t_last, s_last, lam_bar, row_of = (
                x[alive] for x in (rep, t, t_last, s_last, lam_bar, row_of)
            )
        if held >= _RECORD or not rep.size:
            _integrate(kernel, link, u, pieces, events, ends, event_sum, integrals)
            events, ends, held = [], [], 0


def _integrate(kernel, link, u, pieces, events, ends, event_sum, integrals) -> None:
    """Integrate the interval batches ``events`` and then ``ends``, each
    (path, t0, S(t0+), t1): add u(t1) of the events to ``event_sum``, and
    the integrals of the weight rows times lambda over each interval, met
    with u's nonzero pieces, to ``integrals``, both with ``np.add.at`` in
    batch order.  A path's events come in time order and its end after
    them, so each path's sums add up one by one, in time order, however the
    intervals are batched."""
    n_events = sum(batch[0].size for batch in events)
    path, t0, s0, t1 = map(np.concatenate, zip(*events, *ends))
    np.add.at(event_sum, path[:n_events], u(t1[:n_events]))
    lo, hi, weights = pieces
    a = np.clip(t0[:, None], lo, hi)
    length = np.clip(t1[:, None], lo, hi) - a
    row, piece = np.nonzero(length > 0)
    if not row.size:
        return
    s_a = s0[row] * np.exp(-kernel.rate * (a[row, piece] - t0[row]))
    vals = _closed_form_integrals(kernel, link, s_a, length[row, piece])
    for out, w in zip(integrals, weights):
        np.add.at(out, path[row], w[piece] * vals)
