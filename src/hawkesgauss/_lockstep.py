"""Replication engine: per replication, the event sum, the integrals of u,
u^2 and |u|^3 against lambda, and the quadrature error (``replication_sums``).

Exponential kernels with a closed-form compensator (``_has_closed_form``)
thin all paths in lockstep as numpy vectors.  Each running path keeps its
Markov state: the time t of its last candidate, its last event t_last and
S(t_last+).  Step j draws candidate j of every path from the stream layout
of ``simulate`` (uniforms 2j and 2j + 1 of ``rng_for(seed, k).random()``),
integrates each weight row times lambda over (t, candidate], cut at u's
breakpoints, in the closed forms of ``chaos``, and thins.  Only running sums
are kept, and memory grows with the number of paths thinned together, at
most ``_CHUNK``.  Other kernels and links run ``simulate`` path by path.
"""

from __future__ import annotations

import numpy as np

from .chaos import (
    _CLOSED_FORM_LINKS, _check_support, _closed_form_integrals, _event_sum, _weight_rows,
    _weighted_integrals,
)
from .model import ExponentialKernel, HawkesParams, TestFunction
from .simulator import (
    _ENVELOPE_SLACK, SimConfig, _block_size, _envelope_error, _rate_error, rng_for, simulate,
)


#: most paths thinned together; longer runs go chunk by chunk, which keeps
#: memory bounded at about 1.5 kB per path of a chunk (its generator and its
#: block of uniforms) and leaves every replication's numbers unchanged
_CHUNK = 8192


def _has_closed_form(kernel, link) -> bool:
    """Whether the replications thin in lockstep: an exponential kernel with
    a link whose compensator ``chaos._closed_form_integrals`` gives."""
    return isinstance(kernel, ExponentialKernel) and isinstance(link, _CLOSED_FORM_LINKS)


def replication_sums(
    params: HawkesParams,
    u: TestFunction,
    t_end: float,
    burn_in: float,
    n_reps: int,
    seed: int,
    collect_moments: bool,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per replication k of ``n_reps``: the event sum sum_i u(T_i) over
    (0, t_end]; the rows int u lambda, then int u^2 lambda and
    int |u|^3 lambda when ``collect_moments`` is set; and the error estimate
    of int u lambda, which is 0 where the compensator is in closed form.

    Replication k thins the path of ``simulate`` for
    ``SimConfig(params, t_end, burn_in, seed, k)``.
    """
    _check_support(u, (0.0, t_end))
    rows = _weight_rows(u.values, collect_moments)
    if not _has_closed_form(params.kernel, params.link):
        event_sum = np.empty(n_reps)
        integrals = np.empty((len(rows), n_reps))
        quad_err = np.empty(n_reps)
        for k in range(n_reps):
            stream, path = simulate(SimConfig(params, t_end, burn_in, seed, k))
            event_sum[k] = _event_sum(stream, u)
            integrals[:, k], quad_err[k] = _weighted_integrals(path, u, rows)
        return event_sum, integrals, quad_err
    bp = np.asarray(u.breakpoints)
    nonzero = np.asarray(u.values) != 0.0
    pieces = (bp[:-1][nonzero], bp[1:][nonzero], rows[:, nonzero])
    event_sum = np.zeros(n_reps)
    integrals = np.zeros((len(rows), n_reps))
    for first in range(0, n_reps, _CHUNK):
        chunk = slice(first, min(first + _CHUNK, n_reps))
        _thin_chunk(
            params, u, pieces, t_end, burn_in, seed, first,
            event_sum[chunk], integrals[:, chunk],
        )
    return event_sum, integrals, np.zeros(n_reps)


def _thin_chunk(params, u, pieces, t_end, burn_in, seed, first, event_sum, integrals):
    """Thin replications first, first + 1, ... (one per entry of
    ``event_sum``) to t_end, adding their sums into ``event_sum`` and the
    rows of ``integrals``; ``pieces`` holds the starts, ends and weight rows
    of u's nonzero pieces."""
    kernel, link = params.kernel, params.link
    rate, jump = kernel.rate, kernel.jump
    lo, hi, weights = pieces
    n = event_sum.size
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
        bad = np.flatnonzero(lam_bar <= 0)
        if bad.size:
            i = bad[0]
            raise _rate_error(float(lam_bar[i]), float(t[i]))
        t_cand = t - np.log1p(-u_wait) / lam_bar

        # compensator pieces: (t, t_cand] met with u's pieces, which lie in
        # (0, t_end]
        a = np.clip(t[:, None], lo, hi)
        length = np.clip(t_cand[:, None], lo, hi) - a
        path, piece = np.nonzero(length > 0)
        if path.size:
            s_a = s_last[path] * np.exp(-rate * (a[path, piece] - t_last[path]))
            vals = _closed_form_integrals(kernel, link, s_a, length[path, piece])
            for row, w in zip(integrals, weights):
                row[rep] += np.bincount(path, w[piece] * vals, minlength=rep.size)

        s_cand = s_last * np.exp(-rate * (t_cand - t_last))
        lam_cand = link(s_cand)
        alive = t_cand <= t_end
        bad = np.flatnonzero(alive & (lam_cand > lam_bar * (1.0 + _ENVELOPE_SLACK)))
        if bad.size:
            i = bad[0]
            raise _envelope_error(float(lam_cand[i]), float(lam_bar[i]), float(t_cand[i]))
        hit = np.flatnonzero(alive & (u_accept * lam_bar <= lam_cand))
        if hit.size:
            event_sum[rep[hit]] += u(t_cand[hit])
            t_last[hit] = t_cand[hit]
            s_last[hit] = s_cand[hit] + jump
        t = t_cand
        if np.count_nonzero(alive) < rep.size:
            rep, t, t_last, s_last, row_of = (
                x[alive] for x in (rep, t, t_last, s_last, row_of)
            )
