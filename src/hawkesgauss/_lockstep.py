"""Lockstep replication engine: the thinning of R paths of an exponential
kernel run as numpy vectors, with the compensator integrated as it goes.

Each running path keeps its Markov state: the time t of its last candidate,
its last event t_last and S(t_last+).  Step j draws candidate j of every
path from the stream layout of ``simulate`` (uniforms 2j and 2j + 1 of
``rng_for(seed, k).random()``), integrates w * lambda over (t, candidate]
for w = u and, on request, u^2 and |u|^3, cut at u's breakpoints, in the
closed forms of ``chaos``, and thins.  Only running sums are kept: no event
list, ``EventStream`` or ``IntensityPath`` is built, and memory grows with
the number of paths thinned together, at most ``_CHUNK``.
"""

from __future__ import annotations

import numpy as np

from .chaos import _check_support, _closed_form_integrals
from .model import HawkesParams, TestFunction
from .simulator import _ENVELOPE_SLACK, _block_size, _envelope_error, _rate_error, rng_for


#: most paths thinned together; longer runs go chunk by chunk, which keeps
#: memory bounded at about 1.5 kB per path of a chunk (its generator and its
#: block of uniforms) and leaves every replication's numbers unchanged
_CHUNK = 8192


def lockstep_sums(
    params: HawkesParams,
    u: TestFunction,
    t_end: float,
    burn_in: float,
    n_reps: int,
    seed: int,
    collect_moments: bool,
) -> tuple[np.ndarray, np.ndarray]:
    """Per replication k of ``n_reps``: the event sum sum_i u(T_i) over
    (0, t_end], and the rows int u lambda, then int u^2 lambda and
    int |u|^3 lambda when ``collect_moments`` is set.

    The kernel must be exponential and the link linear or saturating-exp
    (``chaos._has_closed_form``); ``simulate`` followed by ``first_chaos``
    gives the same numbers to rounding.
    """
    _check_support(u, (0.0, t_end))
    bp = np.asarray(u.breakpoints)
    values = np.asarray(u.values)
    nonzero = values != 0.0
    lo, hi, values = bp[:-1][nonzero], bp[1:][nonzero], values[nonzero]
    weights = values[None, :]
    if collect_moments:
        weights = np.stack([values, values * values, np.abs(values) ** 3.0])
    event_sum = np.zeros(n_reps)
    integrals = np.zeros((len(weights), n_reps))
    for first in range(0, n_reps, _CHUNK):
        chunk = slice(first, min(first + _CHUNK, n_reps))
        _thin_chunk(
            params, u, (lo, hi, weights), t_end, burn_in, seed, first,
            event_sum[chunk], integrals[:, chunk],
        )
    return event_sum, integrals


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
