"""Output digests of a fixed case list, run against ``./src``.

    python3 scripts/digest.py > digests.json

Prints one JSON object mapping each case's name to the sha256 of its
outputs: the ``tobytes()`` of every output array and the ``repr`` of every
scalar, in a fixed order.  Two checkouts give the same numbers exactly when
every digest agrees, so a refactor that claims to change no output is
checked by running this script in each checkout (the working directory
picks the ``src/`` it imports) and comparing the two files.  A case that
raises stops the script with a nonzero exit.

The cases: ``replicate_innovations`` on the five presets, with and without
moments, at three (replications, seed) pairs, at 4 097 ``linear``
replications, and on an exponential x tanh and a tabulated x saturating
model; the lockstep engine's Philox keys (``simulator._stream_keys``) at
three seeds, for spawn keys of one and two 32-bit words; ``simulate`` with
``first_chaos`` and ``intensity_moment_integrals`` on the exponential, box
and tabulated kernels under each link; ``s_plus``, ``first_chaos`` and
``intensity_moment_integrals`` of one exponential path made by the
``IntensityPath`` constructor from fixed events (a checkout whose
``IntensityPath`` takes ``s_plus`` as a constructor field lacks this case:
such a path left at the field's default cannot be evaluated); every
iterate's times of ``embedding_simulate`` (8 iterates) on the same kernels and links, plus the
iterate and check at which a run on the tabulated kernel and linear link at
mark cap 4 raises ``TruncationError``; the W1, KS and bootstrap standard
errors of ``run_bound_vs_empirical`` on the five presets, and the terms of
the ``resolvent_majorant`` report it adds on ``saturating``; ``evaluate_all``
and ``compare_conditions`` on 200 random linear cases drawn as criterion c07
draws them; and the resolvent tables of the exponential, box and tabulated
kernels on the c05 grid, and of a tabulated kernel that ends on a nonzero
value.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys

import numpy as np

sys.path.insert(0, "src")

import hawkesgauss as hg  # noqa: E402
from hawkesgauss import simulator  # noqa: E402
from hawkesgauss.experiments import (  # noqa: E402
    PRESETS, replicate_innovations, run_bound_vs_empirical,
)

#: (replications, seed) of the preset runs: a few hundred paths, an odd count
#: at the largest seed, and a single path at seed 0
PRESET_RUNS = ((300, 5), (37, 2**64 - 1), (1, 0))

#: replication indices of the key case: one spawn-key word up to 2**32 - 1,
#: two from 2**32 on, which no replication case reaches
KEY_REPS = (0, 1, 8191, 2**32 - 1, 2**32, 2**40, 2**64 - 1)

KERNELS = {
    "exponential": hg.ExponentialKernel(1.0, 0.5),
    "box": hg.BoxKernel(1.0, 0.4),
    # rising first cell: thinning runs on the kernel's nonincreasing majorant
    "tabulated": hg.TabulatedKernel(0.25, (0.3, 0.6, 0.5, 0.4, 0.3, 0.2, 0.1, 0.0)),
}
LINKS = {
    "linear": hg.LinearLink(1.0),
    "saturating": hg.SaturatingExpLink(1.0, 3.0),
    "tanh": hg.TanhLink(0.5, 0.3),
}
#: mark cap of the embedding cases, above every intensity they reach
EMBEDDING_CAP = 6.0


def _feed(h, value) -> None:
    if isinstance(value, np.ndarray):
        h.update(np.ascontiguousarray(value).tobytes())
    elif isinstance(value, (tuple, list)):
        for item in value:
            _feed(h, item)
    else:
        h.update(repr(value.item() if isinstance(value, np.generic) else value).encode())


def digest(*outputs) -> str:
    """sha256 over the outputs in order: an array's bytes, a scalar's repr."""
    h = hashlib.sha256()
    _feed(h, outputs)
    return h.hexdigest()


def replication_digest(reps) -> str:
    return digest(reps.delta, reps.event_sum, reps.compensator, reps.quad_err,
                  reps.delta_approx, reps.lambda_hat, reps.u2_lambda, reps.u3_lambda)


def cases():
    """(name, digest) of every case, in a fixed order."""
    for name, p in PRESETS.items():
        for n_reps, seed in PRESET_RUNS:
            for moments in (False, True):
                reps = replicate_innovations(p.params, p.u, p.t_end, p.burn_in, n_reps, seed,
                                             collect_moments=moments)
                yield f"replicate/{name}/{n_reps}/{seed}/moments={moments}", replication_digest(reps)
    p = PRESETS["linear"]
    reps = replicate_innovations(p.params, p.u, p.t_end, p.burn_in, 4097, 5, collect_moments=True)
    yield "replicate/linear/4097/5/moments=True", replication_digest(reps)

    tanh = hg.HawkesParams(hg.ExponentialKernel(1.0, 0.5), hg.TanhLink(1.0, 2.0))
    reps = replicate_innovations(tanh, hg.TestFunction((0.0, 50.0), (0.1,)), 50.0, 0.0, 200, 2,
                                 collect_moments=True)
    yield "replicate/exponential-tanh/200/2", replication_digest(reps)
    tab = hg.HawkesParams(KERNELS["tabulated"], LINKS["saturating"])
    reps = replicate_innovations(tab, hg.TestFunction((0.0, 20.0), (0.2,)), 20.0, 2.0, 40, 1,
                                 collect_moments=True)
    yield "replicate/tabulated-saturating/40/1", replication_digest(reps)
    yield "stream_keys/0,5,2**64-1", digest(
        [simulator._stream_keys(seed, KEY_REPS) for seed in (0, 5, 2**64 - 1)]
    )

    u = hg.TestFunction((0.0, 10.0, 30.0), (0.4, -0.2))
    for kname, kernel in KERNELS.items():
        for lname, link in LINKS.items():
            outputs = []
            for k in range(3):
                stream, path = hg.simulate(hg.SimConfig(hg.HawkesParams(kernel, link), 30.0,
                                                        burn_in=5.0, seed=3, replication=k))
                chaos = hg.first_chaos(stream, path, u)
                outputs += [np.asarray(stream.times), np.asarray(path.events),
                            np.asarray(path.s_plus), chaos.value, chaos.event_sum,
                            chaos.compensator, hg.intensity_moment_integrals(path, u)]
            yield f"simulate/{kname}/{lname}", digest(outputs)

    if "s_plus" not in {f.name for f in dataclasses.fields(hg.IntensityPath)}:
        events = tuple(np.sort(np.random.default_rng(7).uniform(-5.0, 30.0, 60)).tolist())
        path = hg.IntensityPath(events, KERNELS["exponential"], LINKS["saturating"], -5.0, 30.0)
        stream = hg.EventStream(tuple(e for e in events if e > 0.0), (0.0, 30.0))
        chaos = hg.first_chaos(stream, path, u)
        yield "path/constructed/exponential/saturating", digest(
            np.asarray(path.s_plus), chaos.value, chaos.event_sum, chaos.compensator,
            hg.intensity_moment_integrals(path, u),
        )

    for kname, kernel in KERNELS.items():
        for lname, link in LINKS.items():
            streams = hg.embedding_simulate(hg.SimConfig(hg.HawkesParams(kernel, link), 30.0,
                                                         burn_in=5.0, seed=3), 8, EMBEDDING_CAP)
            yield f"embedding/{kname}/{lname}", digest([np.asarray(s.times) for s in streams])
    # the iterate and check at which the run leaves the mark strip; the
    # intensity the message also names is not part of the digest
    try:
        hg.embedding_simulate(hg.SimConfig(hg.HawkesParams(KERNELS["tabulated"], LINKS["linear"]),
                                           30.0, burn_in=5.0, seed=3), 8, 4.0)
        where = None
    except hg.TruncationError as err:
        where = str(err).rsplit("(", 1)[-1].rstrip(")")
    yield "embedding/tabulated/linear/truncated", digest(where)

    for name in PRESETS:
        rec = run_bound_vs_empirical(name, n_reps=500, seed=11,
                                     include_resolvent=name == "saturating")
        yield f"bound_vs_empirical/{name}", digest(
            rec.w1_exact, rec.ks_exact, rec.w1_exact_se,
            rec.w1_approx, rec.ks_approx, rec.w1_approx_se,
        )
        for report in rec.reports:
            if report.name == "resolvent_majorant":
                yield f"bound_vs_empirical/{name}/resolvent_majorant", digest(
                    report.terms, report.mc_terms
                )

    # criterion c07's draw (tests/sweep_utils.py): nu, then mu, then the
    # kernel, then the test function; written out here, so that both
    # checkouts draw the same cases whatever their tests hold
    rng = np.random.default_rng(2718)
    outputs = []
    for _ in range(200):
        nu = float(np.exp(rng.uniform(-2.0, 2.5)))
        mu = float(rng.uniform(0.02, 0.95))
        if rng.random() < 0.5:
            kernel = hg.ExponentialKernel(rate=float(np.exp(rng.uniform(-1.5, 2.0))), mass=mu)
        else:
            kernel = hg.BoxKernel(width=float(np.exp(rng.uniform(-1.5, 2.0))), mass=mu)
        n = int(rng.integers(1, 5))
        widths = rng.uniform(0.05, 3.0, size=n)
        bp = rng.uniform(-2.0, 2.0) + np.concatenate(([0.0], np.cumsum(widths)))
        vals = rng.uniform(-2.0, 2.0, size=n)
        if np.all(vals == 0.0):
            vals[0] = 1.0
        tf = hg.TestFunction(tuple(bp), tuple(vals))
        for report in hg.evaluate_all(hg.HawkesParams(kernel, hg.LinearLink(nu)), tf, True):
            outputs += [report.name, report.terms]
        outputs.append(sorted(hg.compare_conditions(nu, kernel, tf).items()))
    yield "bounds/c07-random-linear/200", digest(outputs)

    # the c05 grid for each kernel kind the analytic workload solves on it
    # and for a table that jumps to 0 at its end, as a box does
    for kname, kernel in (("c05", hg.ExponentialKernel(1.0, 0.5)),
                          ("c05/box", KERNELS["box"]), ("c05/tabulated", KERNELS["tabulated"]),
                          ("c05/tabulated-end-jump", hg.TabulatedKernel(0.5, (0.8, 0.8)))):
        tab = hg.resolvent(kernel, alpha=1.0, step=1e-3, horizon=15.0)
        yield f"resolvent/{kname}", digest(tab.values, tab.tail_bound, tab.residual_sup)


def main() -> int:
    print(json.dumps(dict(cases()), indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
