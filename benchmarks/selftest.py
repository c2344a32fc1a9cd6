"""Self-test of the benchmark's correctness accounting.

    python3 benchmarks/selftest.py

Runs each workload at a reduced size through ``run.main`` (traced, so no
set-up probes are spawned) and expects ``failed == 0``; then runs it again
with one output corrupted at a time and expects the corruption to be counted
in ``failed`` and to make ``correct`` false.  Exits 1 if any expectation
fails.
"""

from __future__ import annotations

import dataclasses
import io
import json
import sys
from contextlib import redirect_stdout

import numpy as np

from workloads import WORKLOADS, hg  # first: it puts src/ on the import path
import run


class Corrupted:
    """A workload whose job output passes through ``corrupt`` before checking."""

    def __init__(self, base, corrupt):
        self.base, self.corrupt, self.calls = base, corrupt, 0

    def run(self, inputs):
        self.calls += 1
        return self.corrupt(self.base.run(inputs), self.calls)

    def __getattr__(self, attr):
        return getattr(self.base, attr)


def _samples(out, **changes):
    return dataclasses.replace(out, samples=dataclasses.replace(out.samples, **changes))


def _nan_delta(out, call):
    delta = out.samples.delta.copy()
    delta[0] = np.nan
    return _samples(out, delta=delta)


def _drifting_delta(out, call):
    # one ulp more per call, so job 0 no longer reproduces the warm-up
    delta = out.samples.delta.copy()
    for _ in range(call):
        delta[0] = np.nextafter(delta[0], np.inf)
    return _samples(out, delta=delta)


def _raise(out, call):
    raise hg.NumericError("injected failure")


def _swap_c08(out, call):
    conds, totals = out.cases[0]
    totals = dict(totals, linear=totals["nonlinear"] * 2.0)
    return out._replace(cases=((conds, totals),) + out.cases[1:])


CORRUPTIONS = {
    "preset-linear": {
        "passed flag": lambda out, call: dataclasses.replace(out, passed=False),
        "non-finite delta": _nan_delta,
        "quadrature error": lambda out, call: _samples(out, quad_err=out.samples.quad_err + 1.0),
        "determinism": _drifting_delta,
        "moments": lambda out, call: _samples(out, delta=2.0 * out.samples.delta),
        "typed error": _raise,
    },
    "analytic": {
        "c08 inequality": _swap_c08,
        "c06 value": lambda out, call: out._replace(c06=(out.c06[0], out.c06[1] + 0.01)),
        "residual": lambda out, call: out._replace(
            table=dataclasses.replace(out.table, residual_sup=1e-6)),
        "exponential table": lambda out, call: out._replace(
            table=dataclasses.replace(out.table, values=out.table.values + 1e-3)),
        "cross energy": lambda out, call: out._replace(
            energies=tuple(1e6 * e + 1.0 for e in out.energies)),
        "typed error": _raise,
    },
}

SMALL = {
    "preset-linear": {"n_reps": 100},
    "preset-saturating": {"n_reps": 100},
    "analytic": {"n_cases": 40, "n_eps": 5},
}


def run_once(name, workload) -> dict:
    saved = WORKLOADS[name]
    WORKLOADS[name] = workload
    buf = io.StringIO()
    try:
        with redirect_stdout(buf):
            run.main(["--workload", name, "--seed", "3", "--seconds", "0.01", "--trace", "1"])
    finally:
        WORKLOADS[name] = saved
    return json.loads(buf.getvalue().strip().splitlines()[-1])


def main() -> int:
    bad = 0
    for name, sizes in SMALL.items():
        base = dataclasses.replace(WORKLOADS[name], **sizes)
        res = run_once(name, base)
        ok = res["correct"] and res["failed"] == 0
        bad += not ok
        print(f"{'ok  ' if ok else 'FAIL'} {name}: genuine output, failed {res['failed']}/{res['attempted']}")
        for label, corrupt in CORRUPTIONS.get(name, {}).items():
            res = run_once(name, Corrupted(base, corrupt))
            ok = not res["correct"] and res["failed"] >= 1
            bad += not ok
            print(f"{'ok  ' if ok else 'FAIL'} {name}: corrupted {label}, "
                  f"failed {res['failed']}/{res['attempted']}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
