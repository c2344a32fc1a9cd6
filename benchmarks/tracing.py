"""Per-layer tracing installed from outside the library.

Every public function defined in a layer module, and the ``EventStream``
constructor, is wrapped under every name it is bound to in any
``hawkesgauss`` module (``experiments`` imports ``simulate`` by name, so
patching only ``simulator.simulate`` would miss its calls).  The list is
found by discovery, so a new public entry point is traced without editing
the benchmark.

Spans (name, start, end, parent, run id) are kept in memory and written out
when the run ends.  A layer's self time is the time its spans cover minus the
time their child spans cover, so the self times of all layers add up to the
traced job's wall time.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import math
import sys
import time
from contextlib import contextmanager

import numpy as np

from hawkesgauss.model import EventStream

LAYERS = ("model", "kernels", "simulator", "chaos", "bounds", "stats", "experiments")

#: the benchmark's own code (the job loop) and the tracer's bookkeeping
JOB_SPAN = "bench.job"
HOOK_SPAN = "trace.hook"


def discover() -> list:
    """(span name, function) for every public function defined in a layer module."""
    found = []
    for layer in LAYERS:
        mod = importlib.import_module(f"hawkesgauss.{layer}")
        for name, obj in vars(mod).items():
            if not name.startswith("_") and inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                found.append((f"{layer}.{name}", obj))
    return found


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _segments(path, w) -> int:
    """Pieces the compensator integral of w is cut into: one per nonzero
    piece of w, plus one per event or kernel expiry inside that piece."""
    events = np.asarray(path.events)
    cuts = [events]
    if math.isfinite(path.kernel.support_end):
        cuts.append(np.sort(events + path.kernel.support_end))
    bp = np.asarray(w.breakpoints)
    nonzero = np.asarray(w.values) != 0.0
    a, b = bp[:-1][nonzero], bp[1:][nonzero]
    n = int(a.size)
    for c in cuts:
        n += int(np.sum(np.searchsorted(c, b, "left") - np.searchsorted(c, a, "right")))
    return n


def _on_simulate(counts, result, args, kwargs):
    counts["simulator.events"] += len(result[1].events)


def _on_first_chaos(counts, result, args, kwargs):
    counts["chaos.quad_err_sum"] += result.quad_error
    counts["chaos.quad_err_max"] = max(counts["chaos.quad_err_max"], result.quad_error)


def _on_weighted_integral(counts, result, args, kwargs):
    counts["chaos.segments"] += _segments(_arg(args, kwargs, 0, "path"), _arg(args, kwargs, 1, "w"))


def _on_resolvent(counts, result, args, kwargs):
    counts["kernels.resolvent.residual_sup_max"] = max(
        counts["kernels.resolvent.residual_sup_max"], result.residual_sup
    )


#: counters read from results, at the boundary where the work happens
HOOKS = {
    "simulator.simulate": _on_simulate,
    "chaos.first_chaos": _on_first_chaos,
    "chaos.weighted_intensity_integral": _on_weighted_integral,
    "kernels.resolvent": _on_resolvent,
}

COUNTERS = (
    "simulator.events",
    "chaos.quad_err_sum",
    "chaos.quad_err_max",
    "chaos.segments",
    "kernels.resolvent.residual_sup_max",
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list = []
        self.counts = dict.fromkeys(COUNTERS, 0.0)
        self._stack = [-1]
        self._run = -1
        self._patches: list = []
        self._job_id = self._name_id(JOB_SPAN)
        self._hook_id = self._name_id(HOOK_SPAN)
        self._wrappers = {id(fn): (fn, self._wrap(name, fn)) for name, fn in discover()}
        self._ctor = (EventStream, EventStream.__init__, self._wrap("model.EventStream", EventStream.__init__))

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, name, fn):
        sid = self._name_id(name)
        hook = HOOKS.get(name)
        spans, stack, clock, counts = self.spans, self._stack, time.perf_counter, self.counts
        hook_id = self._hook_id

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1]
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (sid, t0, t1, parent, self._run)
            if hook is not None:
                hook(counts, result, args, kwargs)
                spans.append((hook_id, t1, clock(), parent, self._run))
            return result

        return traced

    def _install(self) -> None:
        for modname, mod in list(sys.modules.items()):
            if modname != "hawkesgauss" and not modname.startswith("hawkesgauss."):
                continue
            for attr, val in list(vars(mod).items()):
                hit = self._wrappers.get(id(val))
                if hit is not None and hit[0] is val:
                    setattr(mod, attr, hit[1])
                    self._patches.append((mod, attr, val))
        cls, original, wrapper = self._ctor
        cls.__init__ = wrapper
        self._patches.append((cls, "__init__", original))

    def _uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextmanager
    def recording(self, run_id: int):
        """Trace one job: every call inside becomes a span under a root
        ``bench.job`` span tagged with ``run_id``."""
        self._install()
        self._run = run_id
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = (self._job_id, t0, t1, -1, run_id)
            self._uninstall()

    def write(self, path, env: dict) -> None:
        with gzip.open(path, "wt") as fh:
            json.dump({"env": env, "names": self.names, "counts": self.counts,
                       "fields": ["name", "start", "end", "parent", "run"],
                       "spans": self.spans}, fh)


class SpanTable:
    """Durations and self times of recorded spans, by name and by layer."""

    def __init__(self, names, spans):
        arr = np.asarray(spans, dtype=float).reshape(-1, 5)
        self.names = list(names)
        self.sid = arr[:, 0].astype(int)
        self.dur = arr[:, 2] - arr[:, 1]
        parent = arr[:, 3].astype(int)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=self.dur[has_parent], minlength=len(self.dur))
        self.self_time = self.dur - child
        self.job_walls = self.dur[~has_parent]
        self.n_jobs = int(self.job_walls.size)
        layer_of = np.array([n.split(".")[0] for n in self.names])
        self.layer = layer_of[self.sid] if self.sid.size else np.array([], dtype=str)

    def durations(self, *names) -> np.ndarray:
        ids = [self.names.index(n) for n in names if n in self.names]
        return self.dur[np.isin(self.sid, ids)]

    def self_of(self, name) -> float:
        if name not in self.names:
            return 0.0
        return float(self.self_time[self.sid == self.names.index(name)].sum())

    def layer_self(self, layer) -> float:
        return float(self.self_time[self.layer == layer].sum())


#: the closed-form bound families; ``bound_general_resolvent`` is reported
#: on its own as the resolvent-majorant bound
BOUND_FAMILIES = tuple(
    f"bounds.bound_{family}"
    for family in ("nonlinear", "nonlinear_approx", "linear", "linear_approx",
                   "linear_spectral", "linear_spectral_approx")
)


def _mean(x) -> float:
    return float(np.mean(x)) if len(x) else 0.0


def _quantile(x, q) -> float:
    return float(np.quantile(x, q)) if len(x) else 0.0


def layer_metrics(table: SpanTable, counts: dict, untraced_walls) -> dict:
    """Per-layer metrics as {name: (value, unit)}; totals are per traced
    job, and a metric whose layer did no work reads 0."""
    jobs = max(table.n_jobs, 1)
    sim = table.durations("simulator.simulate")
    events = counts["simulator.events"]
    resolve = table.durations("kernels.resolvent")
    traced_wall = _mean(table.job_walls)
    untraced = float(np.median(untraced_walls)) if len(untraced_walls) else 0.0
    m = {
        "simulator.us_per_event": (1e6 * float(sim.sum()) / events if events else 0.0, "us"),
        "simulator.call_ms_p50": (1e3 * _quantile(sim, 0.5), "ms"),
        "simulator.call_ms_p99": (1e3 * _quantile(sim, 0.99), "ms"),
        "simulator.events": (events / jobs, "count"),
        "model.event_stream.self_s": (table.self_of("model.EventStream") / jobs, "s"),
        "chaos.first_chaos.ms_per_path_p50": (1e3 * _quantile(table.durations("chaos.first_chaos"), 0.5), "ms"),
        "chaos.moments.ms_per_path_p50": (
            1e3 * _quantile(table.durations("chaos.intensity_moment_integrals"), 0.5), "ms"),
        "chaos.approx.self_s": (table.self_of("chaos.approx_first_chaos") / jobs, "s"),
        "chaos.segments": (counts["chaos.segments"] / jobs, "count"),
        "chaos.quad_err_sum": (counts["chaos.quad_err_sum"] / jobs, "1"),
        "chaos.quad_err_max": (counts["chaos.quad_err_max"], "1"),
        "bounds.family.us_per_call": (1e6 * _mean(table.durations(*BOUND_FAMILIES)), "us"),
        "bounds.evaluate_all.us_per_call": (1e6 * _mean(table.durations("bounds.evaluate_all")), "us"),
        "bounds.compare_conditions.us_per_call": (
            1e6 * _mean(table.durations("bounds.compare_conditions")), "us"),
        "bounds.resolvent_majorant.ms_per_call": (
            1e3 * _mean(table.durations("bounds.bound_general_resolvent")), "ms"),
        "kernels.resolvent.s_per_solve_p50": (_quantile(resolve, 0.5), "s"),
        "kernels.resolvent.s_per_solve_max": (float(resolve.max()) if resolve.size else 0.0, "s"),
        "kernels.resolvent.residual_sup_max": (counts["kernels.resolvent.residual_sup_max"], "1"),
        "kernels.cross_energy.us_per_call": (1e6 * _mean(table.durations("kernels.cross_energy")), "us"),
        "stats.w1.ms_per_call": (1e3 * _mean(table.durations("stats.empirical_w1_to_normal")), "ms"),
        "stats.ks.ms_per_call": (1e3 * _mean(table.durations("stats.kolmogorov_to_normal")), "ms"),
        "stats.bootstrap.s_per_call": (_mean(table.durations("stats.bootstrap_w1_se")), "s"),
    }
    for layer in LAYERS + ("bench", "trace"):
        m[f"{layer}.self_s"] = (table.layer_self(layer) / jobs, "s")
    m["trace.wall_s"] = (traced_wall, "s")
    m["trace.overhead_frac"] = (
        float(np.median(table.job_walls)) / untraced - 1.0 if untraced else 0.0, "1")
    m["trace.spans"] = (table.dur.size / jobs, "count")
    return m
