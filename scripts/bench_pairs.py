"""Paired before/after benchmark of two checkouts, written as one JSON file.

    python3 scripts/bench_pairs.py --base ../parent --head . --out BENCH_5.json

For every workload and each of the held-out seeds 101-110,
``benchmarks/run.py --trace 0`` runs once in each checkout at the
benchmark's own run length, one after the other, with the base first on odd
seeds and the head first on even ones, so that slow drifts of the machine's
load hit both sides alike.  The file keeps every run's end-to-end metrics,
each side's median and quartiles, and the number of seeds on which the head
reads lower.
``--trace 1`` runs of ``preset-saturating`` and ``analytic`` on the same
seeds add per-layer metrics: the replication engine's time (booked as
``experiments.self_s``, since tracing sees only public functions), the
generators' (``simulator.self_s``), the bound, resolvent and distance layers.
The c07, c08 and c09 acceptance tests are timed once per checkout.

Two fixed-work probes run in one fresh process per checkout and round,
``PROBE_ROUNDS`` rounds with the side that runs first alternating, and report
each side's runs with their minimum, quartiles and median.  The first runs
50 jobs of each preset workload after one warm-up, keeping no job's output,
and prints the median ms per job and the process's peak RSS (``ru_maxrss``).
Unlike ``peak_rss_mb`` of a timed run, which grows with the number of jobs
whose summaries the run keeps, it measures the library's own memory.  Each
checkout runs its own ``benchmarks/`` on its own ``src/``.  The second times
``TANH_REPS`` replications of an exponential kernel with the tanh link
(t_end 50, with moments), which no benchmark workload runs, after a warm-up,
and prints the seconds and the peak RSS.  Ten rounds, because the same
``preset-linear`` probe moves between about 22 and 40 ms per job within
minutes on a loaded 2-core machine: the quartiles show that spread.  Last,
one ``-X importtime`` run of each preset workload's set-up probe per
checkout gives the cumulative import time of numpy, hawkesgauss, scipy and
``scipy.special``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

SEEDS = range(101, 111)
SECONDS = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())["run_seconds"]
WORKLOADS = ("preset-linear", "preset-saturating", "analytic")
TRACED = ("preset-saturating", "analytic")
END_TO_END = ("setup_s", "wall_s", "peak_rss_mb")
LAYER_METRICS = (
    "experiments.self_s",
    "simulator.self_s",
    "kernels.resolvent.s_per_solve_p50",
    "bounds.evaluate_all.us_per_call",
    "bounds.compare_conditions.us_per_call",
    "bounds.resolvent_majorant.ms_per_call",
    "stats.bootstrap.s_per_call",
    "stats.w1.ms_per_call",
    "trace.wall_s",
)
PROBE_WORKLOADS = ("preset-linear", "preset-saturating")
ACCEPTANCE = ("c07", "c08", "c09")
#: modules whose cumulative import time ``import_times`` reports
IMPORT_MODULES = ("numpy", "hawkesgauss", "scipy", "scipy.special")
PROBE_JOBS = 50
PROBE_ROUNDS = 10
#: one fixed-work probe: a warm-up and PROBE_JOBS jobs of one workload of the
#: checkout's benchmark, outputs dropped; prints (median ms per job, peak MB)
PROBE = """
import resource, statistics, sys, time
sys.path.insert(0, "benchmarks")
import workloads
w = workloads.WORKLOADS[sys.argv[1]]
jobs = int(sys.argv[2])
w.run(w.inputs(1, 0))
walls = []
for job in range(1, jobs + 1):
    inputs = w.inputs(1, job)
    t0 = time.perf_counter()
    w.run(inputs)
    walls.append(time.perf_counter() - t0)
print(1e3 * statistics.median(walls), resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
"""


TANH_REPS = 1000
#: the exponential-kernel tanh-link probe: a warm-up and one timed call of
#: replicate_innovations on the checkout's src/; prints (seconds, peak MB)
TANH_PROBE = """
import resource, sys, time
sys.path.insert(0, "src")
import hawkesgauss as hg
from hawkesgauss.experiments import replicate_innovations
p = hg.HawkesParams(hg.ExponentialKernel(1.0, 0.5), hg.TanhLink(1.0, 2.0))
u = hg.TestFunction((0.0, 50.0), (0.1,))
replicate_innovations(p, u, 50.0, 0.0, 10, seed=1, collect_moments=True)
t0 = time.perf_counter()
replicate_innovations(p, u, 50.0, 0.0, int(sys.argv[1]), seed=2, collect_moments=True)
print(time.perf_counter() - t0, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
"""


def run_bench(checkout: Path, workload: str, seed: int, trace: int) -> dict:
    """The JSON line of one ``benchmarks/run.py`` run in ``checkout``."""
    cmd = [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(SECONDS), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=True)
    out = json.loads(done.stdout.strip().splitlines()[-1])
    return {"failed": out["failed"], "attempted": out["attempted"], "correct": out["correct"],
            "metrics": {k: v["value"] for k, v in out["metrics"].items()}}


def spread(values) -> dict:
    """Minimum, quartiles (inclusive method) and median of ``values``."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"min": min(values), "q1": q1, "median": median, "q3": q3}


def paired(base: Path, head: Path, workload: str, trace: int, names) -> dict:
    runs = {"base": [], "head": []}
    for seed in SEEDS:
        order = ("base", "head") if seed % 2 else ("head", "base")
        for side in order:
            res = run_bench(base if side == "base" else head, workload, seed, trace)
            runs[side].append({"seed": seed, **res})
            print(f"{workload} seed {seed} {side}: "
                  + ", ".join(f"{n}={res['metrics'].get(n)}" for n in names), file=sys.stderr)
    summary = {}
    for name in names:
        b = spread([r["metrics"][name] for r in runs["base"]])
        h = spread([r["metrics"][name] for r in runs["head"]])
        lower = sum(rh["metrics"][name] < rb["metrics"][name]
                    for rb, rh in zip(runs["base"], runs["head"]))
        summary[name] = {"base": b, "head": h,
                         "head_over_base": h["median"] / b["median"] if b["median"] else None,
                         "head_lower_pairs": lower}
    return {"summary": summary,
            "failed": {side: sum(r["failed"] for r in rs) for side, rs in runs.items()},
            "runs": runs}


def probe_pairs(base: Path, head: Path, code: str, args: list, fields: tuple, label: str) -> dict:
    """PROBE_ROUNDS runs of the probe ``code`` with ``args`` in one fresh
    process per checkout, alternating which runs first; the probe prints one
    number per name in ``fields``.  Per field, each side's minimum, quartiles
    and median over the rounds, and every run."""
    runs = {"base": [], "head": []}
    for i in range(PROBE_ROUNDS):
        for side in (("base", "head") if i % 2 == 0 else ("head", "base")):
            done = subprocess.run(
                [sys.executable, "-c", code, *args], cwd=base if side == "base" else head,
                capture_output=True, text=True, check=True,
            )
            row = dict(zip(fields, (float(x) for x in done.stdout.split())))
            runs[side].append(row)
            print(f"{label} {side}: " + ", ".join(f"{k}={v:.4g}" for k, v in row.items()),
                  file=sys.stderr)
    summary = {name: {side: spread([r[name] for r in rs]) for side, rs in runs.items()}
               for name in fields}
    return {"summary": summary, "runs": runs}


def fixed_work(base: Path, head: Path) -> dict:
    """The PROBE fixed-work probe of each preset workload."""
    return {w: probe_pairs(base, head, PROBE, [w, str(PROBE_JOBS)], ("ms_per_job", "peak_rss_mb"),
                           f"probe {w}")
            for w in PROBE_WORKLOADS}


def tanh_probe(base: Path, head: Path) -> dict:
    """The TANH_PROBE fixed-work probe."""
    return {"reps": TANH_REPS,
            **probe_pairs(base, head, TANH_PROBE, [str(TANH_REPS)], ("seconds", "peak_rss_mb"),
                          "tanh probe")}


def import_times(checkout: Path, workload: str) -> dict:
    """``-X importtime`` of one ``benchmarks/run.py --setup-probe`` process
    in ``checkout``: the cumulative microseconds of every top-level import
    summed, and of the modules in ``IMPORT_MODULES`` (None when not loaded)."""
    cmd = [sys.executable, "-X", "importtime", "benchmarks/run.py", "--setup-probe",
           "--workload", workload, "--seed", str(SEEDS[0])]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=True)
    cumulative = {}
    total = 0
    for line in done.stderr.splitlines():
        fields = line.split("|")
        # "import time: self | cumulative | name", nested imports indented
        if line.startswith("import time:") and fields[1].strip().isdigit():
            cum, name = int(fields[1]), fields[2]
            total += 0 if name.startswith("  ") else cum
            cumulative.setdefault(name.strip(), cum)
    return {"top_level_cum_us": total, **{m: cumulative.get(m) for m in IMPORT_MODULES}}


def time_acceptance(checkout: Path, criterion: str) -> dict:
    """Wall time and report line of one acceptance test in ``checkout``."""
    cmd = [sys.executable, "-m", "pytest", "-q", "-s", "-p", "no:cacheprovider",
           "tests/test_acceptance.py", "-k", criterion]
    t0 = time.perf_counter()
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    wall = time.perf_counter() - t0
    lines = [ln for ln in done.stdout.splitlines() if "[criterion" in ln]
    return {"pytest_wall_s": round(wall, 2), "passed": done.returncode == 0,
            "report": lines[-1].strip() if lines else None}


def machine() -> dict:
    """The machine and its library versions; scipy's only where it is
    installed, since the library itself needs numpy alone."""
    import numpy

    try:
        import scipy
    except ImportError:
        scipy = None
    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "platform": platform.platform(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__ if scipy else None}


def git_version(checkout: Path) -> str | None:
    """The checkout's commit, marked ``-dirty`` when the tree has changes."""
    done = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=checkout,
                          capture_output=True, text=True)
    return done.stdout.strip() or None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", type=Path, required=True, help="checkout measured as 'before'")
    ap.add_argument("--head", type=Path, required=True, help="checkout measured as 'after'")
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    base, head = args.base.resolve(), args.head.resolve()

    result = {
        "machine": machine(),
        "protocol": {"command": "python3 benchmarks/run.py --workload W --seed S "
                                f"--seconds {SECONDS} --trace T",
                     "seeds": list(SEEDS),
                     "order": "alternating: base first on odd seeds, head first on even",
                     "fixed_work": f"{PROBE_JOBS} jobs per preset workload after one warm-up, "
                                   f"one fresh process each, {PROBE_ROUNDS} alternating rounds",
                     "tanh_probe": f"{TANH_REPS} exponential x tanh replications, t_end 50, "
                                   f"with moments, after a warm-up, one fresh process each, "
                                   f"{PROBE_ROUNDS} alternating rounds"},
        "base": git_version(base),
        "head": git_version(head),
        "end_to_end": {w: paired(base, head, w, 0, END_TO_END) for w in WORKLOADS},
        "per_layer": {w: paired(base, head, w, 1, LAYER_METRICS) for w in TRACED},
        "fixed_work": fixed_work(base, head),
        "tanh_probe": tanh_probe(base, head),
        "import_time": {w: {"base": import_times(base, w), "head": import_times(head, w)}
                        for w in PROBE_WORKLOADS},
        "acceptance": {c: {"base": time_acceptance(base, c), "head": time_acceptance(head, c)}
                       for c in ACCEPTANCE},
    }
    args.out.write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
