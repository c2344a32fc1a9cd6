"""Paired before/after benchmark of two checkouts, written as one JSON file.

    python3 scripts/bench_pairs.py --base ../parent --head . --out BENCH_5.json

For every workload and each of the held-out seeds 101-110,
``benchmarks/run.py --trace 0`` runs once in each checkout at the
benchmark's own run length, one after the other, with the base first on odd
seeds and the head first on even ones, so that slow drifts of the machine's
load hit both sides alike.  The file keeps every run's end-to-end metrics and
their medians, and the number of seeds on which the head reads lower.
``--trace 1`` runs of ``preset-saturating`` on the same seeds add per-layer
metrics: the replication engine's time (booked as ``experiments.self_s``, since
tracing sees only public functions), the generators' (``simulator.self_s``),
the resolvent and distance layers.  The c09 acceptance test is timed once per
checkout.

A fixed-work probe runs 50 jobs of each preset workload after one warm-up in
one fresh process per checkout and preset, keeping no job's output, and
reports the median ms per job and the process's peak RSS (``ru_maxrss``), in
alternating order, ``PROBE_ROUNDS`` times.  Unlike ``peak_rss_mb`` of a timed
run, which grows with the number of jobs whose summaries the run keeps, it
measures the library's own memory.  Each checkout runs its own
``benchmarks/`` on its own ``src/``.
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
TRACED = "preset-saturating"
END_TO_END = ("setup_s", "wall_s", "peak_rss_mb")
LAYER_METRICS = (
    "experiments.self_s",
    "simulator.self_s",
    "kernels.resolvent.s_per_solve_p50",
    "bounds.resolvent_majorant.ms_per_call",
    "stats.bootstrap.s_per_call",
    "stats.w1.ms_per_call",
    "trace.wall_s",
)
PROBE_WORKLOADS = ("preset-linear", "preset-saturating")
PROBE_JOBS = 50
PROBE_ROUNDS = 5
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


def run_bench(checkout: Path, workload: str, seed: int, trace: int) -> dict:
    """The JSON line of one ``benchmarks/run.py`` run in ``checkout``."""
    cmd = [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(SECONDS), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=True)
    out = json.loads(done.stdout.strip().splitlines()[-1])
    return {"failed": out["failed"], "attempted": out["attempted"], "correct": out["correct"],
            "metrics": {k: v["value"] for k, v in out["metrics"].items()}}


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
        b = statistics.median(r["metrics"][name] for r in runs["base"])
        h = statistics.median(r["metrics"][name] for r in runs["head"])
        lower = sum(rh["metrics"][name] < rb["metrics"][name]
                    for rb, rh in zip(runs["base"], runs["head"]))
        summary[name] = {"base_median": b, "head_median": h, "head_over_base": h / b if b else None,
                         "head_lower_pairs": lower}
    return {"medians": summary,
            "failed": {side: sum(r["failed"] for r in rs) for side, rs in runs.items()},
            "runs": runs}


def fixed_work(base: Path, head: Path) -> dict:
    """Per preset workload, PROBE_ROUNDS fixed-work probes of each checkout,
    alternating which runs first, with the medians over the rounds."""
    out = {}
    for workload in PROBE_WORKLOADS:
        runs = {"base": [], "head": []}
        for i in range(PROBE_ROUNDS):
            for side in (("base", "head") if i % 2 == 0 else ("head", "base")):
                done = subprocess.run(
                    [sys.executable, "-c", PROBE, workload, str(PROBE_JOBS)],
                    cwd=base if side == "base" else head, capture_output=True, text=True,
                    check=True,
                )
                ms, mb = (float(x) for x in done.stdout.split())
                runs[side].append({"ms_per_job": ms, "peak_rss_mb": mb})
                print(f"probe {workload} {side}: {ms:.2f} ms/job, {mb:.2f} MB", file=sys.stderr)
        out[workload] = {
            "medians": {
                name: {side: statistics.median(r[name] for r in rs) for side, rs in runs.items()}
                for name in ("ms_per_job", "peak_rss_mb")
            },
            "runs": runs,
        }
    return out


def time_c09(checkout: Path) -> dict:
    """Wall time and report line of the c09 acceptance test in ``checkout``."""
    cmd = [sys.executable, "-m", "pytest", "-q", "-s", "-p", "no:cacheprovider",
           "tests/test_acceptance.py", "-k", "c09"]
    t0 = time.perf_counter()
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    wall = time.perf_counter() - t0
    lines = [ln for ln in done.stdout.splitlines() if "bound respect" in ln]
    return {"pytest_wall_s": round(wall, 2), "passed": done.returncode == 0,
            "report": lines[-1].strip() if lines else None}


def machine() -> dict:
    import numpy
    import scipy

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
            "scipy": scipy.__version__}


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
                                   f"one fresh process each, {PROBE_ROUNDS} alternating rounds"},
        "base": git_version(base),
        "head": git_version(head),
        "end_to_end": {w: paired(base, head, w, 0, END_TO_END) for w in WORKLOADS},
        "per_layer": {TRACED: paired(base, head, TRACED, 1, LAYER_METRICS)},
        "fixed_work": fixed_work(base, head),
        "c09": {"base": time_c09(base), "head": time_c09(head)},
    }
    args.out.write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
