"""Benchmark of the hawkesgauss verification loop.

    python3 benchmarks/run.py --workload preset-linear --seed 1 --seconds 20 --trace 0

Runs one workload as a closed loop, one job at a time in this process: a
warm-up job, then timed jobs until ``--seconds`` have passed.  Every job's
output is checked; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones (``setup_s``, ``wall_s``,
``peak_rss_mb``); with ``--trace 1`` every other job is traced and the
metrics are per layer, and the spans are written to ``benchmarks/out/``.
See ``benchmarks/README.md`` for the workloads and the metric map.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

import numpy as np

import workloads  # first: it puts the checkout's src/ on the import path
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: setup_s is the median of this many fresh processes, each from process
#: start to the end of its warm-up job
SETUP_PROBES = 3

THREAD_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_PROC_BIND", "OMP_WAIT_POLICY",
)


def monotonic() -> float:
    """System-wide clock, comparable between this process and its children."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def source_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "hawkesgauss").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment() -> dict:
    """The machine and software a result was measured on.  BLAS threads are
    deliberately left at the machine default and only recorded here."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "thread_env": {k: os.environ[k] for k in THREAD_VARS if k in os.environ},
        "git_commit": git_commit(),
        "source_sha256": source_sha256(),
    }


def attempt(workload, inputs):
    """Run and check one job: (output or None, problems, wall seconds)."""
    t0 = time.perf_counter()
    try:
        out = workload.run(inputs)
    except workloads.TYPED_ERRORS as exc:
        return None, [f"{type(exc).__name__}: {exc}"], time.perf_counter() - t0
    wall = time.perf_counter() - t0
    return out, workload.check(inputs, out), wall


def probe_setup(args) -> list:
    """Set-up time of fresh processes: import, inputs and one warm-up job."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = monotonic()
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=150)
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{done.stderr}")
        samples.append(float(done.stdout.split()[-1]) - t0)
    return samples


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="print the clock after the warm-up job and exit (used for setup_s)")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if not args.seconds > 0:
        ap.error("--seconds must be > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]
    load_before = os.getloadavg()

    inputs0 = workload.inputs(args.seed, 0)
    warmup, problems, _ = attempt(workload, inputs0)
    if args.setup_probe:
        print(monotonic())
        return 0
    failures = [("warm-up", problems)]

    tracer = tracing.Tracer() if args.trace else None
    min_jobs = 2 if tracer else 1
    summaries, walls = [], []
    start = time.perf_counter()
    job = 0
    while job < min_jobs or time.perf_counter() - start < args.seconds:
        inputs = inputs0 if job == 0 else workload.inputs(args.seed, job)
        traced = tracer is not None and job % 2 == 1
        with tracer.recording(job) if traced else nullcontext():
            out, problems, wall = attempt(workload, inputs)
        if not traced:
            walls.append(wall)
        failures.append((f"job {job}", problems))
        summaries.append(None if out is None else workload.summary(out))
        job += 1
    warm_summary = None if warmup is None else workload.summary(warmup)
    failures += list(workload.run_checks(warm_summary, summaries).items())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failed = sum(1 for _, p in failures if p)
    for op, problems in failures:
        for p in problems:
            print(f"FAILED {op}: {p}")
    q1, med, q3 = statistics.quantiles(walls, n=4) if len(walls) > 1 else walls * 3
    print(f"{args.workload} seed {args.seed}: {len(walls)} untraced jobs, "
          f"job wall median {med:.4f} s (quartiles {q1:.4f}, {q3:.4f}); "
          f"failed_frac {failed / len(failures):g} ({failed}/{len(failures)} operations)")

    if tracer is None:
        setup = probe_setup(args)
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "wall_s": (statistics.median(walls), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        print(f"setup_s samples: {', '.join(f'{s:.4f}' for s in setup)}")
    else:
        table = tracing.SpanTable(tracer.names, tracer.spans)
        metrics = tracing.layer_metrics(table, tracer.counts, walls)
        wall = metrics["trace.wall_s"][0]
        print(f"{table.n_jobs} traced jobs, mean wall {wall:.4f} s; layer self time per job:")
        total = 0.0
        for layer in tracing.LAYERS + ("bench", "trace"):
            s = metrics[f"{layer}.self_s"][0]
            total += s
            print(f"  {layer:<12} {s:10.5f} s  {100 * s / wall:6.2f} %")
        print(f"  {'sum':<12} {total:10.5f} s  (traced wall {wall:.5f} s); "
              f"trace.overhead_frac {metrics['trace.overhead_frac'][0]:.4f}")

    env = environment()
    env.update(workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
               loadavg_before=load_before, loadavg_after=os.getloadavg())
    if tracer is not None:
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        path = out_dir / f"spans-{args.workload}-seed{args.seed}.json.gz"
        tracer.write(path, env)
        print(f"spans written to {path.relative_to(ROOT)}")
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(failures),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
