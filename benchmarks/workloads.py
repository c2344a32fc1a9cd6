"""The benchmark's workloads: inputs made from a seed, one job per workload,
and the correctness checks whose failures are counted in ``failed``.

Every library call goes through a module attribute looked up at call time
(``hg.resolvent``, ``experiments.run_bound_vs_empirical``), so the traced run
sees it once ``tracing`` has patched those attributes.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

#: the library under test is the source tree next to the benchmark
SRC = Path(__file__).resolve().parents[1] / "src"
sys.path.insert(0, str(SRC))

import hawkesgauss as hg  # noqa: E402
from hawkesgauss import errors, experiments  # noqa: E402

if not Path(hg.__file__).resolve().is_relative_to(SRC):
    raise ImportError(f"hawkesgauss was imported from {hg.__file__}, not from {SRC}")

#: the library's typed errors; a job that raises one of them has failed
TYPED_ERRORS = tuple(
    cls
    for cls in vars(errors).values()
    if isinstance(cls, type) and issubclass(cls, Exception) and cls.__module__ == errors.__name__
)

#: relative allowance for IEEE rounding in comparisons that are exact in real
#: arithmetic (the same slack the c07/c08 acceptance sweeps use)
FLOAT_SLACK = 1e-9

#: the c05 grid: step 1e-3 up to horizon 15, so n = 15 001 nodes; with alpha
#: = 1 the c05 kernel's resolvent is 0.5*exp(-t/2)
RESOLVENT_STEP = 1e-3
RESOLVENT_HORIZON = 15.0
C05_KERNEL = hg.ExponentialKernel(1.0, 0.5)


def job_seed(seed: int, job: int) -> int:
    """The library seed of job ``job``; distinct jobs draw independent streams."""
    return int(np.random.SeedSequence((seed, job)).generate_state(1)[0])


# ---------------------------------------------------------------------------
# Preset workloads: run_bound_vs_empirical on one shipped preset
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PresetWorkload:
    name: str
    preset: str
    n_reps: int
    include_resolvent: bool

    def inputs(self, seed: int, job: int) -> int:
        return job_seed(seed, job)

    def run(self, inputs: int):
        return experiments.run_bound_vs_empirical(
            self.preset,
            n_reps=self.n_reps,
            seed=inputs,
            include_resolvent=self.include_resolvent,
        )

    def check(self, inputs, out) -> list[str]:
        problems = []
        if not out.passed:
            problems.append("BoundComparison.passed is False")
        reps = out.samples
        if not np.all(np.isfinite(reps.delta)):
            problems.append("non-finite delta")
        quad_max = float(np.max(reps.quad_err))
        if not quad_max <= experiments.QUAD_BUDGET:
            problems.append(f"quad_err_max {quad_max:.3e} > QUAD_BUDGET {experiments.QUAD_BUDGET}")
        return problems

    def summary(self, out):
        """What the run-level checks need from one job: (delta, int u^2 lambda)."""
        return out.samples.delta, out.samples.u2_lambda

    def run_checks(self, warmup, summaries) -> dict:
        """Checks over the whole run: job 0 repeats the warm-up's seed and
        must reproduce its delta bit for bit, and the innovation moments are
        tested on the deltas pooled over every timed job."""
        checks = {}
        first = summaries[0] if summaries else None
        if warmup is None or first is None:
            checks["determinism"] = ["warm-up or job 0 failed"]
        else:
            a, b = warmup[0], first[0]
            same = a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
            checks["determinism"] = [] if same else ["delta differs between runs of one seed"]
        done = [s for s in summaries if s is not None]
        if done:
            delta = np.concatenate([d for d, _ in done])
            target = np.concatenate([m2 for _, m2 in done]) if self.include_resolvent else 1.0
            checks["moments"] = moment_problems(delta, target)
        else:
            checks["moments"] = ["no job completed"]
        return checks


def moment_problems(delta: np.ndarray, target) -> list[str]:
    """|mean delta| <= 4 SE, and E delta^2 within 4 SE of its target.

    The target is 1 where u is normalized for the stationary linear rate, and
    the pathwise int u^2 lambda otherwise (the isometry E delta^2 =
    E int u^2 lambda holds for every intensity).
    """
    problems = []
    n = delta.size
    if n < 2:
        return [f"need at least 2 samples, got {n}"]
    mean = float(delta.mean())
    se = float(delta.std(ddof=1)) / math.sqrt(n)
    if not abs(mean) <= 4.0 * se:
        problems.append(f"|mean delta| {abs(mean):.4f} > 4 SE {4 * se:.4f}")
    excess = delta**2 - target
    se2 = float(excess.std(ddof=1)) / math.sqrt(n)
    if not abs(float(excess.mean())) <= 4.0 * se2:
        problems.append(
            f"E delta^2 misses its target by {float(excess.mean()):.4f} > 4 SE {4 * se2:.4f}"
        )
    return problems


# ---------------------------------------------------------------------------
# Analytic workload: bounds and resolvent solves, no simulation
# ---------------------------------------------------------------------------

def _random_kernel(rng, mu):
    if rng.random() < 0.5:
        return hg.ExponentialKernel(rate=float(np.exp(rng.uniform(-1.5, 2.0))), mass=mu)
    return hg.BoxKernel(width=float(np.exp(rng.uniform(-1.5, 2.0))), mass=mu)


def _random_step_function(rng, start_lo=-2.0, start_hi=2.0):
    n = int(rng.integers(1, 5))
    widths = rng.uniform(0.05, 3.0, size=n)
    bp = rng.uniform(start_lo, start_hi) + np.concatenate(([0.0], np.cumsum(widths)))
    vals = rng.uniform(-2.0, 2.0, size=n)
    if np.all(vals == 0.0):
        vals[0] = 1.0
    return hg.TestFunction(tuple(bp), tuple(vals))


def _tabulated_kernel(rng, mass):
    step = 0.01
    grid = np.arange(0.0, 3.0 + step / 2, step)
    a, b, c = rng.uniform(0.5, 2.0), rng.uniform(0.0, 0.9), rng.uniform(1.0, 4.0)
    vals = np.exp(-a * grid) * (1.0 + b * np.sin(c * grid))
    vals *= mass / np.trapezoid(vals, dx=step)
    return hg.TabulatedKernel(step, tuple(vals))


#: criterion 6: the linear bound of a Poisson process on a unit indicator is
#: exactly 1, and the nonlinear bound for phi0 = 1, alpha*mu = 0.1 and the
#: normalized indicator on (0, 100] is the closed form below, about 0.522
POISSON_KERNEL = hg.ExponentialKernel(1.0, 0.0)
UNIT_INDICATOR = hg.TestFunction((0.0, 1.0), (1.0,))
C06_PHI0, C06_AM, C06_ELL = 1.0, 0.1, 100.0
C06_PARAMS = hg.HawkesParams(hg.ExponentialKernel(1.0, C06_AM), hg.LinearLink(C06_PHI0))
C06_U = hg.unit_variance_indicator(C06_PHI0, C06_AM, C06_ELL)
_SQ = math.sqrt(2 / math.pi)
C06_CLOSED = (
    _SQ * C06_AM
    + math.sqrt((1 - C06_AM) / (C06_PHI0 * C06_ELL))
    + 2 * _SQ * C06_AM * (2 - C06_AM) / (1 - C06_AM)
    + C06_AM / math.sqrt(C06_PHI0 * C06_ELL * (1 - C06_AM))
)


@dataclass(frozen=True)
class AnalyticInputs:
    cases: tuple  # (nu, kernel, u, params) of the c07/c08 shape
    eps_grid: tuple
    kernel: object  # the kernel whose resolvent this job solves on the c05 grid
    pairs: tuple  # (f, g) step functions for cross_energy against that table


class AnalyticOutput(NamedTuple):
    cases: tuple  # (compare_conditions dict, {bound name: total}) per case
    c06: tuple  # (Poisson bound total, c06 indicator bound total)
    sweeps: tuple  # one SweepResult per family
    table: object  # the ResolventTable
    energies: tuple  # cross_energy per (f, g) pair


@dataclass(frozen=True)
class AnalyticWorkload:
    name: str
    n_cases: int
    n_eps: int
    pairs_per_table: int

    def inputs(self, seed: int, job: int) -> AnalyticInputs:
        rng = np.random.default_rng((seed, job))
        cases = []
        for _ in range(self.n_cases):
            nu = float(np.exp(rng.uniform(-2.0, 2.5)))
            kernel = _random_kernel(rng, float(rng.uniform(0.02, 0.95)))
            u = _random_step_function(rng)
            cases.append((nu, kernel, u, hg.HawkesParams(kernel, hg.LinearLink(nu))))
        eps = np.unique(10.0 ** rng.uniform(-4.0, math.log10(0.5), size=self.n_eps))[::-1]
        # jobs cycle through the exponential, box and tabulated kernels
        kind = job % 3
        if kind == 0:
            kernel = C05_KERNEL
        elif kind == 1:
            kernel = hg.BoxKernel(width=float(rng.uniform(0.5, 3.0)), mass=float(rng.uniform(0.3, 0.7)))
        else:
            kernel = _tabulated_kernel(rng, float(rng.uniform(0.3, 0.7)))
        pairs = tuple(
            (_random_step_function(rng, 0.0, 2.0), _random_step_function(rng, 0.0, 2.0))
            for _ in range(self.pairs_per_table)
        )
        return AnalyticInputs(tuple(cases), tuple(float(e) for e in eps), kernel, pairs)

    def run(self, inputs: AnalyticInputs) -> AnalyticOutput:
        cases = []
        for nu, kernel, u, params in inputs.cases:
            conds = hg.compare_conditions(nu, kernel, u)
            totals = {r.name: r.total for r in hg.evaluate_all(params, u, stationary=True)}
            cases.append((conds, totals))
        c06 = (
            hg.bound_linear(1.0, POISSON_KERNEL, UNIT_INDICATOR).total,
            hg.bound_nonlinear(C06_PARAMS, C06_U).total,
        )
        sweeps = tuple(
            experiments.run_rate_sweep(family, inputs.eps_grid, with_empirical=False)
            for family in experiments.SWEEP_FAMILIES
        )
        tab = hg.resolvent(inputs.kernel, alpha=1.0, step=RESOLVENT_STEP, horizon=RESOLVENT_HORIZON)
        energies = tuple(hg.cross_energy(f, g, tab) for f, g in inputs.pairs)
        return AnalyticOutput(tuple(cases), c06, sweeps, tab, energies)

    def check(self, inputs: AnalyticInputs, out: AnalyticOutput) -> list[str]:
        cases, (poisson_total, c06_total), sweeps, tab, energies = out
        problems = []
        c07 = c08 = 0
        for conds, t in cases:
            if conds["cond_i"]:
                c07 += _exceeds(t["linear_spectral"], t["linear"])
            if conds["cond_ii"]:
                c07 += _exceeds(t["linear_spectral_approx"], t["linear_approx"])
            c08 += _exceeds(t["linear"], t["nonlinear"])
        if c07:
            problems.append(f"{c07} violations of the c07 spectral-improvement inequality")
        if c08:
            problems.append(f"{c08} violations of the c08 linear<=nonlinear inequality")
        if not (poisson_total == 1.0 and abs(c06_total - C06_CLOSED) < 1e-9
                and abs(c06_total - 0.522) <= 1e-3):
            problems.append(f"c06: poisson bound {poisson_total}, indicator bound {c06_total}")
        for sweep in sweeps:
            if not math.isfinite(sweep.slope) or len(sweep.rows) != len(inputs.eps_grid):
                problems.append(f"{sweep.family} sweep: slope {sweep.slope}, {len(sweep.rows)} rows")
        if not tab.residual_sup <= 1e-9:
            problems.append(f"resolvent residual_sup {tab.residual_sup:.2e} > 1e-9")
        for (f, g), e in zip(inputs.pairs, energies):
            cap = f.lp_norm(2) * g.lp_norm(2) * tab.alpha_mu / (1.0 - tab.alpha_mu)
            if not (0.0 <= e <= cap * (1.0 + FLOAT_SLACK)):
                problems.append(f"cross_energy {e} outside [0, {cap}]")
        if inputs.kernel == C05_KERNEL:
            grid = np.arange(len(tab.values)) * tab.step
            sup_err = float(np.max(np.abs(tab.values - 0.5 * np.exp(-0.5 * grid))))
            if not sup_err < 1e-4:
                problems.append(f"exponential resolvent off 0.5*exp(-t/2) by {sup_err:.2e}")
        return problems

    def summary(self, out):
        return None

    def run_checks(self, warmup, summaries) -> dict:
        return {}


def _exceeds(lo: float, hi: float) -> bool:
    return lo > hi * (1 + FLOAT_SLACK) + 1e-12


#: job sizes: one job takes about 0.4 s on a 2-core x86 machine, short
#: enough that the median over a run's jobs rejects bursts of contention
WORKLOADS = {
    w.name: w
    for w in (
        PresetWorkload("preset-linear", "linear", n_reps=300, include_resolvent=False),
        PresetWorkload("preset-saturating", "saturating", n_reps=100, include_resolvent=True),
        AnalyticWorkload("analytic", n_cases=270, n_eps=20, pairs_per_table=4),
    )
}
