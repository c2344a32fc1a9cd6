"""Experiment orchestration: replicated innovation sampling, bound-versus-
empirical comparisons for the shipped presets, and epsilon-sweeps tracking
how bounds and empirical distances shrink together.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .bounds import (
    bound_general_resolvent,
    compare_conditions,
    evaluate_all,
)
from ._lockstep import replication_sums
from .chaos import default_lambda_hat
from .errors import NumericError, ParameterError
from .kernels import resolvent
from .model import (
    ExponentialKernel,
    HawkesParams,
    LinearLink,
    SaturatingExpLink,
    TestFunction,
    unit_variance_indicator,
)
from .simulator import SimConfig, burn_in_for
from .stats import SampleSet, bootstrap_w1_se, empirical_w1_to_normal, kolmogorov_to_normal

#: fixed slack added to every bound-respect comparison, on top of four
#: bootstrap standard errors; the compensators are exact, so it is pure margin
QUAD_BUDGET = 1e-3

DEFAULT_REPS = 10_000
BOOTSTRAP_RESAMPLES = 200


def check_ks_w1(s: SampleSet) -> tuple:
    """Compute (w1, ks) and enforce ks <= 2*sqrt(w1), which holds for every
    sample set; a violation means a distance implementation broke."""
    w1 = empirical_w1_to_normal(s)
    ks = kolmogorov_to_normal(s)
    if ks > 2.0 * math.sqrt(max(w1, 0.0)) + 1e-12:
        raise NumericError(
            f"KS = {ks} exceeds 2*sqrt(W1) = {2.0 * math.sqrt(w1)}; "
            "distance computation is inconsistent"
        )
    return w1, ks


@dataclass(frozen=True)
class ReplicationSet:
    """Replicated innovation samples for one configuration; ``quad_err`` is
    all zeros, every compensator being closed form, and kept for the benchmark."""

    delta: np.ndarray
    event_sum: np.ndarray
    compensator: np.ndarray
    quad_err: np.ndarray
    delta_approx: np.ndarray
    lambda_hat: float
    u2_lambda: np.ndarray | None = None
    u3_lambda: np.ndarray | None = None


def replicate_innovations(
    params: HawkesParams,
    u: TestFunction,
    t_end: float,
    burn_in: float,
    n_reps: int,
    seed: int,
    collect_moments: bool = False,
) -> ReplicationSet:
    """Simulate ``n_reps`` independent paths and compute both innovations on
    each.  Replication k uses the stream keyed by (seed, k), so results do not
    depend on execution order.

    The sums come from ``_lockstep.replication_sums``, which thins every
    exponential kernel in lockstep, whatever the link, and gives the numbers
    of ``simulate`` and ``first_chaos`` to rounding.
    """
    if not (isinstance(n_reps, numbers.Integral) and n_reps >= 1):
        raise ParameterError(f"need an integer count of at least 1 replication, got {n_reps!r}")
    # the typed errors of SimConfig for t_end, burn_in and seed
    SimConfig(params=params, t_end=t_end, burn_in=burn_in, seed=seed, replication=n_reps - 1)
    event_sum, integrals = replication_sums(
        params, u, t_end, burn_in, n_reps, seed, collect_moments
    )
    compensator = integrals[0]
    lam_hat = default_lambda_hat(params)
    return ReplicationSet(
        delta=event_sum - compensator,
        event_sum=event_sum,
        compensator=compensator,
        quad_err=np.zeros(n_reps),
        delta_approx=event_sum - lam_hat * u.integral(),
        lambda_hat=lam_hat,
        u2_lambda=integrals[1] if collect_moments else None,
        u3_lambda=integrals[2] if collect_moments else None,
    )


# ---------------------------------------------------------------------------
# Shipped presets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Preset:
    """A shipped run: u is the unit-variance indicator on (0, t_end]."""

    name: str
    params: HawkesParams
    u: TestFunction = field(init=False)
    t_end: float
    burn_in: float = field(init=False)
    stationary: bool
    description: str

    def __post_init__(self):
        p = self.params
        object.__setattr__(self, "u", unit_variance_indicator(p.phi0, p.alpha_mu, self.t_end))
        object.__setattr__(self, "burn_in", burn_in_for(p, self.stationary))


def _exp_params(mass: float, link) -> HawkesParams:
    return HawkesParams(ExponentialKernel(rate=1.0, mass=mass), link)


#: the shipped presets, one row each: (name, params, t_end, stationary, description)
PRESETS = {
    row[0]: Preset(*row)
    for row in (
        ("poisson", _exp_params(0.0, LinearLink(nu=1.0)), 1.0, False,
         "no excitation: unit-rate count on (0, 1]"),
        ("linear", _exp_params(0.5, LinearLink(nu=2.0)), 25.0, True,
         "linear link nu=2, exponential kernel mass 0.5"),
        ("indicator_mild", _exp_params(0.1, LinearLink(nu=1.0)), 100.0, True,
         "normalized indicator, branching ratio 0.1"),
        ("indicator_moderate", _exp_params(0.3, LinearLink(nu=1.0)), 100.0, True,
         "normalized indicator, branching ratio 0.3"),
        ("saturating", _exp_params(0.5, SaturatingExpLink(nu=1.0, cap=3.0)), 50.0, False,
         "saturating nonlinear link, branching ratio 0.5"),
    )
}


# ---------------------------------------------------------------------------
# Bound versus empirical distance
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundComparison:
    """Empirical distances alongside every applicable bound for one preset."""

    preset: str
    n_reps: int
    seed: int
    reports: tuple
    w1_exact: float
    w1_exact_se: float
    ks_exact: float
    w1_approx: float
    w1_approx_se: float
    ks_approx: float
    min_bound_exact: float
    min_bound_approx: float
    passed: bool
    samples: ReplicationSet


def run_bound_vs_empirical(
    preset,
    n_reps: int = DEFAULT_REPS,
    seed: int = 0,
    include_resolvent: bool = False,
) -> BoundComparison:
    """Check the bound-respect property on one preset: the empirical W1
    distance must not exceed the smallest applicable bound plus Monte Carlo
    slack and the fixed ``QUAD_BUDGET`` margin."""
    if isinstance(preset, str):
        try:
            preset = PRESETS[preset]
        except KeyError:
            raise ParameterError(
                f"unknown preset {preset!r}; choose from {sorted(PRESETS)}"
            ) from None
    params, u = preset.params, preset.u
    if not (isinstance(n_reps, numbers.Integral) and n_reps >= 2):
        raise ParameterError(
            f"need an integer count of at least 2 replications for the distances, got {n_reps!r}"
        )

    reports = list(evaluate_all(params, u, stationary=preset.stationary))
    reps = replicate_innovations(
        params,
        u,
        preset.t_end,
        preset.burn_in,
        n_reps,
        seed,
        collect_moments=include_resolvent,
    )
    if include_resolvent:
        span = u.breakpoints[-1] - u.breakpoints[0]
        psi = resolvent(
            params.kernel,
            params.link.lipschitz,
            step=min(1e-2, span / 100.0),
            horizon=span,
        )
        reports.append(
            bound_general_resolvent(params, u, psi, reps.u2_lambda, reps.u3_lambda)
        )

    s_exact = SampleSet(reps.delta, provenance={"preset": preset.name, "seed": seed})
    s_approx = SampleSet(reps.delta_approx, provenance={"preset": preset.name, "seed": seed})
    w1_e, ks_e = check_ks_w1(s_exact)
    w1_a, ks_a = check_ks_w1(s_approx)
    se_e = bootstrap_w1_se(s_exact, BOOTSTRAP_RESAMPLES, seed=seed + 1)
    se_a = bootstrap_w1_se(s_approx, BOOTSTRAP_RESAMPLES, seed=seed + 2)

    exact_bounds = [r.total + r.mc_se for r in reports if not r.approx]
    approx_bounds = [r.total + r.mc_se for r in reports if r.approx]
    min_e = min(exact_bounds)
    min_a = min(approx_bounds)
    passed = (
        w1_e <= min_e + 4.0 * se_e + QUAD_BUDGET
        and w1_a <= min_a + 4.0 * se_a + QUAD_BUDGET
    )
    return BoundComparison(
        preset=preset.name,
        n_reps=n_reps,
        seed=seed,
        reports=tuple(reports),
        w1_exact=w1_e,
        w1_exact_se=se_e,
        ks_exact=ks_e,
        w1_approx=w1_a,
        w1_approx_se=se_a,
        ks_approx=ks_a,
        min_bound_exact=min_e,
        min_bound_approx=min_a,
        passed=passed,
        samples=reps,
    )


# ---------------------------------------------------------------------------
# Epsilon sweeps
# ---------------------------------------------------------------------------

#: each sweep family's (leading bound, stationary); a stationary family also
#: reports the linear-case bounds and checks the spectral conditions
SWEEP_FAMILIES = {
    "nonlinear": ("nonlinear", False),
    "linear": ("linear_spectral", True),
}


@dataclass(frozen=True)
class RateSweepRow:
    eps: float
    phi0: float
    alpha_mu: float
    ell: float
    t_end: float
    n_reps: int
    bounds: dict
    empirical_w1: float | None
    w1_se: float | None
    limits: dict = field(default_factory=dict)
    conditions: dict | None = None


@dataclass(frozen=True)
class SweepResult:
    family: str
    rows: tuple
    slope: float
    slope_bound: str


def fit_loglog_slope(eps, values) -> float:
    eps = np.asarray(eps, dtype=float)
    values = np.asarray(values, dtype=float)
    return float(np.polyfit(np.log(eps), np.log(values), 1)[0])


def run_rate_sweep(
    family: str,
    eps_grid,
    n_reps: int = DEFAULT_REPS,
    seed: int = 0,
    nu: float = 1.0,
    with_empirical: bool = True,
) -> SweepResult:
    """Sweep the mass eps of a rate-1 exponential kernel over a decreasing
    grid with the matched indicator support (0, 1/eps].

    Family ``nonlinear`` reports the general bounds on from-empty-past runs;
    family ``linear`` reports all linear-case bounds on burned-in runs and
    verifies the spectral-improvement conditions row by row.  The headline
    log-log slope is fitted on the family's leading bound.  On a coarse grid
    ``SweepResult.slope`` is pre-asymptotic for the nonlinear family: its
    bound is about sqrt(eps) + 3.99*eps, so the fit reads 0.80 on eps from
    0.2 to 0.025 and nears 0.5 only for eps below about 1e-3.
    """
    if family not in SWEEP_FAMILIES:
        raise ParameterError(
            f"unknown sweep family {family!r}; choose from {tuple(SWEEP_FAMILIES)}"
        )
    slope_bound, stationary = SWEEP_FAMILIES[family]
    grid = [float(e) for e in eps_grid]
    if not grid or any(not (0.0 < e < 1.0) for e in grid):
        raise ParameterError(f"eps grid must lie strictly inside (0, 1), got {grid}")
    if any(b >= a for a, b in zip(grid[:-1], grid[1:])):
        raise ParameterError(f"eps grid must be strictly decreasing, got {grid}")
    if with_empirical and not (isinstance(n_reps, numbers.Integral) and n_reps >= 1000):
        raise ParameterError(f"need an integer count of >= 1000 replications, got {n_reps!r}")

    rows = []
    for i, eps in enumerate(grid):
        params = _exp_params(eps, LinearLink(nu=nu))
        am = params.alpha_mu
        ell = 1.0 / eps
        u = unit_variance_indicator(nu, am, ell)

        reports = evaluate_all(params, u, stationary=stationary)
        bound_totals = {r.name: r.total for r in reports}
        if any(not math.isfinite(v) for v in bound_totals.values()):
            raise NumericError(f"non-finite bound at eps={eps}: {bound_totals}")

        n = u.norms
        limits = {
            "alpha_mu": am,
            "phi0_u_l2_sq": nu * n["u_l2"] ** 2,
            "phi0_u_l3_cubed": nu * n["u_l3"] ** 3,
            "sqrt_phi0_alpha_mu_u_sq_l2": math.sqrt(nu) * am * n["u_sq_l2"],
            "phi0_alpha_mu_u_l1": nu * am * n["u_l1"],
        }

        conditions = None
        if stationary:
            conditions = compare_conditions(nu, params.kernel, u)
            tol = 1e-9 * max(1.0, bound_totals["linear"])
            if conditions["cond_i"] and not (
                bound_totals["linear_spectral"] <= bound_totals["linear"] + tol
            ):
                raise NumericError(f"spectral bound fails to improve at eps={eps}")
            if conditions["cond_ii"] and not (
                bound_totals["linear_spectral_approx"]
                <= bound_totals["linear_approx"] + tol
            ):
                raise NumericError(
                    f"approx spectral bound fails to improve at eps={eps}"
                )

        w1 = se = None
        if with_empirical:
            reps = replicate_innovations(
                params, u, ell, burn_in_for(params, stationary), n_reps, seed + i
            )
            s = SampleSet(reps.delta, provenance={"family": family, "eps": eps, "seed": seed + i})
            w1, _ = check_ks_w1(s)
            se = bootstrap_w1_se(s, BOOTSTRAP_RESAMPLES, seed=seed + i + 1)

        rows.append(
            RateSweepRow(
                eps=eps,
                phi0=nu,
                alpha_mu=am,
                ell=ell,
                t_end=ell,
                n_reps=n_reps if with_empirical else 0,
                bounds=bound_totals,
                empirical_w1=w1,
                w1_se=se,
                limits=limits,
                conditions=conditions,
            )
        )

    slope = fit_loglog_slope(grid, [r.bounds[slope_bound] for r in rows])
    return SweepResult(family=family, rows=tuple(rows), slope=slope, slope_bound=slope_bound)


# ---------------------------------------------------------------------------
# CSV emission
# ---------------------------------------------------------------------------

def provenance_line(version: str, config_hash: str, seed) -> str:
    return f"# hawkesgauss {version} config={config_hash} seed={seed}"


def write_samples_csv(fh, reps: ReplicationSet, provenance: str) -> None:
    fh.write(provenance + "\n")
    fh.write("replication,delta,event_sum,compensator,quad_err\n")
    for k in range(len(reps.delta)):
        fh.write(
            f"{k},{float(reps.delta[k])!r},{float(reps.event_sum[k])!r},"
            f"{float(reps.compensator[k])!r},{float(reps.quad_err[k])!r}\n"
        )


def write_bounds_csv(fh, reports, provenance: str) -> None:
    fh.write(provenance + "\n")
    fh.write("bound,term_label,value\n")
    for r in reports:
        for label, value in r.terms:
            fh.write(f"{r.name},{label},{value!r}\n")
        fh.write(f"{r.name},total,{r.total!r}\n")


def write_sweep_csv(fh, result: SweepResult, provenance: str) -> None:
    fh.write(provenance + "\n")
    bound_names = sorted(result.rows[0].bounds)
    cols = ["eps", "phi0", "alpha_mu", "ell", "t_end", "n_reps"]
    cols += [f"bound_{b}" for b in bound_names]
    cols += ["empirical_w1", "w1_se"]
    fh.write(",".join(cols) + "\n")
    for row in result.rows:
        cells = [repr(row.eps), repr(row.phi0), repr(row.alpha_mu), repr(row.ell),
                 repr(row.t_end), str(row.n_reps)]
        cells += [repr(row.bounds[b]) for b in bound_names]
        cells += [
            "" if row.empirical_w1 is None else repr(row.empirical_w1),
            "" if row.w1_se is None else repr(row.w1_se),
        ]
        fh.write(",".join(cells) + "\n")
