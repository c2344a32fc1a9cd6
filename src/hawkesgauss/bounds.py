"""Explicit Wasserstein upper bounds for the distance between an innovation
and the standard normal, with per-term breakdowns.

Three closed-form families are implemented: the general nonlinear bound, the
linear-case bound, and its spectral (L2-kernel) form, each with a
constant-rate variant.  They share three of their four terms, so they are
data: ``FAMILIES`` holds one row per bound (term labels, applicability flags,
constant-rate marker) and ``_terms`` evaluates every row from one record of
test-function norms, ``TestFunction.norms``, which each function computes
once.  A further, semi-analytic bound combines Monte Carlo moment estimates
with deterministic resolvent majorants.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError, StabilityError, StatisticalError
from .kernels import ResolventTable, cross_energy, l1_norm, l2_norm
from .model import HawkesParams, Kernel, TestFunction

SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)

#: totals above this are flagged vacuous (still reported): the Wasserstein
#: distance of any centered unit-variance variable to the normal is modest.
VACUITY_THRESHOLD = 2.0


@dataclass(frozen=True)
class BoundReport:
    """One bound evaluation: ordered nonnegative terms summing to the total,
    applicability flags, and an echo of the inputs that produced it."""

    name: str
    terms: tuple
    requires_linear: bool = False
    requires_l2: bool = False
    stationary_only: bool = False
    inputs: dict = field(default_factory=dict)
    mc_terms: tuple = ()
    vacuity_threshold: float = VACUITY_THRESHOLD

    @property
    def total(self) -> float:
        return float(sum(v for _, v in self.terms))

    @property
    def vacuous(self) -> bool:
        return self.total > self.vacuity_threshold

    @property
    def mc_se(self) -> float:
        """Combined standard error of the Monte Carlo terms (zero otherwise)."""
        return float(sum(se for _, se in self.mc_terms))

    @property
    def approx(self) -> bool:
        """True for a constant-rate variant, which bounds the innovation built
        with the constant rate in place of the intensity."""
        family = FAMILIES.get(self.name)
        return family is not None and family.approx

    def term(self, label: str) -> float:
        for lab, v in self.terms:
            if lab == label:
                return v
        raise KeyError(label)


def intensity_bracket(p: HawkesParams) -> tuple:
    """Deterministic bracket [phi(0), phi(0)/(1 - alpha*mu)] containing the
    mean intensity."""
    return (p.phi0, p.phi0 / (1.0 - p.alpha_mu))


_SHARED = ("third_moment", "excitation_variance", "excitation_cross")
_NONLINEAR = ("rate_bracket_max",) + _SHARED
_LINEAR = ("variance_mismatch",) + _SHARED
_RATE = ("rate_estimate_error",)


@dataclass(frozen=True)
class Family:
    """One closed-form bound as data: which base formula it evaluates
    (``nonlinear``, ``linear`` or ``spectral``), the terms it reports in
    order, when it applies, and whether it is the constant-rate variant."""

    name: str
    base: str
    labels: tuple
    requires_linear: bool = False
    requires_l2: bool = False
    stationary_only: bool = False
    approx: bool = False

    def skip_reason(self, p: HawkesParams, stationary: bool):
        """Why this bound does not apply to ``p`` in the given mode, or None:
        the linear and spectral bounds need a linear link and the stationary
        setting, the spectral ones moreover a square-integrable kernel."""
        if self.requires_linear and not p.is_linear:
            return "link is not linear"
        if self.stationary_only and not stationary:
            return "needs the stationary setting"
        if self.requires_l2 and not math.isfinite(l2_norm(p.kernel)):
            return "kernel is not square-integrable"
        return None


#: the closed-form bounds in report order
FAMILIES = {
    f.name: f
    for f in (
        Family("nonlinear", "nonlinear", _NONLINEAR),
        Family("nonlinear_approx", "nonlinear", _NONLINEAR + _RATE, approx=True),
        Family("linear", "linear", _LINEAR, requires_linear=True, stationary_only=True),
        Family("linear_approx", "linear", _LINEAR + _RATE, requires_linear=True,
               stationary_only=True, approx=True),
        Family("linear_spectral", "spectral", _LINEAR, requires_linear=True,
               requires_l2=True, stationary_only=True),
        Family("linear_spectral_approx", "spectral", _LINEAR + _RATE, requires_linear=True,
               requires_l2=True, stationary_only=True, approx=True),
    )
}


def _terms(base: str, rate0: float, am: float, n: Mapping, h2: float | None) -> dict:
    """Every term of one base formula by label, from ``rate0`` = phi(0) or nu,
    ``am`` = alpha*mu or mu, the norms ``n`` of u and the kernel's L2 norm
    ``h2`` (spectral only).  The bases differ in their first term, in whether
    the excitation variance keeps its (2 - am) factor, and in the rate error
    their constant-rate variant adds."""
    one = 1.0 - am
    lam = rate0 / one
    l2sq = n["u_l2"] ** 2
    spectral = base == "spectral"
    if base == "nonlinear":
        first = SQRT_2_OVER_PI * max(abs(1.0 - rate0 * l2sq), abs(1.0 - lam * l2sq))
    elif spectral:
        var_min = min(am**2 * n["u_sq_l2"] ** 2, h2**2 * n["u_sq_l1"] ** 2)
        first = SQRT_2_OVER_PI * math.sqrt((1.0 - lam * l2sq) ** 2 + rate0 / one**3 * var_min)
    else:
        first = SQRT_2_OVER_PI * abs(1.0 - lam * l2sq)
    var_coef = 2.0 * SQRT_2_OVER_PI * rate0 * am
    if spectral:
        rate_error = math.sqrt(rate0) / one**1.5 * min(am * n["u_l2"], h2 * n["u_l1"])
    else:
        var_coef = var_coef * (2.0 - am)
        rate_error = 2.0 * rate0 * am / one * n["u_l1"]
    return {
        "rate_bracket_max": first,
        "variance_mismatch": first,
        "third_moment": lam * n["u_l3"] ** 3,
        "excitation_variance": var_coef / one**2 * l2sq,
        "excitation_cross": rate0 * am / one**2 * n["u_l2"] * n["u_sq_l2"],
        "rate_estimate_error": rate_error,
    }


def _report(
    family: Family, rate0: float, am: float, n: Mapping, h2=None, terms=None
) -> BoundReport:
    """``family``'s report; ``terms`` is ``_terms`` of its base when the
    caller has it already.  The report's eight fields are written straight
    into its instance dict, which a frozen dataclass leaves writable: the
    generated ``__init__`` costs more than the formulas on these scalars."""
    if terms is None:
        terms = _terms(family.base, rate0, am, n, h2)
    if family.requires_linear:
        inputs = {"nu": rate0, "mu": am}
    else:
        inputs = {"phi0": rate0, "alpha_mu": am}
    if family.requires_l2:
        inputs["h_l2"] = h2
    inputs.update(n)
    report = object.__new__(BoundReport)
    vars(report).update(
        name=family.name,
        terms=tuple([(label, terms[label]) for label in family.labels]),
        requires_linear=family.requires_linear,
        requires_l2=family.requires_l2,
        stationary_only=family.stationary_only,
        inputs=inputs,
        mc_terms=(),
        vacuity_threshold=VACUITY_THRESHOLD,
    )
    return report


def _nonlinear_report(name: str, p: HawkesParams, u: TestFunction) -> BoundReport:
    return _report(FAMILIES[name], p.phi0, p.alpha_mu, u.norms)


def _check_linear(nu: float, mu: float) -> None:
    if not (nu > 0 and math.isfinite(nu)):
        raise ParameterError(f"nu must be > 0, got {nu}")
    if mu >= 1:
        raise StabilityError(f"linear case requires mu < 1, got {mu}")


def _linear_report(name: str, nu: float, k: Kernel, u: TestFunction) -> BoundReport:
    family = FAMILIES[name]
    mu = l1_norm(k)
    _check_linear(nu, mu)
    h2 = None
    if family.requires_l2:
        h2 = l2_norm(k)
        if not math.isfinite(h2):
            raise ParameterError("spectral bound needs a square-integrable kernel")
    return _report(family, nu, mu, u.norms, h2)


def bound_nonlinear(p: HawkesParams, u: TestFunction) -> BoundReport:
    """General bound: applies to any nondecreasing Lipschitz link, in both the
    stationary and the from-empty-past settings."""
    return _nonlinear_report("nonlinear", p, u)


def bound_nonlinear_approx(p: HawkesParams, u: TestFunction) -> BoundReport:
    """Nonlinear bound for the constant-rate innovation: adds the rate-error
    term 2*phi(0)*alpha*mu/(1-alpha*mu) * ||u||_L1."""
    return _nonlinear_report("nonlinear_approx", p, u)


def bound_linear(nu: float, k: Kernel, u: TestFunction) -> BoundReport:
    """Linear-case bound: sharper than the nonlinear bound because the mean
    intensity nu/(1-mu) is known exactly.  Proven under stationarity."""
    return _linear_report("linear", nu, k, u)


def bound_linear_approx(nu: float, k: Kernel, u: TestFunction) -> BoundReport:
    return _linear_report("linear_approx", nu, k, u)


def bound_linear_spectral(nu: float, k: Kernel, u: TestFunction) -> BoundReport:
    """Linear-case bound using the spectral covariance identity; requires a
    square-integrable kernel.  The variance term sits inside a square root and
    the excitation-variance coefficient loses the (2-mu) factor."""
    return _linear_report("linear_spectral", nu, k, u)


def bound_linear_spectral_approx(nu: float, k: Kernel, u: TestFunction) -> BoundReport:
    return _linear_report("linear_spectral_approx", nu, k, u)


def compare_conditions(nu: float, k: Kernel, u: TestFunction) -> dict:
    """Sufficient conditions under which the spectral bounds improve the
    direct linear ones: cond_i certifies linear_spectral <= linear, cond_ii
    certifies the same for the constant-rate variants.  Both compare ratios
    of u's norms, so u must be nonzero and those ratios finite floats."""
    mu = l1_norm(k)
    _check_linear(nu, mu)
    h2 = l2_norm(k)
    n = u.norms
    try:
        r_u = n["u_sq_l2"] ** 2 / n["u_l2"] ** 4
        r_u1 = n["u_l2"] ** 2 / n["u_l1"] ** 2
    except (ZeroDivisionError, OverflowError):
        raise ParameterError(
            f"compare_conditions needs u's norm ratios as finite floats, got "
            f"||u||_1 = {n['u_l1']!r} and ||u||_2 = {n['u_l2']!r}"
        ) from None
    r_h = (h2 / mu) ** 2 if mu > 0 else math.inf
    scale = 1.0 / (4.0 * (1.0 - mu))
    cond_i = nu >= scale * min(r_u, r_h)
    cond_ii = nu >= scale * max(min(r_u, r_h), min(r_u1, r_h))
    return {"cond_i": bool(cond_i), "cond_ii": bool(cond_ii)}


def bound_general_resolvent(
    p: HawkesParams,
    u: TestFunction,
    psi: ResolventTable,
    u2_lambda_samples,
    u3_lambda_samples,
) -> BoundReport:
    """Semi-analytic bound: the first two terms are Monte Carlo estimates of
    E|1 - int u^2 lambda| and E int |u|^3 lambda (with standard errors); the
    two gradient terms are majorized deterministically by resolvent double
    integrals scaled with the upper intensity bracket."""
    m2 = np.asarray(u2_lambda_samples, dtype=float)
    m3 = np.asarray(u3_lambda_samples, dtype=float)
    if m2.size != m3.size:
        raise ParameterError("moment sample arrays must have equal length")
    if m2.size < 100:
        raise StatisticalError(
            f"need at least 100 Monte Carlo samples, got {m2.size}"
        )
    _, lam_high = intensity_bracket(p)

    dev = np.abs(1.0 - m2)
    t1 = SQRT_2_OVER_PI * float(np.mean(dev))
    se1 = SQRT_2_OVER_PI * float(np.std(dev, ddof=1) / math.sqrt(dev.size))
    t2 = float(np.mean(m3))
    se2 = float(np.std(m3, ddof=1) / math.sqrt(m3.size))

    # cross_energy integrates |f| and |g|
    t3 = 2.0 * SQRT_2_OVER_PI * lam_high * cross_energy(u, u, psi)
    t4 = lam_high * cross_energy(u, u.squared(), psi)

    return BoundReport(
        name="resolvent_majorant",
        terms=(
            ("variance_mismatch_mc", t1),
            ("third_moment_mc", t2),
            ("gradient_first", t3),
            ("gradient_second", t4),
        ),
        inputs={"phi0": p.phi0, "alpha_mu": p.alpha_mu, "lambda_high": lam_high, **u.norms},
        mc_terms=(("variance_mismatch_mc", se1), ("third_moment_mc", se2)),
    )


def evaluate_all(
    params: HawkesParams,
    u: TestFunction,
    stationary: bool,
) -> list[BoundReport]:
    """Every closed-form bound applicable to (params, u) in the given mode,
    in ``FAMILIES`` order; see ``Family.skip_reason`` for the rule.  Each
    base formula is evaluated once and shared by the families built on it."""
    n = u.norms
    rate0, am = params.phi0, params.alpha_mu
    bases = {}
    reports = []
    for family in FAMILIES.values():
        if family.skip_reason(params, stationary) is None:
            h2 = l2_norm(params.kernel) if family.requires_l2 else None
            if family.base not in bases:
                bases[family.base] = _terms(family.base, rate0, am, n, h2)
            reports.append(_report(family, rate0, am, n, h2, bases[family.base]))
    return reports
