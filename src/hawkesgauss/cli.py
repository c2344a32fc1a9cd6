"""Command-line entry point.

Subcommands: simulate | bounds | experiment | ci.
Exit codes: 0 ok, 2 configuration error, 3 simulation error, 4 infeasible
confidence interval.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from ._version import __version__
from .bounds import FAMILIES, evaluate_all
from .config import RunConfig, config_hash, parse_config
from .errors import ConfigError, ParameterError, SimulationError, StabilityError
from .experiments import (
    PRESETS,
    SWEEP_FAMILIES,
    provenance_line,
    run_bound_vs_empirical,
    run_rate_sweep,
    write_bounds_csv,
    write_samples_csv,
    write_sweep_csv,
)
from .simulator import SimConfig, burn_in_for, simulate
from .stats import confidence_interval

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SIMULATION = 3
EXIT_INFEASIBLE_CI = 4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hawkesgauss",
        description="Hawkes-process simulation and Gaussian-approximation bound checks",
    )
    parser.add_argument("--version", action="version", version=f"hawkesgauss {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="path to the run configuration")
        p.add_argument("--seed", type=int, default=None, help="override [sim] seed")
        p.add_argument("--reps", type=int, default=None, help="override [sim] reps")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--burn-in", type=float, default=None, dest="burn_in",
                       help="override [sim] burn_in")
        p.add_argument("--mode", choices=("rplus", "stationary"), default=None,
                       help="override [sim] mode")

    common(sub.add_parser("simulate", help="write one simulated event stream"))
    common(sub.add_parser("bounds", help="evaluate every applicable bound"))
    p_exp = sub.add_parser("experiment", help="run a named experiment")
    common(p_exp)
    p_exp.add_argument("name", nargs="?", default=None,
                       help="experiment name (defaults to [experiment] name)")
    p_ci = sub.add_parser("ci", help="confidence interval from the best applicable bound")
    common(p_ci)
    p_ci.add_argument("--beta", type=float, required=True,
                      help="miscoverage parameter in (0, 1/2)")
    return parser


def _load_config(args) -> RunConfig:
    path = Path(args.config)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    # the options that override [sim], where given
    keys = ("seed", "reps", "burn_in", "mode")
    overrides = {k: getattr(args, k) for k in keys if getattr(args, k) is not None}
    return replace(parse_config(path.read_text()), **overrides)


def _effective_burn_in(cfg: RunConfig, params) -> float:
    if cfg.burn_in is not None:
        return cfg.burn_in
    return burn_in_for(params, cfg.mode == "stationary")


def _cmd_simulate(args) -> int:
    cfg = _load_config(args)
    params = cfg.build_params()
    burn_in = _effective_burn_in(cfg, params)
    sim_cfg = SimConfig(params=params, t_end=cfg.t_end, burn_in=burn_in, seed=cfg.seed)
    stream, _ = simulate(sim_cfg)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    out_path = out_dir / "events.txt"
    out_path.write_text(stream.serialize())
    print(f"wrote {len(stream)} events to {out_path}")
    return EXIT_OK


def _cmd_bounds(args) -> int:
    cfg = _load_config(args)
    params = cfg.build_params()
    u = cfg.build_u(params)
    # the linear/spectral bounds are proven under stationarity only; compute
    # them whenever the link is linear, but flag the mode mismatch
    reports = evaluate_all(params, u, stationary=params.is_linear)
    print(f"{'bound':<24} {'total':>12}  notes")
    for r in reports:
        notes = []
        if r.vacuous:
            notes.append("vacuous")
        if r.stationary_only and cfg.mode == "rplus":
            notes.append("stationary-only: pair with --mode stationary runs")
        print(f"{r.name:<24} {r.total:>12.6f}  {'; '.join(notes)}")
        for label, value in r.terms:
            print(f"  {label:<22} {value:>12.6f}")
    for family in FAMILIES.values():
        reason = family.skip_reason(params, stationary=params.is_linear)
        if reason is not None and not family.approx:
            print(f"{family.base + ' family':<24} {'skipped':>12}  {reason}")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    out_path = out_dir / "bounds.csv"
    with out_path.open("w") as fh:
        write_bounds_csv(fh, reports, provenance_line(__version__, config_hash(cfg), cfg.seed))
    print(f"wrote {out_path}")
    return EXIT_OK


def _cmd_experiment(args) -> int:
    cfg = _load_config(args)
    name = args.name if args.name is not None else cfg.experiment_name
    if name is None:
        raise ConfigError("no experiment name given (positional or [experiment] name)")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    prov = provenance_line(__version__, config_hash(cfg), cfg.seed)

    family = name.removeprefix("sweep-")
    if family != name and family in SWEEP_FAMILIES:
        if cfg.eps_grid is None:
            raise ConfigError(f"experiment {name!r} needs [experiment] eps_grid")
        result = run_rate_sweep(
            family, cfg.eps_grid, n_reps=cfg.reps, seed=cfg.seed, nu=dict(cfg.link)["nu"]
        )
        out_path = out_dir / f"{name}.csv"
        with out_path.open("w") as fh:
            write_sweep_csv(fh, result, prov)
        print(f"{name}: fitted log-log slope of {result.slope_bound} = {result.slope:.4f}")
        for row in result.rows:
            emp = "-" if row.empirical_w1 is None else f"{row.empirical_w1:.5f}"
            lead = row.bounds[result.slope_bound]
            print(f"  eps={row.eps:<8g} {result.slope_bound}={lead:.5f} empirical_w1={emp}")
        print(f"wrote {out_path}")
        return EXIT_OK

    if name == "bound-vs-empirical":
        preset_names = [cfg.preset] if cfg.preset else sorted(PRESETS)
        all_pass = True
        for preset in preset_names:
            rec = run_bound_vs_empirical(preset, n_reps=cfg.reps, seed=cfg.seed)
            verdict = "PASS" if rec.passed else "FAIL"
            all_pass &= rec.passed
            print(
                f"{preset:<20} w1={rec.w1_exact:.5f} (se {rec.w1_exact_se:.5f}) "
                f"min_bound={rec.min_bound_exact:.5f} "
                f"w1_approx={rec.w1_approx:.5f} min_bound_approx={rec.min_bound_approx:.5f} "
                f"{verdict}"
            )
            out_path = out_dir / f"bounds_{preset}.csv"
            with out_path.open("w") as fh:
                write_bounds_csv(fh, rec.reports, prov)
            with (out_dir / f"samples_{preset}.csv").open("w") as fh:
                write_samples_csv(fh, rec.samples, prov)
        return EXIT_OK if all_pass else EXIT_SIMULATION

    raise ConfigError(f"unknown experiment name {name!r}")


def _cmd_ci(args) -> int:
    if not (0.0 < args.beta < 0.5):
        raise ConfigError(f"--beta must lie in (0, 1/2), got {args.beta}")
    cfg = _load_config(args)
    params = cfg.build_params()
    u = cfg.build_u(params)
    reports = evaluate_all(params, u, stationary=cfg.mode == "stationary")
    best = min((r for r in reports if not r.approx), key=lambda r: r.total)
    bound = best.total
    ci = confidence_interval(bound, args.beta)
    if not ci.feasible:
        print(
            f"infeasible: bound {bound:.6f} ({best.name}) needs beta >= "
            f"{ci.min_feasible_beta:.6f}, got {args.beta}"
        )
        return EXIT_INFEASIBLE_CI
    print(
        f"bound {bound:.6f} ({best.name}): interval "
        f"({ci.lower:.6f}, {ci.upper:.6f}], coverage >= {ci.coverage_floor:.4f}"
    )
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "simulate": _cmd_simulate,
        "bounds": _cmd_bounds,
        "experiment": _cmd_experiment,
        "ci": _cmd_ci,
    }
    try:
        return handlers[args.command](args)
    except (ConfigError, StabilityError, ParameterError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SimulationError as exc:
        print(f"simulation error: {exc}", file=sys.stderr)
        return EXIT_SIMULATION


if __name__ == "__main__":
    sys.exit(main())
