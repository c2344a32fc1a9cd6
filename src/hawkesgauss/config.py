"""Structured-text run configuration.

One INI-style document with sections [kernel], [link], [u], [sim] and an
optional [experiment]; decimal numbers, comma-separated lists, unknown keys
rejected.  Parsing and serialization round-trip exactly.
"""

from __future__ import annotations

import configparser
import hashlib
import math
from dataclasses import dataclass

from .errors import ConfigError
from .model import (
    BoxKernel,
    ExponentialKernel,
    HawkesParams,
    LinearLink,
    SaturatingExpLink,
    TabulatedKernel,
    TanhLink,
    TestFunction,
    unit_variance_indicator,
)

_SCHEMA = {
    "kernel": {"form", "mass", "rate", "width", "step", "values"},
    "link": {"form", "nu", "cap", "amplitude"},
    "u": {"kind", "ell", "breakpoints", "values"},
    "sim": {"t_end", "burn_in", "seed", "reps", "mode"},
    "experiment": {"name", "eps_grid", "preset"},
}

MODES = ("rplus", "stationary")
EXPERIMENTS = ("sweep-nonlinear", "sweep-linear", "bound-vs-empirical")


@dataclass(frozen=True)
class RunConfig:
    """Typed view of one configuration document."""

    kernel_form: str
    kernel_mass: float | None
    kernel_rate: float | None
    kernel_width: float | None
    kernel_step: float | None
    kernel_values: tuple | None
    link_form: str
    link_nu: float
    link_cap: float | None
    link_amplitude: float | None
    u_kind: str
    u_ell: float | None
    u_breakpoints: tuple | None
    u_values: tuple | None
    t_end: float
    burn_in: float | None
    seed: int
    reps: int
    mode: str
    experiment_name: str | None
    eps_grid: tuple | None
    preset: str | None

    def build_kernel(self):
        if self.kernel_form == "exponential":
            return ExponentialKernel(rate=self.kernel_rate, mass=self.kernel_mass)
        if self.kernel_form == "box":
            return BoxKernel(width=self.kernel_width, mass=self.kernel_mass)
        return TabulatedKernel(step=self.kernel_step, values=self.kernel_values)

    def build_link(self):
        if self.link_form == "linear":
            return LinearLink(nu=self.link_nu)
        if self.link_form == "saturating_exp":
            return SaturatingExpLink(nu=self.link_nu, cap=self.link_cap)
        return TanhLink(nu=self.link_nu, amplitude=self.link_amplitude)

    def build_params(self) -> HawkesParams:
        return HawkesParams(self.build_kernel(), self.build_link())

    def build_u(self, params: HawkesParams | None = None) -> TestFunction:
        if self.u_kind == "indicator":
            params = params if params is not None else self.build_params()
            return unit_variance_indicator(params.phi0, params.alpha_mu, self.u_ell)
        return TestFunction(self.u_breakpoints, self.u_values)


def _float(section: str, key: str, raw: str) -> float:
    try:
        val = float(raw)
    except ValueError:
        raise ConfigError(f"[{section}] {key}: expected a decimal number, got {raw!r}") from None
    if not math.isfinite(val):
        raise ConfigError(f"[{section}] {key}: must be finite, got {raw!r}")
    return val


def _int(section: str, key: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"[{section}] {key}: expected an integer, got {raw!r}") from None


def _float_list(section: str, key: str, raw: str) -> tuple:
    items = [s.strip() for s in raw.split(",") if s.strip()]
    if not items:
        raise ConfigError(f"[{section}] {key}: expected a comma-separated list")
    return tuple(_float(section, key, s) for s in items)


class _Section:
    def __init__(self, name: str, data: dict):
        self.name = name
        self.data = data

    def require(self, key: str) -> str:
        if key not in self.data:
            raise ConfigError(f"missing required key {key!r} in section [{self.name}]")
        return self.data[key]

    def optional(self, key: str):
        return self.data.get(key)

    def forbid_extras(self, used: set) -> None:
        extra = set(self.data) - used
        if extra:
            raise ConfigError(
                f"unexpected key(s) {sorted(extra)} in section [{self.name}]"
            )


def parse_config(text: str) -> RunConfig:
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse configuration: {exc}") from None

    sections = set(parser.sections())
    unknown = sections - set(_SCHEMA)
    if unknown:
        raise ConfigError(f"unknown section(s): {sorted(unknown)}")
    for required in ("kernel", "link", "u", "sim"):
        if required not in sections:
            raise ConfigError(f"missing required section [{required}]")
    for name in sections:
        extra = set(parser[name]) - _SCHEMA[name]
        if extra:
            raise ConfigError(f"unknown key(s) {sorted(extra)} in section [{name}]")

    ker = _Section("kernel", dict(parser["kernel"]))
    form = ker.require("form").strip().lower()
    mass = rate = width = step = None
    kvalues = None
    if form == "exponential":
        mass = _float("kernel", "mass", ker.require("mass"))
        rate = _float("kernel", "rate", ker.require("rate"))
        ker.forbid_extras({"form", "mass", "rate"})
    elif form == "box":
        mass = _float("kernel", "mass", ker.require("mass"))
        width = _float("kernel", "width", ker.require("width"))
        ker.forbid_extras({"form", "mass", "width"})
    elif form == "tabulated":
        step = _float("kernel", "step", ker.require("step"))
        kvalues = _float_list("kernel", "values", ker.require("values"))
        ker.forbid_extras({"form", "step", "values"})
    else:
        raise ConfigError(f"[kernel] form must be exponential, box or tabulated, got {form!r}")

    lnk = _Section("link", dict(parser["link"]))
    link_form = lnk.require("form").strip().lower()
    nu = _float("link", "nu", lnk.require("nu"))
    cap = amplitude = None
    if link_form == "linear":
        lnk.forbid_extras({"form", "nu"})
    elif link_form == "saturating_exp":
        cap = _float("link", "cap", lnk.require("cap"))
        lnk.forbid_extras({"form", "nu", "cap"})
    elif link_form == "tanh":
        amplitude = _float("link", "amplitude", lnk.require("amplitude"))
        lnk.forbid_extras({"form", "nu", "amplitude"})
    else:
        raise ConfigError(
            f"[link] form must be linear, saturating_exp or tanh, got {link_form!r}"
        )

    usec = _Section("u", dict(parser["u"]))
    kind = usec.require("kind").strip().lower()
    ell = None
    ubp = uvals = None
    if kind == "indicator":
        ell = _float("u", "ell", usec.require("ell"))
        usec.forbid_extras({"kind", "ell"})
    elif kind == "steps":
        ubp = _float_list("u", "breakpoints", usec.require("breakpoints"))
        uvals = _float_list("u", "values", usec.require("values"))
        usec.forbid_extras({"kind", "breakpoints", "values"})
    else:
        raise ConfigError(f"[u] kind must be indicator or steps, got {kind!r}")

    sim = _Section("sim", dict(parser["sim"]))
    t_end = _float("sim", "t_end", sim.require("t_end"))
    burn_raw = sim.optional("burn_in")
    burn_in = None if burn_raw is None else _float("sim", "burn_in", burn_raw)
    seed = _int("sim", "seed", sim.require("seed"))
    reps_raw = sim.optional("reps")
    reps = 10000 if reps_raw is None else _int("sim", "reps", reps_raw)
    if reps < 1:
        raise ConfigError(f"[sim] reps must be >= 1, got {reps}")
    mode_raw = sim.optional("mode")
    mode = "rplus" if mode_raw is None else mode_raw.strip().lower()
    if mode not in MODES:
        raise ConfigError(f"[sim] mode must be one of {MODES}, got {mode!r}")

    exp_name = eps_grid = preset = None
    if "experiment" in sections:
        exp = _Section("experiment", dict(parser["experiment"]))
        exp_name = exp.require("name").strip().lower()
        if exp_name not in EXPERIMENTS:
            raise ConfigError(
                f"[experiment] name must be one of {EXPERIMENTS}, got {exp_name!r}"
            )
        raw_grid = exp.optional("eps_grid")
        eps_grid = None if raw_grid is None else _float_list("experiment", "eps_grid", raw_grid)
        raw_preset = exp.optional("preset")
        preset = None if raw_preset is None else raw_preset.strip().lower()

    return RunConfig(
        kernel_form=form,
        kernel_mass=mass,
        kernel_rate=rate,
        kernel_width=width,
        kernel_step=step,
        kernel_values=kvalues,
        link_form=link_form,
        link_nu=nu,
        link_cap=cap,
        link_amplitude=amplitude,
        u_kind=kind,
        u_ell=ell,
        u_breakpoints=ubp,
        u_values=uvals,
        t_end=t_end,
        burn_in=burn_in,
        seed=seed,
        reps=reps,
        mode=mode,
        experiment_name=exp_name,
        eps_grid=eps_grid,
        preset=preset,
    )


def serialize_config(cfg: RunConfig) -> str:
    """Canonical text form; parsing it back reproduces ``cfg`` exactly."""
    lines = ["[kernel]", f"form = {cfg.kernel_form}"]
    if cfg.kernel_form == "exponential":
        lines += [f"mass = {cfg.kernel_mass!r}", f"rate = {cfg.kernel_rate!r}"]
    elif cfg.kernel_form == "box":
        lines += [f"mass = {cfg.kernel_mass!r}", f"width = {cfg.kernel_width!r}"]
    else:
        lines += [
            f"step = {cfg.kernel_step!r}",
            "values = " + ", ".join(repr(v) for v in cfg.kernel_values),
        ]
    lines += ["", "[link]", f"form = {cfg.link_form}", f"nu = {cfg.link_nu!r}"]
    if cfg.link_form == "saturating_exp":
        lines.append(f"cap = {cfg.link_cap!r}")
    elif cfg.link_form == "tanh":
        lines.append(f"amplitude = {cfg.link_amplitude!r}")
    lines += ["", "[u]", f"kind = {cfg.u_kind}"]
    if cfg.u_kind == "indicator":
        lines.append(f"ell = {cfg.u_ell!r}")
    else:
        lines.append("breakpoints = " + ", ".join(repr(v) for v in cfg.u_breakpoints))
        lines.append("values = " + ", ".join(repr(v) for v in cfg.u_values))
    lines += ["", "[sim]", f"t_end = {cfg.t_end!r}"]
    if cfg.burn_in is not None:
        lines.append(f"burn_in = {cfg.burn_in!r}")
    lines += [f"seed = {cfg.seed}", f"reps = {cfg.reps}", f"mode = {cfg.mode}"]
    if cfg.experiment_name is not None:
        lines += ["", "[experiment]", f"name = {cfg.experiment_name}"]
        if cfg.eps_grid is not None:
            lines.append("eps_grid = " + ", ".join(repr(v) for v in cfg.eps_grid))
        if cfg.preset is not None:
            lines.append(f"preset = {cfg.preset}")
    return "\n".join(lines) + "\n"


def config_hash(cfg: RunConfig) -> str:
    return hashlib.sha256(serialize_config(cfg).encode()).hexdigest()[:12]
