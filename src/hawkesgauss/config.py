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


def _indicator(params, ell):
    """The unit-variance indicator of (0, ell] for the run's parameters,
    which ``params()`` builds."""
    p = params()
    return unit_variance_indicator(p.phi0, p.alpha_mu, ell)


#: per section: the key naming the form, and per form its constructor and its
#: keys in document order; the keys in _LISTS hold comma-separated lists.  The
#: constructors of [u] take first a function that builds the run's parameters
_FORMS = {
    "kernel": ("form", {
        "exponential": (ExponentialKernel, ("mass", "rate")),
        "box": (BoxKernel, ("mass", "width")),
        "tabulated": (TabulatedKernel, ("step", "values")),
    }),
    "link": ("form", {
        "linear": (LinearLink, ("nu",)),
        "saturating_exp": (SaturatingExpLink, ("nu", "cap")),
        "tanh": (TanhLink, ("nu", "amplitude")),
    }),
    "u": ("kind", {
        "indicator": (_indicator, ("ell",)),
        "steps": (lambda params, **keys: TestFunction(**keys), ("breakpoints", "values")),
    }),
}
_LISTS = {"breakpoints", "values"}

_SCHEMA = {
    **{
        section: {form_key}.union(*(keys for _, keys in forms.values()))
        for section, (form_key, forms) in _FORMS.items()
    },
    "sim": {"t_end", "burn_in", "seed", "reps", "mode"},
    "experiment": {"name", "eps_grid", "preset"},
}

MODES = ("rplus", "stationary")
EXPERIMENTS = ("sweep-nonlinear", "sweep-linear", "bound-vs-empirical")


@dataclass(frozen=True)
class RunConfig:
    """Typed view of one configuration document.  Each of the sections
    [kernel], [link] and [u] is held as its form and its (key, value) pairs
    in document order."""

    kernel_form: str
    kernel: tuple
    link_form: str
    link: tuple
    u_kind: str
    u: tuple
    t_end: float
    burn_in: float | None
    seed: int
    reps: int
    mode: str
    experiment_name: str | None
    eps_grid: tuple | None
    preset: str | None

    def _form(self, section: str) -> tuple[str, tuple]:
        return getattr(self, f"{section}_{_FORMS[section][0]}"), getattr(self, section)

    def _build(self, section: str, *args):
        form, pairs = self._form(section)
        return _FORMS[section][1][form][0](*args, **dict(pairs))

    def build_params(self) -> HawkesParams:
        return HawkesParams(self._build("kernel"), self._build("link"))

    def build_u(self, params: HawkesParams | None = None) -> TestFunction:
        return self._build("u", lambda: params if params is not None else self.build_params())


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


def _require(section: str, data: dict, key: str) -> str:
    if key not in data:
        raise ConfigError(f"missing required key {key!r} in section [{section}]")
    return data[key]


def _parse_form(section: str, data: dict) -> tuple[str, tuple]:
    """The form of a [kernel], [link] or [u] section and its (key, value)
    pairs; a key of another form is rejected."""
    form_key, forms = _FORMS[section]
    form = _require(section, data, form_key).strip().lower()
    if form not in forms:
        names = list(forms)
        raise ConfigError(
            f"[{section}] {form_key} must be {', '.join(names[:-1])} or {names[-1]}, "
            f"got {form!r}"
        )
    keys = forms[form][1]
    pairs = []
    for key in keys:
        parse = _float_list if key in _LISTS else _float
        pairs.append((key, parse(section, key, _require(section, data, key))))
    extra = set(data) - {form_key, *keys}
    if extra:
        raise ConfigError(f"unexpected key(s) {sorted(extra)} in section [{section}]")
    return form, tuple(pairs)


def parse_config(text: str) -> RunConfig:
    parser = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=(";",))
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

    (kernel_form, kernel), (link_form, link), (u_kind, u) = (
        _parse_form(section, dict(parser[section])) for section in _FORMS
    )

    sim = dict(parser["sim"])
    t_end = _float("sim", "t_end", _require("sim", sim, "t_end"))
    burn_raw = sim.get("burn_in")
    burn_in = None if burn_raw is None else _float("sim", "burn_in", burn_raw)
    seed = _int("sim", "seed", _require("sim", sim, "seed"))
    reps_raw = sim.get("reps")
    reps = 10000 if reps_raw is None else _int("sim", "reps", reps_raw)
    if reps < 1:
        raise ConfigError(f"[sim] reps must be >= 1, got {reps}")
    mode_raw = sim.get("mode")
    mode = "rplus" if mode_raw is None else mode_raw.strip().lower()
    if mode not in MODES:
        raise ConfigError(f"[sim] mode must be one of {MODES}, got {mode!r}")

    exp_name = eps_grid = preset = None
    if "experiment" in sections:
        exp = dict(parser["experiment"])
        exp_name = _require("experiment", exp, "name").strip().lower()
        if exp_name not in EXPERIMENTS:
            raise ConfigError(
                f"[experiment] name must be one of {EXPERIMENTS}, got {exp_name!r}"
            )
        raw_grid = exp.get("eps_grid")
        eps_grid = None if raw_grid is None else _float_list("experiment", "eps_grid", raw_grid)
        raw_preset = exp.get("preset")
        preset = None if raw_preset is None else raw_preset.strip().lower()

    return RunConfig(
        kernel_form, kernel, link_form, link, u_kind, u,
        t_end, burn_in, seed, reps, mode, exp_name, eps_grid, preset,
    )


def _text(value) -> str:
    """A number, or a list of them, as canonical config text."""
    return ", ".join(repr(v) for v in value) if isinstance(value, tuple) else repr(value)


def serialize_config(cfg: RunConfig) -> str:
    """Canonical text form; parsing it back reproduces ``cfg`` exactly."""
    lines = []
    for section, (form_key, _) in _FORMS.items():
        form, pairs = cfg._form(section)
        lines += [f"[{section}]", f"{form_key} = {form}"]
        lines += [f"{key} = {_text(value)}" for key, value in pairs] + [""]
    lines += ["[sim]", f"t_end = {cfg.t_end!r}"]
    if cfg.burn_in is not None:
        lines.append(f"burn_in = {cfg.burn_in!r}")
    lines += [f"seed = {cfg.seed}", f"reps = {cfg.reps}", f"mode = {cfg.mode}"]
    if cfg.experiment_name is not None:
        lines += ["", "[experiment]", f"name = {cfg.experiment_name}"]
        if cfg.eps_grid is not None:
            lines.append(f"eps_grid = {_text(cfg.eps_grid)}")
        if cfg.preset is not None:
            lines.append(f"preset = {cfg.preset}")
    return "\n".join(lines) + "\n"


def config_hash(cfg: RunConfig) -> str:
    return hashlib.sha256(serialize_config(cfg).encode()).hexdigest()[:12]
