"""Flat key=value run configuration with dotted section prefixes.

Runs take 10+ numeric parameters, so the CLI reads them from a small
text file instead of positional flags:

    # condensation sweep
    ladder.source = analytic
    ladder.r      = 5
    ladder.omega  = 1.0
    ladder.kappa  = 0.1
    ladder.c_ref  = 100.0
    bath.beta     = 1.0
    bath.phi      = 1.0
    bath.chi      = 0.1
    pump.s_min    = 0.0
    pump.s_max    = 1000.0
    pump.points   = 60
    pump.grid     = log

Lines are ``key = value``; ``#`` starts a comment.  Parsing is the one
place that decides whether a run's settings are acceptable: unknown keys
are errors, every violated range is reported, and all problems are
collected into one ConfigError rather than stopping at the first.
Numbers must be finite (``thermal.beta = inf`` is the one exception, the
frozen limit).  ``pump.s_min``, ``pump.s_max`` and ``pump.points`` go
together: ``sweep`` needs all three, ``threshold`` takes all three or none
(then it sweeps around its own estimate), and ``threshold`` needs
``bath.chi > 0`` and an excited level (``ladder.r >= 1/2``).  A log grid
from ``pump.s_min = 0`` keeps s = 0 and spreads the other points over the
top four decades, ending at ``pump.s_max`` (two points give
``[0, s_max]``).  Where e^(omega beta) overflows a double (omega beta >
709.78), the threshold report's B and eta_T_effective read 0.  The output
directory is not a config key; it comes from ``--out`` alone, and a
config that sets ``output.dir`` is rejected as an unknown key.

The run's ``manifest.json`` echoes the config as strict JSON (RFC 8259
has no NaN or Infinity): ``thermal.beta = inf`` is echoed as ``"inf"``,
and a non-finite residual summary is written as ``null``.

Parsing a ``thermal`` config loads no numerical layer: each builder
imports the module whose record it builds (``spectrum`` for the block
index, ``condensation`` for the ladder, bath and pump, numpy for the
supply grid), so only the commands that use numpy load it.  ``echo``
names half-integers with the package's ``undouble``, so only a
``spectrum`` run or a spectral ladder loads ``spectrum``.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from . import thermal, undouble

if TYPE_CHECKING:  # annotations only; the builders import these themselves
    import numpy as np

    from . import condensation, spectrum

__all__ = ["ConfigError", "RunConfig", "parse_config", "parse_config_text", "COMMANDS"]


class ConfigError(ValueError):
    """All validation problems of one config, collected."""

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


def _parse_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"must be finite, got {text}")
    return value


def _parse_positive_float(text: str) -> float:
    value = _parse_float(text)
    if not value > 0.0:
        raise ValueError(f"must be > 0, got {value}")
    return value


def _parse_nonneg_float(text: str) -> float:
    value = _parse_float(text)
    if value < 0.0:
        raise ValueError(f"must be >= 0, got {value}")
    return value


def _parse_half_integer(text: str) -> int:
    """Half-integer encoded as its doubled exact value."""
    value = _parse_float(text)
    doubled = round(2.0 * value)
    if abs(2.0 * value - doubled) > 1e-9:
        raise ValueError(f"must be an integer or half-integer, got {text}")
    return int(doubled)


def _parse_beta_list(text: str) -> tuple[float, ...]:
    values = []
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            continue
        value = float(piece)
        if math.isnan(value) or value < 0.0:
            raise ValueError(f"beta values must be >= 0, got {piece}")
        values.append(value)
    if not values:
        raise ValueError("empty list")
    return tuple(values)


def _parse_choice(options):
    def parse(text: str) -> str:
        if text not in options:
            raise ValueError(f"must be one of {options}, got {text!r}")
        return text

    return parse


# key -> parser
_SPECTRUM_KEYS = {
    "spectrum.r": _parse_half_integer,
    "spectrum.c": _parse_half_integer,
    "spectrum.kappa": _parse_positive_float,
}
_THERMAL_KEYS = {
    "thermal.n": int,
    "thermal.beta": _parse_beta_list,
}
_LADDER_KEYS = {
    "ladder.source": _parse_choice(("analytic", "spectral")),
    "ladder.r": _parse_half_integer,
    "ladder.omega": _parse_positive_float,
    "ladder.kappa": _parse_nonneg_float,
    "ladder.c_ref": _parse_positive_float,
    "ladder.c": _parse_half_integer,
}
_BATH_KEYS = {
    "bath.beta": _parse_positive_float,
    "bath.phi": _parse_positive_float,
    "bath.chi": _parse_nonneg_float,
}
_PUMP_POINT_KEYS = {
    "pump.s": _parse_nonneg_float,
    "pump.p": _parse_nonneg_float,
    "pump.q": _parse_nonneg_float,
}
_PUMP_GRID_KEYS = {
    "pump.s_min": _parse_nonneg_float,
    "pump.s_max": _parse_positive_float,
    "pump.points": int,
    "pump.grid": _parse_choice(("log", "linear")),
}
_KEYS_BY_COMMAND = {
    "spectrum": _SPECTRUM_KEYS,
    "thermal": _THERMAL_KEYS,
    "steady-state": {**_LADDER_KEYS, **_BATH_KEYS, **_PUMP_POINT_KEYS},
    "sweep": {**_LADDER_KEYS, **_BATH_KEYS, **_PUMP_GRID_KEYS},
    "threshold": {**_LADDER_KEYS, **_BATH_KEYS, **_PUMP_GRID_KEYS},
}
COMMANDS = tuple(_KEYS_BY_COMMAND)

_POINT_REQUIRED = ("ladder.r", "ladder.omega", *_BATH_KEYS)
_GRID_REQUIRED = ("pump.s_min", "pump.s_max", "pump.points")
_REQUIRED = {
    "spectrum": tuple(_SPECTRUM_KEYS),
    "thermal": tuple(_THERMAL_KEYS),
    "steady-state": _POINT_REQUIRED,
    "sweep": (*_POINT_REQUIRED, *_GRID_REQUIRED),
    "threshold": _POINT_REQUIRED,
}


class RunConfig:
    """Validated parameters of one CLI run."""

    def __init__(self, command: str, values: dict):
        self.command = command
        self.values = values
        # typed objects built at validation time (present per command)
        self.block_index: spectrum.BlockIndex | None = None
        self.ensemble: list[thermal.EnsembleParams] | None = None
        self.ladder: condensation.LevelLadder | None = None
        self.bath: condensation.BathParams | None = None
        self.pump: condensation.PumpParams | None = None
        self.s_grid: np.ndarray | None = None

    def echo(self) -> dict:
        """``values`` in the config file's units: half-integer keys undoubled,
        and ``thermal.beta = inf`` as the string ``"inf"`` (strict JSON)."""
        keys = _KEYS_BY_COMMAND[self.command]
        echoed = {}
        for key, value in self.values.items():
            if keys[key] is _parse_half_integer:
                value = undouble(value)
            elif keys[key] is _parse_beta_list:
                value = [beta if math.isfinite(beta) else str(beta) for beta in value]
            echoed[key] = value
        return echoed


def parse_config(path, command: str) -> RunConfig:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_config_text(handle.read(), command)


def parse_config_text(text: str, command: str) -> RunConfig:
    if command not in COMMANDS:
        raise ConfigError([f"unknown command {command!r}"])
    known = _KEYS_BY_COMMAND[command]
    problems: list[str] = []
    values: dict = {}
    seen: set[str] = set()

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            problems.append(f"line {lineno}: expected key = value, got {raw.strip()!r}")
            continue
        key, _, payload = line.partition("=")
        key = key.strip()
        payload = payload.strip()
        if key not in known:
            problems.append(f"line {lineno}: unknown key {key!r} for command {command}")
            continue
        if key in seen:
            problems.append(f"line {lineno}: duplicate key {key!r}")
            continue
        seen.add(key)
        try:
            values[key] = known[key](payload)
        except ValueError as exc:
            problems.append(f"line {lineno}: {key}: {exc}")

    for key in _REQUIRED[command]:
        if key not in seen:
            problems.append(f"missing required key {key!r}")

    config = RunConfig(command=command, values=values)
    if not problems:
        _build_typed(config, problems)
    if problems:
        raise ConfigError(problems)
    return config


def _build_typed(config: RunConfig, problems: list[str]) -> None:
    """Re-validate through the module constructors and keep the objects."""
    v = config.values
    for attribute, section, build in _BUILDERS[config.command]:
        try:
            setattr(config, attribute, build(v))
        except ValueError as exc:
            problems.append(f"{section}: {exc}")

    if config.command == "threshold" and not v["bath.chi"] > 0.0:
        problems.append("threshold: bath.chi must be > 0 for a condensation threshold")
    if config.command == "threshold" and v["ladder.r"] < 1:
        problems.append(
            "threshold: ladder.r must be >= 1/2, the bound needs an excited level"
        )
    ladder, bath = config.ladder, config.bath
    if ladder is not None and bath is not None and ladder.is_degenerate and bath.chi > 0.0:
        problems.append("ladder: degenerate levels are incompatible with bath.chi > 0")


def _build_block_index(v: dict) -> spectrum.BlockIndex:
    from . import spectrum

    return spectrum.BlockIndex(
        two_r=v["spectrum.r"], two_c=v["spectrum.c"], kappa=v["spectrum.kappa"]
    )


def _build_ensemble(v: dict) -> list[thermal.EnsembleParams]:
    return [
        thermal.EnsembleParams(n_molecules=v["thermal.n"], beta=beta)
        for beta in v["thermal.beta"]
    ]


def _build_bath(v: dict) -> condensation.BathParams:
    from . import condensation

    return condensation.BathParams(beta=v["bath.beta"], phi=v["bath.phi"], chi=v["bath.chi"])


def _build_ladder(v: dict) -> condensation.LevelLadder:
    from . import condensation

    source = v.get("ladder.source", "analytic")
    if source == "analytic":
        if "ladder.c_ref" not in v:
            raise ValueError("analytic ladder needs ladder.c_ref")
        return condensation.ladder_analytic(
            two_r=v["ladder.r"],
            omega=v["ladder.omega"],
            kappa=v.get("ladder.kappa", 0.0),
            c_ref=v["ladder.c_ref"],
        )
    if "ladder.c" not in v:
        raise ValueError("spectral ladder needs ladder.c")
    if "ladder.kappa" not in v or not v["ladder.kappa"] > 0.0:
        raise ValueError("spectral ladder needs ladder.kappa > 0")
    return condensation.ladder_from_spectrum(
        two_r=v["ladder.r"],
        two_c=v["ladder.c"],
        kappa=v["ladder.kappa"],
        omega=v["ladder.omega"],
    )


def _build_pump(v: dict) -> condensation.PumpParams:
    from . import condensation

    if "pump.s" in v:
        if "pump.p" in v or "pump.q" in v:
            raise ValueError("give either pump.s or pump.p/pump.q, not both")
        return condensation.PumpParams.from_supply(v["pump.s"])
    if "pump.p" in v:
        pump = condensation.PumpParams(p=v["pump.p"], q=v.get("pump.q", 0.0))
        if pump.s < 0.0:
            raise ValueError(f"net supply p - q = {pump.s} must be >= 0")
        return pump
    raise ValueError("steady-state needs pump.s or pump.p")


def _build_grid(v: dict) -> np.ndarray | None:
    import numpy as np

    given = [key in v for key in _GRID_REQUIRED]
    if not any(given):
        return None  # threshold derives its own grid from the estimate
    if not all(given):
        raise ValueError("pump.s_min, pump.s_max and pump.points go together")
    s_min = v["pump.s_min"]
    s_max = v["pump.s_max"]
    points = v["pump.points"]
    mode = v.get("pump.grid", "log")
    if points < 2:
        raise ValueError(f"pump.points must be >= 2, got {points}")
    if not s_max > s_min:
        raise ValueError(f"pump.s_max={s_max} must exceed pump.s_min={s_min}")
    if mode == "linear":
        return np.linspace(s_min, s_max, points)
    if s_min > 0.0:
        return np.geomspace(s_min, s_max, points)
    # an s_min of zero keeps the equilibrium point and spreads the rest over
    # the top four decades; a one-point geomspace is only its start, so the
    # last point is pinned to s_max
    grid = np.concatenate([[0.0], np.geomspace(s_max * 1e-4, s_max, points - 1)])
    grid[-1] = s_max
    return grid


# command -> (RunConfig attribute, section named in problems, builder)
_POINT_BUILDERS = (("ladder", "ladder", _build_ladder), ("bath", "bath", _build_bath))
_BUILDERS = {
    "spectrum": (("block_index", "spectrum", _build_block_index),),
    "thermal": (("ensemble", "thermal", _build_ensemble),),
    "steady-state": (*_POINT_BUILDERS, ("pump", "pump", _build_pump)),
    "sweep": (*_POINT_BUILDERS, ("s_grid", "pump", _build_grid)),
    "threshold": (*_POINT_BUILDERS, ("s_grid", "pump", _build_grid)),
}
