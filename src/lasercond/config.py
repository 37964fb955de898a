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

Lines are ``key = value``; ``#`` starts a comment.  Parsing validates
everything it can up front -- unknown keys are errors, every violated
range is reported, and all problems are collected into one ConfigError
rather than stopping at the first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import condensation, spectrum, thermal

__all__ = ["ConfigError", "RunConfig", "parse_config", "parse_config_text", "COMMANDS"]

COMMANDS = ("spectrum", "thermal", "steady-state", "sweep", "threshold")


class ConfigError(ValueError):
    """All validation problems of one config, collected."""

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


def _parse_float(text: str) -> float:
    value = float(text)
    if math.isnan(value):
        raise ValueError("nan is not a valid value")
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
    value = float(text)
    doubled = round(2.0 * value)
    if abs(2.0 * value - doubled) > 1e-9:
        raise ValueError(f"must be an integer or half-integer, got {text}")
    return int(doubled)


def _parse_int(text: str) -> int:
    value = int(text)
    return value


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


# key -> (parser, required-for-commands)
_SPECTRUM_KEYS = {
    "spectrum.r": _parse_half_integer,
    "spectrum.c": _parse_half_integer,
    "spectrum.kappa": _parse_positive_float,
}
_THERMAL_KEYS = {
    "thermal.n": _parse_int,
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
    "pump.points": _parse_int,
    "pump.grid": _parse_choice(("log", "linear")),
}
_COMMON_KEYS = {
    "workers": _parse_int,
    "output.dir": str,
}

_KEYS_BY_COMMAND = {
    "spectrum": {**_SPECTRUM_KEYS, **_COMMON_KEYS},
    "thermal": {**_THERMAL_KEYS, **_COMMON_KEYS},
    "steady-state": {**_LADDER_KEYS, **_BATH_KEYS, **_PUMP_POINT_KEYS, **_COMMON_KEYS},
    "sweep": {**_LADDER_KEYS, **_BATH_KEYS, **_PUMP_GRID_KEYS, **_COMMON_KEYS},
    "threshold": {**_LADDER_KEYS, **_BATH_KEYS, **_PUMP_GRID_KEYS, **_COMMON_KEYS},
}

_REQUIRED = {
    "spectrum": ("spectrum.r", "spectrum.c", "spectrum.kappa"),
    "thermal": ("thermal.n", "thermal.beta"),
    "steady-state": ("ladder.r", "ladder.omega", "bath.beta", "bath.phi", "bath.chi"),
    "sweep": (
        "ladder.r",
        "ladder.omega",
        "bath.beta",
        "bath.phi",
        "bath.chi",
        "pump.s_min",
        "pump.s_max",
        "pump.points",
    ),
    "threshold": ("ladder.r", "ladder.omega", "bath.beta", "bath.phi", "bath.chi"),
}


@dataclass
class RunConfig:
    """Validated parameters of one CLI run."""

    command: str
    values: dict = field(default_factory=dict)
    output_dir: str | None = None

    # typed objects built at validation time (present per command)
    block_index: spectrum.BlockIndex | None = None
    ensemble: list[thermal.EnsembleParams] | None = None
    ladder: condensation.LevelLadder | None = None
    bath: condensation.BathParams | None = None
    pump: condensation.PumpParams | None = None
    s_grid: np.ndarray | None = None

    def echo(self) -> dict:
        """``values`` in the config file's units: half-integer keys undoubled."""
        keys = _KEYS_BY_COMMAND[self.command]
        return {
            key: _undouble(value) if keys[key] is _parse_half_integer else value
            for key, value in self.values.items()
        }


def _undouble(doubled: int):
    """2.5 for 5 and 100 (an int) for 200."""
    return doubled // 2 if doubled % 2 == 0 else doubled / 2


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
    workers = values.get("workers", 1)
    if workers < 1:
        problems.append(f"workers: must be >= 1, got {workers}")
    config.output_dir = values.get("output.dir")

    if not problems:
        _build_typed(config, problems)
    if problems:
        raise ConfigError(problems)
    return config


def _build_typed(config: RunConfig, problems: list[str]) -> None:
    """Re-validate through the module constructors and keep the objects."""
    v = config.values
    if config.command == "spectrum":
        try:
            config.block_index = spectrum.BlockIndex(
                two_r=v["spectrum.r"], two_c=v["spectrum.c"], kappa=v["spectrum.kappa"]
            )
        except ValueError as exc:
            problems.append(f"spectrum: {exc}")

    elif config.command == "thermal":
        try:
            config.ensemble = [
                thermal.EnsembleParams(n_molecules=v["thermal.n"], beta=beta)
                for beta in v["thermal.beta"]
            ]
        except ValueError as exc:
            problems.append(f"thermal: {exc}")

    else:
        try:
            config.ladder = _build_ladder(v)
        except ValueError as exc:
            problems.append(f"ladder: {exc}")
        try:
            config.bath = condensation.BathParams(
                beta=v["bath.beta"], phi=v["bath.phi"], chi=v["bath.chi"]
            )
        except ValueError as exc:
            problems.append(f"bath: {exc}")

        if config.command == "steady-state":
            try:
                config.pump = _build_pump(v)
            except ValueError as exc:
                problems.append(f"pump: {exc}")
        else:
            try:
                config.s_grid = _build_grid(v, required=config.command == "sweep")
            except ValueError as exc:
                problems.append(f"pump: {exc}")

        if (
            config.ladder is not None
            and config.bath is not None
            and config.ladder.is_degenerate
            and config.bath.chi > 0.0
        ):
            problems.append(
                "ladder: degenerate levels are incompatible with bath.chi > 0"
            )


def _build_ladder(v: dict) -> condensation.LevelLadder:
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


def _build_grid(v: dict, required: bool) -> np.ndarray | None:
    if "pump.s_min" not in v:
        if required:
            raise ValueError("sweep needs pump.s_min/s_max/points")
        return None  # threshold derives its own grid from the estimate
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
    # log grid; an s_min of zero keeps the equilibrium point and spreads
    # the rest over the top four decades
    if s_min == 0.0:
        return np.concatenate(
            [[0.0], np.geomspace(s_max * 1e-4, s_max, points - 1)]
        )
    return np.geomspace(s_min, s_max, points)
