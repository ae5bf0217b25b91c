"""Flat key-value run configuration.

One ``key = value`` assignment per line, ``#`` comments, blank lines ignored.
Recognized keys:

    grid.n                 points per axis (int, required)
    grid.length            box side (float, default 2*pi)
    fluid.mu               viscosity (float, required)
    time.dt                timestep (float, required for simulate)
    time.t_end             final time (float, required for simulate)
    init.kind              taylor_green | beltrami | random_divfree
    init.amplitude         finite float, default 1.0; nonzero for calibrate
    init.seed              int >= 0, default 0 (random_divfree)
    init.spectrum_slope    finite float, default -2.0 (random_divfree)
    monitors.pairs         comma-separated p:s entries, "inf" accepted for p,
                           no pair twice (default "6:4")
    monitors.stride        evaluate monitors every k steps (default 1)
    monitors.identity_stride   steps between identity quadratures (default 1)
    monitors.calibration   path to a calibration record (relative to the
                           config file); enables the Gronwall column
    snapshots.stride       write snapshots every k steps (default 100)
    output.dir             run directory (required)
    calibration.seeds      corpus seeds >= 0, "0..99" or comma list, at
                           least one (calibrate)
    calibration.p          exponent list, e.g. "4,5,6,inf" (calibrate)

Any other key is an error.  Every command reads its config through this
module's builders, which check every value without building a field.
"""

from __future__ import annotations

import math
import os
from contextlib import contextmanager
from dataclasses import dataclass

from .criteria import CalibrationRecord, CriterionConfig, SerrinPair
from .solver import InitSpec, SolverConfig
from .spectral import Grid, TWO_PI

#: every key a config file may set, in the order the module docstring lists them
KEYS = (
    "grid.n",
    "grid.length",
    "fluid.mu",
    "time.dt",
    "time.t_end",
    "init.kind",
    "init.amplitude",
    "init.seed",
    "init.spectrum_slope",
    "monitors.pairs",
    "monitors.stride",
    "monitors.identity_stride",
    "monitors.calibration",
    "snapshots.stride",
    "output.dir",
    "calibration.seeds",
    "calibration.p",
)


class ConfigError(ValueError):
    """Invalid configuration; carries the offending key and source line."""

    def __init__(self, message: str, key: str | None = None, line: int | None = None):
        loc = ""
        if key is not None:
            loc += f" (key {key!r}"
            loc += f", line {line})" if line is not None else ")"
        elif line is not None:
            loc += f" (line {line})"
        super().__init__(message + loc)
        self.key = key
        self.line = line


@dataclass
class RawConfig:
    path: str
    values: dict[str, str]
    lines: dict[str, int]

    def get(self, key: str, default: str | None = None) -> str | None:
        return self.values.get(key, default)

    def require(self, key: str) -> str:
        if key not in self.values:
            raise ConfigError(f"missing required key", key=key)
        return self.values[key]

    @contextmanager
    def checking(self, key: str | None = None):
        """Re-raise a ValueError of the enclosed block as a ConfigError on ``key``."""
        try:
            yield
        except ConfigError:
            raise
        except ValueError as exc:
            raise ConfigError(str(exc), key=key, line=self.lines.get(key)) from exc

    def _convert(self, key: str, conv, default):
        if key not in self.values:
            if default is None:
                raise ConfigError("missing required key", key=key)
            return default
        with self.checking(key):
            return conv(self.values[key])

    def get_int(self, key: str, default: int | None = None) -> int:
        return self._convert(key, int, default)

    def get_float(self, key: str, default: float | None = None) -> float:
        return self._convert(key, _parse_float, default)


def _parse_float(raw: str) -> float:
    if str(raw).strip().lower() == "inf":
        return math.inf
    return float(raw)


def parse_config(path: str) -> RawConfig:
    values: dict[str, str] = {}
    lines: dict[str, int] = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}")
    for i, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"expected 'key = value', got {stripped!r}", line=i)
        key, _, val = stripped.partition("=")
        key = key.strip()
        if not key:
            raise ConfigError("empty key", line=i)
        if key not in KEYS:
            raise ConfigError("unknown key", key=key, line=i)
        if key in values:
            raise ConfigError("duplicate key", key=key, line=i)
        values[key] = val.strip()
        lines[key] = i
    return RawConfig(path=path, values=values, lines=lines)


def parse_pairs(raw: str) -> tuple[SerrinPair, ...]:
    """Comma-separated p:s entries, at least one, no two with the same label."""
    pairs: list[SerrinPair] = []
    for chunk in raw.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if ":" not in chunk:
            raise ValueError(f"pair entry {chunk!r} is not p:s")
        ps, _, ss = chunk.partition(":")
        pair = SerrinPair(_parse_float(ps), _parse_float(ss))
        if pair.label in {q.label for q in pairs}:
            raise ValueError(f"pair entry {chunk!r} repeats the label {pair.label}")
        pairs.append(pair)
    if not pairs:
        raise ValueError("no pairs given")
    return tuple(pairs)


def parse_seed_list(raw: str) -> tuple[int, ...]:
    """Either "a..b" (inclusive range) or a comma list of integers, at least one."""
    raw = raw.strip()
    if ".." in raw:
        lo, _, hi = raw.partition("..")
        seeds = tuple(range(int(lo), int(hi) + 1))
    else:
        seeds = tuple(int(s) for s in raw.split(",") if s.strip())
    if not seeds:
        raise ValueError(f"no seeds in {raw!r}")
    return seeds


def build_grid(raw: RawConfig) -> Grid:
    with raw.checking():
        return Grid(raw.get_int("grid.n"), raw.get_float("grid.length", TWO_PI))


def output_dir(raw: RawConfig) -> str:
    """output.dir, taken relative to the config file's directory unless absolute."""
    return os.path.join(os.path.dirname(os.path.abspath(raw.path)), raw.require("output.dir"))


def build_solver_config(raw: RawConfig) -> SolverConfig:
    grid = build_grid(raw)
    with raw.checking():
        init = InitSpec(
            kind=raw.require("init.kind"),
            amplitude=raw.get_float("init.amplitude", 1.0),
            seed=raw.get_int("init.seed", 0),
            spectrum_slope=raw.get_float("init.spectrum_slope", -2.0),
        )
        return SolverConfig(
            grid=grid,
            mu=raw.get_float("fluid.mu"),
            dt=raw.get_float("time.dt"),
            t_end=raw.get_float("time.t_end"),
            init=init,
            monitor_stride=raw.get_int("monitors.stride", 1),
            snapshot_stride=raw.get_int("snapshots.stride", 100),
        )


def load_calibration(raw: RawConfig) -> CalibrationRecord | None:
    rel = raw.get("monitors.calibration")
    if rel is None:
        return None
    path = rel if os.path.isabs(rel) else os.path.join(os.path.dirname(raw.path), rel)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return CalibrationRecord.from_text(fh.read())
    except (OSError, ValueError, KeyError) as exc:
        raise ConfigError(
            f"cannot load calibration record {path}: {exc}", key="monitors.calibration"
        ) from exc


def build_criterion_config(raw: RawConfig) -> CriterionConfig:
    with raw.checking("monitors.pairs"):
        pairs = parse_pairs(raw.get("monitors.pairs", "6:4"))
    mu = raw.get_float("fluid.mu")
    record = load_calibration(raw)
    if record is not None and record.mu != mu:
        raise ConfigError(
            f"calibration record is for mu = {record.mu!r}, not fluid.mu = {mu!r}",
            key="monitors.calibration",
        )
    if record is not None:
        missing = [
            pair.label
            for pair in pairs
            if pair.is_canonical and record.for_p(pair.p) is None
        ]
        if missing:
            raise ConfigError(
                f"calibration record has no entry for the monitored pair(s) "
                f"{', '.join(missing)}",
                key="monitors.calibration",
            )
    with raw.checking():
        return CriterionConfig(
            pairs=pairs,
            mu=mu,
            calibration=record,
            identity_stride=raw.get_int("monitors.identity_stride", 1),
        )


@dataclass(frozen=True)
class CalibrationConfig:
    """The corpus and the exponents of ``calibrate``."""

    grid: Grid
    mu: float
    amplitude: float
    spectrum_slope: float
    seeds: tuple[int, ...]
    exponents: tuple[float, ...]


def build_calibration_config(raw: RawConfig) -> CalibrationConfig:
    grid = build_grid(raw)
    mu = raw.get_float("fluid.mu")
    if not mu > 0.0:
        raise ConfigError(f"viscosity must be positive, got {mu}", key="fluid.mu")
    with raw.checking("calibration.seeds"):
        seeds = parse_seed_list(raw.require("calibration.seeds"))
    with raw.checking("calibration.p"):
        exponents = tuple(
            SerrinPair.canonical(_parse_float(tok)).p
            for tok in raw.require("calibration.p").split(",")
            if tok.strip()
        )
    if not exponents:
        raise ConfigError("no exponents given", key="calibration.p")
    amplitude = raw.get_float("init.amplitude", 1.0)
    slope = raw.get_float("init.spectrum_slope", -2.0)
    with raw.checking():
        # the corpus fields obey InitSpec's rules; the lowest seed is the one
        # its seed rule can reject
        InitSpec("random_divfree", amplitude, min(seeds), slope)
    if amplitude == 0.0:
        # a zero field is a valid simulate run, but it has no ratio to calibrate
        raise ConfigError("calibration needs a nonzero amplitude", key="init.amplitude")
    return CalibrationConfig(
        grid=grid,
        mu=mu,
        amplitude=amplitude,
        spectrum_slope=slope,
        seeds=seeds,
        exponents=exponents,
    )
