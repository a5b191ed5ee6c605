"""Configuration loading: INI sections mapped onto the module configs.

The file format is plain INI. Every key has a default, so an empty (or
absent) file is valid. Sections and keys:

    [general]    seed
    [ingest]     window_len_s, stride_s, calibration_minutes
    [estimator]  a1 a2 v1 v2 v3, alpha, theta_a, theta_v, theta_mild,
                 persistence_threshold_s, recovery_window_s,
                 low_alertness_work_minutes
    [scheduler]  min_interval_s, max_burst_s,
                 duty_low, duty_low_medium, duty_medium, duty_medium_high,
                 burst_single_brief_s, burst_repeated_low_frequency_s,
                 burst_brief_repeat_if_needed_s, repeat_check_horizon_s
    [scent]      <scent_key>.channel = 1..8   (assignment must stay a
                 permutation; duplicates are rejected)
    [ir]         codes.<command> = <hex word>, command one of power,
                 shutdown, channel_1 .. channel_8
    [simulator]  rr_mean_ms, rr_jitter_ms, stress_rr_drop,
                 stress_jitter_drop, fatigue_rr_gain, fatigue_jitter_gain,
                 hr_noise_bpm, hr_cadence_s, context_cadence_s

Each key of [ingest], [estimator], [scheduler] and [simulator] is the
field of that name in the section's config class. Unknown sections or
keys are rejected so typos fail loudly. A value may carry an inline `;`
or `#` comment. One table applies the sections in the order above, so a
file with several bad sections reports the first.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

from .estimator import EstimatorConfig
from .ingest import (
    DEFAULT_CALIBRATION_MINUTES,
    DEFAULT_STRIDE_S,
    DEFAULT_WINDOW_LEN_S,
)
from .irproto import IRCodeTable
from .scents import Scent, vocabulary
from .scheduler import SchedulerConfig
from .simulate import SimulatorConfig


class ConfigError(ValueError):
    """The configuration file is invalid."""


@dataclass(frozen=True, slots=True)
class IngestConfig:
    window_len_s: float = DEFAULT_WINDOW_LEN_S
    stride_s: float = DEFAULT_STRIDE_S
    calibration_minutes: float = DEFAULT_CALIBRATION_MINUTES

    def __post_init__(self) -> None:
        for f in fields(self):
            if not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite")
        if self.window_len_s < 60:
            raise ValueError("window_len_s must be at least 60 s")
        # replay and window_features work in whole milliseconds; the
        # calibration span must hold 3 windows for compute_baseline.
        stride_ms = round(self.stride_s * 1000)
        if stride_ms < 1:
            raise ValueError("stride_s must round to at least 1 ms")
        if (round(self.calibration_minutes * 60000)
                < round(self.window_len_s * 1000) + 2 * stride_ms):
            raise ValueError("calibration_minutes must span 3 windows "
                             "(window_len_s + 2 * stride_s)")


@dataclass(frozen=True)
class Config:
    estimator: EstimatorConfig = field(default_factory=EstimatorConfig)
    scheduler: SchedulerConfig = field(default_factory=SchedulerConfig)
    ingest: IngestConfig = field(default_factory=IngestConfig)
    simulator: SimulatorConfig = field(default_factory=SimulatorConfig)
    vocabulary: tuple[Scent, ...] = field(default_factory=vocabulary)
    ir_table: IRCodeTable = field(default_factory=IRCodeTable.default)
    seed: int = 0


def _number(key: str, raw: str, kind: type) -> float | int:
    try:
        return int(raw, 0) if kind is int else float(raw)
    except ValueError:
        expected = "an integer" if kind is int else "a number"
        raise ValueError(f"{key}: expected {expected}, got {raw!r}") from None


def _fields(base, items):
    """Override dataclass fields by name, rejecting unknown keys."""
    updates = {}
    for key, raw in items:
        if key not in base.__dataclass_fields__:
            raise ValueError(f"unknown key {key!r}")
        updates[key] = _number(key, raw, float)
    return replace(base, **updates)


def _general(seed: int, items) -> int:
    for key, raw in items:
        if key != "seed":
            raise ValueError(f"unknown key {key!r}")
        seed = _number(key, raw, int)
    return seed


def _scent(_current, items) -> tuple[Scent, ...]:
    overrides: dict[str, int] = {}
    for key, raw in items:
        if not key.endswith(".channel"):
            raise ValueError(f"unknown key {key!r} (expected <scent>.channel)")
        overrides[key[:-len(".channel")]] = _number(key, raw, int)
    return vocabulary(overrides)


def _ir(table: IRCodeTable, items) -> IRCodeTable:
    codes: dict[str, int] = {}
    for key, raw in items:
        if not key.startswith("codes."):
            raise ValueError(f"unknown key {key!r} (expected codes.<command>)")
        codes[key[len("codes."):]] = _number(key, raw, int)
    return table.with_overrides(codes)


# Section -> (Config field, applier). Sections are applied in this order,
# so it decides which error a file with several bad sections reports.
_SECTIONS = {
    "general": ("seed", _general),
    "ingest": ("ingest", _fields),
    "estimator": ("estimator", _fields),
    "scheduler": ("scheduler", _fields),
    "scent": ("vocabulary", _scent),
    "ir": ("ir_table", _ir),
    "simulator": ("simulator", _fields),
}


def load_config(path: str | Path | None) -> Config:
    """Load and validate a configuration file; None yields the defaults."""
    if path is None:
        return Config()

    # No header can name section "": [DEFAULT] is an unknown section too.
    parser = configparser.ConfigParser(interpolation=None, default_section="",
                                       inline_comment_prefixes=(";", "#"))
    text = Path(path).read_text(encoding="utf-8-sig")
    try:
        parser.read_string(text, source=str(path))
    except configparser.Error as exc:
        raise ConfigError(str(exc)) from None

    for section in parser.sections():
        if section not in _SECTIONS:
            raise ConfigError(f"unknown section [{section}]")

    defaults = Config()
    updates = {}
    for section, (name, apply) in _SECTIONS.items():
        if parser.has_section(section):
            try:
                updates[name] = apply(getattr(defaults, name),
                                      parser.items(section))
            except ValueError as exc:
                raise ConfigError(f"[{section}] {exc}") from None
    return replace(defaults, **updates)
