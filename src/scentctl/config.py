"""Configuration loading: INI sections mapped onto the module configs.

The file format is plain INI. Every key has a default, so an empty (or
absent) file is valid. Sections and keys:

    [general]    seed
    [ingest]     window_len_s, stride_s, calibration_minutes
    [estimator]  a1 a2 v1 v2 v3, alpha, theta_a, theta_v, theta_mild,
                 persistence_threshold_s, recovery_window_s,
                 low_alertness_work_minutes
    [scheduler]  min_interval_s, max_burst_s, repeat_check_horizon_s,
                 duty_low, duty_low_medium, duty_medium, duty_medium_high,
                 burst_single_brief_s, burst_repeated_low_frequency_s,
                 burst_brief_repeat_if_needed_s
    [scent]      <scent_key>.channel = 1..8   (assignment must stay a
                 permutation; duplicates are rejected)
    [ir]         codes.<command> = <hex word>, command one of power,
                 shutdown, channel_1 .. channel_8
    [simulator]  rr_mean_ms, rr_jitter_ms, stress_rr_drop,
                 stress_jitter_drop, fatigue_rr_gain, fatigue_jitter_gain,
                 hr_noise_bpm, hr_cadence_s, context_cadence_s

Unknown sections or keys are rejected so typos fail loudly.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, replace
from pathlib import Path

from .estimator import EstimatorConfig
from .ingest import (
    DEFAULT_CALIBRATION_MINUTES,
    DEFAULT_STRIDE_S,
    DEFAULT_WINDOW_LEN_S,
)
from .irproto import IRCodeTable
from .scents import Intensity, Rhythm, Scent, vocabulary
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
        if self.window_len_s < 60:
            raise ValueError("window_len_s must be at least 60 s")
        if self.stride_s <= 0:
            raise ValueError("stride_s must be positive")
        if self.calibration_minutes <= 0:
            raise ValueError("calibration_minutes must be positive")


@dataclass(frozen=True)
class Config:
    estimator: EstimatorConfig
    scheduler: SchedulerConfig
    ingest: IngestConfig
    simulator: SimulatorConfig
    vocabulary: tuple[Scent, ...]
    ir_table: IRCodeTable
    seed: int = 0


def default_config() -> Config:
    return Config(
        estimator=EstimatorConfig(),
        scheduler=SchedulerConfig(),
        ingest=IngestConfig(),
        simulator=SimulatorConfig(),
        vocabulary=vocabulary(),
        ir_table=IRCodeTable.default(),
    )


_KNOWN_SECTIONS = ("general", "ingest", "estimator", "scheduler",
                   "scent", "ir", "simulator")

_DUTY_KEYS = {f"duty_{level.value}": level for level in Intensity}
_BURST_KEYS = {f"burst_{rhythm.value}_s": rhythm for rhythm in Rhythm}


def _to_float(section: str, key: str, raw: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"[{section}] {key}: expected a number, got {raw!r}") from None


def _to_int(section: str, key: str, raw: str) -> int:
    try:
        return int(raw, 0)
    except ValueError:
        raise ConfigError(f"[{section}] {key}: expected an integer, got {raw!r}") from None


def _apply_floats(section: str, items: dict[str, str], base):
    """Override dataclass fields by name, rejecting unknown keys."""
    updates = {}
    for key, raw in items.items():
        if key not in base.__dataclass_fields__:
            raise ConfigError(f"[{section}] unknown key {key!r}")
        updates[key] = _to_float(section, key, raw)
    try:
        return replace(base, **updates)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {exc}") from None


def load_config(path: str | Path | None) -> Config:
    """Load and validate a configuration file; None yields the defaults."""
    cfg = default_config()
    if path is None:
        return cfg

    parser = configparser.ConfigParser(interpolation=None)
    text = Path(path).read_text(encoding="utf-8")
    try:
        parser.read_string(text, source=str(path))
    except configparser.Error as exc:
        raise ConfigError(str(exc)) from None

    for section in parser.sections():
        if section not in _KNOWN_SECTIONS:
            raise ConfigError(f"unknown section [{section}]")

    seed = cfg.seed
    if parser.has_section("general"):
        for key, raw in parser.items("general"):
            if key != "seed":
                raise ConfigError(f"[general] unknown key {key!r}")
            seed = _to_int("general", key, raw)

    ingest = cfg.ingest
    if parser.has_section("ingest"):
        ingest = _apply_floats("ingest", dict(parser.items("ingest")), ingest)

    estimator = cfg.estimator
    if parser.has_section("estimator"):
        estimator = _apply_floats(
            "estimator", dict(parser.items("estimator")), estimator)

    scheduler = cfg.scheduler
    if parser.has_section("scheduler"):
        duty = dict(scheduler.duty_map)
        burst = dict(scheduler.burst_duration_s)
        plain: dict[str, float] = {}
        for key, raw in parser.items("scheduler"):
            if key in _DUTY_KEYS:
                duty[_DUTY_KEYS[key]] = _to_float("scheduler", key, raw)
            elif key in _BURST_KEYS:
                burst[_BURST_KEYS[key]] = _to_float("scheduler", key, raw)
            elif key in ("min_interval_s", "max_burst_s", "repeat_check_horizon_s"):
                plain[key] = _to_float("scheduler", key, raw)
            else:
                raise ConfigError(f"[scheduler] unknown key {key!r}")
        try:
            scheduler = replace(scheduler, duty_map=duty,
                                burst_duration_s=burst, **plain)
        except ValueError as exc:
            raise ConfigError(f"[scheduler] {exc}") from None

    scents = cfg.vocabulary
    if parser.has_section("scent"):
        overrides: dict[str, int] = {}
        for key, raw in parser.items("scent"):
            if not key.endswith(".channel"):
                raise ConfigError(f"[scent] unknown key {key!r} "
                                  "(expected <scent>.channel)")
            overrides[key[:-len(".channel")]] = _to_int("scent", key, raw)
        try:
            scents = vocabulary(overrides)
        except ValueError as exc:
            raise ConfigError(f"[scent] {exc}") from None

    ir_table = cfg.ir_table
    if parser.has_section("ir"):
        codes: dict[str, int] = {}
        for key, raw in parser.items("ir"):
            if not key.startswith("codes."):
                raise ConfigError(f"[ir] unknown key {key!r} (expected codes.<command>)")
            codes[key[len("codes."):]] = _to_int("ir", key, raw)
        try:
            ir_table = ir_table.with_overrides(codes)
        except ValueError as exc:
            raise ConfigError(f"[ir] {exc}") from None

    simulator = cfg.simulator
    if parser.has_section("simulator"):
        simulator = _apply_floats(
            "simulator", dict(parser.items("simulator")), simulator)

    return Config(
        estimator=estimator,
        scheduler=scheduler,
        ingest=ingest,
        simulator=simulator,
        vocabulary=scents,
        ir_table=ir_table,
        seed=seed,
    )
