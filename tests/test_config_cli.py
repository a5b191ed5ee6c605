"""Configuration parsing/validation and the command-line interface."""

from __future__ import annotations

import configparser
import json
import os
import re
import subprocess
import sys
import weakref
from dataclasses import fields, replace
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import scentctl
from scentctl import cli, ingest, simulate
from scentctl.cli import CONFIG_ENV_VAR, _parse_script, main
from scentctl.config import Config, ConfigError, IngestConfig, load_config
from scentctl.estimator import EstimatorConfig
from scentctl.irproto import IRCodeTable
from scentctl.scents import Intensity, Rhythm, vocabulary
from scentctl.scheduler import SchedulerConfig
from scentctl.simulate import RECORD_KINDS, ScriptError, SimulatorConfig


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


# -- config loading -----------------------------------------------------------

def test_defaults_without_file():
    config = load_config(None)
    assert config == Config()
    assert config.seed == 0
    assert config.scheduler.min_interval_s == 900.0
    assert config.estimator.alpha == 0.4
    assert config.ingest.window_len_s == 120.0
    assert len(config.vocabulary) == 8


def test_empty_file_is_valid(tmp_path):
    path = _write(tmp_path, "empty.ini", "")
    assert load_config(path).seed == 0


def test_full_round_trip(tmp_path):
    path = _write(tmp_path, "full.ini", """
[general]
seed = 42

[ingest]
window_len_s = 180
stride_s = 90
calibration_minutes = 6

[estimator]
alpha = 0.5
theta_a = 0.6
theta_v = 0.35
theta_mild = 0.2

[scheduler]
min_interval_s = 600
duty_medium_high = 0.9
burst_repeated_low_frequency_s = 10

[scent]
cedarwood.channel = 1
bergamot.channel = 5

[ir]
codes.power = 0x20DF10EF

[simulator]
rr_mean_ms = 850
""")
    config = load_config(path)
    assert config.seed == 42
    assert config.ingest.window_len_s == 180.0
    assert config.estimator.alpha == 0.5
    assert config.scheduler.min_interval_s == 600.0
    assert config.scheduler.duty_medium_high == 0.9
    assert config.scheduler.burst_repeated_low_frequency_s == 10.0
    channels = {s.key: s.channel for s in config.vocabulary}
    assert channels["cedarwood"] == 1 and channels["bergamot"] == 5
    assert config.ir_table.code_for("power") == 0x20DF10EF
    assert config.simulator.rr_mean_ms == 850.0


def test_unknown_section_rejected(tmp_path):
    path = _write(tmp_path, "bad.ini", "[telemetry]\nx = 1\n")
    with pytest.raises(ConfigError, match="telemetry"):
        load_config(path)


def test_unknown_key_rejected(tmp_path):
    path = _write(tmp_path, "bad.ini", "[estimator]\nalphaa = 0.4\n")
    with pytest.raises(ConfigError, match="alphaa"):
        load_config(path)


def test_duplicate_channels_rejected(tmp_path):
    path = _write(tmp_path, "bad.ini", "[scent]\ncedarwood.channel = 1\n")
    with pytest.raises(ConfigError, match="permutation"):
        load_config(path)


def test_threshold_ordering_enforced(tmp_path):
    path = _write(tmp_path, "bad.ini",
                  "[estimator]\ntheta_mild = 0.4\ntheta_v = 0.3\n")
    with pytest.raises(ConfigError, match="theta_mild"):
        load_config(path)


def test_duplicate_ir_codes_rejected(tmp_path):
    path = _write(tmp_path, "bad.ini",
                  "[ir]\ncodes.power = 0x1\ncodes.shutdown = 0x1\n")
    with pytest.raises(ConfigError, match="unique"):
        load_config(path)


def test_bad_number_reported_with_location(tmp_path):
    path = _write(tmp_path, "bad.ini", "[scheduler]\nmin_interval_s = soon\n")
    with pytest.raises(ConfigError,
                       match=r"^\[scheduler\] min_interval_s: expected a number"):
        load_config(path)


def test_scheduler_unknown_key_checked_before_number(tmp_path):
    path = _write(tmp_path, "bad.ini", "[scheduler]\nfoo = bar\n")
    with pytest.raises(ConfigError, match="unknown key 'foo'"):
        load_config(path)


def test_scheduler_field_name_is_not_a_key(tmp_path):
    path = _write(tmp_path, "bad.ini", "[scheduler]\nduty_map = 1\n")
    with pytest.raises(ConfigError, match="unknown key 'duty_map'"):
        load_config(path)


_SCHEDULER_MAP_KEYS = [
    *(f"duty_{level.value}" for level in Intensity),
    *(f"burst_{rhythm.value}_s" for rhythm in Rhythm),
]


@pytest.mark.parametrize("key", _SCHEDULER_MAP_KEYS)
def test_scheduler_map_key_sets_only_its_entry(tmp_path, key):
    value = 0.55 if key.startswith("duty_") else 5.0
    path = _write(tmp_path, "one.ini", f"[scheduler]\n{key} = {value}\n")
    loaded = load_config(path).scheduler
    defaults = Config().scheduler
    assert getattr(defaults, key) != value
    assert loaded == replace(defaults, **{key: value})


def test_scheduler_keys_are_its_fields():
    names = [f.name for f in fields(SchedulerConfig)]
    assert len(names) == 10
    doc = scentctl.config.__doc__.split("[scheduler]", 1)[1].split("[scent]", 1)[0]
    assert re.findall(r"\w+", doc) == names
    readme = Path(__file__).resolve().parents[1] / "README.md"
    ini = readme.read_text(encoding="utf-8").split("\n[scheduler]\n", 1)[1]
    assert re.findall(r"^(\w+) =", ini.split("\n\n", 1)[0], re.M) == names


# Each of these would hang a run, fail it on every input or crash it;
# inf is refused wherever nan is.
@pytest.mark.parametrize("section, entry", [
    ("ingest", "stride_s = 0.0004"),          # rounds to a 0 ms stride
    ("ingest", "calibration_minutes = 1"),    # holds no calibration window
    ("ingest", "stride_s = 400"),             # holds one calibration window
    ("ingest", "stride_s = nan"),
    ("ingest", "window_len_s = inf"),
    ("ingest", "calibration_minutes = nan"),
    ("scheduler", "min_interval_s = inf"),
    ("scheduler", "repeat_check_horizon_s = nan"),
    ("simulator", "hr_cadence_s = nan"),
    ("simulator", "hr_cadence_s = 0.0004"),        # rounds to a 0 ms cadence
    ("simulator", "context_cadence_s = 0.0005"),   # so does this (half to even)
    ("estimator", "persistence_threshold_s = nan"),
    ("estimator", "recovery_window_s = inf"),
])
def test_cli_validate_rejects_configs_that_cannot_run(tmp_path, capsys,
                                                      section, entry):
    config = _write(tmp_path, "bad.ini", f"[{section}]\n{entry}\n")
    assert main(["validate", "--config", config]) == 3
    assert f"validation error: [{section}]" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["hr_cadence_s", "context_cadence_s"])
def test_simulator_cadence_rounds_to_at_least_1_ms(name):
    assert round(getattr(SimulatorConfig(**{name: 0.0006}), name) * 1000) == 1
    for seconds in (0.0005, 0.0004, 0.0, -1.0):
        with pytest.raises(ValueError, match=f"{name} must round to at least 1 ms"):
            SimulatorConfig(**{name: seconds})


def test_ingest_calibration_boundary_is_inclusive():
    # 6 min = 180 s + 2 * 90 s exactly; one millisecond less is refused
    IngestConfig(window_len_s=180, stride_s=90, calibration_minutes=6)
    with pytest.raises(ValueError, match="3 windows"):
        IngestConfig(window_len_s=180.001, stride_s=90, calibration_minutes=6)


def test_default_config_is_self_consistent():
    config = Config()
    assert {s.channel for s in config.vocabulary} == set(range(1, 9))
    assert len(config.ir_table.codes) == 10
    # each Config builds its own defaults: the code table's dict is not shared
    assert config.ir_table.codes is not Config().ir_table.codes


def test_readme_event_log_kinds_are_the_record_kinds():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text(encoding="utf-8").split("## Event log", 1)[1]
    listed = re.search(r"Kinds: (.*?)\.\n", section, re.S).group(1)
    assert tuple(re.findall(r"`(\w+)`", listed)) == RECORD_KINDS


def test_readme_example_config_loads(tmp_path):
    readme = Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text(encoding="utf-8").split("## Configuration", 1)[1]
    block = re.search(r"```ini\n(.*?)```", section, re.S).group(1)
    assert ";" in block  # the example documents its keys with inline comments
    path = _write(tmp_path, "readme.ini", block)
    assert load_config(path) == replace(Config(), seed=42)


# -- differential check against the per-section loader ------------------------
#
# The reference below is a verbatim copy of the loader that handled each
# section in its own block (with its `default_config`), renamed with a
# `_ref` prefix. Its scheduler block still collects duties and bursts in
# maps keyed by `Intensity` and `Rhythm`, now starting empty, and
# `_ref_flat` turns them into the `SchedulerConfig` fields they set. Its
# parser, like the loader's, has no default section, so a [DEFAULT]
# section is unknown there too instead of merging into the others. The
# table-driven loader must give an equal `Config` or the same error text
# on every input, including which of several bad sections it reports.
# The reference strips no inline comments, so generated files contain no
# `;` or `#`.

class _RefConfigError(ValueError):
    """The configuration file is invalid."""


def _ref_default_config() -> Config:
    return Config(
        estimator=EstimatorConfig(),
        scheduler=SchedulerConfig(),
        ingest=IngestConfig(),
        simulator=SimulatorConfig(),
        vocabulary=vocabulary(),
        ir_table=IRCodeTable.default(),
    )


_REF_KNOWN_SECTIONS = ("general", "ingest", "estimator", "scheduler",
                       "scent", "ir", "simulator")

_REF_DUTY_KEYS = {f"duty_{level.value}": level for level in Intensity}
_REF_BURST_KEYS = {f"burst_{rhythm.value}_s": rhythm for rhythm in Rhythm}


def _ref_flat(duty: dict, burst: dict) -> dict[str, float]:
    """The reference's duty and burst maps as `SchedulerConfig` fields."""
    return {**{f"duty_{level.value}": v for level, v in duty.items()},
            **{f"burst_{rhythm.value}_s": v for rhythm, v in burst.items()}}


def _ref_to_float(section: str, key: str, raw: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise _RefConfigError(f"[{section}] {key}: expected a number, got {raw!r}") from None


def _ref_to_int(section: str, key: str, raw: str) -> int:
    try:
        return int(raw, 0)
    except ValueError:
        raise _RefConfigError(f"[{section}] {key}: expected an integer, got {raw!r}") from None


def _ref_apply_floats(section: str, items: dict[str, str], base):
    """Override dataclass fields by name, rejecting unknown keys."""
    updates = {}
    for key, raw in items.items():
        if key not in base.__dataclass_fields__:
            raise _RefConfigError(f"[{section}] unknown key {key!r}")
        updates[key] = _ref_to_float(section, key, raw)
    try:
        return replace(base, **updates)
    except ValueError as exc:
        raise _RefConfigError(f"[{section}] {exc}") from None


def _ref_load_config(path: str | Path | None) -> Config:
    """Load and validate a configuration file; None yields the defaults."""
    cfg = _ref_default_config()
    if path is None:
        return cfg

    parser = configparser.ConfigParser(interpolation=None, default_section="")
    text = Path(path).read_text(encoding="utf-8")
    try:
        parser.read_string(text, source=str(path))
    except configparser.Error as exc:
        raise _RefConfigError(str(exc)) from None

    for section in parser.sections():
        if section not in _REF_KNOWN_SECTIONS:
            raise _RefConfigError(f"unknown section [{section}]")

    seed = cfg.seed
    if parser.has_section("general"):
        for key, raw in parser.items("general"):
            if key != "seed":
                raise _RefConfigError(f"[general] unknown key {key!r}")
            seed = _ref_to_int("general", key, raw)

    ingest = cfg.ingest
    if parser.has_section("ingest"):
        ingest = _ref_apply_floats("ingest", dict(parser.items("ingest")), ingest)

    estimator = cfg.estimator
    if parser.has_section("estimator"):
        estimator = _ref_apply_floats(
            "estimator", dict(parser.items("estimator")), estimator)

    scheduler = cfg.scheduler
    if parser.has_section("scheduler"):
        duty: dict = {}
        burst: dict = {}
        plain: dict[str, float] = {}
        for key, raw in parser.items("scheduler"):
            if key in _REF_DUTY_KEYS:
                duty[_REF_DUTY_KEYS[key]] = _ref_to_float("scheduler", key, raw)
            elif key in _REF_BURST_KEYS:
                burst[_REF_BURST_KEYS[key]] = _ref_to_float("scheduler", key, raw)
            elif key in ("min_interval_s", "max_burst_s", "repeat_check_horizon_s"):
                plain[key] = _ref_to_float("scheduler", key, raw)
            else:
                raise _RefConfigError(f"[scheduler] unknown key {key!r}")
        try:
            scheduler = replace(scheduler, **_ref_flat(duty, burst), **plain)
        except ValueError as exc:
            raise _RefConfigError(f"[scheduler] {exc}") from None

    scents = cfg.vocabulary
    if parser.has_section("scent"):
        overrides: dict[str, int] = {}
        for key, raw in parser.items("scent"):
            if not key.endswith(".channel"):
                raise _RefConfigError(f"[scent] unknown key {key!r} "
                                      "(expected <scent>.channel)")
            overrides[key[:-len(".channel")]] = _ref_to_int("scent", key, raw)
        try:
            scents = vocabulary(overrides)
        except ValueError as exc:
            raise _RefConfigError(f"[scent] {exc}") from None

    ir_table = cfg.ir_table
    if parser.has_section("ir"):
        codes: dict[str, int] = {}
        for key, raw in parser.items("ir"):
            if not key.startswith("codes."):
                raise _RefConfigError(f"[ir] unknown key {key!r} (expected codes.<command>)")
            codes[key[len("codes."):]] = _ref_to_int("ir", key, raw)
        try:
            ir_table = ir_table.with_overrides(codes)
        except ValueError as exc:
            raise _RefConfigError(f"[ir] {exc}") from None

    simulator = cfg.simulator
    if parser.has_section("simulator"):
        simulator = _ref_apply_floats(
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


# Per section: real keys with values that pass, alone, for that key.
_INI_GOOD = {
    "general": {"seed": ["7", "0x1F", "0b101", "1_000"]},
    "ingest": {"window_len_s": ["60", "180"], "stride_s": ["30", "1e1"],
               "calibration_minutes": ["6"]},
    "estimator": {"alpha": ["0.5", "1"], "theta_a": ["0.6"], "a1": ["0.3"],
                  "theta_mild": ["0.2"], "persistence_threshold_s": ["120"]},
    "scheduler": {"min_interval_s": ["600"], "max_burst_s": ["20"],
                  "repeat_check_horizon_s": ["60"], "duty_low": ["0.2"],
                  "duty_medium_high": ["0.9"], "burst_single_brief_s": ["5"],
                  "burst_repeated_low_frequency_s": ["10"]},
    "scent": {"cedarwood.channel": ["5", "0x5", "1"],
              "bergamot.channel": ["1", "0o1", "5"]},
    "ir": {"codes.power": ["0x20DF10EF", "0X1F"],
           "codes.shutdown": ["0x20DF00FF", "123"],
           "codes.channel_3": ["0b1101"]},
    "simulator": {"rr_mean_ms": ["850"], "rr_jitter_ms": ["5"],
                  "hr_cadence_s": ["2"]},
}
_INI_ODD_KEYS = ["duty_map", "burst_duration_s",     # old field names, never keys
                 "foo", "alphaa", "nosuch.channel", ".channel", "codes.bogus",
                 "codes.", *(key for keys in _INI_GOOD.values() for key in keys)]
_INI_ODD_VALUES = [
    "0", "-1", "1e12", "010", "0x", "0x1F", "1.5", "nan", "inf", "-inf", "",
    "soon", "1,2", "0.5.1",
]


@st.composite
def _ini_texts(draw):
    """INI files of a few sections, each with real, odd and junk entries."""
    sections = draw(st.permutations(
        [name for name in [*_INI_GOOD, "DEFAULT"] if draw(st.booleans())]))
    if draw(st.integers(0, 9)) == 0:  # an unknown or repeated section
        sections.insert(draw(st.integers(0, len(sections))),
                        draw(st.sampled_from(["telemetry", "General", *sections])))
    lines = []
    for section in sections:
        lines.append(f"[{section}]")
        good = _INI_GOOD.get(section, {})
        for _ in range(draw(st.integers(0, 3))):
            if good and draw(st.booleans()):
                key = draw(st.sampled_from(sorted(good)))
            else:
                key = draw(st.sampled_from(_INI_ODD_KEYS))
            if key in good and draw(st.integers(0, 2)):
                value = draw(st.sampled_from(good[key]))
            else:
                value = draw(st.sampled_from(_INI_ODD_VALUES))
            lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


def _load_outcome(load, path):
    try:
        return repr(load(path))  # repr: floats and their types compared exactly
    except (ConfigError, _RefConfigError) as exc:
        return "error", str(exc)


@settings(max_examples=400,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@example("")
@example("[scent]\ncedarwood.channel = 1\n[scheduler]\nduty_low = 2\n")
@example("[general]\nseed = 0x1F\n[ir]\ncodes.power = 0x20DF10EF\n")
@example("[DEFAULT]\nseed = 3\n[general]\n")
@given(_ini_texts())
def test_loader_matches_per_section_reference(tmp_path, text):
    path = _write(tmp_path, "c.ini", text)
    assert _load_outcome(load_config, path) == _load_outcome(_ref_load_config, path)


# Two bad sections, the later one first in the file: any reordering of the
# table swaps at least one neighbouring pair, and so changes one report.
@pytest.mark.parametrize("first, second", zip(_REF_KNOWN_SECTIONS,
                                              _REF_KNOWN_SECTIONS[1:]))
def test_loader_reports_sections_in_reference_order(tmp_path, first, second):
    path = _write(tmp_path, "c.ini", f"[{second}]\nfoo = 1\n[{first}]\nfoo = 1\n")
    outcome = _load_outcome(load_config, path)
    assert outcome == _load_outcome(_ref_load_config, path)
    assert outcome[1].startswith(f"[{first}] unknown key")


# -- CLI ----------------------------------------------------------------------

def _synth(tmp_path, name, *extra):
    out = tmp_path / name
    code = main(["synth", "--seed", "5", "--duration-min", "40",
                 "--out", str(out), *extra])
    return code, out


def test_cli_no_command_prints_help(capsys):
    assert main([]) == 0
    assert "usage" in capsys.readouterr().out


def test_cli_synth_writes_everything(tmp_path, capsys):
    code, out = _synth(tmp_path, "run")
    assert code == 0
    for name in ("rr.csv", "hr.csv", "context.csv", "events.ndjson",
                 "summary.json"):
        assert (out / name).exists(), name
    summary = json.loads((out / "summary.json").read_text())
    assert summary["violations"] == 0
    assert "plan:" in capsys.readouterr().out


def test_cli_synth_seven_day_plan_line_is_bounded(tmp_path, capsys):
    code = main(["synth", "--seed", "4", "--duration-min", "10080",
                 "--out", str(tmp_path / "week")])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("plan: ") and "10080 min" in lines[0]
    assert all(len(line.encode()) < 200 for line in lines), lines


def test_cli_synth_deterministic(tmp_path):
    _, out_a = _synth(tmp_path, "a")
    _, out_b = _synth(tmp_path, "b")
    for name in ("rr.csv", "hr.csv", "context.csv", "events.ndjson",
                 "summary.json"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_cli_synth_explicit_blocks_and_script(tmp_path):
    script = _write(tmp_path, "script.csv",
                    "start_min,duration_min,kind,magnitude\n8,6,stress,1.0\n")
    out = tmp_path / "scripted"
    code = main(["synth", "--seed", "1", "--blocks", "work:25",
                 "--script", script, "--out", str(out)])
    assert code == 0
    events = (out / "events.ndjson").read_text().splitlines()
    assert any('"kind":"release"' in line for line in events)


def test_cli_synth_overlapping_episodes_exit_3(tmp_path, capsys):
    script = _write(tmp_path, "script.csv",
                    "0,10,stress,1.0\n5,10,fatigue,0.5\n")
    code = main(["synth", "--seed", "1", "--blocks", "work:30",
                 "--script", script, "--out", str(tmp_path / "x")])
    assert code == 3
    assert "overlap" in capsys.readouterr().err


@pytest.mark.parametrize("plan_args", [
    ["--duration-min", "0"],
    ["--duration-min=-5"],
    ["--duration-min", "nan"],
    ["--duration-min", "inf"],
    ["--blocks", "work:inf"],
])
def test_cli_synth_bad_session_length_exit_3(tmp_path, capsys, plan_args):
    code = main(["synth", "--seed", "1", *plan_args,
                 "--out", str(tmp_path / "x")])
    assert code == 3
    assert "validation error" in capsys.readouterr().err


def test_cli_synth_plan_shorter_than_calibration_exit_3(tmp_path, capsys):
    code = main(["synth", "--blocks", "work:3", "--out", str(tmp_path / "x")])
    assert code == 3
    err = capsys.readouterr().err
    assert "plan of 3 min is shorter than the 5-minute baseline calibration" in err
    assert main(["synth", "--blocks", "work:6", "--out", str(tmp_path / "y")]) == 0


def test_cli_replay_trace_starting_inside_calibration_exit_2(tmp_path, capsys):
    # beats from 240 s: only the window ending at 300 s calibrates; one
    # beat at 0 s, then beats from 600 s: the first kept beat is early
    # enough, but no calibration window holds two beats
    for head, start, got in (("", 240_000, 1), ("0,800\n", 600_000, 0)):
        rr = _write(tmp_path, "rr.csv", head + "".join(
            f"{start + i * 800},800\n" for i in range(1, 1201)))
        assert main(["replay", "--rr", rr, "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert (f"needs at least 3 windows with two or more kept RR beats, got {got}: "
                "the calibration span has gaps or the trace ends inside it") in err


def test_cli_replay_flat_calibration_exit_2(tmp_path, capsys):
    # 20 minutes of 800 ms beats: every calibration window has RMSSD 0
    rr = _write(tmp_path, "rr.csv", "".join(
        f"{i * 800},800\n" for i in range(1, 1501)))
    assert main(["replay", "--rr", rr, "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: baseline calibration is flat: "), err


def test_cli_synth_nan_episode_start_exit_3(tmp_path, capsys):
    script = _write(tmp_path, "script.csv", "nan,10,stress,1.0\n")
    code = main(["synth", "--seed", "1", "--blocks", "work:30",
                 "--script", script, "--out", str(tmp_path / "x")])
    assert code == 3
    assert "validation error" in capsys.readouterr().err


def _cli_subprocess(argv, prelude="", timeout=60):
    """Run ``main(argv)`` in a fresh interpreter; a hang fails at the timeout."""
    env = {k: v for k, v in os.environ.items() if k != CONFIG_ENV_VAR}
    env["PYTHONPATH"] = str(Path(scentctl.__file__).resolve().parents[1])
    code = f"{prelude}from scentctl.cli import main; raise SystemExit(main({argv!r}))"
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=timeout)


@pytest.mark.parametrize("plan_args", [
    ["--duration-min", "1e8"],
    ["--blocks", "work:1e8"],
])
def test_cli_synth_session_over_seven_days_exit_3(tmp_path, plan_args):
    proc = _cli_subprocess(["synth", "--seed", "1", *plan_args,
                            "--out", str(tmp_path / "x")])
    assert proc.returncode == 3, proc.stderr
    assert "validation error" in proc.stderr


def test_cli_runs_without_numpy(tmp_path):
    proc = _cli_subprocess(
        ["synth", "--seed", "7", "--duration-min", "20", "--out", str(tmp_path)],
        prelude="import sys; sys.modules['numpy'] = None; ")
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "summary.json").exists()


def test_cli_replay_round_trip(tmp_path):
    _, out = _synth(tmp_path, "source")
    replay_out = tmp_path / "replayed"
    code = main(["replay", "--rr", str(out / "rr.csv"),
                 "--hr", str(out / "hr.csv"),
                 "--context", str(out / "context.csv"),
                 "--out", str(replay_out)])
    assert code == 0
    # synthetic and re-ingested traces produce the identical event log
    assert ((out / "events.ndjson").read_bytes()
            == (replay_out / "events.ndjson").read_bytes())


def _replay_copies(tmp_path, source, name, edit):
    """Replay ``edit`` of each of ``source``'s three streams, written as
    bytes; the outputs' bytes, by file name."""
    args = []
    for stream in ("rr", "hr", "context"):
        path = tmp_path / f"{name}-{stream}.csv"
        path.write_bytes(edit((source / f"{stream}.csv").read_text()).encode())
        args += [f"--{stream}", str(path)]
    out = tmp_path / name
    assert main(["replay", *args, "--out", str(out)]) == 0
    return {f: (out / f).read_bytes() for f in ("events.ndjson", "summary.json")}


def test_cli_replay_reads_cr_and_crlf_line_endings(tmp_path):
    # The reader turns "\r" and "\r\n" into "\n" before any parsing.
    _, source = _synth(tmp_path, "source")
    original = _replay_copies(tmp_path, source, "lf", lambda text: text)
    for name, end in (("cr", "\r"), ("crlf", "\r\n")):
        assert _replay_copies(tmp_path, source, name,
                              lambda text: text.replace("\n", end)) == original


def test_cli_replay_keeps_first_row_after_utf8_bom(tmp_path):
    # Headerless streams: a byte-order mark must not make the first row
    # look like a header and drop it.
    _, source = _synth(tmp_path, "source")

    def headerless(text):
        return text.split("\n", 1)[1]

    plain = _replay_copies(tmp_path, source, "plain", headerless)
    assert _replay_copies(tmp_path, source, "bom",
                          lambda text: "\ufeff" + headerless(text)) == plain


def test_cli_synth_keeps_first_script_episode_after_utf8_bom(tmp_path):
    events = []
    for name, bom in (("plain", ""), ("bom", "\ufeff")):
        script = _write(tmp_path, f"{name}.csv", f"{bom}8,6,stress,1.0\n")
        out = tmp_path / name
        assert main(["synth", "--seed", "1", "--blocks", "work:25",
                     "--script", script, "--out", str(out)]) == 0
        events.append((out / "events.ndjson").read_bytes())
    assert events[0] == events[1]
    assert b'"kind":"release"' in events[1]


def test_script_lines_end_at_newline_alone(tmp_path, capsys):
    # "\x85" ends a line for str.splitlines(), but not in a sample stream
    text = "8,6,stress,1.0\x8520,5,fatigue,1.0\n"
    with pytest.raises(ScriptError, match="^script line 1: expected 4 fields$"):
        _parse_script(text)
    script = _write(tmp_path, "script.csv", text)
    assert main(["synth", "--seed", "1", "--blocks", "work:30",
                 "--script", script, "--out", str(tmp_path / "x")]) == 3
    assert "script line 1: expected 4 fields" in capsys.readouterr().err
    # the "\r" of a "\r\n" ending is stripped with the other whitespace
    lf = "start_min,duration_min,kind,magnitude\n8,6,stress,1.0\n20,5,fatigue,1.0\n"
    assert _parse_script(lf.replace("\n", "\r\n")) == _parse_script(lf)
    assert len(_parse_script(lf)) == 2


@pytest.mark.skipif(sys.version_info < (3, 11), reason=(
    "CPython 3.10 keeps call arguments on the caller's stack until the "
    "call returns, so the raw columns live through the whole replay"))
def test_cli_replay_frees_raw_columns_before_the_session_pass(tmp_path,
                                                               monkeypatch):
    beats = [800.0 + 10 * (i % 2) for i in range(600)]  # 8 minutes
    beats[300] = 1500.0  # one artifact: the filter makes a copy
    rr = _write(tmp_path, "rr.csv", "".join(
        f"{i * 800},{v}\n" for i, v in enumerate(beats)))
    raw = []

    def parse_rr(text):
        series = ingest.parse_rr_stream(text)
        raw.extend(weakref.ref(col.obj) for col in (series.timestamps,
                                                     series.values))
        return series

    sweep = simulate.iter_window_features
    at_sweep = []

    def session_sweep(rr, *rest):
        at_sweep.append((len(rr), [ref() is not None for ref in raw]))
        return sweep(rr, *rest)

    monkeypatch.setattr(cli, "parse_rr_stream", parse_rr)
    monkeypatch.setattr(simulate, "iter_window_features", session_sweep)
    assert main(["replay", "--rr", rr, "--out", str(tmp_path / "out")]) == 0
    # the filtered copy, one beat short, and no raw column alive
    assert at_sweep == [(len(beats) - 1, [False, False])]


def test_cli_replay_rr_only(tmp_path, capsys):
    _, out = _synth(tmp_path, "source")
    code = main(["replay", "--rr", str(out / "rr.csv"),
                 "--out", str(tmp_path / "replayed")])
    assert code == 0, capsys.readouterr().err
    summary = json.loads((tmp_path / "replayed" / "summary.json").read_text())
    assert summary["violations"] == 0


_EPOCH_MS = 1_760_000_000_000
_SINCE_START = "timestamps are milliseconds since session start, at most 24.8 days"


def test_cli_replay_epoch_ms_trace_exits_2_quickly(tmp_path):
    # 20 minutes of beats, or of HR or context rows, stamped in epoch
    # milliseconds, not session time: each stream is refused at parse, by
    # its file and line, beside session-relative RR beats.
    rr = _write(tmp_path, "rr.csv", "".join(
        f"{i * 800},{800 + 10 * (i % 2)}\n" for i in range(1500)))
    epoch_rr = _write(tmp_path, "epoch-rr.csv", "".join(
        f"{_EPOCH_MS + i * 800},800\n" for i in range(1500)))
    epoch_hr = _write(tmp_path, "epoch-hr.csv", "timestamp_ms,hr_bpm\n" + "".join(
        f"{_EPOCH_MS + i * 1000},75\n" for i in range(1200)))
    epoch_context = _write(
        tmp_path, "epoch-context.csv",
        "\ntimestamp_ms,session_active,activity_state\n" + "".join(
            f"{_EPOCH_MS + i * 60000},1,sedentary\n" for i in range(20)))
    out = tmp_path / "x"
    for args, path, line in [(["--rr", epoch_rr], epoch_rr, 1),
                             (["--rr", rr, "--hr", epoch_hr], epoch_hr, 2),
                             (["--rr", rr, "--context", epoch_context],
                              epoch_context, 3)]:
        proc = _cli_subprocess(["replay", *args, "--out", str(out)], timeout=20)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr == (f"input error: {path}: line {line}: timestamp "
                               f"{_EPOCH_MS} out of range: {_SINCE_START}\n")
    assert not out.exists()


def test_cli_replay_epoch_ms_hr_trace_finishes(tmp_path):
    # session-relative RR and context, HR stamped in epoch milliseconds:
    # refused at parse, not replayed with RR-derived HR in every window
    _, out = _synth(tmp_path, "source")
    shifted = "timestamp_ms,hr_bpm\n" + "".join(
        f"{int(ts) + _EPOCH_MS},{bpm}\n" for ts, bpm in
        (line.split(",") for line in (out / "hr.csv").read_text().splitlines()[1:]))
    hr = _write(tmp_path, "hr.csv", shifted)
    proc = _cli_subprocess(["replay", "--rr", str(out / "rr.csv"),
                            "--context", str(out / "context.csv"), "--hr", hr,
                            "--out", str(tmp_path / "x")], timeout=20)
    assert proc.returncode == 2, proc.stderr
    assert f"input error: {hr}: line 2: timestamp {_EPOCH_MS}" in proc.stderr
    assert not (tmp_path / "x").exists()


def test_cli_replay_late_first_beat_exits_2_without_output(tmp_path, capsys):
    # 20 minutes of beats that start 10 minutes in, after calibration ends,
    # or exactly at its end
    for first in (600_000, 300_000):
        rr = _write(tmp_path, "rr.csv", "".join(
            f"{first + i * 800},800\n" for i in range(1500)))
        out = tmp_path / "x"
        assert main(["replay", "--rr", rr, "--out", str(out)]) == 2
        assert f"first kept RR beat is at {first} ms" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("stream, name", [("hr", "HR"), ("context", "context")])
def test_cli_replay_stream_after_the_last_beat_exits_2(tmp_path, capsys,
                                                        stream, name):
    # A second clock ahead of the beats: a stream whose first row comes
    # after the session's last kept beat shares no time with RR and is
    # refused; one whose first row is at that beat is replayed.
    code, source = _synth(tmp_path, "source")
    assert code == 0
    last = ingest.reject_artifacts(
        ingest.parse_rr_stream((source / "rr.csv").read_text())).timestamps[-1]
    header, *rows = (source / f"{stream}.csv").read_text().splitlines()
    assert rows[0].startswith("0,")
    files = {kind: str(source / f"{kind}.csv") for kind in ("rr", "hr", "context")}
    for shift, exit_code in ((last, 0), (last + 1, 2), (36_000_000, 2)):
        files[stream] = _write(tmp_path, f"{stream}.csv", f"{header}\n" + "".join(
            f"{int(ts) + shift},{rest}\n"
            for ts, rest in (row.split(",", 1) for row in rows)))
        out = tmp_path / f"out{shift}"
        capsys.readouterr()
        assert main(["replay", "--rr", files["rr"], "--hr", files["hr"],
                     "--context", files["context"], "--out", str(out)]) == exit_code
        if exit_code == 0:
            continue
        err = capsys.readouterr().err
        assert err.startswith("input error: ")
        assert (f"the {name} stream starts at {shift} ms, after the last kept "
                f"RR beat at {last} ms") in err
        assert not out.exists()


def test_cli_replay_sub_millisecond_stride_exits_3(tmp_path):
    _, out = _synth(tmp_path, "source")
    config = _write(tmp_path, "tiny.ini", "[ingest]\nstride_s = 0.0004\n")
    proc = _cli_subprocess(["replay", "--config", config,
                            "--rr", str(out / "rr.csv"),
                            "--out", str(tmp_path / "x")], timeout=20)
    assert proc.returncode == 3, proc.stderr
    assert "stride_s must round to at least 1 ms" in proc.stderr


@pytest.mark.parametrize("name", ["hr_cadence_s", "context_cadence_s"])
def test_cli_synth_sub_millisecond_cadence_exits_3(tmp_path, capsys, name):
    config = _write(tmp_path, "tiny.ini", f"[simulator]\n{name} = 0.0004\n")
    code, out = _synth(tmp_path, "run", "--config", config)
    assert code == 3
    assert f"{name} must round to at least 1 ms" in capsys.readouterr().err
    assert not out.exists()


def test_cli_replay_malformed_csv_exit_2(tmp_path, capsys):
    rr = _write(tmp_path, "rr.csv", "0,800\n600,oops\n")
    code = main(["replay", "--rr", rr, "--out", str(tmp_path / "x")])
    assert code == 2
    assert "line 2" in capsys.readouterr().err


@pytest.mark.parametrize("text, message", [
    # a mistyped first row after the header is not a second header
    ("timestamp_ms,rr_ms\nO,800\n1000,810\n", "line 2: bad timestamp 'O'"),
    ("timestamp_ms,rr_ms\n\nts,rr\n0,800\n", "line 3: bad timestamp 'ts'"),
])
def test_cli_replay_only_first_line_may_be_header_exit_2(tmp_path, capsys,
                                                         text, message):
    rr = _write(tmp_path, "rr.csv", text)
    out = tmp_path / "x"
    assert main(["replay", "--rr", rr, "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("text, message", [
    ("start_min,duration_min,kind,magnitude\nforty,25,stress,0.9\n8,6,stress,1\n",
     "script line 2: could not convert string to float: 'forty'"),
    ("# plan\n\nstart_min,duration_min,kind,magnitude\nstart,dur,kind,mag\n",
     "script line 4: could not convert string to float: 'start'"),
    ("start_min,duration_min,kind,magnitude\n# episodes\nkind,8,6,stress,1\n",
     "script line 3: expected 4 fields"),
])
def test_cli_synth_only_first_script_line_may_be_header_exit_3(tmp_path, capsys,
                                                              text, message):
    script = _write(tmp_path, "script.csv", text)
    code = main(["synth", "--seed", "1", "--blocks", "work:25",
                 "--script", script, "--out", str(tmp_path / "x")])
    assert code == 3
    assert message in capsys.readouterr().err


def test_cli_replay_missing_file_exit_2(tmp_path, capsys):
    code = main(["replay", "--rr", str(tmp_path / "absent.csv"),
                 "--out", str(tmp_path / "x")])
    assert code == 2


def _steady_rr(tmp_path):
    """Ten minutes of alternating 790/810 ms beats: enough to calibrate
    and replay."""
    return _write(tmp_path, "rr.csv", "".join(
        f"{i * 800},{810 if i % 2 else 790}\n" for i in range(1, 751)))


def _non_utf8_rr(tmp_path):
    path = tmp_path / "rr.csv"
    path.write_bytes(b"0,800\n800,8\xff0\n")
    return str(path)


# Each path is one that the OS or the decoder refuses: an input error
# (exit 2), not an internal one (exit 4).
@pytest.mark.parametrize("argv", [
    lambda tmp: ["replay", "--rr", _steady_rr(tmp),
                 "--out", _write(tmp, "taken", "")],
    lambda tmp: ["replay", "--rr", str(tmp), "--out", str(tmp / "x")],
    lambda tmp: ["replay", "--rr", _non_utf8_rr(tmp), "--out", str(tmp / "x")],
    lambda tmp: ["synth", "--blocks", "work:6",
                 "--out", str(Path(_write(tmp, "file", "")) / "x")],
    lambda tmp: ["validate", "--config", str(tmp)],
], ids=["replay-out-is-a-file", "replay-rr-is-a-directory",
        "replay-rr-not-utf8", "synth-out-under-a-file",
        "validate-config-is-a-directory"])
def test_cli_unreadable_path_exit_2(tmp_path, capsys, argv):
    assert main(argv(tmp_path)) == 2
    assert "input error: " in capsys.readouterr().err


# A [DEFAULT] section's keys would reach every section, or none: alone it
# would change nothing, before [estimator] it would set alpha, and before
# [scheduler] it would read as that section's unknown key.
@pytest.mark.parametrize("after", ["", "[estimator]\n", "[scheduler]\n"],
                         ids=["alone", "before-estimator", "before-scheduler"])
def test_cli_default_section_is_unknown_exit_3(tmp_path, capsys, after):
    config = _write(tmp_path, "default.ini", f"[DEFAULT]\nalpha = 0.9\n{after}")
    with pytest.raises(ConfigError, match=r"^unknown section \[DEFAULT\]$"):
        load_config(config)
    assert main(["validate", "--config", config]) == 3
    assert "unknown section [DEFAULT]" in capsys.readouterr().err


def test_cli_bad_config_exit_3(tmp_path, capsys):
    config = _write(tmp_path, "bad.ini", "[scent]\ncedarwood.channel = 1\n")
    code = main(["validate", "--config", config])
    assert code == 3
    assert "permutation" in capsys.readouterr().err


def test_config_with_utf8_bom_loads(tmp_path, capsys):
    config = _write(tmp_path, "bom.ini", "\ufeff[general]\nseed = 9\n")
    assert load_config(config).seed == 9
    assert main(["validate", "--config", config]) == 0
    assert "OK" in capsys.readouterr().out


def test_cli_validate_ok(tmp_path, capsys):
    config = _write(tmp_path, "ok.ini", "[general]\nseed = 9\n")
    assert main(["validate", "--config", config]) == 0
    assert "OK" in capsys.readouterr().out


def test_cli_config_env_fallback(tmp_path, monkeypatch, capsys):
    config = _write(tmp_path, "env.ini", "[general]\nseed = 7\n")
    monkeypatch.setenv("SCENTCTL_CONFIG", config)
    assert main(["validate"]) == 0
    assert "env.ini" in capsys.readouterr().out


def test_cli_env_config_errors_surface(tmp_path, monkeypatch):
    config = _write(tmp_path, "bad.ini", "[scent]\ncedarwood.channel = 1\n")
    monkeypatch.setenv("SCENTCTL_CONFIG", config)
    assert main(["validate"]) == 3


def test_cli_tables_output(capsys):
    assert main(["tables"]) == 0
    out = capsys.readouterr().out
    for name in ("Bergamot", "Rose geranium", "Peppermint", "Tea tree",
                 "Himalayan cedarwood", "Frankincense", "Vetiver",
                 "Litsea cubeba"):
        assert name in out
    assert out.count("single_brief") == 3
    assert "repeated_low_frequency" in out
    assert "brief_repeat_if_needed" in out
    assert "no output" in out


def test_cli_tables_stable(capsys):
    main(["tables"])
    first = capsys.readouterr().out
    main(["tables"])
    assert capsys.readouterr().out == first


@pytest.mark.parametrize("command", ["tables", "validate"])
def test_cli_seed_is_refused_where_it_does_nothing(command, capsys):
    with pytest.raises(SystemExit) as info:
        main([command, "--seed", "1"])
    assert info.value.code == 2
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err


def test_cli_synth_config_seed_used(tmp_path):
    config = _write(tmp_path, "seeded.ini", "[general]\nseed = 5\n")
    out_a = tmp_path / "cfg_seed"
    assert main(["synth", "--config", config, "--duration-min", "40",
                 "--out", str(out_a)]) == 0
    _, out_b = _synth(tmp_path, "flag_seed")
    assert ((out_a / "rr.csv").read_bytes() == (out_b / "rr.csv").read_bytes())
