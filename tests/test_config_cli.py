"""Configuration parsing/validation and the command-line interface."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import scentctl
from scentctl.cli import CONFIG_ENV_VAR, main
from scentctl.config import ConfigError, default_config, load_config
from scentctl.irproto import POWER
from scentctl.scents import Intensity, Rhythm


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


# -- config loading -----------------------------------------------------------

def test_defaults_without_file():
    config = load_config(None)
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
    assert config.scheduler.duty_map[Intensity.MEDIUM_HIGH] == 0.9
    assert config.scheduler.burst_duration_s[Rhythm.REPEATED_LOW_FREQUENCY] == 10.0
    channels = {s.key: s.channel for s in config.vocabulary}
    assert channels["cedarwood"] == 1 and channels["bergamot"] == 5
    assert config.ir_table.code_for(POWER) == 0x20DF10EF
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


_SCHEDULER_MAP_KEYS = {
    "duty_low": ("duty_map", Intensity.LOW),
    "duty_low_medium": ("duty_map", Intensity.LOW_MEDIUM),
    "duty_medium": ("duty_map", Intensity.MEDIUM),
    "duty_medium_high": ("duty_map", Intensity.MEDIUM_HIGH),
    "burst_single_brief_s": ("burst_duration_s", Rhythm.SINGLE_BRIEF),
    "burst_repeated_low_frequency_s": (
        "burst_duration_s", Rhythm.REPEATED_LOW_FREQUENCY),
    "burst_brief_repeat_if_needed_s": (
        "burst_duration_s", Rhythm.BRIEF_REPEAT_IF_NEEDED),
}


@pytest.mark.parametrize("key", _SCHEDULER_MAP_KEYS)
def test_scheduler_map_key_sets_only_its_entry(tmp_path, key):
    field, member = _SCHEDULER_MAP_KEYS[key]
    value = 0.55 if field == "duty_map" else 5.0
    path = _write(tmp_path, "one.ini", f"[scheduler]\n{key} = {value}\n")
    loaded = load_config(path).scheduler
    defaults = default_config().scheduler
    expected = dict(getattr(defaults, field))
    assert expected[member] != value
    expected[member] = value
    assert dict(getattr(loaded, field)) == expected
    other = "burst_duration_s" if field == "duty_map" else "duty_map"
    assert dict(getattr(loaded, other)) == dict(getattr(defaults, other))


def test_default_config_is_self_consistent():
    config = default_config()
    assert {s.channel for s in config.vocabulary} == set(range(1, 9))
    assert len(config.ir_table.codes) == 10


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


def test_cli_replay_rr_only(tmp_path, capsys):
    _, out = _synth(tmp_path, "source")
    code = main(["replay", "--rr", str(out / "rr.csv"),
                 "--out", str(tmp_path / "replayed")])
    assert code == 0, capsys.readouterr().err
    summary = json.loads((tmp_path / "replayed" / "summary.json").read_text())
    assert summary["violations"] == 0


def test_cli_replay_epoch_ms_trace_exits_2_quickly(tmp_path):
    # 20 minutes of beats stamped in epoch milliseconds, not session time
    epoch = 1_760_000_000_000
    rr = _write(tmp_path, "rr.csv", "".join(
        f"{epoch + i * 800},800\n" for i in range(1, 1501)))
    proc = _cli_subprocess(["replay", "--rr", rr, "--out", str(tmp_path / "x")],
                           timeout=20)
    assert proc.returncode == 2, proc.stderr
    assert f"first kept RR beat is at {epoch + 800} ms" in proc.stderr
    assert "milliseconds since session start" in proc.stderr


def test_cli_replay_malformed_csv_exit_2(tmp_path, capsys):
    rr = _write(tmp_path, "rr.csv", "0,800\n600,oops\n")
    code = main(["replay", "--rr", rr, "--out", str(tmp_path / "x")])
    assert code == 2
    assert "line 2" in capsys.readouterr().err


def test_cli_replay_missing_file_exit_2(tmp_path, capsys):
    code = main(["replay", "--rr", str(tmp_path / "absent.csv"),
                 "--out", str(tmp_path / "x")])
    assert code == 2


def test_cli_bad_config_exit_3(tmp_path, capsys):
    config = _write(tmp_path, "bad.ini", "[scent]\ncedarwood.channel = 1\n")
    code = main(["validate", "--config", config])
    assert code == 3
    assert "permutation" in capsys.readouterr().err


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


def test_cli_synth_config_seed_used(tmp_path):
    config = _write(tmp_path, "seeded.ini", "[general]\nseed = 5\n")
    out_a = tmp_path / "cfg_seed"
    assert main(["synth", "--config", config, "--duration-min", "40",
                 "--out", str(out_a)]) == 0
    _, out_b = _synth(tmp_path, "flag_seed")
    assert ((out_a / "rr.csv").read_bytes() == (out_b / "rr.csv").read_bytes())
