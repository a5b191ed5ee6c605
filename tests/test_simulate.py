"""Session generation, full-pipeline replay, and log auditing."""

from __future__ import annotations

import bisect
import dataclasses
import gc
import itertools
import json
import random
from collections import Counter
from typing import Iterator

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import time_bound
from scentctl import ingest
from scentctl.config import Config, IngestConfig
from scentctl.estimator import (
    AVState,
    InteractionState,
    PersistenceTracker,
    classify,
    estimate_av,
    smooth_av,
)
from scentctl.ingest import (
    ActivityState,
    Baseline,
    ContextSample,
    FeatureWindow,
    InsufficientDataError,
    Series,
    clean_hr,
    compute_baseline,
    iter_window_features,
    reject_artifacts,
    window_features,
)
from scentctl.irproto import COMMANDS, command_sequence_for
from scentctl.scents import (
    PROFILE_MEMBERS,
    Profile,
    Rhythm,
    SelectionHistory,
    expression_for,
    select_scent,
)
from scentctl.scheduler import (
    SUPPRESSED_CHANNEL_ACTIVE,
    SUPPRESSED_COOLDOWN,
    SchedulerConfig,
    SchedulerState,
    TimeRegressionError,
    request,
    suppression_reason,
    tick,
)
from scentctl.simulate import (
    BREAK_BLOCK_MAX,
    BREAK_BLOCK_MIN,
    MAX_SESSION_MIN,
    WORK_BLOCK_MAX,
    WORK_BLOCK_MIN,
    BlockKind,
    Episode,
    EpisodeKind,
    RECORD_KINDS,
    SUPPRESSED_REPEAT_CANCELLED,
    ScriptError,
    SessionBlock,
    SessionPlan,
    default_plan,
    generate_session,
    _round6,
    act,
    replay,
    sense,
    summarize,
)

CFG = Config()


def _session(seed, work_min, episodes, config=CFG):
    plan = SessionPlan((SessionBlock(BlockKind.WORK, work_min),))
    script = tuple(Episode(*e) for e in episodes)
    streams = generate_session(seed, plan, script, config.simulator)
    return streams, list(replay(*streams, config))


def _releases(log):
    return [r for r in log if r["kind"] == "release"]


# -- plans and scripts -------------------------------------------------------

def test_default_plan_alternates_within_bounds():
    plan = default_plan(random.Random(0), total_minutes=240)
    assert plan.blocks[0].kind is BlockKind.WORK
    for prev, nxt in zip(plan.blocks, plan.blocks[1:]):
        assert prev.kind is not nxt.kind
    for block in plan.blocks:
        if block.kind is BlockKind.WORK:
            assert WORK_BLOCK_MIN <= block.minutes <= WORK_BLOCK_MAX
        else:
            assert BREAK_BLOCK_MIN <= block.minutes <= BREAK_BLOCK_MAX
    assert plan.total_minutes >= 240


@pytest.mark.parametrize("minutes", [0.0, -5.0, float("nan"), float("inf")])
def test_plan_lengths_must_be_positive_and_finite(minutes):
    with pytest.raises(ScriptError):
        default_plan(random.Random(0), total_minutes=minutes)
    with pytest.raises(ValueError):
        SessionBlock(BlockKind.WORK, minutes)


def test_plan_length_bounded_by_seven_days():
    assert default_plan(random.Random(0), total_minutes=1440).total_minutes >= 1440
    with pytest.raises(ScriptError, match="at most"):
        default_plan(random.Random(0), total_minutes=1e8)
    with pytest.raises(ScriptError, match="exceeds"):
        SessionPlan((SessionBlock(BlockKind.WORK, MAX_SESSION_MIN),
                     SessionBlock(BlockKind.BREAK, 5.0)))
    assert SessionPlan((SessionBlock(BlockKind.WORK, MAX_SESSION_MIN),)).blocks


def test_seven_day_plan_cuts_last_block_at_limit():
    bounds = {BlockKind.WORK: (WORK_BLOCK_MIN, WORK_BLOCK_MAX),
              BlockKind.BREAK: (BREAK_BLOCK_MIN, BREAK_BLOCK_MAX)}
    for seed in range(50):
        plan = default_plan(random.Random(seed), total_minutes=MAX_SESSION_MIN)
        # Exact: the cut block ends on the limit, not an ulp above it.
        assert plan.total_minutes == MAX_SESSION_MIN, seed
        *full, last = plan.blocks
        for block in full:
            low, high = bounds[block.kind]
            assert low <= block.minutes <= high, seed
        assert 0 < last.minutes <= bounds[last.kind][1], seed
    for minutes in (10035.0, 10050.5, 10079.9):
        plan = default_plan(random.Random(1), total_minutes=minutes)
        assert minutes <= plan.total_minutes <= MAX_SESSION_MIN


def test_plan_block_lookup():
    plan = SessionPlan((SessionBlock(BlockKind.WORK, 30.0),
                        SessionBlock(BlockKind.BREAK, 10.0)))
    assert plan.block_at(5.0).kind is BlockKind.WORK
    assert plan.block_at(35.0).kind is BlockKind.BREAK
    assert plan.block_at(99.0).kind is BlockKind.BREAK


def test_script_rejects_overlap():
    plan = SessionPlan((SessionBlock(BlockKind.WORK, 60.0),))
    script = (
        Episode(5.0, 10.0, EpisodeKind.STRESS, 1.0),
        Episode(12.0, 5.0, EpisodeKind.FATIGUE, 0.5),
    )
    with pytest.raises(ScriptError, match="^episodes overlap at minute 12$"):
        generate_session(0, plan, script, CFG.simulator)
    with pytest.raises(ScriptError, match="overlap"):
        generate_session(0, plan, script[::-1], CFG.simulator)


def test_script_rejects_out_of_bounds():
    plan = SessionPlan((SessionBlock(BlockKind.WORK, 30.0),))
    script = (Episode(25.0, 10.0, EpisodeKind.STRESS, 1.0),)
    with pytest.raises(ScriptError, match="^episode ending at minute 35 exceeds "
                                          "the 30-minute session$"):
        generate_session(0, plan, script, CFG.simulator)


def test_episode_field_validation():
    with pytest.raises(ValueError):
        Episode(0.0, 10.0, EpisodeKind.STRESS, 0.0)
    with pytest.raises(ValueError):
        Episode(0.0, 10.0, EpisodeKind.STRESS, 1.2)
    with pytest.raises(ValueError):
        Episode(-1.0, 10.0, EpisodeKind.STRESS, 0.5)
    with pytest.raises(ValueError, match="start"):
        Episode(float("nan"), 10.0, EpisodeKind.STRESS, 0.5)


# -- generation --------------------------------------------------------------

def test_generation_deterministic():
    plan = SessionPlan((SessionBlock(BlockKind.WORK, 30.0),))
    script = (Episode(5.0, 10.0, EpisodeKind.STRESS, 0.7),)
    a = generate_session(11, plan, script, CFG.simulator)
    b = generate_session(11, plan, script, CFG.simulator)
    assert a == b
    c = generate_session(12, plan, script, CFG.simulator)
    assert a[0] != c[0]


def test_generation_timestamps_strictly_increase():
    (rr, _, _), _ = _session(5, 20.0, [])
    ts = rr.timestamps
    assert len(ts) > 1000
    for prev, nxt in zip(ts, ts[1:]):
        assert nxt > prev


def test_generation_holds_timestamps_in_4_bytes():
    # The longest plan ends below 2**31 ms, so every session's timestamps fit.
    assert MAX_SESSION_MIN * 60000 <= 2**31 - 1
    plan = SessionPlan((SessionBlock(BlockKind.WORK, 30.0),))
    rr, hr, _ = generate_session(3, plan, (), CFG.simulator)
    assert rr.timestamps.format == hr.timestamps.format == "i"


def test_context_follows_plan():
    plan = SessionPlan((SessionBlock(BlockKind.WORK, 30.0),
                        SessionBlock(BlockKind.BREAK, 8.0)))
    _, _, context = generate_session(2, plan, (), CFG.simulator)
    by_ts = {c.timestamp: c for c in context}
    assert by_ts[10 * 60000].session_active
    assert not by_ts[33 * 60000].session_active


def test_null_stimulus_session_stays_quiet():
    _, log = _session(0, 35.0, [])
    assert _releases(log) == []
    calib_ms = round(CFG.ingest.calibration_minutes * 60000)
    assert all(r["t"] > calib_ms for r in log)
    for record in log:
        if record["kind"] == "feature":
            for key in ("z_hr", "z_rmssd", "z_sdnn"):
                assert abs(record[key]) < 1.0


def test_stress_episode_shapes_features():
    _, log = _session(1, 45.0, [(10.0, 25.0, EpisodeKind.STRESS, 1.0)])
    # windows wholly inside the episode plateau
    inside = [r for r in log if r["kind"] == "feature"
              and 12.5 * 60000 <= r["t"] <= 34.5 * 60000]
    assert inside
    for record in inside:
        assert record["z_hr"] > 0
        assert record["z_rmssd"] < 0


def test_generator_soundness_strong_episode_classified():
    for seed in range(5):
        _, log = _session(seed, 30.0, [(8.0, 10.0, EpisodeKind.STRESS, 0.8)])
        states = {r["state"] for r in log
                  if r["kind"] == "interaction_state"}
        assert states - {InteractionState.NEUTRAL.value}


# -- replay behaviors ---------------------------------------------------------

FOREST_CHANNELS = {5, 6, 7}


def test_sustained_stress_triggers_forest_release():
    _, log = _session(1, 45.0, [(10.0, 25.0, EpisodeKind.STRESS, 1.0)])
    persistent = [r for r in _releases(log)
                  if r["cause"] == "elevated_stress_persistent"]
    assert persistent
    for record in persistent:
        assert record["channel"] in FOREST_CHANNELS
        assert record["scent"] in PROFILE_MEMBERS[Profile.FOREST]


def test_two_stress_peaks_one_release():
    _, log = _session(3, 20.0, [(5.0, 3.0, EpisodeKind.STRESS, 1.0),
                                (10.0, 3.0, EpisodeKind.STRESS, 1.0)])
    releases = _releases(log)
    assert len(releases) == 1
    summary = summarize(log, CFG)
    assert summary["suppressions"].get("cooldown", 0) >= 1


def test_release_causality():
    _, log = _session(1, 45.0, [(10.0, 25.0, EpisodeKind.STRESS, 1.0)])
    state_at = {r["t"]: r["state"] for r in log
                if r["kind"] == "interaction_state"}
    for record in _releases(log):
        assert state_at[record["start"]] != InteractionState.NEUTRAL.value


def test_replay_deterministic():
    _, log_a = _session(9, 40.0, [(10.0, 14.0, EpisodeKind.STRESS, 1.0)])
    _, log_b = _session(9, 40.0, [(10.0, 14.0, EpisodeKind.STRESS, 1.0)])
    assert log_a == log_b


def test_replay_records_time_ordered_and_kinds_valid():
    _, log = _session(1, 45.0, [(10.0, 25.0, EpisodeKind.STRESS, 1.0)])
    for prev, nxt in zip(log, log[1:]):
        assert prev["t"] <= nxt["t"]
    kinds = {r["kind"] for r in log}
    assert kinds <= set(RECORD_KINDS)
    assert "decision" not in kinds
    assert {"release", "suppression", "ir_command"} <= kinds


def test_replay_emits_ir_commands_for_each_release():
    _, log = _session(1, 45.0, [(10.0, 25.0, EpisodeKind.STRESS, 1.0)])
    releases = _releases(log)
    ir = [r for r in log if r["kind"] == "ir_command"]
    assert len(ir) == 3 * len(releases)
    by_command = [r["command"] for r in ir]
    assert by_command.count("power") == len(releases)
    assert by_command.count("shutdown") == len(releases)


def test_replay_logs_codes_of_an_overridden_table():
    table = CFG.ir_table.with_overrides({"power": 0x20DF10EF,
                                         "channel_5": 0x20DF50AF})
    config = dataclasses.replace(CFG, ir_table=table)
    _, log = _session(1, 45.0, [(10.0, 25.0, EpisodeKind.STRESS, 1.0)], config)
    ir = [(r["t"], r["command"], r["code"])
          for r in log if r["kind"] == "ir_command"]
    for _, command, code in ir:
        assert command in COMMANDS
        assert code == f"0x{table.code_for(command):08X}"
        assert table.command_for(int(code, 16)) == command
    assert ("power", "0x20DF10EF") in {(c, code) for _, c, code in ir}
    releases = _releases(log)
    assert releases and len(ir) == 3 * len(releases)
    sent = {(t, command) for t, command, _ in ir}
    for release in releases:
        start, end = release["start"], release["end"]
        assert (start, f"channel_{release['channel']}") in sent
        assert (start, "power") in sent
        assert (end, "shutdown") in sent


def test_replay_seed_changes_scent_choice_only_deterministically():
    config_a = dataclasses.replace(CFG, seed=1)
    config_b = dataclasses.replace(CFG, seed=1)
    _, log_a = _session(1, 45.0, [(10.0, 25.0, EpisodeKind.STRESS, 1.0)], config_a)
    _, log_b = _session(1, 45.0, [(10.0, 25.0, EpisodeKind.STRESS, 1.0)], config_b)
    assert log_a == log_b


def test_replay_short_trace_insufficient_calibration():
    from scentctl.ingest import InsufficientDataError

    (rr, hr, context), _ = _session(0, 20.0, [])

    def head(series):
        n = bisect.bisect_left(series.timestamps, 200000)
        return Series(series.timestamps[:n], series.values[:n])

    assert 0 < len(head(rr)) < len(rr)
    with pytest.raises(InsufficientDataError):
        replay(head(rr), head(hr), context, CFG)


def test_replay_without_kept_beats_fails_before_windowing():
    from scentctl.ingest import InsufficientDataError

    (rr, hr, context), _ = _session(0, 20.0, [])
    out_of_range = Series(rr.timestamps, (2500.0,) * len(rr))
    with pytest.raises(InsufficientDataError, match="no RR beat is kept"):
        replay(out_of_range, hr, context, CFG)


_CLEAN_20_MIN = generate_session(
    4, SessionPlan((SessionBlock(BlockKind.WORK, 20.0),)), (), CFG.simulator)


@st.composite
def _ingest_geometries(draw):
    """Window 60-600 s, stride 0.5-600 s, calibration of at most 15 min,
    drawn mostly near the smallest calibration that holds 3 windows."""
    window = draw(st.floats(60, 600))
    stride = draw(st.floats(0.5, min(600, (900 - window) / 2)))
    least = (window + 2 * stride) / 60
    return window, stride, draw(st.floats(max(least - 0.001, 0.001), 15))


@settings(max_examples=30, deadline=None)
@example((180, 90, 6))
@example((60, 0.5, 1.0 + 1 / 60))
@example((600, 150, 15))
@given(_ingest_geometries())
def test_every_accepted_ingest_config_replays(geometry):
    window, stride, minutes = geometry
    try:
        ingest = IngestConfig(window, stride, minutes)
    except ValueError:
        return  # refused configs are checked by validate's tests
    list(replay(*_CLEAN_20_MIN, dataclasses.replace(CFG, ingest=ingest)))


# -- summary -----------------------------------------------------------------

SCENT_ON = {s.channel: s.key for s in CFG.vocabulary}


def _release(start, channel, duration_s=8.0):
    """A release on ``channel`` with its scent and its three IR commands."""
    end = start + round(duration_s * 1000)
    return [{"t": start, "kind": "release", "channel": channel,
             "scent": SCENT_ON[channel], "start": start, "end": end,
             "duration_s": duration_s}] + [
        {"t": t, "kind": "ir_command", "command": command,
         "code": f"0x{CFG.ir_table.code_for(command):08X}"}
        for t, command in ((start, f"channel_{channel}"), (start, "power"),
                           (end, "shutdown"))]


def test_summarize_empty_log():
    summary = summarize([], CFG)
    assert summary["releases"] == 0
    assert summary["per_channel"] == {}
    assert summary["violations"] == 0
    assert summary["state_minutes"] == {}


def test_summarize_counts_channels_and_states():
    _, log = _session(1, 45.0, [(10.0, 25.0, EpisodeKind.STRESS, 1.0)])
    summary = summarize(log, CFG)
    assert summary["releases"] == len(_releases(log))
    assert sum(summary["per_channel"].values()) == summary["releases"]
    assert summary["violations"] == 0
    assert summary["state_minutes"].get("elevated_stress_persistent", 0) > 0
    assert summary["interval_histogram"]  # at least one inter-release gap


def test_summarize_counts_state_minutes_by_the_window_step():
    # stride_s = 60.4996 s rounds to a 60,500 ms window step: each window's
    # state holds for that step, not for 60.4996 s.
    config = dataclasses.replace(CFG, ingest=IngestConfig(stride_s=60.4996))
    _, log = _session(7, 120.0, [(40.0, 30.0, EpisodeKind.STRESS, 1.0)], config)
    windows = Counter(r["state"] for r in log if r["kind"] == "interaction_state")
    assert len(windows) > 1 and sum(windows.values()) > 100
    assert summarize(log, config)["state_minutes"] == {
        state: pytest.approx(count * 60500 / 60000, abs=1e-6)
        for state, count in windows.items()}


def test_summarize_detects_overlap_and_cooldown_violations():
    records = sorted(_release(0, 1) + _release(4000, 2), key=lambda r: r["t"])
    summary = summarize(records, CFG)
    assert summary["violations"] == 2  # overlap plus cooldown breach
    # a negative gap counts in the first bucket, as gaps under 300 s do
    assert summary["interval_histogram"] == {"0-299s": 1}
    short = sorted(_release(0, 1) + _release(60_000, 2), key=lambda r: r["t"])
    assert summarize(short, CFG)["interval_histogram"] == {"0-299s": 1}


# The hard constraints at their boundaries: a burst of exactly
# max_burst_s and releases exactly min_interval_ms apart are allowed, and
# releases that touch end to start breach the cooldown but do not overlap.
_MAX_BURST_S = CFG.scheduler.max_burst_s
_GAP_MS = 8000 + CFG.scheduler.min_interval_ms  # after an 8 s burst at 0


@pytest.mark.parametrize("releases, violations", [
    ([(0, _MAX_BURST_S)], 0),
    ([(0, _MAX_BURST_S + 0.001)], 1),
    ([(0, 8.0), (_GAP_MS, 8.0)], 0),
    ([(0, 8.0), (_GAP_MS - 1, 8.0)], 1),
    ([(0, 8.0), (8000, 8.0)], 1),
], ids=["burst-at-max", "burst-over-max", "gap-at-min", "gap-under-min",
        "touching"])
def test_summarize_constraint_boundaries(releases, violations):
    records = sorted((r for start, duration_s in releases
                      for r in _release(start, 5, duration_s)),
                     key=lambda r: r["t"])
    assert summarize(records, CFG)["violations"] == violations


def test_summarize_per_channel_counts():
    records = []
    for k in range(3):
        records += _release(k * 1_000_000, 5)
    summary = summarize(records, CFG)
    assert summary["per_channel"] == {"5": 3}
    assert summary["violations"] == 0


def test_summarize_rejects_out_of_order_log():
    records = [
        {"t": 5000, "kind": "interaction_state", "state": "neutral"},
        {"t": 1000, "kind": "interaction_state", "state": "neutral"},
    ]
    with pytest.raises(ValueError, match="order"):
        summarize(records, CFG)


def test_summarize_rejects_unknown_kind():
    for kind in ("bogus", "decision"):
        with pytest.raises(ValueError, match="unknown record kind"):
            summarize([{"t": 0, "kind": kind}], CFG)


def test_summarize_names_a_release_lacking_a_field():
    with pytest.raises(ValueError) as info:
        summarize([{"t": 0, "kind": "release", "channel": 1}], CFG)
    assert str(info.value) == (
        "malformed event log: record at t=0 lacks field 'duration_s'")


def test_summarize_names_a_record_lacking_its_time():
    with pytest.raises(ValueError) as info:
        summarize([{"kind": "interaction_state", "state": "neutral"}], CFG)
    assert str(info.value) == (
        "malformed event log: record at t=None lacks field 't'")


def _drop_first(command):
    def mutate(log):
        log.remove(next(r for r in log if r.get("command") == command))
    return mutate


def _wrong_code(log):
    record = next(r for r in log if r["kind"] == "ir_command")
    record["code"] = f"0x{int(record['code'], 16) ^ 1:08X}"


def _wrong_channel(log):
    release = _releases(log)[0]
    release["channel"] = release["channel"] % 8 + 1


def _drop_select(log):
    channel = _releases(log)[0]["channel"]
    _drop_first(f"channel_{channel}")(log)


@pytest.mark.parametrize("mutate, violations", [
    (_drop_first("shutdown"), 1),
    (_drop_first("power"), 1),
    (_drop_select, 1),
    (_wrong_code, 1),
    # not its scent's channel, no select for it, and the old select is stray
    (_wrong_channel, 3),
], ids=["no-shutdown", "no-power", "no-select", "wrong-code", "wrong-channel"])
def test_summarize_audits_commands_and_channels(mutate, violations):
    _, log = _session(1, 45.0, [(10.0, 25.0, EpisodeKind.STRESS, 1.0)])
    assert summarize(log, CFG)["violations"] == 0
    mutate(log)
    assert summarize(log, CFG)["violations"] == violations


def test_summarize_counts_stray_ir_commands():
    power = {"t": 0, "kind": "ir_command", "command": "power",
             "code": f"0x{CFG.ir_table.code_for('power'):08X}"}
    assert summarize([power], CFG)["violations"] == 1
    records = _release(0, 5)
    assert summarize(records, CFG)["violations"] == 0
    shutdown_t = records[-1]["t"]
    late = dict(power, t=shutdown_t + 1000)
    assert summarize(records + [late], CFG)["violations"] == 1


def test_summarize_of_written_log_equals_summarize_of_replay(tmp_path, monkeypatch):
    from scentctl.cli import CONFIG_ENV_VAR, main
    from scentctl.ingest import write_context_csv, write_series_csv

    (rr, hr, context), log = _session(1, 45.0, [(10.0, 25.0, EpisodeKind.STRESS, 1.0)])
    with open(tmp_path / "rr.csv", "w", encoding="utf-8") as out:
        write_series_csv(out, rr, "rr_ms")
    with open(tmp_path / "hr.csv", "w", encoding="utf-8") as out:
        write_series_csv(out, hr, "hr_bpm")
    with open(tmp_path / "context.csv", "w", encoding="utf-8") as out:
        write_context_csv(out, context)
    monkeypatch.delenv(CONFIG_ENV_VAR, raising=False)
    assert main(["replay", "--rr", str(tmp_path / "rr.csv"),
                 "--hr", str(tmp_path / "hr.csv"),
                 "--context", str(tmp_path / "context.csv"),
                 "--out", str(tmp_path / "out")]) == 0
    lines = (tmp_path / "out" / "events.ndjson").read_text(encoding="utf-8")
    stored = [json.loads(line) for line in lines.splitlines()]
    assert stored == log
    summary = summarize(log, CFG)
    assert summary["releases"] > 0
    assert summarize(stored, CFG) == summary
    written = (tmp_path / "out" / "summary.json").read_text(encoding="utf-8")
    assert json.loads(written) == summary


# -- the record stream against the sort-based replay -------------------------
#
# The reference below is a verbatim copy of the `replay` that logged each
# shutdown at its release with a future time and sorted the whole log at
# the end, renamed with a `_ref` prefix. The stream must yield the same
# records in the same order, so the same summary, on every input.

def _ref_replay(rr: Series, hr: Series, context: list, config: "Config") -> list[dict]:
    """Drive traces through the full pipeline and log every stage.

    The first calibration span of windows establishes the individual
    baseline; evaluation (and any actuation) starts after it. Ingestion
    errors propagate.
    """
    rr = reject_artifacts(rr)
    hr = clean_hr(hr)
    ing = config.ingest
    calib_ms = round(ing.calibration_minutes * 60000)
    # Every calibration window ends by calib_ms, so no later beat can
    # calibrate; failing here spares windowing an absolute-time trace.
    if not rr or rr.timestamps[0] >= calib_ms:
        found = (f"the first kept RR beat is at {rr.timestamps[0]} ms" if rr
                 else "no RR beat is kept")
        raise InsufficientDataError(
            f"{found}, but baseline calibration needs beats before "
            f"{calib_ms} ms; timestamps are milliseconds since session start")

    provisional = window_features(
        rr, hr, context, Baseline.provisional(),
        ing.window_len_s, ing.stride_s)
    calibration = [w for w in provisional if w.window_end <= calib_ms]
    baseline = compute_baseline(calibration)
    windows = window_features(
        rr, hr, context, baseline, ing.window_len_s, ing.stride_s)

    est = config.estimator
    sched_cfg = config.scheduler
    horizon_ms = round(sched_cfg.repeat_check_horizon_s * 1000)
    table = config.ir_table
    scents_by_key = {s.key: s for s in config.vocabulary}

    rng = random.Random(config.seed)
    tracker = PersistenceTracker()
    history = SelectionHistory()
    st = SchedulerState()
    smoothed: AVState | None = None
    last_seen: dict[InteractionState, int] = {}
    records: list[dict] = []

    def log(t: int, kind: str, **fields) -> None:
        records.append({"t": t, "kind": kind, **fields})

    def issue(expr, cause: InteractionState, now: int,
              still_holds: bool) -> None:
        reason = suppression_reason(now, st, sched_cfg)
        if reason is not None:
            log(now, "suppression", reason=reason, state=cause.value,
                profile=expr.profile.value)
            return
        scent = scents_by_key[select_scent(expr, history, rng)]
        command = request(expr, scent, now, st, sched_cfg, cause=cause,
                          still_holds=still_holds)
        log(now, "release", channel=command.channel, scent=command.scent,
            duty=command.duty, duration_s=command.duration_s,
            start=command.start, end=command.end, cause=cause.value,
            repeat_due=None if st.pending_repeat is None else st.pending_repeat.due)
        for ts, key in command_sequence_for(command):
            log(ts, "ir_command", command=key,
                code=f"0x{table.code_for(key):08X}")

    for fw in windows:
        if fw.window_end <= calib_ms:
            continue
        now = fw.window_end
        log(now, "feature",
            window_start=fw.window_start,
            rmssd=_round6(fw.rmssd), sdnn=_round6(fw.sdnn),
            mean_hr=_round6(fw.mean_hr),
            z_hr=_round6(fw.z_hr), z_rmssd=_round6(fw.z_rmssd),
            z_sdnn=_round6(fw.z_sdnn),
            work_minutes=_round6(fw.context.work_minutes_continuous),
            session_active=fw.context.session_active,
            activity=fw.context.activity_state.value)

        raw = estimate_av(fw, est)
        smoothed = raw if smoothed is None else smooth_av(smoothed, raw, est.alpha)
        log(now, "av_state", arousal=_round6(smoothed.arousal),
            valence=_round6(smoothed.valence))

        state, tracker = classify(smoothed, fw.context, tracker, est)
        last_seen[state] = now
        log(now, "interaction_state", state=state.value)

        repeat = tick(now, st)
        if repeat is not None:
            seen = last_seen.get(repeat.cause)
            cause_holds = seen is not None and now - seen <= horizon_ms
            fire = cause_holds if repeat.conditional else (
                state is not InteractionState.NEUTRAL)
            if fire:
                issue(repeat.expr, repeat.cause, now, cause_holds)
            else:
                log(now, "suppression", reason=SUPPRESSED_REPEAT_CANCELLED,
                    state=repeat.cause.value, profile=repeat.expr.profile.value)

        expr = expression_for(state)
        if expr is not None:
            issue(expr, state, now, True)

    records.sort(key=lambda r: r["t"])  # stable: in-instant order kept
    return records


def _loop_case(seed, episodes, stride_s, **scheduler):
    """A 55-minute scripted session and a config with that stride and
    scheduler; the seed draws both the beats and the scents."""
    config = dataclasses.replace(
        CFG, scheduler=SchedulerConfig(**scheduler),
        ingest=IngestConfig(stride_s=stride_s), seed=seed)
    plan = SessionPlan((SessionBlock(BlockKind.WORK, 55.0),))
    script = tuple(Episode(*e) for e in episodes)
    return generate_session(seed, plan, script, config.simulator), config


def _bursts(seconds):
    """Every rhythm's burst length set to ``seconds``."""
    return {f"burst_{rhythm.value}_s": seconds for rhythm in Rhythm}


@st.composite
def _loop_cases(draw):
    """Stress, then fatigue, with a config drawn to release, repeat and
    cancel often: stride 1-60 s, bursts from sub-millisecond (end ==
    start) up to max_burst_s, minimum interval 1-600 s, repeat horizon
    0-120 s."""
    max_burst = draw(st.floats(1e-4, 30))
    bursts = {f"burst_{rhythm.value}_s": draw(st.floats(1e-4, max_burst))
              for rhythm in Rhythm}
    episodes = [
        (draw(st.floats(6, 12)), draw(st.floats(3, 15)), EpisodeKind.STRESS,
         draw(st.floats(0.7, 1))),
        (draw(st.floats(31, 35)), draw(st.floats(3, 15)), EpisodeKind.FATIGUE,
         draw(st.floats(0.7, 1)))]
    return _loop_case(
        draw(st.integers(0, 2**16)), episodes, draw(st.floats(1, 60)),
        min_interval_s=draw(st.floats(1, 600)), max_burst_s=max_burst,
        repeat_check_horizon_s=draw(st.floats(0, 120)), **bursts)


# Stress to the end of the session with a 1 s interval releases at about
# every other window, or at every window when a burst is under the stride.
_SUSTAINED = [(8.0, 47.0, EpisodeKind.STRESS, 1.0)]


def _drop(streams, start, end):
    """``streams`` without the RR and HR rows stamped in [start, end)."""
    def keep(series):
        rows = [(t, v) for t, v in zip(series.timestamps, series.values)
                if not start <= t < end]
        return Series([t for t, _ in rows], [v for _, v in rows])
    rr, hr, context = streams
    return keep(rr), keep(hr), context


def _rr_only(seed, minutes=20.0):
    """RR alone, with no HR and no context: beats of 700 ms plus Gaussian
    jitter, none of them at the end of the calibration span."""
    rng = random.Random(seed)
    ts, values, t = [], [], 0.0
    while t < minutes * 60000:
        beat = round(rng.gauss(700.0, 4.0), 3)
        t += beat
        ts.append(round(t))
        values.append(beat)
    assert round(CFG.ingest.calibration_minutes * 60000) not in ts
    return Series(ts, values), Series((), ()), []


@settings(max_examples=25, deadline=None)
@example(_loop_case(1, _SUSTAINED, 30.0, min_interval_s=1.0,  # end on a window end
                    **_bursts(30.0)))
@example(_loop_case(1, _SUSTAINED, 60.0, min_interval_s=1.0,  # end after the last window
                    **_bursts(30.0)))
@example(_loop_case(1, _SUSTAINED, 1.0, min_interval_s=1.0,  # end == start
                    **_bursts(0.0004)))
# Calibration reads the rows before its span's end and the first one after
# it; with no row at that end, only that row lets the window ending there
# exist. RR alone, then a dropout across that end:
@example((_rr_only(3), CFG))
@example((_drop(_loop_case(1, _SUSTAINED, 60.0)[0], 250_000, 400_000), CFG))
# A conditional repeat comes due 50 s after its cause was last seen, 1 ms
# past the repeat horizon.
@example(_loop_case(1, [(8.0, 6.0, EpisodeKind.STRESS, 1.0),
                        (31.0, 10.0, EpisodeKind.FATIGUE, 1.0)], 10.0,
                    min_interval_s=60.0, repeat_check_horizon_s=49.999))
@given(_loop_cases())
def test_replay_stream_matches_sorted_reference(case):
    streams, config = case
    with time_bound(30):
        stream = list(replay(*streams, config))
        expected = _ref_replay(*streams, config)
    assert stream == expected
    assert summarize(stream, config) == summarize(expected, config)


def test_replay_makes_one_session_pass(monkeypatch):
    (rr, hr, context), config = _loop_case(1, _SUSTAINED, 60.0)
    windows = window_features(reject_artifacts(rr), clean_hr(hr), context,
                              Baseline.provisional())
    calib_ms = round(config.ingest.calibration_minutes * 60000)
    calibration = sum(w.window_end <= calib_ms for w in windows)
    calls = []
    kernel = ingest.compute_rmssd
    monkeypatch.setattr(ingest, "compute_rmssd",
                        lambda rr: calls.append(None) or kernel(rr))
    list(replay(rr, hr, context, config))
    assert (len(windows), calibration) == (54, 4)
    assert len(calls) <= len(windows) + calibration


def test_replay_holds_one_window_at_a_time():
    def live_windows():
        gc.collect()
        return sum(isinstance(o, FeatureWindow) for o in gc.get_objects())

    plan = SessionPlan((SessionBlock(BlockKind.WORK, 180.0),))
    streams = generate_session(4, plan, (), CFG.simulator)
    before = live_windows()
    records = replay(*streams, CFG)
    half_hour_in = round(CFG.ingest.calibration_minutes * 60000) + 30 * 60000
    next(r for r in records if r["t"] >= half_hour_in)
    # the window the loop is on, of the session's 179
    assert live_windows() - before == 1


def test_replay_runs_each_hrv_kernel_once_per_window(monkeypatch):
    plan = SessionPlan((SessionBlock(BlockKind.WORK, 60.0),))
    rr, hr, context = generate_session(4, plan, (), CFG.simulator)
    windows = window_features(reject_artifacts(rr), clean_hr(hr), context,
                              Baseline.provisional(), CFG.ingest.window_len_s,
                              CFG.ingest.stride_s)
    calls = Counter()
    for name in ("compute_rmssd", "compute_sdnn"):
        def counted(seg, name=name, kernel=getattr(ingest, name)):
            calls[name] += 1
            return kernel(seg)
        monkeypatch.setattr(ingest, name, counted)
    list(replay(rr, hr, context, CFG))
    # the 4 calibration windows, then the 55 after the span, each measured once
    assert len(windows) == 59
    assert calls == {"compute_rmssd": 59, "compute_sdnn": 59}


# -- calibration inside the one sweep ------------------------------------------
#
# `replay` once swept the session twice: over the rows before the
# calibration span's end (and the first one after it) against a
# provisional baseline, then over the whole streams against the real one.
# That body is kept here verbatim, renamed, as the reference for the one
# sweep at the seam between the span and the windows after it.

def _two_sweep_replay(rr: Series, hr: Series, context: list,
                      config: "Config") -> Iterator[dict]:
    rr = reject_artifacts(rr)
    hr = clean_hr(hr)
    ing = config.ingest
    calib_ms = round(ing.calibration_minutes * 60000)
    # No beat from calib_ms on calibrates: the error names the first kept one.
    if not rr or rr.timestamps[0] >= calib_ms:
        found = (f"the first kept RR beat is at {rr.timestamps[0]} ms" if rr
                 else "no RR beat is kept")
        raise InsufficientDataError(
            f"{found}, but baseline calibration needs beats before "
            f"{calib_ms} ms; timestamps are milliseconds since session start")
    # A stream that starts after the last kept beat shares no time with RR.
    last = rr.timestamps[-1]
    for name, first in (("HR", hr.timestamps[0] if hr else None),
                        ("context", context[0].timestamp if context else None)):
        if first is not None and first > last:
            raise InsufficientDataError(
                f"the {name} stream starts at {first} ms, after the last "
                f"kept RR beat at {last} ms: the streams share no time; "
                f"timestamps are milliseconds since session start")

    def head(series: Series) -> Series:
        # The rows before calib_ms and the first one at or after it: the
        # trace's end decides whether the window ending at calib_ms exists.
        n = bisect.bisect_left(series.timestamps, calib_ms) + 1
        return Series(series.timestamps[:n], series.values[:n])

    calibration = [w for w in window_features(
        head(rr), head(hr), context, Baseline.provisional(),
        ing.window_len_s, ing.stride_s) if w.window_end <= calib_ms]
    baseline = compute_baseline(calibration)
    windows = iter_window_features(
        rr, hr, context, baseline, ing.window_len_s, ing.stride_s)
    return act(sense((w for w in windows if w.window_end > calib_ms), config), config)


def _seam_trace(seed, end, gap=(0, 0), with_hr=True, with_context=True):
    """RR beats of about 800 ms laid back from the last, which falls at
    ``end``; no RR or HR row in the ``gap`` [start, stop); HR each second
    and context each minute up to ``end``, when asked for."""
    rng = random.Random(seed)
    beats, t = [], end
    while t > 0:
        beat = round(rng.gauss(800.0, 4.0), 3)
        beats.append((t, beat))
        t = round(t - beat)
    rr = [(t, v) for t, v in reversed(beats) if not gap[0] <= t < gap[1]]
    hr = [(t, round(75.0 + rng.gauss(0.0, 0.5), 3)) for t in range(0, end + 1, 1000)
          if with_hr and not gap[0] <= t < gap[1]]
    context = [ContextSample(t, rng.random() < 0.8,
                             rng.choice(list(ActivityState)))
               for t in range(0, end + 1, 60_000)] if with_context else []
    return (Series([t for t, _ in rr], [v for _, v in rr]),
            Series([t for t, _ in hr], [v for _, v in hr]), context)


@st.composite
def _seam_cases(draw):
    """A short trace and a config whose windows meet the calibration span's
    end in one of four ways: the trace ends exactly there; the first window
    past it is the session's last; an RR and HR gap over that window skips
    it and up to two window lengths of strides after it; or the trace runs
    on for up to 10 minutes. Each trace may lack HR, context or both."""
    window_s = draw(st.sampled_from([60.0, 90.0, 120.0]))
    stride_s = draw(st.sampled_from([0.5, 7.5, 30.0, 60.0]))
    window_ms, stride_ms = round(window_s * 1000), round(stride_s * 1000)
    least = window_ms + 2 * stride_ms
    calib_ms = draw(st.integers(least, least + 4 * stride_ms))
    # the end of the first window that ends past the span
    seam_end = window_ms + (calib_ms - window_ms) // stride_ms * stride_ms + stride_ms
    shape = draw(st.sampled_from(["at span end", "seam is last", "gap", "runs on"]))
    gap = (0, 0)
    if shape == "at span end":
        end = calib_ms
    elif shape == "seam is last":
        end = draw(st.integers(seam_end, seam_end + stride_ms - 1))
    elif shape == "gap":
        start = draw(st.integers(calib_ms - window_ms, seam_end - window_ms))
        gap = (start, seam_end + draw(st.integers(0, 2 * window_ms)))
        end = gap[1] + draw(st.integers(0, 300_000))
    else:
        end = calib_ms + draw(st.integers(0, 600_000))
    trace = _seam_trace(draw(st.integers(0, 2**16)), end, gap,
                        draw(st.booleans()), draw(st.booleans()))
    ingest = IngestConfig(window_s, stride_s, calib_ms / 60000)
    return trace, dataclasses.replace(CFG, ingest=ingest)


def _outcome(run, streams, config):
    """Every record ``run`` gives, or the type and text of its error."""
    try:
        return list(run(*streams, config))
    except ValueError as error:
        return type(error), str(error)


_SPAN_MS = round(CFG.ingest.calibration_minutes * 60000)


@settings(max_examples=60, deadline=None)
# With the default geometry: the trace ends at the span's end, with and
# without HR and context; the first window past the span (360 s) is the
# last; a gap of RR and HR from 240 s to 420 s skips the windows ending at
# 360 s and 420 s; and neither HR nor context on a trace that runs on.
@example((_seam_trace(1, _SPAN_MS), CFG))
@example((_seam_trace(1, _SPAN_MS, with_hr=False, with_context=False), CFG))
@example((_seam_trace(2, 360_000 + 59_999), CFG))
@example((_seam_trace(3, 900_000, gap=(240_000, 420_000)), CFG))
@example((_seam_trace(4, 900_000, with_hr=False, with_context=False), CFG))
# Too few windows before the span's end: the same error either way.
@example((_seam_trace(5, 900_000, gap=(0, 250_000)), CFG))
@given(_seam_cases())
def test_one_sweep_replay_matches_two_sweep_reference(case):
    streams, config = case
    with time_bound(10):
        assert _outcome(replay, streams, config) == _outcome(
            _two_sweep_replay, streams, config)


# -- causality ----------------------------------------------------------------
#
# The loop runs live, so the records stamped up to T may depend only on
# the rows stamped up to T: cutting all three streams at T gives a prefix
# of the full run's records. The one allowed difference is a release's
# shutdown that the cut run still holds when its input ends; it emits it
# last, and the full run emits it later, once a window reaches its time.

def _cut(streams, t):
    """The rows of ``streams`` stamped at or before ``t``."""
    def head(series):
        n = bisect.bisect_right(series.timestamps, t)
        return Series(series.timestamps[:n], series.values[:n])
    rr, hr, context = streams
    return head(rr), head(hr), [row for row in context if row.timestamp <= t]


@st.composite
def _cut_cases(draw):
    """A `_loop_cases` session and a cut time anywhere in it. Sometimes
    the session starts late: its first RR/HR row after 0 but inside
    calibration, and its context stream later still. Sometimes it has an
    RR and HR dropout of up to 10 minutes after calibration."""
    streams, config = draw(_loop_cases())
    end = streams[0].timestamps[-1]
    calib_ms = round(config.ingest.calibration_minutes * 60000)
    if draw(st.booleans()):
        first = draw(st.integers(1, calib_ms - 1))
        context_first = draw(st.integers(first + 1, end))
        rr, hr, context = _drop(streams, 0, first)
        streams = rr, hr, [row for row in context if row.timestamp >= context_first]
    if draw(st.booleans()):
        start = draw(st.integers(calib_ms, end))
        streams = _drop(streams, start, start + draw(st.integers(0, 600_000)))
    return streams, config, draw(st.integers(0, end))


def _late_start(case, first):
    """``case`` with its RR and HR rows before ``first`` dropped."""
    streams, config = case
    return _drop(streams, 0, first), config


def _at_first_shutdown(case):
    """``case`` with the cut at the shutdown of its first release."""
    streams, config = case
    records = replay(*streams, config)
    return streams, config, next(r["end"] for r in records if r["kind"] == "release")


# Bursts of 30 s at a 10 s stride: the cut at 625 s ends inside the
# release of 610-640 s, so the cut run ends holding its shutdown.
@settings(max_examples=25, deadline=None)
@example((*_loop_case(1, _SUSTAINED, 10.0, min_interval_s=1.0, **_bursts(30.0)),
          625_000))
# Inside calibration: two windows cannot calibrate; three can, and the
# run then ends before its first evaluated window.
@example((*_loop_case(1, _SUSTAINED, 60.0), 239_999))
@example((*_loop_case(1, _SUSTAINED, 60.0), 299_999))
# The shutdown timings of `test_replay_stream_matches_sorted_reference`,
# cut at the first shutdown: on a window end, after the last window, and
# at its release's own start.
@example(_at_first_shutdown(_loop_case(1, _SUSTAINED, 30.0, min_interval_s=1.0,
                                       **_bursts(30.0))))
@example(_at_first_shutdown(_loop_case(1, _SUSTAINED, 60.0, min_interval_s=1.0,
                                       **_bursts(30.0))))
@example(_at_first_shutdown(_loop_case(1, _SUSTAINED, 1.0, min_interval_s=1.0,
                                       **_bursts(0.0004))))
# A late start at 200 s under a 60 s stride leaves two calibration
# windows (ending at 240 s and 300 s): neither the run nor its cut
# calibrates.
@example((*_late_start(_loop_case(1, _SUSTAINED, 60.0), 200_000), 1_000_000))
@given(_cut_cases())
def test_replay_is_causal(case):
    streams, config, t = case
    ing = config.ingest
    third_window_end = round(ing.window_len_s * 1000) + 2 * round(ing.stride_s * 1000)
    calib_ms = round(ing.calibration_minutes * 60000)
    with time_bound(30):
        try:
            full = list(replay(*streams, config))
        except InsufficientDataError:
            # a late start may leave fewer than 3 calibration windows:
            # then no cut of it can calibrate either
            with pytest.raises(InsufficientDataError):
                list(replay(*_cut(streams, t), config))
            return
        try:
            cut = list(replay(*_cut(streams, t), config))
        except InsufficientDataError:
            # only a cut that ends inside calibration may fail to calibrate
            rr, hr, _ = _cut(streams, t)
            assert max((s.timestamps[-1] for s in (rr, hr) if s), default=-1) < calib_ms
            return
    assert t >= third_window_end  # fewer than 3 windows cannot calibrate
    if cut != full[:len(cut)]:
        held = cut.pop()
        assert (held["kind"], held["command"]) == ("ir_command", "shutdown")
        assert cut == full[:len(cut)]
        assert held in full[len(cut) + 1:]


# -- actuation from the logged states -----------------------------------------
#
# After `classify`, the loop's actuation half is a function of the state
# sequence: `act` reads a log's `interaction_state` records alone. So it
# can be checked on every state sequence of a small scope (the small-scope
# hypothesis: Jackson, *Software Abstractions*, MIT Press 2006).

def _states(sequence):
    """`interaction_state` records for ``sequence``, 10 s apart from 0."""
    return [dict(t=i * 10_000, kind="interaction_state", state=state.value)
            for i, state in enumerate(sequence)]


def _witnesses(log):
    """What the exhaustive scope must reach somewhere: the suppression
    reasons of ``log``, "repeat" when a repeat fires, and "held" when a
    shutdown comes after a state later than its release."""
    seen = set()
    due = released = state_t = None
    for r in log:
        if r["kind"] == "interaction_state":
            state_t = r["t"]
        elif r["kind"] == "suppression":
            seen.add(r["reason"])
            if r["reason"] == SUPPRESSED_REPEAT_CANCELLED:
                due = None
        elif r["kind"] == "release":
            # cooldown holds every release until the armed repeat is due,
            # and the first release then, unless cancelled, is the repeat
            if due is not None and r["t"] >= due:
                seen.add("repeat")
            due, released = r["repeat_due"], r["t"]
        elif r["command"] == "shutdown" and state_t > released:
            seen.add("held")
    return seen


# A 20 s interval, not 30 s: at 30 s the repeat of a 12 s
# repeated-low-frequency burst released at 0 comes due at 42 s, after the
# fifth state (40 s), so only repeat-if-needed repeats would fire. That
# 12 s burst outlasts the 10 s step, so its shutdown is held across a state.
@pytest.mark.parametrize("horizon_s", [20.0, 0.0])
def test_act_on_every_state_sequence_of_length_5(horizon_s):
    config = dataclasses.replace(
        CFG, ingest=IngestConfig(stride_s=10.0),
        scheduler=SchedulerConfig(min_interval_s=20.0,
                                  repeat_check_horizon_s=horizon_s))
    seen = set()
    with time_bound(10):
        for sequence in itertools.product(InteractionState, repeat=5):
            states = _states(sequence)
            log = list(act(states, config))
            assert summarize(log, config)["violations"] == 0, sequence
            assert [r for r in log if r["kind"] == "interaction_state"] == states
            seen |= _witnesses(log)
    assert seen == {SUPPRESSED_COOLDOWN, SUPPRESSED_CHANNEL_ACTIVE,
                    SUPPRESSED_REPEAT_CANCELLED, "repeat", "held"}


def test_act_refuses_a_state_earlier_than_the_one_before():
    states = _states([InteractionState.NEUTRAL] * 2)[::-1]
    with pytest.raises(TimeRegressionError, match="^tick at 0 ms after clock reached 10000 ms$"):
        list(act(states, CFG))


def test_act_refuses_an_unknown_state():
    with pytest.raises(ValueError, match="'calm' is not a valid InteractionState"):
        list(act([dict(t=0, kind="interaction_state", state="calm")], CFG))
