"""Session generation, full-pipeline replay, and log auditing."""

from __future__ import annotations

import bisect
import dataclasses
import random

import pytest

from scentctl.config import default_config
from scentctl.estimator import InteractionState
from scentctl.ingest import Series
from scentctl.scents import PROFILE_MEMBERS, Profile
from scentctl.simulate import (
    BREAK_BLOCK_MAX,
    BREAK_BLOCK_MIN,
    MAX_SESSION_MIN,
    WORK_BLOCK_MAX,
    WORK_BLOCK_MIN,
    BlockKind,
    Episode,
    EpisodeKind,
    EpisodeScript,
    EventLog,
    EventLogRecord,
    ScriptError,
    SessionBlock,
    SessionPlan,
    default_plan,
    generate_session,
    replay,
    summarize,
)

CFG = default_config()


def _session(seed, work_min, episodes, config=CFG):
    plan = SessionPlan((SessionBlock(BlockKind.WORK, work_min),))
    script = EpisodeScript(tuple(Episode(*e) for e in episodes))
    traces = generate_session(seed, plan, script, config.simulator)
    return traces, replay(traces, config)


def _releases(log):
    return [r for r in log.records if r.kind == "release"]


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
    script = EpisodeScript((
        Episode(5.0, 10.0, EpisodeKind.STRESS, 1.0),
        Episode(12.0, 5.0, EpisodeKind.FATIGUE, 0.5),
    ))
    with pytest.raises(ScriptError, match="overlap"):
        script.validate(plan)


def test_script_rejects_out_of_bounds():
    plan = SessionPlan((SessionBlock(BlockKind.WORK, 30.0),))
    script = EpisodeScript((Episode(25.0, 10.0, EpisodeKind.STRESS, 1.0),))
    with pytest.raises(ScriptError, match="exceeds"):
        script.validate(plan)
    with pytest.raises(ScriptError):
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
    script = EpisodeScript((Episode(5.0, 10.0, EpisodeKind.STRESS, 0.7),))
    a = generate_session(11, plan, script, CFG.simulator)
    b = generate_session(11, plan, script, CFG.simulator)
    assert a.rr == b.rr and a.hr == b.hr and a.context == b.context
    c = generate_session(12, plan, script, CFG.simulator)
    assert a.rr != c.rr


def test_generation_timestamps_strictly_increase():
    traces, _ = _session(5, 20.0, [])
    ts = traces.rr.timestamps
    assert len(ts) > 1000
    for prev, nxt in zip(ts, ts[1:]):
        assert nxt > prev


def test_context_follows_plan():
    plan = SessionPlan((SessionBlock(BlockKind.WORK, 30.0),
                        SessionBlock(BlockKind.BREAK, 8.0)))
    traces = generate_session(2, plan, EpisodeScript(), CFG.simulator)
    by_ts = {c.timestamp: c for c in traces.context}
    assert by_ts[10 * 60000].session_active
    assert not by_ts[33 * 60000].session_active


def test_null_stimulus_session_stays_quiet():
    traces, log = _session(0, 35.0, [])
    assert _releases(log) == []
    calib_ms = round(CFG.ingest.calibration_minutes * 60000)
    assert all(r.timestamp > calib_ms for r in log.records)
    for record in log.records:
        if record.kind == "feature":
            for key in ("z_hr", "z_rmssd", "z_sdnn"):
                assert abs(record.payload[key]) < 1.0


def test_stress_episode_shapes_features():
    _, log = _session(1, 45.0, [(10.0, 25.0, EpisodeKind.STRESS, 1.0)])
    # windows wholly inside the episode plateau
    inside = [r for r in log.records if r.kind == "feature"
              and 12.5 * 60000 <= r.timestamp <= 34.5 * 60000]
    assert inside
    for record in inside:
        assert record.payload["z_hr"] > 0
        assert record.payload["z_rmssd"] < 0


def test_generator_soundness_strong_episode_classified():
    for seed in range(5):
        _, log = _session(seed, 30.0, [(8.0, 10.0, EpisodeKind.STRESS, 0.8)])
        states = {r.payload["state"] for r in log.records
                  if r.kind == "interaction_state"}
        assert states - {InteractionState.NEUTRAL.value}


# -- replay behaviors ---------------------------------------------------------

FOREST_CHANNELS = {5, 6, 7}


def test_sustained_stress_triggers_forest_release():
    _, log = _session(1, 45.0, [(10.0, 25.0, EpisodeKind.STRESS, 1.0)])
    persistent = [r for r in _releases(log)
                  if r.payload["cause"] == "elevated_stress_persistent"]
    assert persistent
    for record in persistent:
        assert record.payload["channel"] in FOREST_CHANNELS
        assert record.payload["scent"] in PROFILE_MEMBERS[Profile.FOREST]


def test_two_stress_peaks_one_release():
    _, log = _session(3, 20.0, [(5.0, 3.0, EpisodeKind.STRESS, 1.0),
                                (10.0, 3.0, EpisodeKind.STRESS, 1.0)])
    releases = _releases(log)
    assert len(releases) == 1
    summary = summarize(log)
    assert summary.suppressions.get("cooldown", 0) >= 1


def test_release_causality():
    _, log = _session(1, 45.0, [(10.0, 25.0, EpisodeKind.STRESS, 1.0)])
    state_at = {r.timestamp: r.payload["state"] for r in log.records
                if r.kind == "interaction_state"}
    for record in _releases(log):
        assert state_at[record.payload["start"]] != InteractionState.NEUTRAL.value


def test_replay_deterministic():
    _, log_a = _session(9, 40.0, [(10.0, 14.0, EpisodeKind.STRESS, 1.0)])
    _, log_b = _session(9, 40.0, [(10.0, 14.0, EpisodeKind.STRESS, 1.0)])
    assert log_a.records == log_b.records


def test_replay_records_time_ordered_and_kinds_valid():
    _, log = _session(1, 45.0, [(10.0, 25.0, EpisodeKind.STRESS, 1.0)])
    for prev, nxt in zip(log.records, log.records[1:]):
        assert prev.timestamp <= nxt.timestamp


def test_replay_emits_ir_commands_for_each_release():
    _, log = _session(1, 45.0, [(10.0, 25.0, EpisodeKind.STRESS, 1.0)])
    releases = _releases(log)
    ir = [r for r in log.records if r.kind == "ir_command"]
    assert len(ir) == 3 * len(releases)
    by_command = [r.payload["command"] for r in ir]
    assert by_command.count("power") == len(releases)
    assert by_command.count("shutdown") == len(releases)


def test_replay_seed_changes_scent_choice_only_deterministically():
    config_a = dataclasses.replace(CFG, seed=1)
    config_b = dataclasses.replace(CFG, seed=1)
    _, log_a = _session(1, 45.0, [(10.0, 25.0, EpisodeKind.STRESS, 1.0)], config_a)
    _, log_b = _session(1, 45.0, [(10.0, 25.0, EpisodeKind.STRESS, 1.0)], config_b)
    assert log_a.records == log_b.records


def test_replay_short_trace_insufficient_calibration():
    from scentctl.ingest import InsufficientDataError

    traces, _ = _session(0, 20.0, [])

    def head(series):
        n = bisect.bisect_left(series.timestamps, 200000)
        return Series(series.timestamps[:n], series.values[:n])

    truncated = dataclasses.replace(traces, rr=head(traces.rr), hr=head(traces.hr))
    assert 0 < len(truncated.rr) < len(traces.rr)
    with pytest.raises(InsufficientDataError):
        replay(truncated, CFG)


# -- summary -----------------------------------------------------------------

def test_summarize_empty_log():
    summary = summarize(EventLog([], CFG.scheduler, 60.0))
    assert summary.releases == 0
    assert summary.per_channel == {}
    assert summary.violations == 0
    assert summary.state_minutes == {}


def test_summarize_counts_channels_and_states():
    _, log = _session(1, 45.0, [(10.0, 25.0, EpisodeKind.STRESS, 1.0)])
    summary = summarize(log)
    assert summary.releases == len(_releases(log))
    assert sum(summary.per_channel.values()) == summary.releases
    assert summary.violations == 0
    assert summary.state_minutes.get("elevated_stress_persistent", 0) > 0
    assert summary.interval_histogram  # at least one inter-release gap


def test_summarize_detects_overlap_and_cooldown_violations():
    records = [
        EventLogRecord(0, "decision", {"outcome": "scheduled"}),
        EventLogRecord(0, "release",
                       {"channel": 1, "start": 0, "end": 8000,
                        "duration_s": 8.0}),
        EventLogRecord(4000, "decision", {"outcome": "scheduled"}),
        EventLogRecord(4000, "release",
                       {"channel": 2, "start": 4000, "end": 12000,
                        "duration_s": 8.0}),
    ]
    summary = summarize(EventLog(records, CFG.scheduler, 60.0))
    assert summary.violations == 2  # overlap plus cooldown breach


def test_summarize_per_channel_counts():
    records = []
    for k in range(3):
        start = k * 1_000_000
        records.append(EventLogRecord(start, "decision", {"outcome": "scheduled"}))
        records.append(EventLogRecord(start, "release",
                                      {"channel": 5, "start": start,
                                       "end": start + 8000, "duration_s": 8.0}))
    summary = summarize(EventLog(records, CFG.scheduler, 60.0))
    assert summary.per_channel == {5: 3}
    assert summary.violations == 0


def test_summarize_rejects_out_of_order_log():
    records = [
        EventLogRecord(5000, "interaction_state", {"state": "neutral"}),
        EventLogRecord(1000, "interaction_state", {"state": "neutral"}),
    ]
    with pytest.raises(ValueError, match="order"):
        summarize(EventLog(records, CFG.scheduler, 60.0))


def test_summarize_rejects_release_without_decision():
    records = [
        EventLogRecord(0, "release",
                       {"channel": 1, "start": 0, "end": 8000,
                        "duration_s": 8.0}),
    ]
    with pytest.raises(ValueError, match="decision"):
        summarize(EventLog(records, CFG.scheduler, 60.0))


def test_event_record_rejects_unknown_kind():
    with pytest.raises(ValueError):
        EventLogRecord(0, "bogus", {})
