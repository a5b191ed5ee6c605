"""Synthetic session generation, full-pipeline replay, and log auditing.

`generate_session` produces seeded RR/HR/context traces shaped by a
work-rest plan and a script of stress/fatigue episodes: stress lowers
the mean inter-beat interval and shrinks beat-to-beat variability in
proportion to episode magnitude, fatigue mildly raises the mean. The
model is the simplest one that exercises every interaction state; it
makes no claim of physiological realism.

`replay` drives traces through the whole pipeline (features, estimation,
smoothing, classification, expression, scheduling, device commands) as a
single-threaded event loop evaluating once per window stride, and emits
a time-ordered event log. `summarize` audits a log against the actuation
constraints and aggregates it for operators.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING

from .estimator import (
    AVState,
    InteractionState,
    PersistenceTracker,
    classify,
    estimate_av,
    smooth_av,
)
from .ingest import (
    ActivityState,
    Baseline,
    ContextSample,
    Series,
    clean_hr,
    compute_baseline,
    reject_artifacts,
    window_features,
)
from .irproto import command_sequence_for
from .scents import SelectionHistory, expression_for, select_scent
from .scheduler import (
    SchedulerConfig,
    SchedulerState,
    expand_rhythm,
    request,
    suppression_reason,
    tick,
)

if TYPE_CHECKING:  # pragma: no cover
    from .config import Config

# Work-rest bounds used by the default plan generator, minutes.
WORK_BLOCK_MIN = 30.0
WORK_BLOCK_MAX = 45.0
BREAK_BLOCK_MIN = 5.0
BREAK_BLOCK_MAX = 10.0
# Longest session a plan may cover: 7 days, the longest one benchmarked.
MAX_SESSION_MIN = 7 * 24 * 60

# Episode effects ramp in and out over this many minutes so the RR
# stream never jumps hard enough to look like an artifact.
EPISODE_RAMP_MIN = 0.5

RECORD_KINDS = ("feature", "av_state", "interaction_state", "decision",
                "release", "suppression", "ir_command")

SUPPRESSED_REPEAT_CANCELLED = "repeat_cancelled"


class ScriptError(ValueError):
    """A session plan or an episode script fails validation."""


class BlockKind(str, Enum):
    WORK = "work"
    BREAK = "break"


@dataclass(frozen=True, slots=True)
class SessionBlock:
    kind: BlockKind
    minutes: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.minutes) and self.minutes > 0):
            raise ValueError("block duration must be positive and finite")


@dataclass(frozen=True, slots=True)
class SessionPlan:
    blocks: tuple[SessionBlock, ...]

    def __post_init__(self) -> None:
        if not self.blocks:
            raise ValueError("plan needs at least one block")
        if self.total_minutes > MAX_SESSION_MIN:
            raise ScriptError(f"plan of {self.total_minutes:g} min exceeds the "
                              f"{MAX_SESSION_MIN:g}-minute limit")

    @property
    def total_minutes(self) -> float:
        return sum(b.minutes for b in self.blocks)

    def block_at(self, minute: float) -> SessionBlock:
        elapsed = 0.0
        for block in self.blocks:
            elapsed += block.minutes
            if minute < elapsed:
                return block
        return self.blocks[-1]


class EpisodeKind(str, Enum):
    STRESS = "stress"
    FATIGUE = "fatigue"


@dataclass(frozen=True, slots=True)
class Episode:
    start_min: float
    duration_min: float
    kind: EpisodeKind
    magnitude: float

    def __post_init__(self) -> None:
        if not self.start_min >= 0:
            raise ValueError("episode start must be non-negative")
        if not self.duration_min > 0:
            raise ValueError("episode duration must be positive")
        if not 0 < self.magnitude <= 1:
            raise ValueError("episode magnitude must be in (0, 1]")

    @property
    def end_min(self) -> float:
        return self.start_min + self.duration_min


@dataclass(frozen=True, slots=True)
class EpisodeScript:
    episodes: tuple[Episode, ...] = ()

    def validate(self, plan: SessionPlan) -> None:
        ordered = sorted(self.episodes, key=lambda e: e.start_min)
        for prev, nxt in zip(ordered, ordered[1:]):
            if nxt.start_min < prev.end_min:
                raise ScriptError(
                    f"episodes overlap at minute {nxt.start_min:g}")
        for ep in ordered:
            if ep.end_min > plan.total_minutes:
                raise ScriptError(
                    f"episode ending at minute {ep.end_min:g} exceeds the "
                    f"{plan.total_minutes:g}-minute session")


@dataclass(frozen=True, slots=True)
class SimulatorConfig:
    """Shape of the synthetic RR/HR streams."""

    rr_mean_ms: float = 800.0
    # Kept small so estimator noise in a resting trace stays well below
    # the mild-imbalance threshold after baseline normalization.
    rr_jitter_ms: float = 4.0
    stress_rr_drop: float = 0.20      # fractional RR-mean drop at magnitude 1
    stress_jitter_drop: float = 0.85  # fractional jitter shrink at magnitude 1
    fatigue_rr_gain: float = 0.10     # fractional RR-mean rise at magnitude 1
    fatigue_jitter_gain: float = 0.10
    hr_noise_bpm: float = 0.5
    hr_cadence_s: float = 1.0
    context_cadence_s: float = 60.0

    def __post_init__(self) -> None:
        if not self.rr_mean_ms > 0 or not self.rr_jitter_ms > 0:
            raise ValueError("rr_mean_ms and rr_jitter_ms must be positive")
        for name in ("stress_rr_drop", "stress_jitter_drop",
                     "fatigue_rr_gain", "fatigue_jitter_gain"):
            if not 0 <= getattr(self, name) < 1:
                raise ValueError(f"{name} must be in [0, 1)")
        if self.hr_noise_bpm < 0:
            raise ValueError("hr_noise_bpm must be non-negative")
        if self.hr_cadence_s <= 0 or self.context_cadence_s <= 0:
            raise ValueError("cadences must be positive")


@dataclass(slots=True)
class Traces:
    rr: Series
    hr: Series
    context: list[ContextSample]


def default_plan(rng: random.Random, total_minutes: float = 120.0) -> SessionPlan:
    """Alternating work/break blocks drawn from the ergonomic bounds.

    Blocks are appended until the requested total is covered, so the plan
    may overrun the total by up to one block. The total must be positive
    and at most `MAX_SESSION_MIN`; a last block that would cross
    `MAX_SESSION_MIN` is cut to end exactly there, and only that block
    may fall short of its bounds.
    """
    if not 0 < total_minutes <= MAX_SESSION_MIN:
        raise ScriptError(f"session length must be positive and at most "
                          f"{MAX_SESSION_MIN:g} min, got {total_minutes:g} min")
    blocks: list[SessionBlock] = []
    elapsed = 0.0
    working = True
    while elapsed < total_minutes:
        if working:
            kind, low, high = BlockKind.WORK, WORK_BLOCK_MIN, WORK_BLOCK_MAX
        else:
            kind, low, high = BlockKind.BREAK, BREAK_BLOCK_MIN, BREAK_BLOCK_MAX
        # The cut binds only within one block of the limit, where the
        # difference is exact (Sterbenz), so the plan sums to the limit.
        minutes = min(rng.uniform(low, high), MAX_SESSION_MIN - elapsed)
        blocks.append(SessionBlock(kind, minutes))
        elapsed += minutes
        working = not working
    return SessionPlan(tuple(blocks))


def _episode_effect(minute: float, script: EpisodeScript,
                    sim: SimulatorConfig) -> tuple[float, float]:
    """(rr mean, rr jitter) at a session minute, with ramped episode shaping."""
    for ep in script.episodes:
        if ep.start_min <= minute < ep.end_min:
            ramp = min((minute - ep.start_min) / EPISODE_RAMP_MIN,
                       (ep.end_min - minute) / EPISODE_RAMP_MIN, 1.0)
            effect = ep.magnitude * max(ramp, 0.0)
            if ep.kind is EpisodeKind.STRESS:
                return (sim.rr_mean_ms * (1 - sim.stress_rr_drop * effect),
                        sim.rr_jitter_ms * (1 - sim.stress_jitter_drop * effect))
            return (sim.rr_mean_ms * (1 + sim.fatigue_rr_gain * effect),
                    sim.rr_jitter_ms * (1 + sim.fatigue_jitter_gain * effect))
    return sim.rr_mean_ms, sim.rr_jitter_ms


def generate_session(
    seed: int,
    plan: SessionPlan,
    script: EpisodeScript,
    sim: SimulatorConfig = SimulatorConfig(),
) -> Traces:
    """Generate seeded RR/HR/context traces for one session.

    Identical (seed, plan, script, sim) always yields identical traces.
    """
    script.validate(plan)
    rng = random.Random(seed)
    total_ms = round(plan.total_minutes * 60000)

    rr_ts: list[int] = []
    rr_v: list[float] = []
    t = 0.0
    while True:
        mean, jitter = _episode_effect(t / 60000.0, script, sim)
        beat = rng.gauss(mean, jitter)
        beat = min(max(beat, 320.0), 1900.0)
        t += beat
        if t > total_ms:
            break
        rr_ts.append(int(round(t)))
        rr_v.append(round(beat, 3))

    hr_ts = range(0, total_ms + 1, round(sim.hr_cadence_s * 1000))
    hr_v = [round(60000.0 / _episode_effect(ts / 60000.0, script, sim)[0]
                  + rng.gauss(0.0, sim.hr_noise_bpm), 3) for ts in hr_ts]

    context: list[ContextSample] = []
    ctx_ms = round(sim.context_cadence_s * 1000)
    for ts in range(0, total_ms + 1, ctx_ms):
        block = plan.block_at(ts / 60000.0)
        working = block.kind is BlockKind.WORK
        context.append(ContextSample(
            ts, working,
            ActivityState.SEDENTARY if working else ActivityState.ACTIVE))

    return Traces(Series(tuple(rr_ts), tuple(rr_v)),
                  Series(tuple(hr_ts), tuple(hr_v)), context)


@dataclass(frozen=True, slots=True)
class EventLogRecord:
    timestamp: int
    kind: str
    payload: dict

    def __post_init__(self) -> None:
        if self.kind not in RECORD_KINDS:
            raise ValueError(f"unknown record kind {self.kind!r}")


@dataclass(slots=True)
class EventLog:
    records: list[EventLogRecord]
    scheduler_cfg: SchedulerConfig
    stride_s: float


def _round6(x: float) -> float:
    return round(x, 6)


def replay(traces: Traces, config: "Config") -> EventLog:
    """Drive traces through the full pipeline and log every stage.

    The first calibration span of windows establishes the individual
    baseline; evaluation (and any actuation) starts after it. Ingestion
    errors propagate.
    """
    rr = reject_artifacts(traces.rr)
    hr = clean_hr(traces.hr)
    ing = config.ingest
    calib_ms = round(ing.calibration_minutes * 60000)

    provisional = window_features(
        rr, hr, traces.context, Baseline.provisional(),
        ing.window_len_s, ing.stride_s)
    calibration = [w for w in provisional if w.window_end <= calib_ms]
    baseline = compute_baseline(calibration)
    windows = window_features(
        rr, hr, traces.context, baseline, ing.window_len_s, ing.stride_s)

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
    records: list[EventLogRecord] = []

    def log(t: int, kind: str, **payload) -> None:
        records.append(EventLogRecord(t, kind, payload))

    def issue(expr, cause: InteractionState, now: int,
              still_holds: bool) -> None:
        reason = suppression_reason(now, st, sched_cfg)
        if reason is not None:
            log(now, "decision", outcome="suppressed", reason=reason,
                state=cause.value, profile=expr.profile.value)
            log(now, "suppression", reason=reason, state=cause.value,
                profile=expr.profile.value)
            return
        scent = scents_by_key[select_scent(expr, history, rng)]
        command = request(expr, scent, now, st, sched_cfg, cause=cause).command
        pending = expand_rhythm(expr, still_holds, st, sched_cfg, cause=cause)
        log(now, "decision", outcome="scheduled", state=cause.value,
            profile=expr.profile.value, intensity=expr.intensity.value,
            rhythm=expr.rhythm.value)
        log(now, "release", channel=command.channel, scent=command.scent,
            duty=command.duty, duration_s=command.duration_s,
            start=command.start, end=command.end, cause=cause.value,
            repeat_due=pending.due if pending is not None else None)
        for ts, device_cmd in command_sequence_for(command):
            log(ts, "ir_command", command=device_cmd.key,
                code=f"0x{table.code_for(device_cmd):08X}")

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

    records.sort(key=lambda r: r.timestamp)  # stable: in-instant order kept
    return EventLog(records, sched_cfg, ing.stride_s)


@dataclass(slots=True)
class SessionSummary:
    releases: int = 0
    per_channel: dict[int, int] = field(default_factory=dict)
    suppressions: dict[str, int] = field(default_factory=dict)
    interval_histogram: dict[str, int] = field(default_factory=dict)
    violations: int = 0
    state_minutes: dict[str, float] = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "releases": self.releases,
            "per_channel": {str(k): v for k, v in sorted(self.per_channel.items())},
            "suppressions": dict(sorted(self.suppressions.items())),
            "interval_histogram": dict(sorted(
                self.interval_histogram.items(),
                key=lambda kv: int(kv[0].split("-")[0]))),
            "violations": self.violations,
            "state_minutes": dict(sorted(self.state_minutes.items())),
        }


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValueError(f"malformed event log: {message}")


def summarize(log: EventLog) -> SessionSummary:
    """Aggregate a log and count actuation-constraint violations.

    Violations cover overlapping releases, end-to-start gaps below the
    minimum interval, and over-long bursts; a well-formed replay log
    always scores zero. Raises ValueError on a malformed log.
    """
    summary = SessionSummary()
    prev_ts: int | None = None
    releases: list[dict] = []
    decision_ts: set[int] = set()

    for record in log.records:
        _require(prev_ts is None or record.timestamp >= prev_ts,
                 f"records out of order at t={record.timestamp}")
        prev_ts = record.timestamp
        if record.kind == "decision":
            decision_ts.add(record.timestamp)
        elif record.kind == "release":
            _require(record.timestamp in decision_ts,
                     f"release at t={record.timestamp} lacks a decision record")
            releases.append(record.payload)
            channel = record.payload["channel"]
            summary.per_channel[channel] = summary.per_channel.get(channel, 0) + 1
        elif record.kind == "suppression":
            reason = record.payload["reason"]
            summary.suppressions[reason] = summary.suppressions.get(reason, 0) + 1
        elif record.kind == "interaction_state":
            state = record.payload["state"]
            summary.state_minutes[state] = (
                summary.state_minutes.get(state, 0.0) + log.stride_s / 60.0)

    summary.releases = len(releases)
    min_interval_ms = log.scheduler_cfg.min_interval_ms
    for prev, nxt in zip(releases, releases[1:]):
        if nxt["start"] < prev["end"]:
            summary.violations += 1  # overlap
        gap_ms = nxt["start"] - prev["end"]
        if gap_ms < min_interval_ms:
            summary.violations += 1  # cooldown breach
        bucket = max(int(gap_ms / 1000.0 // 300) * 300, 0)
        key = f"{bucket}-{bucket + 299}s"
        summary.interval_histogram[key] = (
            summary.interval_histogram.get(key, 0) + 1)
    for release in releases:
        if release["duration_s"] > log.scheduler_cfg.max_burst_s:
            summary.violations += 1

    summary.state_minutes = {
        k: round(v, 6) for k, v in summary.state_minutes.items()}
    return summary
