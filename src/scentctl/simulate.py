"""Synthetic session generation, full-pipeline replay, and log auditing.

`generate_session` produces seeded RR/HR/context traces shaped by a
work-rest plan and a script of stress/fatigue episodes: stress lowers
the mean inter-beat interval and shrinks beat-to-beat variability in
proportion to episode magnitude, fatigue mildly raises the mean. The
model is the simplest one that exercises every interaction state; it
makes no claim of physiological realism.

`replay` calibrates on traces, then yields the whole pipeline's event log
in time order, each record as the loop makes it: `sense` yields each
window's `feature`, `av_state` and `interaction_state` records, and `act`
adds the releases, suppressions and IR commands that follow from the
`interaction_state` records alone. A record is one `events.ndjson` line
(`t` in ms, `kind`, kind fields). `summarize` folds such a log into its
`summary.json` object: operator aggregates and an audit against the
constraints and config.
"""

from __future__ import annotations

import math
import random
from array import array
from collections import Counter
from dataclasses import dataclass, fields
from enum import Enum
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

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
    FeatureWindow,
    InsufficientDataError,
    Series,
    clean_hr,
    compute_baseline,
    iter_window_features,
    reject_artifacts,
)
from .irproto import command_sequence_for
from .scents import SelectionHistory, expression_for, select_scent
from .scheduler import SchedulerState, request, suppression_reason, tick

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

RECORD_KINDS = ("feature", "av_state", "interaction_state", "release",
                "suppression", "ir_command")

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
        for f in fields(self):
            if not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite")
        if not self.rr_mean_ms > 0 or not self.rr_jitter_ms > 0:
            raise ValueError("rr_mean_ms and rr_jitter_ms must be positive")
        for name in ("stress_rr_drop", "stress_jitter_drop",
                     "fatigue_rr_gain", "fatigue_jitter_gain"):
            if not 0 <= getattr(self, name) < 1:
                raise ValueError(f"{name} must be in [0, 1)")
        if self.hr_noise_bpm < 0:
            raise ValueError("hr_noise_bpm must be non-negative")
        # generate_session steps its HR and context rows in whole milliseconds
        for name in ("hr_cadence_s", "context_cadence_s"):
            if round(getattr(self, name) * 1000) < 1:
                raise ValueError(f"{name} must round to at least 1 ms")


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


def _episode_effect(minute: float, script: tuple[Episode, ...],
                    sim: SimulatorConfig) -> tuple[float, float]:
    """(rr mean, rr jitter) at a session minute, with ramped episode shaping."""
    for ep in script:
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
    script: tuple[Episode, ...],
    sim: SimulatorConfig = SimulatorConfig(),
) -> tuple[Series, Series, list[ContextSample]]:
    """Generate seeded (RR, HR, context) streams for one session.

    Identical (seed, plan, script, sim) always yields identical streams.
    Raises ScriptError when two episodes overlap or one outlasts the plan.
    """
    ordered = sorted(script, key=lambda e: e.start_min)
    for prev, nxt in zip(ordered, ordered[1:]):
        if nxt.start_min < prev.end_min:
            raise ScriptError(f"episodes overlap at minute {nxt.start_min:g}")
    for ep in ordered:
        if ep.end_min > plan.total_minutes:
            raise ScriptError(
                f"episode ending at minute {ep.end_min:g} exceeds the "
                f"{plan.total_minutes:g}-minute session")
    rng = random.Random(seed)
    total_ms = round(plan.total_minutes * 60000)

    # A plan lasts at most MAX_SESSION_MIN, so every timestamp fits 4 bytes.
    rr_ts, rr_v = array("i"), array("d")
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
    hr_v = array("d", (round(60000.0 / _episode_effect(ts / 60000.0, script, sim)[0]
                             + rng.gauss(0.0, sim.hr_noise_bpm), 3) for ts in hr_ts))

    context: list[ContextSample] = []
    ctx_ms = round(sim.context_cadence_s * 1000)
    for ts in range(0, total_ms + 1, ctx_ms):
        block = plan.block_at(ts / 60000.0)
        working = block.kind is BlockKind.WORK
        context.append(ContextSample(
            ts, working,
            ActivityState.SEDENTARY if working else ActivityState.ACTIVE))

    # Series copies any column that is not a read-only view: hand it views.
    rr = Series(memoryview(rr_ts).toreadonly(), memoryview(rr_v).toreadonly())
    return rr, Series(hr_ts, memoryview(hr_v).toreadonly()), context


def _round6(x: float) -> float:
    return round(x, 6)


def replay(rr: Series, hr: Series, context: Sequence[ContextSample],
           config: "Config") -> Iterator[dict]:
    """Calibrate on the streams, then return the stream of their records.

    One sweep measures each window once. Filtering, and the sweep up to
    the first window that ends past the calibration span, run before this
    returns: the windows inside the span give the baseline, so input and
    calibration errors raise here. So does an HR or context stream that
    starts after the last kept RR beat: it shares no time with RR. The rest
    runs as the records are consumed: each later window is read against the
    baseline, and its records are yielded in time order, one window held at
    a time. The filtered streams replace ``rr`` and ``hr``, so a caller that
    keeps no reference to the raw ones lets them be freed.
    """
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

    windows = iter_window_features(rr, hr, context, Baseline.provisional(),
                                   ing.window_len_s, ing.stride_s)
    calibration = []
    for window in windows:
        if window.window_end > calib_ms:
            break
        calibration.append(window)
    baseline = compute_baseline(calibration)  # raises when no window is drawn
    if window.window_end > calib_ms:  # the sweep stopped past the span:
        windows.send(baseline)  # that window comes again, read against it
    return act(sense(windows, config), config)


def sense(windows: Iterable[FeatureWindow], config: "Config") -> Iterator[dict]:
    """Yield each window's `feature`, `av_state` and `interaction_state` records."""
    est = config.estimator
    tracker = PersistenceTracker()
    smoothed: AVState | None = None
    for fw in windows:
        now = fw.window_end
        yield dict(t=now, kind="feature", window_start=fw.window_start,
                   rmssd=_round6(fw.rmssd), sdnn=_round6(fw.sdnn),
                   mean_hr=_round6(fw.mean_hr),
                   z_hr=_round6(fw.z_hr), z_rmssd=_round6(fw.z_rmssd),
                   z_sdnn=_round6(fw.z_sdnn),
                   work_minutes=_round6(fw.context.work_minutes_continuous),
                   session_active=fw.context.session_active,
                   activity=fw.context.activity_state.value)

        raw = estimate_av(fw, est)
        smoothed = raw if smoothed is None else smooth_av(smoothed, raw, est.alpha)
        yield dict(t=now, kind="av_state", arousal=_round6(smoothed.arousal),
                   valence=_round6(smoothed.valence))

        state, tracker = classify(smoothed, fw.context, tracker, est)
        yield dict(t=now, kind="interaction_state", state=state.value)


def act(records: Iterable[dict], config: "Config") -> Iterator[dict]:
    """Pass a time-ordered log through, adding the actuation its states imply.

    After each `interaction_state` record come that instant's suppressions,
    releases and IR commands, read from each record's `t`, `kind` and
    `state` alone. A shutdown waits in `held` until the first later record
    at or past its time, or the log's end; releases never overlap.
    """
    sched_cfg = config.scheduler
    horizon_ms = round(sched_cfg.repeat_check_horizon_s * 1000)
    table = config.ir_table
    scents_by_key = {s.key: s for s in config.vocabulary}
    rng = random.Random(config.seed)
    history = SelectionHistory()
    st = SchedulerState()
    last_seen: dict[InteractionState, int] = {}
    held: dict | None = None

    for record in records:
        now = record["t"]
        if held is not None and held["t"] <= now:
            yield held
            held = None
        yield record
        if record["kind"] != "interaction_state":
            continue
        state = InteractionState(record["state"])
        last_seen[state] = now
        # the due repeat, then the state's own expression
        requests = []
        repeat = tick(now, st)
        if repeat is not None:
            seen = last_seen.get(repeat.cause)
            cause_holds = seen is not None and now - seen <= horizon_ms
            fire = cause_holds if repeat.conditional else (
                state is not InteractionState.NEUTRAL)
            if fire:
                requests.append((repeat.expr, repeat.cause, cause_holds))
            else:
                yield dict(t=now, kind="suppression", reason=SUPPRESSED_REPEAT_CANCELLED,
                           state=repeat.cause.value, profile=repeat.expr.profile.value)
        expr = expression_for(state)
        if expr is not None:
            requests.append((expr, state, True))

        for expr, cause, still_holds in requests:
            reason = suppression_reason(now, st, sched_cfg)
            if reason is not None:
                yield dict(t=now, kind="suppression", reason=reason,
                           state=cause.value, profile=expr.profile.value)
                continue
            scent = scents_by_key[select_scent(expr, history, rng)]
            command = request(expr, scent, now, st, sched_cfg, cause=cause,
                              still_holds=still_holds)
            due = None if st.pending_repeat is None else st.pending_repeat.due
            yield dict(t=now, kind="release", channel=command.channel,
                       scent=command.scent, duty=command.duty,
                       duration_s=command.duration_s, start=command.start,
                       end=command.end, cause=cause.value, repeat_due=due)
            for ts, key in command_sequence_for(command):
                ir = dict(t=ts, kind="ir_command", command=key,
                          code=f"0x{table.code_for(key):08X}")
                if ts > now:
                    held = ir
                else:
                    yield ir

    if held is not None:
        yield held


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValueError(f"malformed event log: {message}")


def summarize(records: Iterable[dict], config: "Config") -> dict:
    """Audit a log in one pass and return its `summary.json` object.

    Each of these counts one violation: overlapping releases, an
    end-to-start gap below the minimum interval, an over-long burst, a
    release on a channel other than its scent's, a release missing its
    channel select or power command at its start or its shutdown at its
    end (each command follows its release in the log), an `ir_command`
    that no release awaits at its time, and an `ir_command` whose code
    is not its command's configured word. A log that `replay` produced
    always scores zero. Raises ValueError on a malformed log: records
    out of time order, of an unknown kind or lacking a field the audit
    reads.
    """
    min_interval_ms = config.scheduler.min_interval_ms
    state_min = round(config.ingest.stride_s * 1000) / 60000  # window step, min
    channel_of = {s.key: s.channel for s in config.vocabulary}
    codes = config.ir_table.codes
    releases = violations = 0
    per_channel: Counter[str] = Counter()
    suppressions: Counter[str] = Counter()
    histogram: Counter[str] = Counter()
    state_minutes: Counter[str] = Counter()
    awaited: Counter[tuple[int, str]] = Counter()  # (t, command) not yet seen
    prev_t: int | None = None
    prev: dict | None = None

    for record in records:
        try:
            t, kind = record["t"], record["kind"]
            _require(kind in RECORD_KINDS, f"unknown record kind {kind!r} at t={t}")
            _require(prev_t is None or t >= prev_t, f"records out of order at t={t}")
            prev_t = t
            if kind == "release":
                channel = record["channel"]
                releases += 1
                per_channel[str(channel)] += 1
                if record["duration_s"] > config.scheduler.max_burst_s:
                    violations += 1  # over-long burst
                if channel_of.get(record["scent"]) != channel:
                    violations += 1  # not its scent's channel
                awaited.update([(record["start"], f"channel_{channel}"),
                                (record["start"], "power"),
                                (record["end"], "shutdown")])
                if prev is not None:
                    if record["start"] < prev["end"]:
                        violations += 1  # overlap
                    gap_ms = record["start"] - prev["end"]
                    if gap_ms < min_interval_ms:
                        violations += 1  # cooldown breach
                    bucket = max(int(gap_ms / 1000.0 // 300) * 300, 0)
                    histogram[f"{bucket}-{bucket + 299}s"] += 1
                prev = record
            elif kind == "ir_command":
                command = record["command"]
                if awaited[t, command] > 0:
                    awaited[t, command] -= 1
                else:
                    violations += 1  # stray: actuates outside any release
                word = codes.get(command)
                if word is None or record["code"] != f"0x{word:08X}":
                    violations += 1  # not the configured word
            elif kind == "suppression":
                suppressions[record["reason"]] += 1
            elif kind == "interaction_state":
                state_minutes[record["state"]] += state_min
        except KeyError as missing:
            _require(False, f"record at t={record.get('t')} lacks field {missing}")

    return {
        "releases": releases,
        "per_channel": dict(per_channel),
        "suppressions": dict(suppressions),
        "interval_histogram": dict(histogram),
        "violations": violations + sum(awaited.values()),  # commands never sent
        "state_minutes": {k: round(v, 6) for k, v in state_minutes.items()},
    }
