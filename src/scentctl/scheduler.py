"""Constraint-enforcing release scheduling.

Scent expressions become timestamped release commands only when the hard
actuation constraints allow it: a single active channel at any instant,
an end-anchored minimum interval between releases (boundary inclusive),
and bounded burst durations. Suppressed requests are dropped rather than
queued; the only queued follow-ups are rhythm-driven repeats.

Repeat mechanics: a scheduled release whose rhythm repeats arms one
pending repeat due at the release end plus the minimum interval. `tick`
advances the clock and returns the repeat once it is due; the control
loop then decides whether it fires (a repeated-low-frequency repeat
fires at any non-neutral instant, a repeat-if-needed one only while its
causing state still holds) and re-arms via `expand_rhythm` only while
the cause persists, so repeat chains terminate once the state clears.

SchedulerState is single-writer, owned by the control loop: `request`,
`expand_rhythm` and `tick` update it in place and return only their
result. Decisions and commands are immutable values.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping

from .estimator import InteractionState
from .scents import Intensity, Rhythm, Scent, ScentExpression

DEFAULT_MIN_INTERVAL_S = 900.0
DEFAULT_MAX_BURST_S = 30.0

DEFAULT_DUTY_MAP: Mapping[Intensity, float] = MappingProxyType({
    Intensity.LOW: 0.30,
    Intensity.LOW_MEDIUM: 0.45,
    Intensity.MEDIUM: 0.60,
    Intensity.MEDIUM_HIGH: 0.80,
})

DEFAULT_BURST_DURATION_S: Mapping[Rhythm, float] = MappingProxyType({
    Rhythm.SINGLE_BRIEF: 8.0,
    Rhythm.REPEATED_LOW_FREQUENCY: 12.0,
    Rhythm.BRIEF_REPEAT_IF_NEEDED: 8.0,
})

SUPPRESSED_COOLDOWN = "cooldown"
SUPPRESSED_CHANNEL_ACTIVE = "channel_active"


class TimeRegressionError(ValueError):
    """The scheduler clock was driven backwards."""


@dataclass(frozen=True)
class SchedulerConfig:
    min_interval_s: float = DEFAULT_MIN_INTERVAL_S
    max_burst_s: float = DEFAULT_MAX_BURST_S
    # Factories return the shared read-only proxies: dataclasses reject
    # unhashable plain defaults (Python >= 3.11).
    duty_map: Mapping[Intensity, float] = field(
        default_factory=lambda: DEFAULT_DUTY_MAP)
    burst_duration_s: Mapping[Rhythm, float] = field(
        default_factory=lambda: DEFAULT_BURST_DURATION_S)
    # How stale the causing state may be when a conditional repeat comes
    # due; 0 means it must hold at the due instant itself.
    repeat_check_horizon_s: float = 0.0

    def __post_init__(self) -> None:
        if not self.min_interval_s > 0:
            raise ValueError("min_interval_s must be positive")
        if not 0 < self.max_burst_s <= 30:
            raise ValueError("max_burst_s must be in (0, 30] s")
        for level in Intensity:
            duty = self.duty_map.get(level)
            if duty is None or not 0 < duty <= 1:
                raise ValueError(f"duty for {level.value} must be in (0, 1]")
        for rhythm in Rhythm:
            dur = self.burst_duration_s.get(rhythm)
            if dur is None or not 0 < dur <= self.max_burst_s:
                raise ValueError(
                    f"burst duration for {rhythm.value} must be in (0, max_burst_s]")
        if self.repeat_check_horizon_s < 0:
            raise ValueError("repeat_check_horizon_s must be non-negative")

    @property
    def min_interval_ms(self) -> int:
        return round(self.min_interval_s * 1000)


@dataclass(frozen=True, slots=True)
class ReleaseCommand:
    start: int            # ms
    channel: int
    duty: float
    duration_s: float
    cause: InteractionState
    scent: str

    @property
    def end(self) -> int:
        return self.start + round(self.duration_s * 1000)


@dataclass(frozen=True, slots=True)
class PendingRepeat:
    expr: ScentExpression
    cause: InteractionState
    due: int              # ms
    conditional: bool     # True for repeat-if-needed rhythms


@dataclass(slots=True)
class SchedulerState:
    last_release_end: int | None = None
    pending_repeat: PendingRepeat | None = None
    clock: int = 0


@dataclass(frozen=True, slots=True)
class Decision:
    """Outcome of a release request; suppression is normal, not an error."""

    command: ReleaseCommand | None
    reason: str | None = None

    @property
    def scheduled(self) -> bool:
        return self.command is not None


def suppression_reason(now: int, st: SchedulerState,
                       cfg: SchedulerConfig) -> str | None:
    """Why a request at ``now`` would be suppressed, or None if admissible.

    Releases never overlap, so the latest one is the only one that can
    still be active at or after the scheduler clock.
    """
    if st.last_release_end is None:
        return None
    if now < st.last_release_end:
        return SUPPRESSED_CHANNEL_ACTIVE
    if now - st.last_release_end < cfg.min_interval_ms:
        return SUPPRESSED_COOLDOWN
    return None


def request(
    expr: ScentExpression,
    scent: Scent,
    now: int,
    st: SchedulerState,
    cfg: SchedulerConfig,
    *,
    cause: InteractionState,
) -> Decision:
    """Request a release at ``now``; schedule it if the constraints allow.

    On success the command's duty comes from the intensity map and its
    duration from the rhythm map, and the state's last release end is
    updated. The interval boundary is inclusive: a request exactly
    min_interval after the previous release end is scheduled.
    """
    reason = suppression_reason(now, st, cfg)
    if reason is not None:
        return Decision(None, reason)
    duration_s = cfg.burst_duration_s[expr.rhythm]
    command = ReleaseCommand(
        start=now,
        channel=scent.channel,
        duty=cfg.duty_map[expr.intensity],
        duration_s=duration_s,
        cause=cause,
        scent=scent.key,
    )
    st.last_release_end = command.end
    return Decision(command)


def expand_rhythm(
    expr: ScentExpression,
    state_still_holds: bool,
    st: SchedulerState,
    cfg: SchedulerConfig,
    *,
    cause: InteractionState,
) -> PendingRepeat | None:
    """Arm the rhythm-driven follow-up for a just-scheduled release.

    Single-brief rhythms never repeat. The repeating rhythms enqueue one
    pending repeat due at the release end plus the minimum interval;
    nothing is armed when the causing state no longer holds, which is
    what terminates repeat chains after the state clears.
    """
    if st.last_release_end is None:
        raise ValueError("expand_rhythm called before any release was scheduled")
    if expr.rhythm is Rhythm.SINGLE_BRIEF or not state_still_holds:
        return None
    st.pending_repeat = PendingRepeat(
        expr=expr,
        cause=cause,
        due=st.last_release_end + cfg.min_interval_ms,
        conditional=expr.rhythm is Rhythm.BRIEF_REPEAT_IF_NEEDED,
    )
    return st.pending_repeat


def tick(now: int, st: SchedulerState) -> PendingRepeat | None:
    """Advance the scheduler clock; return and clear a due pending repeat.

    ``now`` must never move backwards across calls.
    """
    if now < st.clock:
        raise TimeRegressionError(
            f"tick at {now} ms after clock reached {st.clock} ms")
    st.clock = now
    repeat = st.pending_repeat
    if repeat is None or repeat.due > now:
        return None
    st.pending_repeat = None
    return repeat
