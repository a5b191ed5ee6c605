"""Constraint-enforcing release scheduling.

Scent expressions become timestamped release commands only when the hard
actuation constraints allow it: a single active channel at any instant,
an end-anchored minimum interval between releases (boundary inclusive),
and bounded burst durations. Suppressed requests are dropped rather than
queued; the only queued follow-ups are rhythm-driven repeats.
`suppression_reason` is the one source of why a request is refused;
`request` applies it itself, so no caller can bypass the constraints.

`SchedulerConfig` is the `[scheduler]` config section, one field per
key: the duty of an intensity is `duty_<intensity>`, the burst length
of a rhythm `burst_<rhythm>_s`, and building a config checks that every
`Intensity` and `Rhythm` member has its field in range.

Repeat mechanics: `request` arms the repeat of the release it admits.
A repeating rhythm whose causing state still holds leaves one pending
repeat due at the release end plus the minimum interval; any other
admitted release leaves none. `tick` advances the clock and returns the
repeat once it is due; the loop's `simulate.act` then decides whether it
fires (a repeated-low-frequency repeat fires at any non-neutral instant, a
repeat-if-needed one only while its causing state still holds) and
requests it again, so repeat chains terminate once the state clears.

SchedulerState is single-writer, owned by the control loop: `request`
and `tick` update it in place and return only their result. Commands
are immutable values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .estimator import InteractionState
from .scents import Intensity, Rhythm, Scent, ScentExpression

DEFAULT_MIN_INTERVAL_S = 900.0
DEFAULT_MAX_BURST_S = 30.0

SUPPRESSED_COOLDOWN = "cooldown"
SUPPRESSED_CHANNEL_ACTIVE = "channel_active"


class TimeRegressionError(ValueError):
    """The scheduler clock was driven backwards."""


@dataclass(frozen=True, slots=True)
class SchedulerConfig:
    min_interval_s: float = DEFAULT_MIN_INTERVAL_S
    max_burst_s: float = DEFAULT_MAX_BURST_S
    duty_low: float = 0.30
    duty_low_medium: float = 0.45
    duty_medium: float = 0.60
    duty_medium_high: float = 0.80
    burst_single_brief_s: float = 8.0
    burst_repeated_low_frequency_s: float = 12.0
    burst_brief_repeat_if_needed_s: float = 8.0
    # How stale the causing state may be when a conditional repeat comes
    # due; 0 means it must hold at the due instant itself.
    repeat_check_horizon_s: float = 0.0

    def __post_init__(self) -> None:
        for name in ("min_interval_s", "repeat_check_horizon_s"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if not self.min_interval_s > 0:
            raise ValueError("min_interval_s must be positive")
        if not 0 < self.max_burst_s <= 30:
            raise ValueError("max_burst_s must be in (0, 30] s")
        for level in Intensity:
            duty = getattr(self, f"duty_{level.value}", None)
            if duty is None or not 0 < duty <= 1:
                raise ValueError(f"duty for {level.value} must be in (0, 1]")
        for rhythm in Rhythm:
            dur = getattr(self, f"burst_{rhythm.value}_s", None)
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
    still_holds: bool,
) -> ReleaseCommand | None:
    """Request a release at ``now``; schedule it if the constraints allow.

    Returns None, leaving the state untouched, when `suppression_reason`
    refuses it. On success the command's duty is the config's
    `duty_<intensity>` and its duration its `burst_<rhythm>_s`, the last
    release end is updated, and the pending repeat is armed for a
    repeating rhythm whose cause ``still_holds``, else cleared. The interval boundary is
    inclusive: a request exactly min_interval after the previous release
    end is scheduled.
    """
    if suppression_reason(now, st, cfg) is not None:
        return None
    command = ReleaseCommand(
        start=now,
        channel=scent.channel,
        duty=getattr(cfg, f"duty_{expr.intensity.value}"),
        duration_s=getattr(cfg, f"burst_{expr.rhythm.value}_s"),
        scent=scent.key,
    )
    st.last_release_end = command.end
    repeats = still_holds and expr.rhythm is not Rhythm.SINGLE_BRIEF
    st.pending_repeat = PendingRepeat(
        expr=expr,
        cause=cause,
        due=command.end + cfg.min_interval_ms,
        conditional=expr.rhythm is Rhythm.BRIEF_REPEAT_IF_NEEDED,
    ) if repeats else None
    return command


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
