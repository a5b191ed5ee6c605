"""Arousal–valence estimation, temporal smoothing, and zone classification.

The continuous estimate is a fixed linear-plus-clamp map over the
baseline-normalized features: raised heart rate with suppressed
beat-to-beat variability reads as high arousal and negative valence,
while a depressed heart rate reads as low arousal. The map is
deliberately simple and isolated behind `estimate_av` so a learned model
can replace it without touching the zone rules downstream.

Classification discretizes the smoothed coordinate into six interaction
states using rectangular zone thresholds plus persistence and recovery
timing. Only the stress zone has timing, so the state carried across
evaluations is when the current stress run began and when the last one
ended; the other rules re-test their thresholds on each point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from enum import Enum

from .ingest import ContextFlags, FeatureWindow


class EstimationError(ValueError):
    """The feature vector could not be projected (non-finite input)."""


@dataclass(frozen=True, slots=True)
class EstimatorConfig:
    """Weights, smoothing, and zone geometry for state estimation."""

    a1: float = 0.5   # arousal weight on z_hr
    a2: float = 0.5   # arousal weight on -z_rmssd
    v1: float = 0.4   # valence weight on z_rmssd
    v2: float = 0.2   # valence weight on z_sdnn
    v3: float = 0.4   # valence penalty on positive z_hr
    alpha: float = 0.4
    theta_a: float = 0.5
    theta_v: float = 0.3
    theta_mild: float = 0.15
    persistence_threshold_s: float = 300.0
    recovery_window_s: float = 600.0
    low_alertness_work_minutes: float = 30.0

    def __post_init__(self) -> None:
        for f in fields(self):
            if not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite")
        for name in ("a1", "a2", "v1", "v2", "v3"):
            if not getattr(self, name) > 0:
                raise ValueError(f"estimator weight {name} must be positive")
        if not 0 < self.alpha <= 1:
            raise ValueError("alpha must be in (0, 1]")
        for name in ("theta_a", "theta_v", "theta_mild"):
            if not 0 < getattr(self, name) < 1:
                raise ValueError(f"{name} must be in (0, 1)")
        if not self.theta_mild < self.theta_v:
            raise ValueError("theta_mild must be below theta_v")
        for name in ("persistence_threshold_s", "recovery_window_s",
                     "low_alertness_work_minutes"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")


@dataclass(frozen=True, slots=True)
class AVState:
    """A point in the arousal–valence plane at one instant."""

    arousal: float
    valence: float
    timestamp: int

    def __post_init__(self) -> None:
        if not (math.isfinite(self.arousal) and math.isfinite(self.valence)):
            raise ValueError("arousal/valence must be finite")
        if not (-1 <= self.arousal <= 1 and -1 <= self.valence <= 1):
            raise ValueError("arousal/valence must lie in [-1, 1]")


class InteractionState(str, Enum):
    ELEVATED_STRESS_PERSISTENT = "elevated_stress_persistent"
    ELEVATED_STRESS_SHORT = "elevated_stress_short"
    RECOVERY = "recovery"
    LOW_ALERTNESS = "low_alertness"
    MILD_IMBALANCE = "mild_imbalance"
    NEUTRAL = "neutral"


@dataclass(slots=True)
class PersistenceTracker:
    """Stress-zone timing; single-writer, owned by the control loop.

    ``stress_since`` is the instant the current stress run began (None
    outside the stress zone); ``last_stress_exit_at`` is the instant the
    latest run ended.
    """

    stress_since: int | None = None
    last_stress_exit_at: int | None = None


def _clamp(x: float) -> float:
    return max(-1.0, min(1.0, x))


def estimate_av(fw: FeatureWindow, cfg: EstimatorConfig = EstimatorConfig()) -> AVState:
    """Project one feature window onto the arousal–valence plane."""
    z_hr, z_rmssd, z_sdnn = fw.z_hr, fw.z_rmssd, fw.z_sdnn  # each derived once
    if not all(math.isfinite(z) for z in (z_hr, z_rmssd, z_sdnn)):
        raise EstimationError("non-finite feature values")
    arousal = _clamp(cfg.a1 * z_hr - cfg.a2 * z_rmssd)
    valence = _clamp(cfg.v1 * z_rmssd + cfg.v2 * z_sdnn
                     - cfg.v3 * max(0.0, z_hr))
    return AVState(arousal, valence, fw.window_end)


def smooth_av(prev: AVState, new: AVState, alpha: float) -> AVState:
    """One exponential-moving-average step toward ``new``.

    alpha = 1 passes the new value through exactly; equal inputs are an
    exact fixed point.
    """
    if not 0 < alpha <= 1:
        raise ValueError("alpha must be in (0, 1]")
    if alpha == 1.0:
        return AVState(new.arousal, new.valence, new.timestamp)
    return AVState(
        prev.arousal + alpha * (new.arousal - prev.arousal),
        prev.valence + alpha * (new.valence - prev.valence),
        new.timestamp,
    )


def classify(
    av: AVState,
    context: ContextFlags,
    tracker: PersistenceTracker,
    cfg: EstimatorConfig = EstimatorConfig(),
) -> tuple[InteractionState, PersistenceTracker]:
    """Discretize a smoothed coordinate into exactly one interaction state.

    Rules fire in priority order: stress (persistence-split) beats low
    alertness, which beats recovery, which beats mild imbalance. The
    tracker is updated in place and returned for convenience.
    """
    now = av.timestamp
    if av.arousal >= cfg.theta_a and av.valence <= -cfg.theta_v:
        if tracker.stress_since is None:
            tracker.stress_since = now
        in_zone_s = (now - tracker.stress_since) / 1000.0
        if in_zone_s >= cfg.persistence_threshold_s:
            return InteractionState.ELEVATED_STRESS_PERSISTENT, tracker
        return InteractionState.ELEVATED_STRESS_SHORT, tracker
    if tracker.stress_since is not None:
        tracker.last_stress_exit_at = now
        tracker.stress_since = None

    if (av.arousal <= -cfg.theta_a
            and context.work_minutes_continuous >= cfg.low_alertness_work_minutes):
        return InteractionState.LOW_ALERTNESS, tracker

    if (tracker.last_stress_exit_at is not None
            and (now - tracker.last_stress_exit_at) / 1000.0 <= cfg.recovery_window_s):
        return InteractionState.RECOVERY, tracker

    if av.valence <= -cfg.theta_mild:
        return InteractionState.MILD_IMBALANCE, tracker

    return InteractionState.NEUTRAL, tracker
