"""Arousal-valence estimation, smoothing, and classification rules."""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import pytest
from hypothesis import example, given, settings, strategies as st

from scentctl.estimator import (
    AVState,
    EstimationError,
    EstimatorConfig,
    InteractionState,
    PersistenceTracker,
    classify,
    estimate_av,
    smooth_av,
)
from scentctl.ingest import Baseline, ContextFlags, FeatureWindow

CFG = EstimatorConfig()


def _fw(z_hr=0.0, z_rmssd=0.0, z_sdnn=0.0, end=60000, work_minutes=0.0):
    # Against the unit baseline, a window's z-values are its raw values - 1.
    return FeatureWindow(
        window_start=end - 120000, window_end=end,
        rmssd=1 + z_rmssd, sdnn=1 + z_sdnn, mean_hr=1 + z_hr,
        baseline=Baseline.provisional(),
        context=ContextFlags(work_minutes_continuous=work_minutes))


def _av(arousal, valence, t=0):
    return AVState(arousal, valence, t)


# -- estimation -------------------------------------------------------------

def test_estimate_zero_features_is_origin():
    av = estimate_av(_fw(), CFG)
    assert av.arousal == 0.0 and av.valence == 0.0
    assert av.timestamp == 60000


def test_estimate_stress_pattern_clamps():
    av = estimate_av(_fw(z_hr=2.0, z_rmssd=-2.0, z_sdnn=0.0), CFG)
    assert av.arousal == 1.0
    assert av.valence == -1.0


def test_estimate_low_arousal_pattern():
    av = estimate_av(_fw(z_hr=-1.5), CFG)
    assert av.arousal == pytest.approx(-0.75)
    assert av.valence == pytest.approx(0.0)


def test_estimate_rejects_non_finite():
    with pytest.raises(EstimationError):
        estimate_av(_fw(z_hr=float("nan")), CFG)
    with pytest.raises(EstimationError):
        estimate_av(_fw(z_rmssd=float("inf")), CFG)


@given(st.floats(-50, 50), st.floats(-50, 50), st.floats(-50, 50))
def test_estimate_always_bounded(z_hr, z_rmssd, z_sdnn):
    av = estimate_av(_fw(z_hr=z_hr, z_rmssd=z_rmssd, z_sdnn=z_sdnn), CFG)
    assert -1 <= av.arousal <= 1
    assert -1 <= av.valence <= 1
    assert math.isfinite(av.arousal) and math.isfinite(av.valence)


def test_avstate_validates_bounds():
    with pytest.raises(ValueError):
        AVState(1.5, 0.0, 0)
    with pytest.raises(ValueError):
        AVState(0.0, float("nan"), 0)


# -- smoothing --------------------------------------------------------------

def test_smooth_alpha_one_passes_through():
    out = smooth_av(_av(0.2, -0.4), _av(0.9, 0.1, 1000), alpha=1.0)
    assert (out.arousal, out.valence, out.timestamp) == (0.9, 0.1, 1000)


def test_smooth_single_step():
    out = smooth_av(_av(0.0, 0.0), _av(1.0, -1.0, 1000), alpha=0.3)
    assert out.arousal == pytest.approx(0.3)
    assert out.valence == pytest.approx(-0.3)


def test_smooth_fixed_point():
    prev = _av(0.25, -0.5)
    out = smooth_av(prev, _av(0.25, -0.5, 2000), alpha=0.7)
    assert out.arousal == prev.arousal and out.valence == prev.valence


def test_smooth_rejects_bad_alpha():
    with pytest.raises(ValueError):
        smooth_av(_av(0, 0), _av(0, 0), alpha=0.0)
    with pytest.raises(ValueError):
        smooth_av(_av(0, 0), _av(0, 0), alpha=1.5)


@given(
    st.floats(-1, 1), st.floats(-1, 1), st.floats(-1, 1), st.floats(-1, 1),
    st.floats(0.01, 1.0),
)
def test_smooth_contraction(pa, pv, na, nv, alpha):
    prev, new = _av(pa, pv), _av(na, nv, 1000)
    out = smooth_av(prev, new, alpha)
    assert abs(out.arousal - prev.arousal) <= alpha * abs(na - pa) + 1e-12
    assert abs(out.valence - prev.valence) <= alpha * abs(nv - pv) + 1e-12
    # iterating approaches the target monotonically per coordinate
    gap = abs(new.arousal - out.arousal)
    nxt = smooth_av(out, new, alpha)
    assert abs(new.arousal - nxt.arousal) <= gap + 1e-12


# -- classification ---------------------------------------------------------

def _classify(av, work_minutes=0.0, tracker=None):
    tracker = tracker or PersistenceTracker()
    ctx = ContextFlags(work_minutes_continuous=work_minutes)
    return classify(av, ctx, tracker, CFG)


def test_persistent_stress_after_dwell():
    tracker = PersistenceTracker(stress_since=0)
    state, _ = _classify(_av(0.8, -0.6, t=400000), tracker=tracker)
    assert state is InteractionState.ELEVATED_STRESS_PERSISTENT


def test_short_stress_on_entry():
    state, tracker = _classify(_av(0.8, -0.6, t=60000))
    assert state is InteractionState.ELEVATED_STRESS_SHORT
    assert tracker.stress_since == 60000


def test_low_alertness_requires_long_work():
    state, _ = _classify(_av(-0.7, 0.1, t=1000), work_minutes=45.0)
    assert state is InteractionState.LOW_ALERTNESS
    state, _ = _classify(_av(-0.7, 0.1, t=1000), work_minutes=10.0)
    assert state is InteractionState.NEUTRAL


def test_neutral_origin():
    state, _ = _classify(_av(0.0, 0.0, t=1000))
    assert state is InteractionState.NEUTRAL


def test_recovery_after_stress_exit():
    tracker = PersistenceTracker(stress_since=0)
    state, tracker = classify(_av(0.1, 0.0, t=120000), ContextFlags(), tracker, CFG)
    assert state is InteractionState.RECOVERY
    assert tracker.last_stress_exit_at == 120000
    assert tracker.stress_since is None
    # still in the window 120 s later
    state, _ = classify(_av(0.1, 0.0, t=240000), ContextFlags(), tracker, CFG)
    assert state is InteractionState.RECOVERY


def test_recovery_window_expires():
    tracker = PersistenceTracker(last_stress_exit_at=0)
    state, _ = classify(_av(0.1, 0.0, t=601000), ContextFlags(), tracker, CFG)
    assert state is InteractionState.NEUTRAL


def test_mild_imbalance_below_stress():
    state, _ = _classify(_av(0.2, -0.2, t=1000))
    assert state is InteractionState.MILD_IMBALANCE


def test_stress_shadows_mild_imbalance():
    state, _ = _classify(_av(0.6, -0.5, t=1000))
    assert state in (InteractionState.ELEVATED_STRESS_SHORT,
                     InteractionState.ELEVATED_STRESS_PERSISTENT)


def test_low_alertness_shadows_recovery():
    tracker = PersistenceTracker(stress_since=0)
    state, _ = classify(_av(-0.8, 0.0, t=60000),
                        ContextFlags(work_minutes_continuous=60.0), tracker, CFG)
    assert state is InteractionState.LOW_ALERTNESS


def test_classification_deterministic():
    for _ in range(3):
        tracker = PersistenceTracker(stress_since=0)
        state, _ = classify(_av(0.55, -0.35, t=100000),
                            ContextFlags(), tracker, CFG)
        assert state is InteractionState.ELEVATED_STRESS_SHORT


def test_persistence_never_reverts_inside_zone():
    tracker = PersistenceTracker()
    ctx = ContextFlags()
    reached_persistent = False
    for k in range(1, 12):
        state, tracker = classify(_av(0.9, -0.9, t=k * 60000), ctx, tracker, CFG)
        if state is InteractionState.ELEVATED_STRESS_PERSISTENT:
            reached_persistent = True
        if reached_persistent:
            assert state is InteractionState.ELEVATED_STRESS_PERSISTENT
    assert reached_persistent


def test_zone_reentry_restarts_dwell():
    tracker = PersistenceTracker()
    ctx = ContextFlags()
    classify(_av(0.9, -0.9, t=60000), ctx, tracker, CFG)
    classify(_av(0.0, 0.0, t=120000), ctx, tracker, CFG)       # exit
    state, tracker = classify(_av(0.9, -0.9, t=480000), ctx, tracker, CFG)
    assert state is InteractionState.ELEVATED_STRESS_SHORT     # dwell restarted
    assert tracker.stress_since == 480000


@given(st.floats(-1, 1), st.floats(-1, 1), st.floats(0, 60))
def test_exactly_one_rule_fires(arousal, valence, work_minutes):
    state, _ = _classify(_av(arousal, valence, t=60000),
                         work_minutes=work_minutes)
    assert isinstance(state, InteractionState)


# -- differential check against the zone-tracking classifier ---------------
#
# `_Zone`, `_ZoneTracker`, `_zone_of` and `zone_classify` are verbatim
# copies of the classifier that tracked a four-valued zone (only the
# names are prefixed or changed). The stress-entry time must reproduce
# its state sequence and stress-exit times on every input (differential
# testing: McKeeman 1998, Digital Technical Journal 10(1)).

class _Zone(str, Enum):
    """Coarse region of the arousal–valence plane, by geometry alone."""

    STRESS = "stress"
    FATIGUE = "fatigue"
    MILD = "mild"
    NEUTRAL = "neutral"


@dataclass(slots=True)
class _ZoneTracker:
    """Zone residency bookkeeping; single-writer, owned by the control loop."""

    current_zone: _Zone = _Zone.NEUTRAL
    zone_entered_at: int = 0
    last_stress_exit_at: int | None = None


def _zone_of(av: AVState, cfg: EstimatorConfig) -> _Zone:
    if av.arousal >= cfg.theta_a and av.valence <= -cfg.theta_v:
        return _Zone.STRESS
    if av.arousal <= -cfg.theta_a:
        return _Zone.FATIGUE
    if av.valence <= -cfg.theta_mild:
        return _Zone.MILD
    return _Zone.NEUTRAL


def zone_classify(
    av: AVState,
    context: ContextFlags,
    tracker: _ZoneTracker,
    cfg: EstimatorConfig = EstimatorConfig(),
) -> tuple[InteractionState, _ZoneTracker]:
    now = av.timestamp
    zone = _zone_of(av, cfg)
    if zone is not tracker.current_zone:
        if tracker.current_zone is _Zone.STRESS:
            tracker.last_stress_exit_at = now
        tracker.current_zone = zone
        tracker.zone_entered_at = now

    if zone is _Zone.STRESS:
        in_zone_s = (now - tracker.zone_entered_at) / 1000.0
        if in_zone_s >= cfg.persistence_threshold_s:
            return InteractionState.ELEVATED_STRESS_PERSISTENT, tracker
        return InteractionState.ELEVATED_STRESS_SHORT, tracker

    if (av.arousal <= -cfg.theta_a
            and context.work_minutes_continuous >= cfg.low_alertness_work_minutes):
        return InteractionState.LOW_ALERTNESS, tracker

    if (tracker.last_stress_exit_at is not None
            and (now - tracker.last_stress_exit_at) / 1000.0 <= cfg.recovery_window_s):
        return InteractionState.RECOVERY, tracker

    if av.valence <= -cfg.theta_mild:
        return InteractionState.MILD_IMBALANCE, tracker

    return InteractionState.NEUTRAL, tracker


def _around(x: float) -> list[float]:
    """x and its neighbouring floats, clipped to [-1, 1]."""
    return [max(-1.0, min(1.0, v))
            for v in (math.nextafter(x, -2.0), x, math.nextafter(x, 2.0))]


_SECONDS = st.one_of(st.sampled_from([0.0, 60.0, 120.0, 300.0, 600.0]),
                     st.floats(0, 1200))


@st.composite
def _classifier_runs(draw):
    """A valid config plus a timed AV sequence hugging its thresholds."""
    theta_mild, theta_v = draw(st.tuples(st.floats(0.01, 0.98),
                                         st.floats(0.01, 0.98))
                               .filter(lambda t: t[0] < t[1]))
    cfg = EstimatorConfig(
        theta_a=draw(st.floats(0.01, 0.98)), theta_v=theta_v,
        theta_mild=theta_mild,
        persistence_threshold_s=draw(_SECONDS),
        recovery_window_s=draw(_SECONDS),
        low_alertness_work_minutes=draw(st.sampled_from([0.0, 30.0])
                                        | st.floats(0, 60)))
    arousals = st.sampled_from(_around(cfg.theta_a) + _around(-cfg.theta_a)
                               + [-1.0, 0.0, 1.0]) | st.floats(-1, 1)
    valences = st.sampled_from(_around(-cfg.theta_v) + _around(-cfg.theta_mild)
                               + [-1.0, 0.0, 1.0]) | st.floats(-1, 1)
    works = st.sampled_from([0.0, cfg.low_alertness_work_minutes]) | st.floats(0, 90)
    steps = st.sampled_from([1000, 60_000, 300_000]) | st.integers(1, 900_000)
    now = draw(st.integers(0, 600_000))
    points = []
    for _ in range(draw(st.integers(1, 30))):
        now += draw(steps)
        points.append((AVState(draw(arousals), draw(valences), now),
                       ContextFlags(work_minutes_continuous=draw(works))))
    return cfg, points


@settings(max_examples=200, deadline=None)
@example((EstimatorConfig(persistence_threshold_s=0.0),
          [(_av(0.9, -0.9, 60_000), ContextFlags())]))
@example((EstimatorConfig(persistence_threshold_s=120.0),
          [(_av(0.9, -0.9, t), ContextFlags()) for t in (60_000, 120_000, 180_000)]))
@example((EstimatorConfig(),
          [(_av(0.9, -0.9, 60_000), ContextFlags()),
           (_av(0.0, 0.0, 120_000), ContextFlags()),
           (_av(0.9, -0.9, 420_000), ContextFlags())]))
# Times in the zone and since its exit that are not whole seconds: 0.5 s
# reaches a 0.5 s persistence threshold, 0.7 s is past a 0.5 s recovery.
@example((EstimatorConfig(persistence_threshold_s=0.5),
          [(_av(0.9, -0.9, t), ContextFlags()) for t in (60_000, 60_500)]))
@example((EstimatorConfig(recovery_window_s=0.5),
          [(_av(0.9, -0.9, 60_000), ContextFlags()),
           (_av(0.0, 0.0, 61_000), ContextFlags()),
           (_av(0.0, 0.0, 61_700), ContextFlags())]))
@given(_classifier_runs())
def test_classify_matches_zone_tracking_reference(run):
    cfg, points = run
    tracker, reference = PersistenceTracker(), _ZoneTracker()
    for av, ctx in points:
        state, tracker = classify(av, ctx, tracker, cfg)
        expected, reference = zone_classify(av, ctx, reference, cfg)
        assert state is expected, (av, ctx)
        assert tracker.last_stress_exit_at == reference.last_stress_exit_at


def test_config_validation():
    with pytest.raises(ValueError):
        EstimatorConfig(alpha=0.0)
    with pytest.raises(ValueError):
        EstimatorConfig(theta_mild=0.4, theta_v=0.3)
    with pytest.raises(ValueError):
        EstimatorConfig(a1=-0.1)
