"""Release scheduling constraints, rhythm expansion, and clock handling."""

from __future__ import annotations

import random

import pytest

from scentctl.estimator import InteractionState
from scentctl.scents import (
    Intensity,
    Rhythm,
    SelectionHistory,
    expression_for,
    select_scent,
    vocabulary,
)
from scentctl.scheduler import (
    DEFAULT_BURST_DURATION_S,
    DEFAULT_DUTY_MAP,
    SchedulerConfig,
    SchedulerState,
    TimeRegressionError,
    expand_rhythm,
    request,
    suppression_reason,
    tick,
)

CFG = SchedulerConfig()
SCENTS = {s.key: s for s in vocabulary()}

ESP = InteractionState.ELEVATED_STRESS_PERSISTENT
EXPR_REPEATING = expression_for(ESP)
EXPR_SINGLE = expression_for(InteractionState.RECOVERY)
EXPR_CONDITIONAL = expression_for(InteractionState.LOW_ALERTNESS)


def _request(now, st, expr=EXPR_SINGLE, scent="rose_geranium",
             cause=InteractionState.RECOVERY, cfg=CFG):
    return request(expr, SCENTS[scent], now, st, cfg, cause=cause)


# -- request ----------------------------------------------------------------

def test_first_request_is_scheduled():
    st = SchedulerState()
    decision = _request(0, st)
    assert decision.scheduled
    cmd = decision.command
    assert cmd.start == 0
    assert cmd.channel == SCENTS["rose_geranium"].channel
    assert cmd.duty == 0.30
    assert cmd.duration_s == 8.0
    assert cmd.end == 8000
    assert st.last_release_end == 8000
    assert suppression_reason(7999, st, CFG) == "channel_active"


def test_request_duty_and_duration_from_maps():
    decision = _request(0, SchedulerState(), expr=EXPR_REPEATING,
                        scent="cedarwood", cause=ESP)
    assert decision.command.duty == 0.80
    assert decision.command.duration_s == 12.0


def test_cooldown_suppression_ten_minutes():
    st = SchedulerState(last_release_end=0)
    decision = _request(600_000, st)
    assert not decision.scheduled
    assert decision.reason == "cooldown"


def test_cooldown_boundary_inclusive():
    st = SchedulerState(last_release_end=0)
    decision = _request(900_000, st)
    assert decision.scheduled
    st = SchedulerState(last_release_end=0)
    decision = _request(899_999, st)
    assert decision.reason == "cooldown"


def test_channel_active_suppression():
    st = SchedulerState()
    _request(0, st)
    decision = _request(4000, st)
    assert decision.reason == "channel_active"


def test_suppression_reason_helper_matches_request():
    st = SchedulerState(last_release_end=0)
    assert suppression_reason(600_000, st, CFG) == "cooldown"
    assert suppression_reason(900_000, st, CFG) is None


# -- rhythm expansion -------------------------------------------------------

def test_expand_repeating_enqueues_at_end_plus_interval():
    st = SchedulerState()
    _request(0, st, expr=EXPR_REPEATING, scent="cedarwood", cause=ESP)
    pending = expand_rhythm(EXPR_REPEATING, True, st, CFG, cause=ESP)
    assert pending is not None
    assert pending.due == 12000 + 900_000
    assert not pending.conditional
    assert st.pending_repeat is pending


def test_expand_conditional_flagged():
    st = SchedulerState()
    _request(0, st, expr=EXPR_CONDITIONAL, scent="peppermint",
             cause=InteractionState.LOW_ALERTNESS)
    pending = expand_rhythm(EXPR_CONDITIONAL, True, st, CFG,
                            cause=InteractionState.LOW_ALERTNESS)
    assert pending.conditional
    assert pending.due == 8000 + 900_000


def test_expand_single_brief_never_repeats():
    st = SchedulerState()
    _request(0, st)
    assert expand_rhythm(EXPR_SINGLE, True, st, CFG,
                         cause=InteractionState.RECOVERY) is None
    assert st.pending_repeat is None


def test_expand_stale_state_arms_nothing():
    st = SchedulerState()
    _request(0, st, expr=EXPR_REPEATING, scent="cedarwood", cause=ESP)
    assert expand_rhythm(EXPR_REPEATING, False, st, CFG, cause=ESP) is None
    assert st.pending_repeat is None


def test_expand_requires_prior_release():
    with pytest.raises(ValueError):
        expand_rhythm(EXPR_REPEATING, True, SchedulerState(), CFG, cause=ESP)


# -- tick -------------------------------------------------------------------

def test_tick_clears_expired_active():
    st = SchedulerState()
    _request(0, st)  # ends at 8000
    assert tick(8000, st) is None
    assert suppression_reason(8000, st, CFG) == "cooldown"


def test_tick_keeps_running_active():
    st = SchedulerState()
    _request(0, st)
    assert tick(4000, st) is None
    assert suppression_reason(4000, st, CFG) == "channel_active"


def test_tick_surfaces_due_repeat():
    st = SchedulerState()
    _request(0, st, expr=EXPR_REPEATING, scent="vetiver", cause=ESP)
    pending = expand_rhythm(EXPR_REPEATING, True, st, CFG, cause=ESP)
    assert tick(911_999, st) is None
    assert st.pending_repeat is pending
    assert tick(912_000, st) is pending
    assert st.pending_repeat is None


def test_tick_idempotent_at_same_instant():
    st = SchedulerState()
    _request(0, st, expr=EXPR_REPEATING, scent="vetiver", cause=ESP)
    expand_rhythm(EXPR_REPEATING, True, st, CFG, cause=ESP)
    assert tick(912_000, st) is not None
    assert tick(912_000, st) is None


def test_tick_time_regression_rejected():
    st = SchedulerState()
    tick(100_000, st)
    with pytest.raises(TimeRegressionError):
        tick(50_000, st)


# -- determinism and config -------------------------------------------------

def test_identical_streams_identical_commands():
    def run():
        st = SchedulerState()
        rng = random.Random(21)
        history = SelectionHistory()
        log = []
        for i in range(200):
            now = i * 60_000
            tick(now, st)
            if rng.random() < 0.4:
                expr = EXPR_REPEATING
                scent = SCENTS[select_scent(expr, history, rng)]
                decision = request(expr, scent, now, st, CFG, cause=ESP)
                log.append((now, decision.command.scent if decision.scheduled
                            else decision.reason))
        return log

    assert run() == run()


def test_config_validation():
    with pytest.raises(ValueError):
        SchedulerConfig(min_interval_s=0)
    with pytest.raises(ValueError):
        SchedulerConfig(max_burst_s=45)
    with pytest.raises(ValueError):
        SchedulerConfig(duty_map={Intensity.LOW: 1.5,
                                  Intensity.LOW_MEDIUM: 0.45,
                                  Intensity.MEDIUM: 0.6,
                                  Intensity.MEDIUM_HIGH: 0.8})
    with pytest.raises(ValueError):
        SchedulerConfig(burst_duration_s={Rhythm.SINGLE_BRIEF: 40.0,
                                          Rhythm.REPEATED_LOW_FREQUENCY: 12.0,
                                          Rhythm.BRIEF_REPEAT_IF_NEEDED: 8.0})


def test_default_config_maps_read_only():
    cfg = SchedulerConfig()
    assert cfg.duty_map == DEFAULT_DUTY_MAP
    assert cfg.burst_duration_s == DEFAULT_BURST_DURATION_S
    with pytest.raises(TypeError):
        cfg.duty_map[Intensity.LOW] = 0.9
    with pytest.raises(TypeError):
        cfg.burst_duration_s[Rhythm.SINGLE_BRIEF] = 1.0


# -- brute-force reference equivalence --------------------------------------

def brute_force_decisions(events, min_interval_s):
    """Replay the constraint definitions literally over a request trace.

    For each (now, duration_s) request, scan every previously emitted
    command: the request is suppressed if any command's [start, end)
    interval covers now, or if now is closer than the minimum interval
    to the latest command end.
    """
    commands = []
    outcomes = []
    for now, duration_s in events:
        end_of = [c[0] + round(c[1] * 1000) for c in commands]
        if any(start <= now < end
               for (start, _d), end in zip(commands, end_of)):
            outcomes.append("channel_active")
            continue
        if commands and now - max(end_of) < round(min_interval_s * 1000):
            outcomes.append("cooldown")
            continue
        commands.append((now, duration_s))
        outcomes.append("scheduled")
    return outcomes


@pytest.mark.parametrize("seed", range(25))
def test_scheduler_matches_brute_force(seed):
    rng = random.Random(seed)
    cfg = SchedulerConfig(min_interval_s=rng.choice([120.0, 300.0, 900.0]))
    exprs = [EXPR_SINGLE, EXPR_REPEATING, EXPR_CONDITIONAL]
    causes = [InteractionState.RECOVERY, ESP, InteractionState.LOW_ALERTNESS]

    st = SchedulerState()
    now = 0
    trace = []
    actual = []
    for _ in range(rng.randint(1, 50)):
        now += rng.randint(1000, 400_000)
        tick(now, st)
        idx = rng.randrange(3)
        expr, cause = exprs[idx], causes[idx]
        scent = SCENTS[rng.choice(expr.members)]
        decision = request(expr, scent, now, st, cfg, cause=cause)
        trace.append((now, cfg.burst_duration_s[expr.rhythm]))
        actual.append("scheduled" if decision.scheduled else decision.reason)

    expected = brute_force_decisions(trace, cfg.min_interval_s)
    assert actual == expected, f"divergence on trace {trace}"
