"""Release scheduling constraints, rhythm expansion, and clock handling."""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass

import pytest
from hypothesis import example, given, settings, strategies as hst

from scentctl.estimator import InteractionState
from scentctl.scents import (
    Intensity,
    Rhythm,
    Scent,
    ScentExpression,
    SelectionHistory,
    expression_for,
    select_scent,
    vocabulary,
)
from scentctl.scheduler import (
    PendingRepeat,
    ReleaseCommand,
    SchedulerConfig,
    SchedulerState,
    TimeRegressionError,
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
             cause=InteractionState.RECOVERY, cfg=CFG, still_holds=True):
    return request(expr, SCENTS[scent], now, st, cfg, cause=cause,
                   still_holds=still_holds)


# -- request ----------------------------------------------------------------

def test_first_request_is_scheduled():
    st = SchedulerState()
    cmd = _request(0, st)
    assert cmd is not None
    assert cmd.start == 0
    assert cmd.channel == SCENTS["rose_geranium"].channel
    assert cmd.duty == 0.30
    assert cmd.duration_s == 8.0
    assert cmd.end == 8000
    assert st.last_release_end == 8000
    assert suppression_reason(7999, st, CFG) == "channel_active"


def test_request_duty_and_duration_from_maps():
    cmd = _request(0, SchedulerState(), expr=EXPR_REPEATING,
                   scent="cedarwood", cause=ESP)
    assert cmd.duty == 0.80
    assert cmd.duration_s == 12.0


def test_cooldown_suppression_ten_minutes():
    st = SchedulerState(last_release_end=0)
    assert suppression_reason(600_000, st, CFG) == "cooldown"
    assert _request(600_000, st) is None
    assert st == SchedulerState(last_release_end=0)


def test_cooldown_boundary_inclusive():
    st = SchedulerState(last_release_end=0)
    assert _request(900_000, st) is not None
    st = SchedulerState(last_release_end=0)
    assert suppression_reason(899_999, st, CFG) == "cooldown"
    assert _request(899_999, st) is None


def test_channel_active_suppression():
    st = SchedulerState()
    _request(0, st)
    assert suppression_reason(4000, st, CFG) == "channel_active"
    assert _request(4000, st) is None


def test_suppression_reason_helper_matches_request():
    st = SchedulerState(last_release_end=0)
    assert suppression_reason(600_000, st, CFG) == "cooldown"
    assert suppression_reason(900_000, st, CFG) is None


# -- rhythm expansion -------------------------------------------------------

def test_expand_repeating_enqueues_at_end_plus_interval():
    st = SchedulerState()
    _request(0, st, expr=EXPR_REPEATING, scent="cedarwood", cause=ESP)
    pending = st.pending_repeat
    assert pending is not None
    assert pending.due == 12000 + 900_000
    assert not pending.conditional
    assert pending.expr is EXPR_REPEATING and pending.cause is ESP


def test_expand_conditional_flagged():
    st = SchedulerState()
    _request(0, st, expr=EXPR_CONDITIONAL, scent="peppermint",
             cause=InteractionState.LOW_ALERTNESS)
    pending = st.pending_repeat
    assert pending.conditional
    assert pending.due == 8000 + 900_000


def test_expand_single_brief_never_repeats():
    st = SchedulerState()
    _request(0, st, still_holds=True)
    assert st.pending_repeat is None


def test_expand_stale_state_arms_nothing():
    st = SchedulerState()
    _request(0, st, expr=EXPR_REPEATING, scent="cedarwood", cause=ESP,
             still_holds=False)
    assert st.last_release_end == 12000
    assert st.pending_repeat is None


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
    pending = st.pending_repeat
    assert tick(911_999, st) is None
    assert st.pending_repeat is pending
    assert tick(912_000, st) is pending
    assert st.pending_repeat is None


def test_tick_idempotent_at_same_instant():
    st = SchedulerState()
    _request(0, st, expr=EXPR_REPEATING, scent="vetiver", cause=ESP)
    assert tick(912_000, st) is not None
    assert tick(912_000, st) is None


def test_tick_time_regression_rejected():
    st = SchedulerState()
    tick(100_000, st)
    with pytest.raises(TimeRegressionError):
        tick(50_000, st)
    # the clock starts at 0, so no first tick may come before it
    assert tick(0, SchedulerState()) is None
    with pytest.raises(TimeRegressionError, match="^tick at -1 ms after clock reached 0 ms$"):
        tick(-1, SchedulerState())


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
                reason = suppression_reason(now, st, CFG)
                cmd = request(expr, scent, now, st, CFG, cause=ESP,
                              still_holds=True)
                log.append((now, reason if cmd is None else cmd.scent))
        return log

    assert run() == run()


def test_config_validation():
    with pytest.raises(ValueError):
        SchedulerConfig(min_interval_s=0)
    with pytest.raises(ValueError):
        SchedulerConfig(max_burst_s=45)
    with pytest.raises(ValueError):
        SchedulerConfig(duty_low=1.5)
    with pytest.raises(ValueError):
        SchedulerConfig(burst_single_brief_s=40.0)


def test_default_config_maps_read_only():
    cfg = SchedulerConfig()
    assert (cfg.duty_low, cfg.duty_low_medium, cfg.duty_medium,
            cfg.duty_medium_high) == (0.30, 0.45, 0.60, 0.80)
    assert (cfg.burst_single_brief_s, cfg.burst_repeated_low_frequency_s,
            cfg.burst_brief_repeat_if_needed_s) == (8.0, 12.0, 8.0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.duty_low = 0.9
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.burst_single_brief_s = 1.0


def test_repeat_check_horizon_bounds():
    assert SchedulerConfig(repeat_check_horizon_s=0.0).repeat_check_horizon_s == 0.0
    for bad in (-0.001, -1.0):
        with pytest.raises(ValueError,
                           match="^repeat_check_horizon_s must be non-negative$"):
            SchedulerConfig(repeat_check_horizon_s=bad)


def test_max_burst_bounds():
    assert SchedulerConfig(max_burst_s=30.0).max_burst_s == 30.0
    for bad in (0.0, 30.001):
        with pytest.raises(ValueError, match=r"^max_burst_s must be in \(0, 30\] s$"):
            SchedulerConfig(max_burst_s=bad)


# Each duty is in (0, 1] and each burst in (0, max_burst_s]: both ends
# of each interval, one field at a time.
@pytest.mark.parametrize("level", list(Intensity), ids=lambda m: m.value)
def test_duty_bounds(level):
    name = f"duty_{level.value}"
    assert getattr(SchedulerConfig(**{name: 1.0}), name) == 1.0
    with pytest.raises(ValueError, match=f"^duty for {level.value} must be in"):
        SchedulerConfig(**{name: 0.0})


@pytest.mark.parametrize("rhythm", list(Rhythm), ids=lambda m: m.value)
def test_burst_bounds(rhythm):
    name = f"burst_{rhythm.value}_s"
    assert getattr(SchedulerConfig(max_burst_s=20.0, **{name: 20.0}), name) == 20.0
    with pytest.raises(ValueError,
                       match=f"^burst duration for {rhythm.value} must be in"):
        SchedulerConfig(**{name: 0.0})


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
        reason = suppression_reason(now, st, cfg)
        cmd = request(expr, scent, now, st, cfg, cause=cause, still_holds=True)
        assert (cmd is None) == (reason is not None)
        trace.append((now, getattr(cfg, f"burst_{expr.rhythm.value}_s")))
        actual.append(reason or "scheduled")

    expected = brute_force_decisions(trace, cfg.min_interval_s)
    assert actual == expected, f"divergence on trace {trace}"


# -- differential check against the two-step request API -------------------
#
# `_Decision`, `decision_request` and `expand_rhythm` are verbatim copies
# of the API in which `request` returned a decision and a second call
# armed the repeat (only the names are prefixed or changed, and the
# duty and burst are read from the config's flat fields and the command
# no longer carries its cause). Driven the
# way the control loop drives the scheduler (tick, then requests at the
# same instant), `request(..., still_holds=...)` must reproduce its
# commands, suppression reasons and pending repeats.

@dataclass(frozen=True, slots=True)
class _Decision:
    """Outcome of a release request; suppression is normal, not an error."""

    command: ReleaseCommand | None
    reason: str | None = None

    @property
    def scheduled(self) -> bool:
        return self.command is not None


def decision_request(
    expr: ScentExpression,
    scent: Scent,
    now: int,
    st: SchedulerState,
    cfg: SchedulerConfig,
    *,
    cause: InteractionState,
) -> _Decision:
    """Request a release at ``now``; schedule it if the constraints allow.

    On success the command's duty comes from the intensity map and its
    duration from the rhythm map, and the state's last release end is
    updated. The interval boundary is inclusive: a request exactly
    min_interval after the previous release end is scheduled.
    """
    reason = suppression_reason(now, st, cfg)
    if reason is not None:
        return _Decision(None, reason)
    duration_s = getattr(cfg, f"burst_{expr.rhythm.value}_s")
    command = ReleaseCommand(
        start=now,
        channel=scent.channel,
        duty=getattr(cfg, f"duty_{expr.intensity.value}"),
        duration_s=duration_s,
        scent=scent.key,
    )
    st.last_release_end = command.end
    return _Decision(command)


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


_KINDS = [(EXPR_SINGLE, InteractionState.RECOVERY), (EXPR_REPEATING, ESP),
          (EXPR_CONDITIONAL, InteractionState.LOW_ALERTNESS)]


@hst.composite
def _request_traces(draw):
    """A config and steps of (advance ms, repeat still holds, requests)."""
    cfg = SchedulerConfig(
        min_interval_s=draw(hst.sampled_from([60.0, 120.0, 900.0])
                            | hst.floats(0.001, 1000)),
        **{f"burst_{r.value}_s": draw(hst.sampled_from([8.0, 30.0])
                                      | hst.floats(0.001, 30)) for r in Rhythm})
    cadences = hst.sampled_from([0, 1000, 8000, 60_000]) | hst.integers(0, 1_000_000)
    requests = hst.lists(hst.tuples(hst.integers(0, 2), hst.booleans()), max_size=3)
    return cfg, draw(hst.lists(hst.tuples(cadences, hst.booleans(), requests),
                              min_size=1, max_size=40))


@settings(max_examples=200, deadline=None)
@example((CFG, [(0, True, [(1, True)]), (912_000, True, []),
                (0, False, [(2, True), (0, False)])]))
@given(_request_traces())
def test_request_matches_two_step_reference(trace):
    cfg, steps = trace
    st_new, st_ref = SchedulerState(), SchedulerState()

    def both(expr, cause, now, still_holds):
        scent = SCENTS[expr.members[0]]
        pending_before = st_new.pending_repeat
        reason = suppression_reason(now, st_new, cfg)
        cmd = request(expr, scent, now, st_new, cfg, cause=cause,
                      still_holds=still_holds)
        decision = decision_request(expr, scent, now, st_ref, cfg, cause=cause)
        if decision.scheduled:
            expand_rhythm(expr, still_holds, st_ref, cfg, cause=cause)
            # The reference kept an earlier repeat where `request` clears
            # it; tick has always consumed it before an admission.
            assert pending_before is None
        assert (cmd, reason) == (decision.command, decision.reason)
        assert st_new == st_ref

    now = 0
    for advance, repeat_holds, requests in steps:
        now += advance
        repeat = tick(now, st_new)
        assert repeat == tick(now, st_ref)
        if repeat is not None:
            both(repeat.expr, repeat.cause, now, repeat_holds)
        for kind, still_holds in requests:
            both(*_KINDS[kind], now, still_holds)
