"""End-to-end acceptance checks.

Each check prints one `acceptance <name>: PASS` line (run with
``pytest tests/test_acceptance.py -v -s``); a failing assertion is the
FAIL signal.

Known red: `test_a06_smoothing_step_bound_and_convergence` encodes a
convergence bound that is mathematically unreachable near its own
smoothing-factor boundary (details in its docstring). It is kept as
stated rather than loosened, to document the boundary honestly.
"""

from __future__ import annotations

import json
import math
import random
import time

import pytest

from scentctl.cli import main
from scentctl.config import default_config
from scentctl.estimator import AVState, InteractionState, estimate_av, smooth_av
from scentctl.ingest import ContextFlags, FeatureWindow, compute_rmssd, compute_sdnn
from scentctl.irproto import IRCodeTable, all_commands, decode_frame, encode_frame
from scentctl.scents import (
    PROFILE_MEMBERS,
    Profile,
    SelectionHistory,
    expression_for,
    select_scent,
)
from scentctl.scheduler import SchedulerState, expand_rhythm, request, tick
from scentctl.simulate import (
    BREAK_BLOCK_MAX,
    BREAK_BLOCK_MIN,
    WORK_BLOCK_MAX,
    WORK_BLOCK_MIN,
    BlockKind,
    Episode,
    EpisodeKind,
    EpisodeScript,
    SessionBlock,
    SessionPlan,
    default_plan,
    generate_session,
    replay,
    summarize,
)

CFG = default_config()
SCENTS = {s.key: s for s in CFG.vocabulary}
CHANNELS = {profile: {SCENTS[k].channel for k in members}
            for profile, members in PROFILE_MEMBERS.items()}
STRIDE_MS = 60_000
MIN_INTERVAL_MS = CFG.scheduler.min_interval_ms


def _ok(name: str) -> None:
    print(f"acceptance {name}: PASS")


def _scripted(seed, work_min, episodes):
    plan = SessionPlan((SessionBlock(BlockKind.WORK, work_min),))
    script = EpisodeScript(tuple(Episode(*e) for e in episodes))
    traces = generate_session(seed, plan, script, CFG.simulator)
    log = replay(traces, CFG)
    releases = [r for r in log.records if r.kind == "release"]
    return log, releases


def test_a01_hrv_features_match_brute_force_oracle():
    """1000 random RR sequences agree with a literal reference within 1e-9."""
    rng = random.Random(101)
    start = time.perf_counter()
    for _ in range(1000):
        n = rng.randint(2, 300)
        rr = [rng.uniform(300.0, 2000.0) for _ in range(n)]

        diffs = [rr[i + 1] - rr[i] for i in range(n - 1)]
        brute_rmssd = math.sqrt(sum(d * d for d in diffs) / len(diffs))
        mean = sum(rr) / n
        brute_sdnn = math.sqrt(sum((x - mean) ** 2 for x in rr) / n)

        assert compute_rmssd(rr) == pytest.approx(brute_rmssd, rel=1e-9)
        assert compute_sdnn(rr) == pytest.approx(brute_sdnn, rel=1e-9)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    _ok(f"hrv-oracle-equivalence ({elapsed:.2f}s)")


def _drive_session(seed: int) -> list:
    """One randomized 8-hour session at 60 s cadence, scheduler level."""
    rng = random.Random(seed)
    st = SchedulerState()
    history = SelectionHistory()
    commands = []
    states = [s for s in InteractionState if s is not InteractionState.NEUTRAL]

    def issue(expr, cause, still_holds, now):
        scent = SCENTS[select_scent(expr, history, rng)]
        decision = request(expr, scent, now, st, CFG.scheduler, cause=cause)
        if decision.scheduled:
            commands.append(decision.command)
            expand_rhythm(expr, still_holds, st, CFG.scheduler, cause=cause)

    for i in range(480):
        now = i * STRIDE_MS
        repeat = tick(now, st)
        if repeat is not None:
            holds = rng.random() < 0.5
            fire = holds if repeat.conditional else rng.random() < 0.9
            if fire:
                issue(repeat.expr, repeat.cause, holds, now)
        if rng.random() < 0.3:
            cause = rng.choice(states)
            issue(expression_for(cause), cause, True, now)
    return commands


def test_a02_cooldown_and_exclusivity_over_randomized_sessions():
    """10,000 randomized sessions: no overlap, no sub-interval gap."""
    start = time.perf_counter()
    total = 0
    for seed in range(10_000):
        commands = _drive_session(seed)
        total += len(commands)
        intervals = [(c.start, c.end) for c in commands]
        # brute-force pairwise interval scan
        for i in range(len(intervals)):
            for j in range(i + 1, len(intervals)):
                a, b = intervals[i], intervals[j]
                assert a[1] <= b[0] or b[1] <= a[0], \
                    f"seed {seed}: overlapping releases {a} and {b}"
        for (_, prev_end), (nxt_start, _) in zip(intervals, intervals[1:]):
            assert nxt_start - prev_end >= MIN_INTERVAL_MS, \
                f"seed {seed}: gap {nxt_start - prev_end} ms"
        for c in commands:
            assert c.duration_s <= CFG.scheduler.max_burst_s <= 30.0
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0, f"took {elapsed:.2f}s"
    _ok(f"cooldown-and-exclusivity (10k sessions, {total} releases, "
        f"{elapsed:.1f}s)")


def test_a03_each_state_yields_its_profile_output():
    """Scripted sessions drive every state to its mapped profile output."""
    duty = CFG.scheduler.duty_map

    # sustained strain: forest profile, medium-high duty, repeat at +900 s
    _, releases = _scripted(1, 45.0, [(10.0, 25.0, EpisodeKind.STRESS, 1.0)])
    persistent = [r.payload for r in releases
                  if r.payload["cause"] == "elevated_stress_persistent"]
    assert persistent, "no persistent-stress release"
    for payload in persistent:
        assert payload["channel"] in CHANNELS[Profile.FOREST]
        assert payload["duty"] == duty[expression_for(
            InteractionState.ELEVATED_STRESS_PERSISTENT).intensity]
    first = persistent[0]
    assert first["repeat_due"] == first["end"] + MIN_INTERVAL_MS
    followups = [p for p in persistent[1:] if p["start"] >= first["repeat_due"]]
    assert followups, "repeat never fired while strain persisted"

    # transient strain: narrowed forest pair, low-medium duty, single burst
    _, releases = _scripted(1, 20.0, [(6.0, 5.0, EpisodeKind.STRESS, 1.0)])
    assert len(releases) == 1
    payload = releases[0].payload
    assert payload["cause"] == "elevated_stress_short"
    assert payload["scent"] in ("cedarwood", "frankincense")
    assert payload["channel"] in {SCENTS["cedarwood"].channel,
                                  SCENTS["frankincense"].channel}
    assert payload["duty"] == duty[expression_for(
        InteractionState.ELEVATED_STRESS_SHORT).intensity]
    assert payload["repeat_due"] is None

    # recovery after strain: garden profile, low duty, single burst
    _, releases = _scripted(1, 40.0, [(10.0, 14.0, EpisodeKind.STRESS, 1.0)])
    recovery = [r.payload for r in releases if r.payload["cause"] == "recovery"]
    assert recovery
    for payload in recovery:
        assert payload["channel"] in CHANNELS[Profile.GARDEN]
        assert payload["duty"] == duty[expression_for(
            InteractionState.RECOVERY).intensity]
        assert payload["repeat_due"] is None

    # long-work fatigue: open-air profile, medium duty, repeat while it holds
    _, releases = _scripted(1, 60.0, [(32.0, 26.0, EpisodeKind.FATIGUE, 1.0)])
    alert = [r.payload for r in releases
             if r.payload["cause"] == "low_alertness"]
    assert len(alert) >= 2, "conditional repeat did not fire during fatigue"
    for payload in alert:
        assert payload["channel"] in CHANNELS[Profile.OPEN_AIR]
        assert payload["duty"] == duty[expression_for(
            InteractionState.LOW_ALERTNESS).intensity]
    assert alert[0]["repeat_due"] == alert[0]["end"] + MIN_INTERVAL_MS
    assert alert[1]["start"] - alert[0]["end"] >= MIN_INTERVAL_MS

    # fatigue that clears before the repeat is due: exactly one release
    log, releases = _scripted(1, 60.0, [(32.0, 8.0, EpisodeKind.FATIGUE, 1.0)])
    alert = [r.payload for r in releases
             if r.payload["cause"] == "low_alertness"]
    assert len(alert) == 1
    assert alert[0]["repeat_due"] is not None
    cancelled = [r for r in log.records if r.kind == "suppression"
                 and r.payload["reason"] == "repeat_cancelled"]
    assert cancelled, "armed repeat was not cancelled after the state cleared"

    # mild imbalance: meadow profile, low duty, single burst
    _, releases = _scripted(1, 25.0, [(8.0, 6.0, EpisodeKind.STRESS, 0.09)])
    assert len(releases) == 1
    payload = releases[0].payload
    assert payload["cause"] == "mild_imbalance"
    assert payload["channel"] in CHANNELS[Profile.MEADOW]
    assert payload["duty"] == duty[expression_for(
        InteractionState.MILD_IMBALANCE).intensity]
    assert payload["repeat_due"] is None

    _ok("zone-to-profile-conformance (5 states + repeat variants)")


def test_a04_stress_gets_forest_and_fatigue_gets_fresh_notes():
    """High arousal/low valence releases woody notes; long-work fatigue
    releases peppermint or tea tree."""
    _, releases = _scripted(1, 45.0, [(10.0, 25.0, EpisodeKind.STRESS, 1.0)])
    stress = [r.payload for r in releases
              if r.payload["cause"].startswith("elevated_stress")]
    assert stress
    for payload in stress:
        assert payload["scent"] in PROFILE_MEMBERS[Profile.FOREST]

    _, releases = _scripted(1, 60.0, [(32.0, 26.0, EpisodeKind.FATIGUE, 1.0)])
    fatigue = [r.payload for r in releases
               if r.payload["cause"] == "low_alertness"]
    assert fatigue
    for payload in fatigue:
        assert payload["scent"] in ("peppermint", "tea_tree")
    _ok("stress-forest-and-fatigue-fresh-notes")


def test_a05_estimator_bounded_over_fuzzed_features():
    """A million random feature vectors stay inside the unit square."""
    rng = random.Random(505)
    ctx = ContextFlags()
    start = time.perf_counter()
    for _ in range(1_000_000):
        fw = FeatureWindow(0, 60_000, 10.0, 5.0, 70.0,
                           rng.uniform(-25.0, 25.0),
                           rng.uniform(-25.0, 25.0),
                           rng.uniform(-25.0, 25.0), ctx)
        av = estimate_av(fw, CFG.estimator)
        assert -1.0 <= av.arousal <= 1.0
        assert -1.0 <= av.valence <= 1.0
        assert math.isfinite(av.arousal) and math.isfinite(av.valence)
    elapsed = time.perf_counter() - start
    _ok(f"av-bounds-fuzz (1e6 vectors, {elapsed:.2f}s)")


def test_a06_smoothing_step_bound_and_convergence():
    """Per-step contraction plus a 100-step convergence bound.

    The residual after k smoothing steps is (1 - alpha)^k times the
    initial gap. At alpha = 0.1 that is 0.9^100 = 2.66e-5 after 100
    steps, so the 1e-6 target is unreachable whenever the initial gap
    exceeds ~0.038 for any alpha in [0.1, 0.1351). The bound is asserted
    as stated anyway; the failure documents that boundary rather than
    hiding it behind a loosened tolerance.
    """
    rng = random.Random(606)
    failures = []
    checked = 0
    for _ in range(1000):
        prev = AVState(rng.uniform(-1, 1), rng.uniform(-1, 1), 0)
        new = AVState(rng.uniform(-1, 1), rng.uniform(-1, 1), 1000)
        alpha = rng.uniform(0.01, 1.0)

        out = smooth_av(prev, new, alpha)
        assert abs(out.arousal - prev.arousal) <= \
            alpha * abs(new.arousal - prev.arousal) + 1e-12
        assert abs(out.valence - prev.valence) <= \
            alpha * abs(new.valence - prev.valence) + 1e-12

        if alpha >= 0.1:
            checked += 1
            current = prev
            for _ in range(100):
                current = smooth_av(current, new, alpha)
            residual = max(abs(current.arousal - new.arousal),
                           abs(current.valence - new.valence))
            if residual > 1e-6:
                failures.append((alpha, residual))
    print(f"acceptance ema-contraction-step-bound: PASS "
          f"(1000 triples); convergence checked on {checked} triples "
          f"with alpha >= 0.1: {len(failures)} residuals above 1e-6, "
          f"worst {max((r for _, r in failures), default=0.0):.2e} "
          f"at alpha {min((a for a, _ in failures), default=float('nan')):.4f}")
    assert not failures, (
        f"{len(failures)} of {checked} triples exceed the 1e-6 bound after "
        f"100 steps; all have alpha < 0.1351 where (1-alpha)^100 cannot "
        f"shrink a unit-scale gap to 1e-6")
    _ok("ema-convergence")


def test_a07_scent_variation_policy():
    """No immediate repeats from multi-member profiles; fair rotation."""
    # multi-release sessions from the scripted scenarios
    for work_min, episodes in (
        (45.0, [(10.0, 25.0, EpisodeKind.STRESS, 1.0)]),
        (60.0, [(32.0, 26.0, EpisodeKind.FATIGUE, 1.0)]),
        (40.0, [(10.0, 14.0, EpisodeKind.STRESS, 1.0)]),
    ):
        _, releases = _scripted(1, work_min, episodes)
        multi_member = {p: m for p, m in PROFILE_MEMBERS.items() if len(m) > 1}
        scent_profile = []
        for record in releases:
            scent = record.payload["scent"]
            for profile, members in multi_member.items():
                if scent in members:
                    scent_profile.append((scent, profile))
                    break
        for (s1, p1), (s2, p2) in zip(scent_profile, scent_profile[1:]):
            if p1 == p2:
                assert s1 != s2, f"consecutive {p1.value} releases reuse {s1}"

    # fair rotation over 60 selections from the three-member forest profile
    forest = expression_for(InteractionState.ELEVATED_STRESS_PERSISTENT)
    history = SelectionHistory()
    rng = random.Random(707)
    for _ in range(60):
        select_scent(forest, history, rng)
    counts = [history.counts.get(k, 0) for k in forest.members]
    assert sum(counts) == 60
    assert max(counts) - min(counts) <= 1, counts
    _ok(f"variation-policy (forest rotation counts {counts})")


def test_a08_ir_round_trip_over_random_tables():
    """All ten commands survive encode/decode across 200 random tables."""
    rng = random.Random(808)
    commands = all_commands()
    for _ in range(200):
        words = set()
        while len(words) < 10:
            words.add(rng.getrandbits(32))
        table = IRCodeTable(dict(zip(commands, sorted(words))))
        for cmd in commands:
            frame = encode_frame(cmd, table)
            assert len(frame.pulses) == 34
            assert decode_frame(frame, table) == cmd
            for tolerance in (50, 150, 250):
                assert decode_frame(frame, table, tolerance_us=tolerance) == cmd

    # tolerance monotonicity on timing-jittered frames
    table = IRCodeTable.default()
    for _ in range(100):
        cmd = rng.choice(commands)
        frame = encode_frame(cmd, table)
        jittered = type(frame)(tuple(
            (mark + rng.randint(-200, 200), space + rng.randint(-200, 200))
            for mark, space in frame.pulses))
        outcomes = []
        for tolerance in (50, 150, 250):
            try:
                outcomes.append(decode_frame(jittered, table,
                                             tolerance_us=tolerance))
            except Exception:
                outcomes.append(None)
        decoded = [o for o in outcomes if o is not None]
        if decoded:
            first = outcomes.index(decoded[0])
            assert all(o == decoded[0] for o in outcomes[first:]), outcomes
    _ok("ir-round-trip (10 commands x 200 tables, 3 tolerances)")


def test_a09_end_to_end_determinism(tmp_path):
    """Two identical synth invocations produce byte-identical outputs."""
    script = tmp_path / "script.csv"
    script.write_text("start_min,duration_min,kind,magnitude\n"
                      "10,20,stress,1.0\n40,15,fatigue,0.9\n",
                      encoding="utf-8")
    outputs = []
    for name in ("first", "second"):
        out = tmp_path / name
        code = main(["synth", "--seed", "17", "--blocks", "work:35,break:6,work:40",
                     "--script", str(script), "--out", str(out)])
        assert code == 0
        outputs.append(out)
    for name in ("rr.csv", "hr.csv", "context.csv", "events.ndjson",
                 "summary.json"):
        a = (outputs[0] / name).read_bytes()
        b = (outputs[1] / name).read_bytes()
        assert a == b, f"{name} differs between runs"
    summary = json.loads((outputs[0] / "summary.json").read_text())
    assert summary["violations"] == 0
    _ok("end-to-end-determinism (byte-identical outputs)")


def test_a10_generated_plans_respect_ergonomic_bounds():
    """1000 seeded plans contain only in-bounds work and break blocks."""
    for seed in range(1000):
        plan = default_plan(random.Random(seed), total_minutes=480)
        assert plan.blocks[0].kind is BlockKind.WORK
        for block in plan.blocks:
            if block.kind is BlockKind.WORK:
                assert WORK_BLOCK_MIN <= block.minutes <= WORK_BLOCK_MAX
            else:
                assert BREAK_BLOCK_MIN <= block.minutes <= BREAK_BLOCK_MAX
    _ok("session-plan-conformance (1000 plans)")


def test_a11_replayed_logs_audit_clean():
    """Full-pipeline logs score zero constraint violations."""
    checked = 0
    for seed in range(8):
        plan = default_plan(random.Random(seed), total_minutes=120)
        script = EpisodeScript((
            Episode(10.0, 20.0, EpisodeKind.STRESS, 0.9),
            Episode(50.0, 25.0, EpisodeKind.FATIGUE, 1.0),
            Episode(90.0, 10.0, EpisodeKind.STRESS, 0.5),
        ))
        traces = generate_session(seed, plan, script, CFG.simulator)
        log = replay(traces, CFG)
        summary = summarize(log)
        assert summary.violations == 0
        checked += summary.releases
    _ok(f"replay-audit-clean ({checked} releases across 8 sessions)")
