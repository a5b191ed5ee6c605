"""Ingestion, artifact filtering, and windowed feature extraction."""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, strategies as st

from scentctl.ingest import (
    ActivityState,
    Baseline,
    ContextFlags,
    ContextSample,
    FeatureWindow,
    HRSample,
    InsufficientDataError,
    RRSample,
    StreamFormatError,
    clean_hr,
    compute_baseline,
    compute_rmssd,
    compute_sdnn,
    context_at,
    parse_context_stream,
    parse_hr_stream,
    parse_rr_stream,
    parse_samples,
    reject_artifacts,
    render_context_csv,
    render_rr_csv,
    window_features,
)


def brute_rmssd(rr: list[float]) -> float:
    """Independent oracle: literal root-mean-square of successive diffs."""
    diffs = [rr[i + 1] - rr[i] for i in range(len(rr) - 1)]
    return math.sqrt(sum(d * d for d in diffs) / len(diffs))


def brute_sdnn(rr: list[float]) -> float:
    """Independent oracle: literal population standard deviation."""
    mean = sum(rr) / len(rr)
    return math.sqrt(sum((x - mean) ** 2 for x in rr) / len(rr))


def _rr(values, start=0, step=800):
    return [RRSample(start + i * step, v) for i, v in enumerate(values)]


# -- parsing ----------------------------------------------------------------

def test_parse_rr_basic():
    assert parse_rr_stream("0,800\n800,810") == [RRSample(0, 800.0),
                                                 RRSample(800, 810.0)]


def test_parse_duplicate_timestamp_keeps_last():
    assert parse_rr_stream("0,800\n0,790") == [RRSample(0, 790.0)]


def test_parse_malformed_line_reports_number():
    with pytest.raises(StreamFormatError, match="line 1"):
        parse_rr_stream("0,abc")


def test_parse_malformed_later_line():
    with pytest.raises(StreamFormatError, match="line 3"):
        parse_rr_stream("0,800\n800,810\n1600,?")


@pytest.mark.parametrize("parse, text, message", [
    (parse_rr_stream, "0,800\n800,abc", "line 2: bad rr value 'abc'"),
    (parse_rr_stream, "0,800\n800,0", "line 2: rr must be positive"),
    (parse_hr_stream, "0,72\n1000,x", "line 2: bad hr value 'x'"),
    (parse_hr_stream, "0,72\n1000,-1", "line 2: hr must be positive"),
])
def test_parse_bad_value_messages(parse, text, message):
    with pytest.raises(StreamFormatError) as info:
        parse(text)
    assert str(info.value) == message
    assert info.value.line == 2


def test_parse_non_monotonic_rejected():
    with pytest.raises(StreamFormatError, match="non-monotonic"):
        parse_rr_stream("0,800\n800,810\n400,805")


def test_parse_empty_stream_rejected():
    with pytest.raises(StreamFormatError, match="empty"):
        parse_rr_stream("")
    with pytest.raises(StreamFormatError, match="empty"):
        parse_rr_stream("timestamp_ms,rr_ms\n")


def test_parse_optional_header_detected():
    assert parse_rr_stream("timestamp_ms,rr_ms\n0,800") == [RRSample(0, 800.0)]


def test_parse_hr_and_context_schemas():
    assert parse_hr_stream("0,72.5") == [HRSample(0, 72.5)]
    ctx = parse_context_stream(
        "timestamp_ms,session_active,activity_state\n0,1,sedentary\n60000,false,active")
    assert ctx == [
        ContextSample(0, True, ActivityState.SEDENTARY),
        ContextSample(60000, False, ActivityState.ACTIVE),
    ]


def test_parse_context_bad_activity():
    with pytest.raises(StreamFormatError, match="line 1"):
        parse_context_stream("0,1,walking")


def test_parse_unknown_schema():
    with pytest.raises(ValueError, match="schema"):
        parse_samples("0,800", "bogus")


def test_render_round_trip():
    samples = [RRSample(0, 800.0), RRSample(805, 805.25)]
    assert parse_rr_stream(render_rr_csv(samples)) == samples
    ctx = [ContextSample(0, True, ActivityState.SEDENTARY)]
    assert parse_context_stream(render_context_csv(ctx)) == ctx


# -- artifact rejection -----------------------------------------------------

def test_reject_out_of_range():
    out = reject_artifacts(_rr([800, 810, 2500, 805]))
    assert [s.rr for s in out] == [800, 810, 805]


def test_reject_successive_jump():
    out = reject_artifacts(_rr([800, 1200, 810]))
    assert [s.rr for s in out] == [800, 810]


def test_reject_identity_on_clean_data():
    samples = _rr([800, 800, 800])
    assert reject_artifacts(samples) == samples


def test_reject_all_rejected_yields_empty():
    assert reject_artifacts(_rr([2500, 2600])) == []


def test_clean_hr_range():
    samples = [HRSample(0, 72.0), HRSample(1000, 300.0), HRSample(2000, 10.0)]
    assert clean_hr(samples) == [HRSample(0, 72.0)]


@given(st.lists(st.floats(min_value=200, max_value=2500), min_size=1, max_size=60))
def test_reject_idempotent(values):
    samples = _rr(values)
    once = reject_artifacts(samples)
    assert reject_artifacts(once) == once


# -- HRV features -----------------------------------------------------------

def test_rmssd_constant_series_is_zero():
    assert compute_rmssd([800, 800, 800]) == 0.0


def test_rmssd_worked_example():
    value = compute_rmssd([800, 810, 790, 805])
    assert value == pytest.approx(brute_rmssd([800, 810, 790, 805]), rel=1e-12)
    assert value == pytest.approx(15.546, abs=5e-4)


def test_rmssd_insufficient_data():
    with pytest.raises(InsufficientDataError):
        compute_rmssd([800])


def test_sdnn_constant_and_pair():
    assert compute_sdnn([800, 800]) == 0.0
    assert compute_sdnn([800, 900]) == pytest.approx(50.0)


def test_sdnn_worked_example():
    value = compute_sdnn([700, 800, 900])
    assert value == pytest.approx(brute_sdnn([700, 800, 900]), rel=1e-12)
    assert value == pytest.approx(81.650, abs=5e-4)


def test_sdnn_insufficient_data():
    with pytest.raises(InsufficientDataError):
        compute_sdnn([805])


def test_sdnn_permutation_insensitive_rmssd_not():
    rr = [700.0, 900.0, 750.0, 880.0, 720.0]
    shuffled = [900.0, 700.0, 720.0, 750.0, 880.0]
    assert compute_sdnn(rr) == pytest.approx(compute_sdnn(shuffled), rel=1e-12)
    assert compute_rmssd(rr) != pytest.approx(compute_rmssd(shuffled), rel=1e-6)


@given(st.lists(st.floats(min_value=300, max_value=2000), min_size=2, max_size=300))
def test_features_match_brute_force(rr):
    assert compute_rmssd(rr) == pytest.approx(brute_rmssd(rr), rel=1e-9, abs=1e-9)
    assert compute_sdnn(rr) == pytest.approx(brute_sdnn(rr), rel=1e-9, abs=1e-9)
    assert compute_rmssd(rr) >= 0 and math.isfinite(compute_rmssd(rr))
    assert compute_sdnn(rr) >= 0 and math.isfinite(compute_sdnn(rr))


def test_zero_iff_constant():
    assert compute_rmssd([812.5] * 10) == 0.0
    assert compute_sdnn([812.5] * 10) == 0.0
    assert compute_rmssd([800, 801]) > 0
    assert compute_sdnn([800, 801]) > 0
    # 3-decimal constants, as a CSV carries them, give exactly zero SDNN.
    rng = random.Random(1996)
    for _ in range(500):
        value, n = round(rng.uniform(300, 2000), 3), rng.randint(2, 300)
        assert compute_sdnn([value] * n) == 0.0, (value, n)


# -- baseline ---------------------------------------------------------------

def _window(hr=70.0, rmssd=40.0, sdnn=50.0, start=0, end=120000):
    return FeatureWindow(start, end, rmssd, sdnn, hr, 0.0, 0.0, 0.0,
                         context=ContextFlags())


def test_baseline_constant_calibration_uses_floors():
    baseline = compute_baseline([_window(), _window(), _window()])
    assert baseline.mean_hr == 70.0
    assert baseline.mean_rmssd == 40.0
    assert baseline.mean_sdnn == 50.0
    assert baseline.hr_scale == 3.0
    assert baseline.rmssd_scale == 5.0
    assert baseline.sdnn_scale == 5.0


def test_baseline_spread_above_floor():
    windows = [_window(hr=68.0), _window(hr=70.0), _window(hr=72.0)]
    baseline = compute_baseline(windows)
    assert baseline.mean_hr == pytest.approx(70.0)
    # sample SD of {68,70,72} is 2, below the 3 bpm floor
    assert baseline.hr_scale == 3.0
    wide = [_window(hr=60.0), _window(hr=70.0), _window(hr=80.0)]
    assert compute_baseline(wide).hr_scale == pytest.approx(10.0)


def test_baseline_requires_three_windows():
    with pytest.raises(InsufficientDataError):
        compute_baseline([_window(), _window()])


def test_baseline_rejects_non_positive():
    with pytest.raises(ValueError):
        Baseline(0.0, 40.0, 50.0, 3.0, 5.0, 5.0)


# -- context derivation -----------------------------------------------------

def test_context_accumulates_work_minutes():
    ctx = [ContextSample(0, True, ActivityState.SEDENTARY)]
    flags = context_at(ctx, 30 * 60000)
    assert flags.work_minutes_continuous == pytest.approx(30.0)
    assert flags.session_active


def test_context_resets_on_break():
    ctx = [
        ContextSample(0, True, ActivityState.SEDENTARY),
        ContextSample(20 * 60000, False, ActivityState.ACTIVE),
        ContextSample(25 * 60000, True, ActivityState.SEDENTARY),
    ]
    assert context_at(ctx, 22 * 60000).work_minutes_continuous == 0.0
    after = context_at(ctx, 35 * 60000)
    assert after.work_minutes_continuous == pytest.approx(10.0)


def test_context_defaults_without_stream():
    flags = context_at([], 45 * 60000)
    assert flags.session_active
    assert flags.work_minutes_continuous == pytest.approx(45.0)


# -- windowing --------------------------------------------------------------

def _alternating_trace(minutes=6.0, lo=800.0, hi=810.0):
    rr, t, flip = [], 0, False
    while t <= minutes * 60000:
        rr.append(RRSample(t, hi if flip else lo))
        flip = not flip
        t += 805
    return rr


def test_window_count_five_minute_trace():
    rr = [RRSample(t, 800.0) for t in range(0, 300001, 800)]
    hr = [HRSample(t, 75.0) for t in range(0, 300001, 1000)]
    windows = window_features(rr, hr, [], Baseline.provisional(), 120, 60)
    assert len(windows) == 4
    assert [(w.window_start, w.window_end) for w in windows] == [
        (0, 120000), (60000, 180000), (120000, 240000), (180000, 300000)]


def test_window_z_identity_at_baseline():
    rr = _alternating_trace()
    hr = [HRSample(t, 74.534) for t in range(0, 6 * 60000, 1000)]
    probe = window_features(rr, hr, [], Baseline.provisional(), 120, 60)[0]
    baseline = Baseline(probe.mean_hr, probe.rmssd, probe.sdnn, 3.0, 5.0, 5.0)
    windows = window_features(rr, hr, [], baseline, 120, 60)
    first = windows[0]
    assert first.z_hr == pytest.approx(0.0, abs=1e-12)
    assert first.z_rmssd == pytest.approx(0.0, abs=1e-12)
    assert first.z_sdnn == pytest.approx(0.0, abs=1e-12)


def test_window_unit_deviation():
    rr = [RRSample(t, 800.0) for t in range(0, 300001, 800)]
    baseline = Baseline(72.0, 10.0, 5.0, 3.0, 5.0, 5.0)
    hr = [HRSample(t, baseline.mean_hr + baseline.hr_scale)
          for t in range(0, 300001, 1000)]
    windows = window_features(rr, hr, [], baseline, 120, 60)
    assert all(w.z_hr == pytest.approx(1.0) for w in windows)


def test_window_skips_sparse_and_derives_hr_from_rr():
    # one lonely beat in the first two minutes: those windows are skipped
    rr = [RRSample(0, 800.0)] + [RRSample(t, 800.0)
                                 for t in range(120000, 300001, 800)]
    windows = window_features(rr, [], [], Baseline.provisional(), 120, 60)
    starts = [w.window_start for w in windows]
    assert 0 not in starts
    assert all(w.mean_hr == pytest.approx(75.0) for w in windows)


def test_window_len_floor_enforced():
    with pytest.raises(ValueError):
        window_features([], [], [], Baseline.provisional(), 30, 30)


def test_window_features_all_finite_random():
    rng = random.Random(5)
    rr, t = [], 0
    while t < 600000:
        beat = rng.uniform(400, 1500)
        t += int(beat)
        rr.append(RRSample(t, beat))
    windows = window_features(reject_artifacts(rr), [], [],
                              Baseline.provisional(), 120, 60)
    for w in windows:
        for value in (w.rmssd, w.sdnn, w.mean_hr, w.z_hr, w.z_rmssd, w.z_sdnn):
            assert math.isfinite(value)
        assert w.rmssd >= 0 and w.sdnn >= 0
