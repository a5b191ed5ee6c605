"""Ingestion, artifact filtering, and windowed feature extraction."""

from __future__ import annotations

import bisect
import gc
import math
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from scentctl.ingest import (
    ActivityState,
    Baseline,
    ContextFlags,
    ContextSample,
    FeatureWindow,
    InsufficientDataError,
    Series,
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
    render_hr_csv,
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
    return Series(tuple(range(start, start + len(values) * step, step)),
                  tuple(values))


def _series(pairs):
    pairs = list(pairs)
    return Series(tuple(t for t, _ in pairs), tuple(v for _, v in pairs))


def test_series_rejects_unequal_columns():
    with pytest.raises(ValueError, match="differ in length"):
        Series((0, 800), (800.0,))
    with pytest.raises(ValueError):
        Series((), (800.0,))


def test_series_len_is_row_count():
    assert len(Series((), ())) == 0
    assert len(_rr([800.0, 810.0, 790.0])) == 3
    assert len(parse_rr_stream("ts,rr\n0,800\n800,810\n800,805")) == 2


# -- parsing ----------------------------------------------------------------

def test_parse_rr_basic():
    assert parse_rr_stream("0,800\n800,810") == Series((0, 800), (800.0, 810.0))


def test_parse_duplicate_timestamp_keeps_last():
    assert parse_rr_stream("0,800\n0,790") == Series((0,), (790.0,))


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
    assert parse_rr_stream("timestamp_ms,rr_ms\n0,800") == Series((0,), (800.0,))


def test_parse_hr_and_context_schemas():
    assert parse_hr_stream("0,72.5") == Series((0,), (72.5,))
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
    samples = Series((0, 805), (800.0, 805.25))
    assert parse_rr_stream(render_rr_csv(samples)) == samples
    hr = Series((0, 1000), (72.5, 71.125))
    assert render_hr_csv(hr) == "timestamp_ms,hr_bpm\n0,72.500\n1000,71.125\n"
    assert parse_hr_stream(render_hr_csv(hr)) == hr
    ctx = [ContextSample(0, True, ActivityState.SEDENTARY)]
    assert parse_context_stream(render_context_csv(ctx)) == ctx


def test_parse_and_filter_build_no_per_sample_objects():
    rr_text = "timestamp_ms,rr_ms\n" + "".join(
        f"{i * 800},{800 + i % 7}.25\n" for i in range(50_000))
    hr_text = "".join(f"{i * 1000},{70 + i % 5}.5\n" for i in range(50_000))
    gc.collect()
    before = len(gc.get_objects())
    rr = reject_artifacts(parse_rr_stream(rr_text))
    hr = clean_hr(parse_hr_stream(hr_text))
    grown = len(gc.get_objects()) - before
    assert len(rr) == 50_000 and len(hr) == 50_000
    assert grown < 1_000, grown


# -- artifact rejection -----------------------------------------------------

def test_reject_out_of_range():
    out = reject_artifacts(_rr([800, 810, 2500, 805]))
    assert out == Series((0, 800, 2400), (800, 810, 805))


def test_reject_successive_jump():
    out = reject_artifacts(_rr([800, 1200, 810]))
    assert out == Series((0, 1600), (800, 810))


def test_reject_boundaries_inclusive():
    # a change of exactly 20 % and the range ends 300 and 2000 ms are kept
    assert reject_artifacts(_rr([800, 960, 1152])) == _rr([800, 960, 1152])
    assert reject_artifacts(_rr([800, 960.001])) == _rr([800])
    for edge in (300.0, 2000.0):
        assert reject_artifacts(_rr([edge])) == _rr([edge])


def test_reject_identity_on_clean_data():
    samples = _rr([800, 800, 800])
    assert reject_artifacts(samples) == samples


def test_reject_all_rejected_yields_empty():
    assert reject_artifacts(_rr([2500, 2600])) == Series((), ())


def test_clean_hr_range():
    samples = Series((0, 1000, 2000, 3000, 4000), (72.0, 300.0, 10.0, 20.0, 250.0))
    assert clean_hr(samples) == Series((0, 3000, 4000), (72.0, 20.0, 250.0))


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
        rr.append((t, hi if flip else lo))
        flip = not flip
        t += 805
    return _series(rr)


def test_window_count_five_minute_trace():
    rr = _series((t, 800.0) for t in range(0, 300001, 800))
    hr = _series((t, 75.0) for t in range(0, 300001, 1000))
    windows = window_features(rr, hr, [], Baseline.provisional(), 120, 60)
    assert len(windows) == 4
    assert [(w.window_start, w.window_end) for w in windows] == [
        (0, 120000), (60000, 180000), (120000, 240000), (180000, 300000)]


def test_window_z_identity_at_baseline():
    rr = _alternating_trace()
    hr = _series((t, 74.534) for t in range(0, 6 * 60000, 1000))
    probe = window_features(rr, hr, [], Baseline.provisional(), 120, 60)[0]
    baseline = Baseline(probe.mean_hr, probe.rmssd, probe.sdnn, 3.0, 5.0, 5.0)
    windows = window_features(rr, hr, [], baseline, 120, 60)
    first = windows[0]
    assert first.z_hr == pytest.approx(0.0, abs=1e-12)
    assert first.z_rmssd == pytest.approx(0.0, abs=1e-12)
    assert first.z_sdnn == pytest.approx(0.0, abs=1e-12)


def test_window_unit_deviation():
    rr = _series((t, 800.0) for t in range(0, 300001, 800))
    baseline = Baseline(72.0, 10.0, 5.0, 3.0, 5.0, 5.0)
    hr = _series((t, baseline.mean_hr + baseline.hr_scale)
                 for t in range(0, 300001, 1000))
    windows = window_features(rr, hr, [], baseline, 120, 60)
    assert all(w.z_hr == pytest.approx(1.0) for w in windows)


def test_window_skips_sparse_and_derives_hr_from_rr():
    # one lonely beat in the first two minutes: those windows are skipped
    rr = _series([(0, 800.0)] + [(t, 800.0) for t in range(120000, 300001, 800)])
    windows = window_features(rr, Series((), ()), [], Baseline.provisional(),
                              120, 60)
    starts = [w.window_start for w in windows]
    assert 0 not in starts
    assert all(w.mean_hr == pytest.approx(75.0) for w in windows)


def test_window_len_floor_enforced():
    with pytest.raises(ValueError):
        window_features(Series((), ()), Series((), ()), [],
                        Baseline.provisional(), 30, 30)


def test_window_features_all_finite_random():
    rng = random.Random(5)
    rr, t = [], 0
    while t < 600000:
        beat = rng.uniform(400, 1500)
        t += int(beat)
        rr.append((t, beat))
    windows = window_features(reject_artifacts(_series(rr)), Series((), ()),
                              [], Baseline.provisional(), 120, 60)
    for w in windows:
        for value in (w.rmssd, w.sdnn, w.mean_hr, w.z_hr, w.z_rmssd, w.z_sdnn):
            assert math.isfinite(value)
        assert w.rmssd >= 0 and w.sdnn >= 0


# -- differential checks against the line-by-line implementation -----------
#
# The references below are verbatim copies of the line-by-line
# `parse_samples` and the per-call `context_at` that the cheap parse path
# and the one-pass context lookup replaced; the parse reference yields
# (timestamp, value) pairs where it built one RR/HR object per row, and is
# compared with the zipped columns of a `Series`. The new code must agree
# with them on every input (differential testing: McKeeman 1998, Digital
# Technical Journal 10(1)).

_REF_TRUE_WORDS = {"1", "true", "yes"}
_REF_FALSE_WORDS = {"0", "false", "no"}


def _ref_parse_bool(text: str, line_no: int) -> bool:
    word = text.lower()
    if word in _REF_TRUE_WORDS:
        return True
    if word in _REF_FALSE_WORDS:
        return False
    raise StreamFormatError(f"expected boolean, got {text!r}", line_no)


def _ref_looks_numeric(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def reference_parse_samples(stream: str, schema: str = "rr") -> list:
    if schema not in ("rr", "hr", "context"):
        raise ValueError(f"unknown stream schema {schema!r}")
    n_fields = 3 if schema == "context" else 2

    samples: list = []
    prev_ts: int | None = None
    seen_data = False
    for line_no, raw in enumerate(stream.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        fields = [f.strip() for f in line.split(",")]
        if not seen_data and not _ref_looks_numeric(fields[0]):
            continue  # optional header
        if len(fields) != n_fields:
            raise StreamFormatError(
                f"expected {n_fields} fields, got {len(fields)}", line_no)
        try:
            ts = int(fields[0])
        except ValueError:
            raise StreamFormatError(
                f"bad timestamp {fields[0]!r}", line_no) from None
        if ts < 0:
            raise StreamFormatError("negative timestamp", line_no)

        if schema != "context":
            try:
                value = float(fields[1])
            except ValueError:
                raise StreamFormatError(
                    f"bad {schema} value {fields[1]!r}", line_no) from None
            if not value > 0:
                raise StreamFormatError(f"{schema} must be positive", line_no)
            sample: object = (ts, value)
        else:
            active = _ref_parse_bool(fields[1], line_no)
            try:
                activity = ActivityState(fields[2].lower())
            except ValueError:
                raise StreamFormatError(
                    f"bad activity state {fields[2]!r}", line_no) from None
            sample = ContextSample(ts, active, activity)

        if prev_ts is not None and ts < prev_ts:
            raise StreamFormatError(
                f"non-monotonic timestamp {ts} after {prev_ts}", line_no)
        if prev_ts is not None and ts == prev_ts:
            samples[-1] = sample  # duplicate timestamp: last value wins
        else:
            samples.append(sample)
        prev_ts = ts
        seen_data = True

    if not samples:
        raise StreamFormatError("empty stream")
    return samples


def reference_context_at(samples, t: int) -> ContextFlags:
    if not samples:
        return ContextFlags(work_minutes_continuous=t / 60000.0,
                            activity_state=ActivityState.SEDENTARY,
                            session_active=True)
    timestamps = [s.timestamp for s in samples]
    idx = bisect.bisect_right(timestamps, t) - 1
    if idx < 0:
        first = samples[0]
        if first.session_active:
            return ContextFlags(t / 60000.0, first.activity_state, True)
        return ContextFlags(0.0, first.activity_state, False)
    current = samples[idx]
    if not current.session_active:
        return ContextFlags(0.0, current.activity_state, False)
    j = idx
    while j > 0 and samples[j - 1].session_active:
        j -= 1
    run_start = 0 if j == 0 else samples[j].timestamp
    return ContextFlags((t - run_start) / 60000.0, current.activity_state, True)


# Whitespace that str.strip(), int() and float() all remove, including
# non-ASCII spaces; \x1f is whitespace that str.splitlines() keeps.
_PADS = ["", "", "", " ", "  ", "\t", "\xa0", "\u3000", "\x1f"]
# Per schema: values both parsers accept, then values they must reject.
_VALUES = {
    "rr": (["800", "810.5", "1_000", "+5", "1e3", "inf", "\uff18\uff10\uff10", "5e-324"],
           ["nan", "-inf", "0", "0.0", "-0.0", "-3", "abc", "", "0x10", "800,1"]),
    "context": (["1,sedentary", "0,active", "true,ACTIVE", "no , sedentary"],
                ["2,sedentary", "1,walking", "1", "1,active,x"]),
}
_VALUES["hr"] = _VALUES["rr"]


@st.composite
def _streams(draw):
    """(schema, text): mostly valid rows, with odd fragments at a drawn rate."""
    schema = draw(st.sampled_from(["rr", "hr", "context"]))
    noise = draw(st.sampled_from([0, 1, 3, 10]))  # odd picks per 40

    def pick(good, odd=()):
        if odd and draw(st.integers(0, 39)) < noise:
            return draw(st.sampled_from(odd))
        return draw(st.sampled_from(good))

    lines = [draw(st.sampled_from(["timestamp_ms,value", " ts , value "]))
             for _ in range(draw(st.integers(0, 1)))]
    ts = draw(st.integers(0, 3))
    for _ in range(draw(st.integers(0, 25))):
        kind = pick(["row"] * 6 + ["blank"], ["header", "odd"])
        if kind == "header":
            lines.append(draw(st.sampled_from(["timestamp_ms,rr_ms", "a,b,c", "a"])))
        elif kind == "blank":
            lines.append(draw(st.sampled_from(["", "  ", "\t"])))
        elif kind == "odd":
            lines.append(draw(st.sampled_from(
                [",", "800", "1,2,3", "0,800,", " ,800", "x,1", "-1,800"])))
        else:
            ts += pick([1, 800, 805, 1000, 0], [-1, -800])  # 0: duplicate
            ts_text = pick([str(ts), str(ts), f"{ts:_}", f"+{ts}", f"0{ts}"],
                           [f"{ts}.0", "-5", "x", ""])
            value = pick(*_VALUES[schema])
            lines.append(f"{pick(_PADS)}{ts_text}{pick(_PADS)},"
                         f"{pick(_PADS)}{value}{pick(_PADS)}")
    ending = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return schema, ending.join(lines) + draw(st.sampled_from(["", ending]))


def _parse_outcome(parse, schema, text):
    try:
        out = parse(text, schema)
    except StreamFormatError as exc:
        return str(exc), exc.line
    if isinstance(out, Series):
        out = list(zip(out.timestamps, out.values))
    return repr(out)  # repr: floats compared bit for bit


@settings(max_examples=200)
@example(("rr", "-1,800"))
@example(("rr", "0,800\n0,810\n800,0"))
@example(("hr", "timestamp_ms,hr_bpm\r\n\r\n 5 ,\u3000 72.5\x1f\r\n6,nan"))
@example(("context", "0,1,sedentary\n0,0,active\n-1,1,active"))
@given(_streams())
def test_parse_matches_line_by_line_reference(case):
    schema, text = case
    assert (_parse_outcome(parse_samples, schema, text)
            == _parse_outcome(reference_parse_samples, schema, text))


@st.composite
def _context_streams(draw):
    """Context rows with a first timestamp that may be > 0 and repeats."""
    rows, ts = [], draw(st.integers(0, 90000))
    for _ in range(draw(st.integers(0, 12))):
        rows.append(ContextSample(ts, draw(st.booleans()),
                                  draw(st.sampled_from(ActivityState))))
        ts += draw(st.one_of(st.just(0), st.integers(1, 90000)))
    return rows


_SED = ActivityState.SEDENTARY


@example([], [0, 45 * 60000])
@example([ContextSample(60000, True, _SED)], [30000, 60000, 120000])
@example([ContextSample(60000, False, _SED), ContextSample(90000, True, _SED)],
         [0, 60000, 120000])
@example([ContextSample(5000, True, _SED), ContextSample(9000, True, _SED),
          ContextSample(20000, False, _SED), ContextSample(30000, True, _SED)],
         [0, 10000, 25000, 40000])
@given(_context_streams(), st.lists(st.integers(-1000, 1_200_000),
                                    min_size=1, max_size=10))
def test_context_at_matches_reference(ctx, times):
    for t in times:
        assert context_at(ctx, t) == reference_context_at(ctx, t)


@given(_context_streams())
def test_window_context_matches_reference(ctx):
    rr = _series((t, 800.0) for t in range(0, 600001, 4000))
    windows = window_features(rr, Series((), ()), ctx, Baseline.provisional(),
                              120, 60)
    assert len(windows) == 9
    for w in windows:
        assert w.context == reference_context_at(ctx, w.window_end)


class _CountingList(list):
    """A list that counts the items read through indexing and iteration."""

    reads = 0

    def __getitem__(self, index):
        item = super().__getitem__(index)
        self.reads += len(item) if isinstance(index, slice) else 1
        return item

    def __iter__(self):
        for item in super().__iter__():
            self.reads += 1
            yield item


def test_window_features_reads_context_linearly():
    rr = _series((t, 800.0) for t in range(0, 6 * 3600001, 30000))
    ctx = _CountingList(ContextSample(t, (t // 21600) % 5 != 0, _SED)
                        for t in range(0, 6 * 3600000, 21600))
    windows = window_features(rr, Series((), ()), ctx, Baseline.provisional(),
                              120, 60)
    assert len(ctx) == 1000 and len(windows) == 359
    assert 0 < ctx.reads <= 2 * len(ctx) + len(windows)
