"""Ingestion, artifact filtering, and windowed feature extraction."""

from __future__ import annotations

import bisect
import dataclasses
import gc
import io
import math
import random
import struct
import sys
import tracemalloc
from array import array
from itertools import compress, pairwise
from statistics import fmean
from typing import Callable, Sequence

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import time_bound
from scentctl import ingest
from scentctl.ingest import (
    DEFAULT_STRIDE_S,
    DEFAULT_WINDOW_LEN_S,
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
    parse_context_stream,
    parse_hr_stream,
    parse_rr_stream,
    reject_artifacts,
    window_features,
    write_context_csv,
    write_series_csv,
)
from scentctl.ingest import _parse_samples


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


def test_series_repr_shows_column_values():
    assert repr(Series((0, 800), (800.0, 810.0))) == (
        "Series(timestamps=(0, 800), values=(800.0, 810.0))")
    assert repr(Series((), ())) == "Series(timestamps=(), values=())"


def test_series_columns_are_read_only():
    for series in (Series((0, 800), (800.0, 810.0)),
                   parse_rr_stream("0,800\n800,810")):
        with pytest.raises(TypeError):
            series.values[0] = 1.0
        with pytest.raises(TypeError):
            series.timestamps[0] = 1
        with pytest.raises(TypeError):
            series.timestamps[:1][0] = 1  # a slice shares the same buffer
        assert tuple(series.values) == (800.0, 810.0)


def test_series_from_tuples_equals_parsed_series():
    parsed = parse_rr_stream("0,800\n800,810.5\n1610,790")
    built = Series((0, 800, 1610), (800.0, 810.5, 790.0))
    assert built == parsed and parsed == built
    assert built != Series((0, 800, 1610), (800.0, 810.5, 791.0))


def test_series_timestamps_take_4_bytes_when_they_all_fit():
    top = 2**31 - 1
    for ts in ((0, 800), (-top - 1, top)):
        series = Series(ts, (800.0, 810.0))
        assert series.timestamps.format == "i", ts
        assert tuple(series.timestamps) == ts
    for ts in ((0, top + 1), (-top - 2, 0)):
        with pytest.raises(OverflowError):
            Series(ts, (800.0, 810.0))
    # a view of another format is copied into 4 bytes
    assert Series(memoryview(array("q", (0, 800))).toreadonly(),
                  (800.0, 810.0)).timestamps.format == "i"


def test_series_keeps_a_read_only_view_of_either_width():
    # Read-only views of the two column formats, the 4-byte timestamps
    # and the 8-byte values, are kept as given; a writable one is copied.
    ts = memoryview(array("i", (0, 800))).toreadonly()
    vs = memoryview(array("d", (800.0, 810.0))).toreadonly()
    series = Series(ts, vs)
    assert series.timestamps is ts and series.values is vs
    copied = Series(memoryview(array("i", (0, 800))), vs)
    assert copied.timestamps.readonly and copied == series
    assert series != Series((0, 801), (800.0, 810.0))


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
    assert parse_rr_stream("\n \r\ntimestamp_ms,rr_ms\n0,800") == Series((0,), (800.0,))


@pytest.mark.parametrize("parse, text, message", [
    (parse_rr_stream, "timestamp_ms,rr_ms\nO,800\n1000,810",
     "line 2: bad timestamp 'O'"),
    (parse_rr_stream, "ts,rr\n\n\tt,rr\n0,800", "line 3: bad timestamp 't'"),
    (parse_hr_stream, "a\ntimestamp_ms\n0,72", "line 2: expected 2 fields, got 1"),
    (parse_context_stream, "timestamp_ms,session_active,activity_state\n"
     "t,1,sedentary\n0,1,sedentary", "line 2: bad timestamp 't'"),
])
def test_parse_only_first_nonblank_line_may_be_header(parse, text, message):
    with pytest.raises(StreamFormatError) as info:
        parse(text)
    assert str(info.value) == message


# The line breaks str.splitlines() knows besides "\n", "\r" and "\r\n".
# No reader or CSV export ends a line at one, so none does here.
_OTHER_BREAKS = ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


def test_parse_other_line_breaks_do_not_end_a_line():
    for brk in _OTHER_BREAKS:
        with pytest.raises(StreamFormatError) as info:
            parse_rr_stream(f"0,800{brk}800,810")
        assert info.value.line == 1
        assert str(info.value) == "line 1: expected 2 fields, got 3"


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
    with pytest.raises(StreamFormatError) as info:
        parse_context_stream("0,1,sedentary\n60000,0,walking")
    assert str(info.value) == "line 2: bad activity state 'walking'"


def _written(write, *args) -> str:
    out = io.StringIO()
    write(out, *args)
    return out.getvalue()


def test_csv_writers_round_trip():
    samples = Series((0, 805), (800.0, 805.25))
    text = _written(write_series_csv, samples, "rr_ms")
    assert text == "timestamp_ms,rr_ms\n0,800.000\n805,805.250\n"
    assert parse_rr_stream(text) == samples
    hr = Series((0, 1000), (72.5, 71.125))
    text = _written(write_series_csv, hr, "hr_bpm")
    assert text == "timestamp_ms,hr_bpm\n0,72.500\n1000,71.125\n"
    assert parse_hr_stream(text) == hr
    ctx = [ContextSample(0, True, ActivityState.SEDENTARY),
           ContextSample(60000, False, ActivityState.ACTIVE)]
    text = _written(write_context_csv, ctx)
    assert text == ("timestamp_ms,session_active,activity_state\n"
                    "0,1,sedentary\n60000,0,active\n")
    assert parse_context_stream(text) == ctx


_OUT_OF_RANGE = ("out of range: timestamps are milliseconds since session "
                 "start, at most 24.8 days")


@pytest.mark.parametrize("schema, value", [
    ("rr", "800"), ("hr", "72.5"), ("context", "1,active"),
], ids=["rr", "hr", "context"])
def test_parse_timestamp_bounded_by_31_bits(schema, value):
    top = 2**31 - 1
    # a header sends its batch row by row; without one, rr and hr take the
    # batch path
    for header in ("", "timestamp_ms,value\n"):
        parsed = _parse_samples(f"{header}0,{value}\n{top},{value}\n", schema)
        stamps = ([row.timestamp for row in parsed] if schema == "context"
                  else list(parsed.timestamps))
        assert stamps == [0, top]
        for pad in ("", " "):
            text = f"{header}0,{value}\n{pad}{top + 1}{pad},{value}\n"
            line = 2 + bool(header)
            with pytest.raises(StreamFormatError) as info:
                _parse_samples(text, schema)
            assert info.value.line == line
            assert str(info.value) == (
                f"line {line}: timestamp {top + 1} {_OUT_OF_RANGE}")


@pytest.mark.parametrize("parse", [parse_rr_stream, parse_hr_stream])
def test_parse_timestamps_into_4_bytes_while_they_fit(parse):
    narrow = parse(f"timestamp_ms,value\n0,80\n{2**31 - 1},80\n")
    assert (narrow.timestamps.format, narrow.timestamps.itemsize) == ("i", 4)
    assert tuple(narrow.timestamps) == (0, 2**31 - 1)


# (text, the line of its first row above 2**31 - 1 that the parse reaches,
# or None). Wherever the text is cut into batches, the parse runs once and
# refuses that row, as the reference does.
_EPOCH = 1_700_000_000_000
_WIDENING = [
    pytest.param("".join(f"{_EPOCH + 800 * i},{800 + i}\n" for i in range(6)), 1,
                 id="epoch"),
    pytest.param(f"ts,rr\n{_EPOCH},800\n{_EPOCH},790\n{_EPOCH + 800},810\n", 2,
                 id="epoch-after-header"),
    pytest.param(f"0,800\n800,810\n{2**31 - 1},805\n{2**31},800\n{2**31 + 800},810\n",
                 4, id="crossing"),
    pytest.param(f"0,800\n{2**31 - 1},805\n{2**31},800\n{2**31},790\n{2**31 + 9},7\n",
                 3, id="crossing-then-duplicate"),
    pytest.param(f"0,800\n{2**31 - 1},805\n{2**31 - 1},790\n{2**31},800\n", 4,
                 id="duplicate-then-crossing"),
    pytest.param(f"0,800\n{2**31},800\nts,rr\n", 2, id="crossing-then-header-like"),
    pytest.param(f"0,800\n{2**31},800\n{2**31 - 1},800\n", 2,
                 id="crossing-then-decrease"),
    # the header-like row is refused first
    pytest.param(f"0,800\nts,rr\n{2**31},800\n", None, id="header-like-then-wide"),
    pytest.param(f"0,800\n{2**31 - 1},805\n{2**31 - 1},790\n", None,
                 id="duplicate-at-the-top"),
]


@pytest.mark.parametrize("text, wide_line", _WIDENING)
def test_parse_widens_timestamps_once_at_the_first_wide_row(text, wide_line):
    # A wide row is one whose timestamp would need a column wider than
    # 4 bytes; the parse refuses it instead of widening.
    reference = _parse_outcome(reference_parse_samples, "rr", text)
    refused = isinstance(reference, tuple) and _OUT_OF_RANGE in reference[0]
    assert refused == (wide_line is not None)
    if refused:
        assert reference[1] == wide_line
    calls = []

    def parse(stream, schema):
        calls.append(schema)
        return _parse_samples(stream, schema)

    for chunk_chars in range(1, len(text) + 2):
        calls.clear()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ingest, "_CHUNK_CHARS", chunk_chars)
            patch.setattr(ingest, "_parse_samples", parse)
            assert _parse_outcome(ingest._parse_samples, "rr", text) == reference
        assert calls == ["rr"], chunk_chars


def test_parse_context_stream_once_with_epoch_timestamps():
    # Context timestamps obey the RR/HR bound: an epoch-millisecond
    # stream is refused at its first row, in one parse.
    text = "".join(f"{_EPOCH + 60_000 * i},{i % 2},sedentary\n" for i in range(5))
    calls = []

    def parse(stream, schema):
        calls.append(schema)
        return _parse_samples(stream, schema)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ingest, "_parse_samples", parse)
        outcome = _parse_outcome(lambda text, _: parse_context_stream(text),
                                 "context", text)
    assert calls == ["context"]
    assert outcome == (f"line 1: timestamp {_EPOCH} {_OUT_OF_RANGE}", 1)
    assert outcome == _parse_outcome(reference_parse_samples, "context", text)


@pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
def test_parse_and_filter_session_relative_rows_in_4_byte_timestamps(newline):
    # 200k rows, one artifact in 50, so the filter copies its columns.
    # Timestamps since session start take 4 bytes, so the parsed and the
    # filtered columns together cost 24 bytes per row where 8-byte ones
    # cost 32; the rest is one batch of lines. A "\r\n" line keeps its
    # "\r", which is stripped, so such rows take the batch path too.
    rows = 200_000
    text = f"timestamp_ms,rr_ms{newline}" + "".join(
        f"{i * 800},{2500 if i % 50 == 49 else 800 + i % 7}.25{newline}"
        for i in range(rows))
    gc.collect()
    tracemalloc.start()
    try:
        rr = reject_artifacts(parse_rr_stream(text))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(rr) == rows - rows // 50
    assert rr.timestamps.format == "i"
    assert peak / rows <= 28, f"{peak / rows:.1f} bytes per row"


@pytest.mark.parametrize("parse", [parse_rr_stream, parse_hr_stream])
@pytest.mark.parametrize("header, first_ts", [
    ("", _EPOCH), ("timestamp_ms,value\n", _EPOCH), ("", 2**31 - 100 * 800),
], ids=["epoch", "epoch-after-header", "crossing-at-row-100"])
def test_parse_wide_timestamps_peak_memory_per_row(parse, header, first_ts):
    # A stream is refused at its first timestamp above 2**31 - 1. Until
    # then it costs its 4-byte timestamp and 8-byte value columns, 12 bytes
    # per row; parsing it again into 8-byte timestamps would peak at 16.
    rows = 200_000
    text = header + "".join(f"{first_ts + i * 800},{70 + i % 7}.5\n"
                            for i in range(rows))
    first_wide = max(0, -(-(2**31 - first_ts) // 800))  # its row index
    gc.collect()
    tracemalloc.start()
    try:
        with pytest.raises(StreamFormatError) as info:
            parse(text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert info.value.line == first_wide + 1 + bool(header)
    assert peak / rows <= 13, f"{peak / rows:.1f} bytes per row"


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


def test_filters_share_clean_input():
    # Series is immutable, so input with nothing to drop is returned as is
    rr = _rr([800, 810, 805])
    hr = Series((0, 1000), (20.0, 250.0))
    assert reject_artifacts(rr) is rr
    assert clean_hr(hr) is hr
    assert reject_artifacts(_rr([800, 2500])) == _rr([800])


@pytest.mark.parametrize("code", ["i", "q"])
def test_filters_keep_their_input_timestamp_width(code):
    # A Series holds its timestamps in 4 bytes whatever view it was given,
    # and a filtered copy keeps them there.
    ts = memoryview(array(code, (0, 800, 1600))).toreadonly()
    rr = reject_artifacts(Series(ts, (800.0, 2500.0, 810.0)))
    hr = clean_hr(Series(ts, (72.0, 300.0, 71.0)))
    for out in (rr, hr):
        assert out.timestamps.format == "i"
        assert tuple(out.timestamps) == (0, 1600)


@pytest.mark.parametrize("filter_, good, bad", [
    (reject_artifacts, 800.0, 2500.0), (clean_hr, 70.0, 300.0),
], ids=["rr", "hr"])
def test_filters_allocate_kept_columns_once_at_their_final_size(filter_, good,
                                                                 bad):
    # 200k rows, one in 50 dropped. Each kept column is allocated once, at
    # its final size, so it keeps no spare capacity, and the peak is the kept
    # rows' 12 bytes each plus the list of dropped indices, about 37 bytes per
    # dropped row. A column grown run by run keeps about 2.5 % spare
    # capacity: 51 bytes per dropped row here.
    rows = 200_000
    samples = Series(
        memoryview(array("i", range(0, rows * 800, 800))).toreadonly(),
        memoryview(array("d", [bad if i % 50 == 49 else good + i % 7
                               for i in range(rows)])).toreadonly())
    gc.collect()
    tracemalloc.start()
    try:
        kept = filter_(samples)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(kept) == rows - rows // 50
    for column in (kept.timestamps, kept.values):
        empty = array(column.format)
        assert sys.getsizeof(column.obj) == sys.getsizeof(empty) + column.nbytes
    extra = (peak - kept.timestamps.nbytes - kept.values.nbytes) / (rows // 50)
    assert extra <= 40, f"{extra:.1f} bytes per dropped row"


def test_reject_all_rejected_yields_empty():
    assert reject_artifacts(_rr([2500, 2600])) == Series((), ())


def test_clean_hr_range():
    samples = Series((0, 1000, 2000, 3000, 4000), (72.0, 300.0, 10.0, 20.0, 250.0))
    assert clean_hr(samples) == Series((0, 3000, 4000), (72.0, 20.0, 250.0))
    # NaN and the infinities are out of range; the bounds themselves are in
    edges = (math.nextafter(20.0, 0.0), math.nextafter(250.0, 300.0),
             math.nan, math.inf, -math.inf, -0.0, 72.0)
    assert clean_hr(Series(range(0, 7000, 1000), edges)) == Series((6000,), (72.0,))


@given(st.lists(st.floats(min_value=200, max_value=2500), min_size=1, max_size=60))
def test_reject_idempotent(values):
    samples = _rr(values)
    once = reject_artifacts(samples)
    assert reject_artifacts(once) == once


def reference_select(samples: Series, keep: list[bool]) -> Series:
    """The filters' row selection as it was, through `itertools.compress`."""
    if all(keep):
        return samples  # immutable, so sharing it is safe
    return Series(tuple(compress(samples.timestamps, keep)),
                  tuple(compress(samples.values, keep)))


@st.composite
def _keep_masks(draw):
    """(values, keep): a column and one keep flag per value."""
    values = draw(st.lists(st.floats(allow_nan=False), max_size=40))
    n = len(values)
    return values, draw(st.lists(st.booleans(), min_size=n, max_size=n))


@example(([800.0], [False]))
@example(([800.0, 810.0], [True, True]))
@example(([800.0, 810.0, 820.0], [False, True, False]))
@given(_keep_masks())
def test_drop_matches_compress_reference(case):
    values, keep = case
    samples = _rr(values)
    dropped = [i for i, k in enumerate(keep) if not k]
    out = ingest._drop(samples, dropped)
    ref = reference_select(samples, keep)
    assert (tuple(out.timestamps), tuple(out.values)) == (
        tuple(ref.timestamps), tuple(ref.values))
    assert (out is samples) == (not dropped)


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
    return FeatureWindow(start, end, rmssd, sdnn, hr, Baseline.provisional(),
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

def _context_at(ctx, t):
    """The context `window_features` gives its one window, [0, t).

    ``t`` must be at least 60 s, the shortest window."""
    rr = Series((0, 1, t), (800.0, 800.0, 800.0))
    with time_bound(10):
        [window] = window_features(rr, Series((), ()), ctx,
                                   Baseline.provisional(), t / 1000, 60)
    assert window.window_end == t
    return window.context


def test_context_accumulates_work_minutes():
    ctx = [ContextSample(0, True, ActivityState.SEDENTARY)]
    flags = _context_at(ctx, 30 * 60000)
    assert flags.work_minutes_continuous == pytest.approx(30.0)
    assert flags.session_active


def test_context_resets_on_break():
    ctx = [
        ContextSample(0, True, ActivityState.SEDENTARY),
        ContextSample(20 * 60000, False, ActivityState.ACTIVE),
        ContextSample(25 * 60000, True, ActivityState.SEDENTARY),
    ]
    assert _context_at(ctx, 22 * 60000).work_minutes_continuous == 0.0
    after = _context_at(ctx, 35 * 60000)
    assert after.work_minutes_continuous == pytest.approx(10.0)


def test_context_defaults_without_stream():
    flags = _context_at([], 45 * 60000)
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
    with time_bound(10):
        windows = window_features(rr, Series((), ()), [],
                                  Baseline.provisional(), 120, 60)
    starts = [w.window_start for w in windows]
    assert 0 not in starts
    assert all(w.mean_hr == pytest.approx(75.0) for w in windows)


def test_window_stride_floor_enforced():
    for stride_s in (0.0004, 0.0, -1.0):
        with pytest.raises(ValueError, match="^stride_s must round to at least 1 ms$"):
            window_features(Series((), ()), Series((), ()), [],
                            Baseline.provisional(), 120, stride_s)


def test_window_len_floor_enforced():
    for window_len_s in (30, 59.999):
        with pytest.raises(ValueError, match="^window_len_s must be at least 60 s$"):
            window_features(Series((), ()), Series((), ()), [],
                            Baseline.provisional(), window_len_s, 30)
    assert window_features(Series((), ()), Series((), ()), [],
                           Baseline.provisional(), 60, 30) == []


@pytest.mark.parametrize("name", ["window_len_s", "stride_s"])
@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan],
                         ids=["inf", "-inf", "nan"])
def test_window_refuses_non_finite_length_and_stride(name, value):
    args = {"window_len_s": 120.0, "stride_s": 60.0, name: value}
    rr = _series((t, 800.0) for t in range(0, 300001, 800))
    with pytest.raises(ValueError, match=f"^{name} must be finite, got {value}$"):
        window_features(rr, Series((), ()), [], Baseline.provisional(), **args)


def test_window_swaps_its_baseline_without_measuring_again(monkeypatch):
    rr = _alternating_trace()
    hr = _series((t, 74.5) for t in range(0, 6 * 60000, 1000))
    windows = window_features(rr, hr, [], Baseline.provisional(), 120, 60)

    def measured(rr):
        raise AssertionError("an HRV kernel ran")

    monkeypatch.setattr(ingest, "compute_rmssd", measured)
    monkeypatch.setattr(ingest, "compute_sdnn", measured)
    b = Baseline(72.0, 4.0, 3.0, 3.0, 5.0, 6.0)
    for w in windows:
        swapped = dataclasses.replace(w, baseline=b)
        assert swapped.baseline is b
        assert dataclasses.replace(swapped, baseline=w.baseline) == w
        for field in ("window_start", "window_end", "rmssd", "sdnn",
                      "mean_hr", "context"):
            assert getattr(swapped, field) is getattr(w, field)
        assert (swapped.z_hr, swapped.z_rmssd, swapped.z_sdnn) == (
            (w.mean_hr - 72.0) / 3.0, (w.rmssd - 4.0) / 5.0, (w.sdnn - 3.0) / 6.0)
        assert (swapped.z_hr, swapped.z_rmssd, swapped.z_sdnn) != (
            w.z_hr, w.z_rmssd, w.z_sdnn)


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
# compared with the zipped columns of a `Series`. One rule differs from the
# copy: only the first non-blank line may be a header (the copy skipped
# every non-numeric row before the first data row). The new code must agree
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
    first = True
    for line_no, raw in enumerate(stream.split("\n"), start=1):
        line = raw.strip()
        if not line:
            continue
        fields = [f.strip() for f in line.split(",")]
        if first:
            first = False
            if not _ref_looks_numeric(fields[0]):
                continue  # optional header: the first non-blank line only
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
        if ts > 2**31 - 1:
            raise StreamFormatError(
                f"timestamp {ts} out of range: timestamps are milliseconds "
                f"since session start, at most 24.8 days", line_no)

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
# non-ASCII spaces and \x1f.
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
    # Some streams start a few beats below the largest timestamp, so they
    # cross it, on the batch path and on the row-by-row one.
    ts = draw(st.integers(0, 3)) + draw(st.sampled_from([0, 0, 0, 2**31 - 4000]))
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
    ending = draw(st.sampled_from(["\n", "\r\n"]))
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
@example(("rr", f"0,800\n{2**31 - 1},800\n{2**31},800"))
@example(("context", f"ts,a,b\n{2**31 - 1},1,active\n{2**31},0,active"))
@given(_streams())
def test_parse_matches_line_by_line_reference(case):
    schema, text = case
    assert (_parse_outcome(_parse_samples, schema, text)
            == _parse_outcome(reference_parse_samples, schema, text))


@settings(max_examples=200)
@example(("hr", f"{2**31 - 801},72\n{2**31 - 1},72\n{2**31},72\n"), 12)
@given(_streams(), st.integers(1, 64))
def test_parse_matches_reference_when_cut_into_chunks(case, chunk_chars):
    schema, text = case
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ingest, "_CHUNK_CHARS", chunk_chars)
        assert (_parse_outcome(_parse_samples, schema, text)
                == _parse_outcome(reference_parse_samples, schema, text))


# The edges of the batch path's JSON scan: numbers int() and float() read
# but JSON does not (leading zeros, "5.", ".5", over 4,300 digits), a
# timestamp JSON reads as a float, zero values, integer values a double
# rounds (2**53 + 1, and the largest double's neighbours: float() gives
# the largest double, then inf, where a JSON int is too large to convert),
# a 400-digit value, timestamps past 4 bytes, and the whitespace both
# strip. Each batch that JSON, struct or a check refuses goes row by row.
_EDGE_TIMESTAMPS = ["0{}", "{}.", "{}.0", ".5", "1" * 4301]
_EDGE_VALUES = ["0", "0.000", "5.", ".5", "0800", "00", "1" * 4301,
                "1" + "0" * 400, "1" + "0" * 400 + ".5", "9007199254740993",
                "17976931348623158" + "0" * 292, "17976931348623159" + "0" * 292]


@st.composite
def _gate_edge_streams(draw):
    """(schema, text): RR/HR rows, mostly ordinary, with gate edges drawn in."""
    noise = draw(st.sampled_from([0, 1, 3, 10]))  # edge picks per 40

    def pick(good, edge):
        if draw(st.integers(0, 39)) < noise:
            return draw(st.sampled_from(edge))
        return draw(st.sampled_from(good))

    def pad():
        return pick(["", "", "", "", " ", "\t"], [" \t ", "\t\t"])

    lines = [draw(st.sampled_from(["timestamp_ms,rr_ms", ""]))
             for _ in range(draw(st.integers(0, 2)))]
    # some streams cross the largest timestamp, which struct refuses
    ts = draw(st.integers(0, 3)) + draw(st.sampled_from([0, 0, 2**31 - 4000]))
    for _ in range(draw(st.integers(0, 30))):
        if draw(st.integers(0, 19)) == 0:
            lines.append(draw(st.sampled_from(["", " ", "\t"])))
            continue
        ts += draw(st.sampled_from([1, 800, 805, 1000]))
        ts_text = pick(["{}"], _EDGE_TIMESTAMPS).format(ts)
        value = pick(["800", "810.5", "72", "0.001"], _EDGE_VALUES)
        lines.append(f"{pad()}{ts_text}{pad()},{pad()}{value}{pad()}")
    ending = draw(st.sampled_from(["\n", "\r\n"]))
    text = ending.join(lines) + draw(st.sampled_from(["", ending]))
    return draw(st.sampled_from(["rr", "hr"])), text


@settings(max_examples=300)
@example(("rr", "0123,800\n1000,810"), None)
@example(("rr", "800,5.\n1600,.5\n2400,0800"), 4)
@example(("hr", "801.0,800\n1600,810"), None)
@example(("rr", "800,0.000\n1600,810"), None)
@example(("rr", f"800,1{'0' * 400}\r\n1600, 810\t\r\n"), 7)
@example(("hr", f"ts,hr\n\n{'1' * 4301},72\n"), None)
@example(("rr", f"800,9007199254740993\n1600,17976931348623159{'0' * 292}"), None)
@given(_gate_edge_streams(), st.one_of(st.none(), st.integers(1, 64)))
def test_parse_matches_reference_at_the_batch_gate(case, chunk_chars):
    schema, text = case
    with pytest.MonkeyPatch.context() as patch, time_bound(10):
        if chunk_chars is not None:
            patch.setattr(ingest, "_CHUNK_CHARS", chunk_chars)
        assert (_parse_outcome(_parse_samples, schema, text)
                == _parse_outcome(reference_parse_samples, schema, text))


# Cut 20 characters at a time, these rows fall into the batches shown.
# A batch with a blank or header-like row, a number JSON does not read as
# int() or float() does (``0123``, ``5.``, ``4201.0`` as a timestamp), or
# timestamps that do not rise strictly from the last one kept, is checked
# row by row; every other one takes the batch path, which writes the
# timestamps listed. CRLF and padded rows take the batch path. The last
# timestamp kept must carry across both paths, in both directions,
# duplicates and line numbers included.
@pytest.mark.parametrize("batches, batch_path", [
    ([["1000,800", "1800,810", "2600,805"],
      ["3400,800", "", "3400,790", "4200,795"],
      ["5000,700", "5800,800", "6600,810"]],
     [[1000, 1800, 2600], [5000, 5800, 6600]]),
    ([["1000,800", "1800,810", "2600,805"],
      ["2600,700", "3400,800", "3400,790"],
      ["4200,800", "", "4200,795", "5000,800"],
      ["5800,700"]],
     [[1000, 1800, 2600], [5800]]),
    ([["1000,800", "1800,810", "2600,805"],
      ["3400,800", "ts,rr_ms", "4200,795"],
      ["5000,800"]],
     [[1000, 1800, 2600]]),
    ([["1000,800", "1800,810", "2600,805"],
      ["3400,800", "", "4200,795", "4200,700"],
      ["4100,800", "5000,800", "5800,810"]],
     [[1000, 1800, 2600]]),
    ([["0,800", "0,790", "800,805"]], []),
    ([["0,800", f"{2**31 - 1},800"]], [[0, 2**31 - 1]]),
    ([["1000,800\r", "1800,1.0\r"], ["2600,805\r", "3400,800\r"],
      ["4200,795\r", "5000,790\r"]],
     [[1000, 1800], [2600, 3400], [4200, 5000]]),
    ([[" 1000 , 800 ", "\t1800,\t810.5"], ["2600 ,805  ", "3400,  800"],
      ["4200\t, 795", "5000 ,790"]],
     [[1000, 1800], [2600, 3400], [4200, 5000]]),
    ([["0123,800", "1000,810", "1800,805"], ["2600,800", "3400,810", "4200,805"]],
     [[2600, 3400, 4200]]),
    ([["800,5.", "1600,810", "2400,805"], ["3200,800", "4000,810", "4800,805"]],
     [[3200, 4000, 4800]]),
    ([["1000,800", "1800,810", "2600,805"], ["3400,800", "4201.0,800"],
      ["5000,805"]],
     [[1000, 1800, 2600]]),
], ids=["blank-row", "duplicates", "header-like-row", "decrease-after-row-loop",
        "duplicate-at-zero", "largest-timestamp", "crlf-rows", "padded-rows",
        "leading-zero", "bare-point-value", "float-timestamp"])
def test_parse_carries_last_timestamp_across_paths(batches, batch_path):
    text = "".join(f"{line}\n" for batch in batches for line in batch)
    written = {"i": [], "d": []}

    def pack_into(fmt, buffer, offset, *items):
        struct.pack_into(fmt, buffer, offset, *items)
        written[fmt[-1]].append(list(items))

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ingest, "_CHUNK_CHARS", 20)
        patch.setattr(ingest, "pack_into", pack_into)
        assert [batch.split("\n") for batch in ingest._batches(text)] == batches
        assert (_parse_outcome(_parse_samples, "rr", text)
                == _parse_outcome(reference_parse_samples, "rr", text))
    # a batch on the batch path writes both of its columns
    assert written["i"] == batch_path
    assert [len(vs) for vs in written["d"]] == [len(ts) for ts in batch_path]


# Every line boundary str.splitlines() knows, and text between them.
_LINE_PIECES = ["\n", "\r", "\r\n", *_OTHER_BREAKS, "", " ", "0", "12", "345"]


@example("a\r\nb", 2)
@example("\r\n\r\n", 1)
@example("\n\n0", 1)
@example("\n", 1)
@example("a\x85b\n\n", 1)
@given(st.lists(st.sampled_from(_LINE_PIECES), max_size=40).map("".join),
       st.integers(1, 8))
def test_batches_are_text_mode_lines(text, chunk_chars):
    # The lines a text-mode file iterator yields: at "\n" only, a final
    # "\n" starting no new line. "\r" and the other breaks stay inside.
    lines = [line.removesuffix("\n") for line in io.StringIO(text, newline="\n")]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ingest, "_CHUNK_CHARS", chunk_chars)
        batches = list(ingest._batches(text))
    assert [line for batch in batches for line in batch.split("\n")] == lines
    # Each batch ends at the first "\n" from its chunk_chars-th character
    # on, or at the text's end.
    assert all("\n" not in batch[chunk_chars - 1:] for batch in batches)
    assert all(len(batch) >= chunk_chars - 1 for batch in batches[:-1])


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


# A window end is at least one window length, 60 s, so the times here
# start there: the rows are placed around them.
@example([], [60000, 45 * 60000])
@example([ContextSample(90000, True, _SED)], [60000, 90000, 120000])
@example([ContextSample(90000, False, _SED), ContextSample(120000, True, _SED)],
         [60000, 90000, 150000])
@example([ContextSample(65000, True, _SED), ContextSample(69000, True, _SED),
          ContextSample(80000, False, _SED), ContextSample(90000, True, _SED)],
         [60000, 70000, 85000, 100000])
# rows stamped exactly at the time
@example([ContextSample(0, True, _SED), ContextSample(120000, False, _SED),
          ContextSample(180000, True, ActivityState.ACTIVE)],
         [120000, 180000, 240000])
# an inactive first row after the first time
@example([ContextSample(150000, False, ActivityState.ACTIVE),
          ContextSample(200000, True, _SED)], [120000, 150000, 260000])
# duplicate timestamps: the last row wins
@example([ContextSample(60000, False, _SED), ContextSample(90000, True, _SED),
          ContextSample(90000, False, ActivityState.ACTIVE),
          ContextSample(130000, True, _SED), ContextSample(130000, True, _SED)],
         [90000, 120000, 130000, 200000])
@given(_context_streams(), st.lists(st.integers(60000, 1_200_000),
                                    min_size=1, max_size=10))
def test_context_at_matches_reference(ctx, times):
    for t in times:
        assert _context_at(ctx, t) == reference_context_at(ctx, t)


# rows stamped exactly at window ends
@example([ContextSample(0, False, _SED), ContextSample(120000, True, _SED),
          ContextSample(180000, False, _SED), ContextSample(240000, True, _SED)])
# an inactive first row after the first window end
@example([ContextSample(150000, False, ActivityState.ACTIVE),
          ContextSample(270000, True, _SED)])
# duplicate timestamps, one of them at a window end
@example([ContextSample(30000, False, _SED), ContextSample(180000, True, _SED),
          ContextSample(180000, False, _SED), ContextSample(200000, True, _SED),
          ContextSample(200000, True, ActivityState.ACTIVE)])
@given(_context_streams())
def test_window_context_matches_reference(ctx):
    rr = _series((t, 800.0) for t in range(0, 600001, 4000))
    with time_bound(10):
        windows = window_features(rr, Series((), ()), ctx,
                                  Baseline.provisional(), 120, 60)
    assert len(windows) == 9
    for w in windows:
        assert w.context == reference_context_at(ctx, w.window_end)


def test_windows_of_an_inactive_run_share_one_flags_object():
    rr = _series((t, 800.0) for t in range(0, 3600001, 4000))
    ctx = [ContextSample(0, True, _SED),
           ContextSample(20 * 60000, False, ActivityState.ACTIVE),
           ContextSample(40 * 60000, True, _SED)]
    windows = window_features(rr, Series((), ()), ctx, Baseline.provisional(),
                              120, 60)
    off = [w for w in windows if not w.context.session_active]
    assert len(off) == 20
    assert all(w.context is off[0].context for w in off)
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


# `window_features` as it was when it walked every stride from t = 0, and
# the context lookup it called before the sweep tracked the context run
# itself (both verbatim but for their names); the sweep that jumps over
# strides holding fewer than two beats must emit exactly the same windows.

def _ref_context_lookup(
        samples: Sequence[ContextSample]) -> Callable[[int], ContextFlags]:
    """Build, in one pass over ``samples``, the contextual flags at ``t``.

    Continuous work minutes accumulate from the start of the current
    unbroken ``session_active`` run and reset to zero whenever the
    session is inactive. With no context stream the session is assumed
    active (continuous desk work) from time zero; state before the first
    record extends the first record backwards, and an active run that
    reaches the first record counts from time zero.

    The pass records each row's timestamp and the start of the active run
    the row belongs to, so each lookup is one bisect.
    """
    if not samples:
        return lambda t: ContextFlags(t / 60000.0, ActivityState.SEDENTARY, True)
    timestamps: list[int] = []
    run_starts: list[int] = []
    run_start, prev_active = 0, True
    for s in samples:
        if s.session_active and not prev_active:
            run_start = s.timestamp
        prev_active = s.session_active
        timestamps.append(s.timestamp)
        run_starts.append(run_start)

    def flags_at(t: int) -> ContextFlags:
        idx = max(bisect.bisect_right(timestamps, t) - 1, 0)
        current = samples[idx]
        if not current.session_active:
            return ContextFlags(0.0, current.activity_state, False)
        return ContextFlags((t - run_starts[idx]) / 60000.0,
                            current.activity_state, True)

    return flags_at


def reference_window_features(
    rr: Series,
    hr: Series,
    context: Sequence[ContextSample],
    baseline: Baseline,
    window_len_s: float = DEFAULT_WINDOW_LEN_S,
    stride_s: float = DEFAULT_STRIDE_S,
) -> list[tuple[FeatureWindow, tuple[float, float, float]]]:
    """Each window, with the z-values computed here from its statistics."""
    if window_len_s < 60:
        raise ValueError("window_len_s must be at least 60 s")
    if stride_s <= 0:
        raise ValueError("stride_s must be positive")

    rr_ts, rr_v = rr.timestamps, rr.values
    hr_ts, hr_v = hr.timestamps, hr.values

    ends = [a[-1] for a in (rr_ts, hr_ts) if a]
    if not ends:
        return []
    trace_end = max(ends)

    window_ms = round(window_len_s * 1000)
    stride_ms = round(stride_s * 1000)

    flags_at = _ref_context_lookup(context)
    windows: list[tuple[FeatureWindow, tuple[float, float, float]]] = []
    start = 0
    while start + window_ms <= trace_end:
        end = start + window_ms
        i0 = bisect.bisect_left(rr_ts, start)
        i1 = bisect.bisect_left(rr_ts, end)
        if i1 - i0 >= 2:
            seg = rr_v[i0:i1]
            rmssd = compute_rmssd(seg)
            sdnn = compute_sdnn(seg)
            j0 = bisect.bisect_left(hr_ts, start)
            j1 = bisect.bisect_left(hr_ts, end)
            if j1 > j0:
                mean_hr = fmean(hr_v[j0:j1])
            else:
                mean_hr = 60000.0 / fmean(seg)
            windows.append((FeatureWindow(
                window_start=start,
                window_end=end,
                rmssd=rmssd,
                sdnn=sdnn,
                mean_hr=mean_hr,
                baseline=baseline,
                context=flags_at(end),
            ), ((mean_hr - baseline.mean_hr) / baseline.hr_scale,
                (rmssd - baseline.mean_rmssd) / baseline.rmssd_scale,
                (sdnn - baseline.mean_sdnn) / baseline.sdnn_scale)))
        start += stride_ms
    return windows


@st.composite
def _sparse_traces(draw):
    """(rr, hr): bursts of beats separated by gaps, each trace offset."""
    def column(offset, steps, value):
        ts, t = [], offset
        for _ in range(draw(st.integers(0, 6))):  # bursts
            t += draw(st.sampled_from(steps))
            for _ in range(draw(st.integers(0, 40))):
                t += draw(st.integers(300, 2000))
                ts.append(t)
        return Series(tuple(ts), tuple(draw(value) for _ in ts))

    gaps = [0, 1, 999, 60_000, 119_999, 120_000, 400_000, 3_000_000]
    rr = column(draw(st.integers(0, 10**7)), gaps, st.floats(300, 2000))
    hr = column(draw(st.integers(0, 10**7)), gaps, st.floats(40, 180))
    return rr, hr


@settings(max_examples=200, deadline=None)
@example((_rr([800.0] * 2, start=10**7 + 1), _rr([70.0], start=2 * 10**7)),
         60.0, 60.0)
@example((_rr([800.0] * 2, start=5), _rr([70.0], start=10**7)), 60.0, 0.5)
@example((_rr([800.0] * 80), _rr([70.0] * 60, step=1000)), 60.0, 0.001)  # 1 ms
# After the lone beat at 100 s the sweep jumps to the first stride that
# reaches the beat at 130 s: 10.001 s, whose window ends 1 ms after it.
@example((Series((100_000, 130_000, 200_000), (800.0, 810.0, 805.0)),
          Series((), ())), 120.0, 10.001)
@given(_sparse_traces(),
       st.floats(60, 600),
       st.one_of(st.sampled_from([0.5, 1, 30, 60, 61.3]), st.floats(0.5, 900)))
def test_window_features_match_every_stride_reference(traces, window_len_s,
                                                      stride_s):
    rr, hr = traces
    ctx = [ContextSample(0, True, _SED), ContextSample(90_000, False, _SED),
           ContextSample(200_000, True, ActivityState.ACTIVE)]
    baseline = Baseline(72.0, 40.0, 50.0, 3.0, 5.0, 5.0)
    args = (rr, hr, ctx, baseline, window_len_s, stride_s)
    with time_bound(10):
        windows = window_features(*args)
    expected = reference_window_features(*args)
    # Window by window: pytest's diff of two whole reprs, thousands of
    # windows long at a 1 ms stride, takes minutes to explain a failure.
    assert len(windows) == len(expected)
    for got, (want, z) in zip(windows, expected):
        assert repr(got) == repr(want)
        assert repr((got.z_hr, got.z_rmssd, got.z_sdnn)) == repr(z)


# -- bit identity of the HRV kernels and the baseline ------------------------
#
# Verbatim copies (but for their names) of the kernels as they were when
# they called `statistics.fmean`. The new code must give the same bits:
# results are compared by `repr`.

def _ref_std(xs: Sequence[float], ddof: int = 0) -> float:
    """Std with divisor ``len(xs) - ddof``, centred on ``xs[0]`` so constants give 0.0."""
    dev = [x - xs[0] for x in xs]
    m = fmean(dev)
    return math.sqrt(math.fsum([(d - m) * (d - m) for d in dev]) / (len(dev) - ddof))


def _ref_compute_rmssd(rr: Sequence[float]) -> float:
    """Root mean square of successive differences over an RR sequence, ms."""
    if len(rr) < 2:
        raise InsufficientDataError(
            f"RMSSD needs at least 2 intervals, got {len(rr)}")
    return math.sqrt(fmean([(b - a) * (b - a) for a, b in pairwise(rr)]))


def _ref_compute_sdnn(rr: Sequence[float]) -> float:
    if len(rr) < 2:
        raise InsufficientDataError(
            f"SDNN needs at least 2 intervals, got {len(rr)}")
    return _ref_std(rr)


def _ref_compute_baseline(calibration: Sequence[FeatureWindow]) -> Baseline:
    if len(calibration) < 3:
        raise InsufficientDataError(
            f"baseline calibration needs at least 3 windows with two or more "
            f"kept RR beats, got {len(calibration)}: the calibration span has "
            f"gaps or the trace ends inside it")
    hr = [w.mean_hr for w in calibration]
    rmssd = [w.rmssd for w in calibration]
    sdnn = [w.sdnn for w in calibration]
    return Baseline(
        mean_hr=fmean(hr),
        mean_rmssd=fmean(rmssd),
        mean_sdnn=fmean(sdnn),
        hr_scale=max(_ref_std(hr, ddof=1), ingest.HR_SCALE_FLOOR),
        rmssd_scale=max(_ref_std(rmssd, ddof=1), ingest.RMSSD_SCALE_FLOOR),
        sdnn_scale=max(_ref_std(sdnn, ddof=1), ingest.SDNN_SCALE_FLOOR),
    )


@st.composite
def _rr_sequences(draw, min_size=2):
    """RR values as a list or as a read-only slice of an ``array('d')``:
    constant runs, values anywhere in 300-2000 ms (3-decimal or not), and
    runs drifting past twice their first value, where ``x - xs[0]`` is
    inexact."""
    kind = draw(st.sampled_from(["constant", "any", "csv", "drift"]))
    n = draw(st.integers(min_size, 300))
    if kind == "constant":
        values = [draw(st.floats(300, 2000))] * n
    elif kind == "drift":
        first = draw(st.floats(300, 990))
        values = [first] + draw(st.lists(st.floats(300, 2000),
                                         min_size=n - 2, max_size=n - 2))
        values.insert(draw(st.integers(1, n - 1)),
                      draw(st.floats(2 * first, 2000, exclude_min=True)))
    else:
        values = draw(st.lists(st.floats(300, 2000), min_size=n, max_size=n))
        if kind == "csv":
            values = [round(v, 3) for v in values]
    if draw(st.booleans()):
        return values
    before, after = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    column = array("d", [800.0] * before + values + [800.0] * after)
    return memoryview(column).toreadonly()[before:before + n]


@settings(max_examples=300)
@example([800.0, 800.0])
@example([300.0, 2000.0, 300.0])
@example([700.125, 1500.0625, 1999.999, 301.3])
@given(_rr_sequences())
def test_hrv_kernels_match_fmean_reference_bit_for_bit(rr):
    assert repr(compute_rmssd(rr)) == repr(_ref_compute_rmssd(rr))
    assert repr(compute_sdnn(rr)) == repr(_ref_compute_sdnn(rr))


@st.composite
def _calibrations(draw):
    """3-12 calibration windows; each statistic constant, CSV-like or free."""
    n = draw(st.integers(3, 12))

    def column(low, high):
        kind = draw(st.sampled_from(["constant", "any", "csv"]))
        if kind == "constant":
            return [draw(st.floats(low, high))] * n
        values = draw(st.lists(st.floats(low, high), min_size=n, max_size=n))
        return [round(v, 6) for v in values] if kind == "csv" else values

    hr, rmssd, sdnn = column(40, 180), column(0.5, 200), column(0.5, 300)
    return [_window(hr=h, rmssd=r, sdnn=s) for h, r, s in zip(hr, rmssd, sdnn)]


@settings(max_examples=300)
@example([_window(), _window(), _window()])
@example([_window(hr=60.0, rmssd=10.0, sdnn=400.0), _window(hr=80.0),
          _window(hr=70.0, rmssd=90.0, sdnn=20.0)])
@given(_calibrations())
def test_baseline_matches_fmean_reference_bit_for_bit(calibration):
    assert repr(compute_baseline(calibration)) == repr(
        _ref_compute_baseline(calibration))


def test_baseline_flat_calibration_is_insufficient_data():
    flat = [_window(rmssd=0.0, sdnn=0.0)] * 3
    with pytest.raises(ValueError, match="mean_rmssd must be strictly positive"):
        _ref_compute_baseline(flat)
    with pytest.raises(InsufficientDataError,
                       match="baseline calibration is flat: the RR intervals of "
                             "all 3 calibration windows are constant"):
        compute_baseline(flat)
