"""Physiological stream ingestion and sliding-window feature extraction.

Raw inter-beat (RR) and heart-rate (HR) streams arrive as line-oriented
CSV, are artifact-filtered, and are reduced to windowed time-domain
features (RMSSD, SDNN, mean HR), each window carrying the baseline its
deviations are read against and the contextual flags the classifier needs.

All timestamps are integer milliseconds since session start, at most
2**31 - 1 (24.8 days); parsing refuses a larger one at its line. RR and
HR are `Series` of two read-only typed columns with no object per sample:
timestamps in 4 bytes each, and doubles. Everything here is a pure
function over immutable data, safe from any thread.

Ingest is linear in its input. Parsing splits the input into batches of
lines, which end at ``"\n"`` alone, about 4 KiB at a time. A batch of
ordinary RR/HR rows (two plain decimal numbers each, timestamps rising
strictly from the last one kept, positive values) is converted by one JSON
scan and written into the columns in C; any other batch is checked row by
row, naming the offending line.
`iter_window_features` pays two bisects per stream and window, reads each
context row once, and holds no window after yielding it; a baseline sent
in mid-sweep lets one sweep calibrate on its first windows.
"""

from __future__ import annotations

import bisect
import math
from array import array
from dataclasses import dataclass
from enum import Enum
from itertools import pairwise
from json import loads
from operator import lt
from struct import error as StructError, pack_into
from typing import Iterable, Iterator, Sequence, TextIO

# Physiologically plausible inter-beat interval range, ms.
RR_MIN_MS = 300.0
RR_MAX_MS = 2000.0
# A sample differing from the last retained one by more than this
# fraction is treated as an artifact.
RR_MAX_REL_CHANGE = 0.20

# Heart-rate plausibility range, bpm.
HR_MIN_BPM = 20.0
HR_MAX_BPM = 250.0

# Normalization denominators never fall below these floors so a flat
# calibration phase cannot blow the z-values up.
HR_SCALE_FLOOR = 3.0
RMSSD_SCALE_FLOOR = 5.0
SDNN_SCALE_FLOOR = 5.0

# RMSSD is unstable below ~60 s of data; 120 s balances latency against
# stability given that actuation operates on a minutes scale anyway.
DEFAULT_WINDOW_LEN_S = 120.0
DEFAULT_STRIDE_S = 60.0
DEFAULT_CALIBRATION_MINUTES = 5.0

# The largest timestamp, 24.8 days: what a 4-byte `Series` timestamp holds.
_TS_MAX = 2**31 - 1
# Parsing splits its input into batches of lines about this many characters
# long. In-process, 1 and 2 KiB parsed a 7-day trace 34 % and 10 % slower,
# and 8-32 KiB 3-8 % faster, about 1 % of the trace's replay; a larger batch
# holds more per-row objects at once.
_CHUNK_CHARS = 1 << 12
# Deleting these from a batch of ordinary rows leaves one "," per line:
# digits, "." and the JSON whitespace that int() and float() strip too.
_ROW_CHARS = str.maketrans("", "", "0123456789. \t\r")


class StreamFormatError(ValueError):
    """A sample stream could not be parsed."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class InsufficientDataError(ValueError):
    """An operation received fewer samples than it needs."""


class ActivityState(str, Enum):
    SEDENTARY = "sedentary"
    ACTIVE = "active"


def _frozen(column: array) -> memoryview:
    return memoryview(column).toreadonly()


@dataclass(frozen=True, slots=True)
class Series:
    """An RR (ms) or HR (bpm) stream as two equal-length columns.

    The columns are read-only memoryviews: timestamps, signed 32-bit
    (format ``i``, 4 bytes), and doubles (``d``). A read-only view of
    that format is kept; any other sequence given is copied into a fresh
    column, and a timestamp that does not fit raises OverflowError.
    Slicing a column is zero-copy, and writing to one raises TypeError.
    """

    timestamps: memoryview
    values: memoryview

    def __post_init__(self) -> None:
        for name, code in (("timestamps", "i"), ("values", "d")):
            column = getattr(self, name)
            if not (isinstance(column, memoryview) and column.readonly
                    and column.format == code and column.c_contiguous):
                object.__setattr__(self, name, _frozen(array(code, column)))
        if len(self.timestamps) != len(self.values):
            raise ValueError("timestamps and values differ in length")

    def __len__(self) -> int:
        return len(self.timestamps)

    def __repr__(self) -> str:
        return (f"Series(timestamps={tuple(self.timestamps)!r}, "
                f"values={tuple(self.values)!r})")


@dataclass(frozen=True, slots=True)
class ContextSample:
    """One row of the context stream; flags hold until the next row."""

    timestamp: int
    session_active: bool
    activity_state: ActivityState


@dataclass(frozen=True, slots=True)
class ContextFlags:
    """Contextual state in effect at one instant."""

    work_minutes_continuous: float = 0.0
    activity_state: ActivityState = ActivityState.SEDENTARY
    session_active: bool = True


@dataclass(frozen=True, slots=True)
class Baseline:
    """Individual reference state established during quiet calibration."""

    mean_hr: float
    mean_rmssd: float
    mean_sdnn: float
    hr_scale: float
    rmssd_scale: float
    sdnn_scale: float

    def __post_init__(self) -> None:
        for name in ("mean_hr", "mean_rmssd", "mean_sdnn",
                     "hr_scale", "rmssd_scale", "sdnn_scale"):
            if not getattr(self, name) > 0:
                raise ValueError(f"baseline {name} must be strictly positive")

    @classmethod
    def provisional(cls) -> "Baseline":
        """Unit placeholder used to bootstrap calibration windows.

        The z-values it produces are finite but meaningless; callers use
        it only to obtain raw window statistics for `compute_baseline`.
        """
        return cls(1.0, 1.0, 1.0, 1.0, 1.0, 1.0)


@dataclass(frozen=True, slots=True)
class FeatureWindow:
    """One window's raw statistics and the baseline they are measured against.

    The z-values derive from both on each read, so they cannot disagree
    with the statistics, and swapping the baseline re-normalizes a window
    without measuring it again.
    """

    window_start: int
    window_end: int
    rmssd: float
    sdnn: float
    mean_hr: float
    baseline: Baseline
    context: ContextFlags

    @property
    def z_hr(self) -> float:
        return (self.mean_hr - self.baseline.mean_hr) / self.baseline.hr_scale

    @property
    def z_rmssd(self) -> float:
        return (self.rmssd - self.baseline.mean_rmssd) / self.baseline.rmssd_scale

    @property
    def z_sdnn(self) -> float:
        return (self.sdnn - self.baseline.mean_sdnn) / self.baseline.sdnn_scale


_TRUE_WORDS = {"1", "true", "yes"}
_FALSE_WORDS = {"0", "false", "no"}


def _parse_bool(text: str, line_no: int) -> bool:
    word = text.lower()
    if word in _TRUE_WORDS:
        return True
    if word in _FALSE_WORDS:
        return False
    raise StreamFormatError(f"expected boolean, got {text!r}", line_no)


def _looks_numeric(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def _batches(text: str) -> Iterator[str]:
    """Yield ``text`` a chunk of whole lines at a time, split at ``"\n"``.

    Each batch is its lines joined by ``"\n"``. A final ``"\n"`` ends the
    last line and starts no new one, so the batches' lines are a text-mode
    file's lines without their ``"\n"``.
    """
    pos, end = 0, len(text) - text.endswith("\n")
    while pos < len(text):
        cut = text.find("\n", pos + _CHUNK_CHARS - 1, end)
        if cut < 0:
            cut = end
        yield text[pos:cut]
        pos = cut + 1


def _parse_samples(stream: str, schema: str) -> Series | list[ContextSample]:
    """Parse a line-oriented CSV sample stream.

    Schemas: ``rr`` (`timestamp_ms,rr_ms`) and ``hr`` (`timestamp_ms,hr_bpm`)
    give a `Series`, ``context`` (`timestamp_ms,session_active,activity_state`)
    a `ContextSample` list. A header line is optional: the first non-blank
    line, when its first field is not a number. Lines end at ``"\n"`` alone,
    so the stream has at most ``stream.count("\n") + 1`` rows: each column is
    sized to that once, and never grows. RR/HR rows are read a batch of
    about 4 KiB at a time, with one JSON scan per batch of plain decimal
    rows; any other batch, and one a check refuses, is read row by row.

    Timestamps are milliseconds since session start: non-decreasing, and
    at most 2**31 - 1 (24.8 days), so RR/HR timestamps take 4 bytes each.
    Rows sharing a timestamp collapse to the last value. Raises
    StreamFormatError (with the offending line number) on malformed rows,
    on decreasing or out-of-range timestamps (an epoch-millisecond stream
    is refused at its first row), and on an empty stream.
    """
    columns = schema != "context"
    n_fields = 2 if columns else 3

    # The columns never grow: peak memory does not depend on the allocator.
    size = stream.count("\n") + 1
    if columns:
        timestamps = array("i", [0]) * size
    # doubles, or ContextSample rows for ``context``
    values: array | list = array("d", [0.0]) * size if columns else [None] * size
    n = 0
    prev_ts = -1  # below every valid timestamp
    line_no = 0
    first = True
    for batch in _batches(stream):
        rows = batch.count("\n") + 1
        if columns and batch.translate(_ROW_CHARS) == ",\n" * (rows - 1) + ",":
            # The common batch: rows of two plain decimal numbers, which
            # JSON reads as int() and float() do (both round correctly),
            # timestamps rising strictly from the last one kept and within
            # 4 bytes, values positive: converted and written in C. A batch
            # JSON or a check refuses (``01``, ``5.``, ``.5``, a float or
            # too large timestamp, a value past a double) goes row by row.
            try:
                flat = loads(f"[{batch}]".replace("\n", ","))
                ts, vs = flat[0::2], flat[1::2]
                if (prev_ts < ts[0] and all(map(lt, ts, ts[1:]))
                        and min(vs) > 0):
                    pack_into(f"{rows}i", timestamps, 4 * n, *ts)
                    pack_into(f"{rows}d", values, 8 * n, *vs)
                    n += rows
                    prev_ts = ts[-1]
                    line_no += rows
                    first = False
                    continue
            except (ValueError, StructError, OverflowError):
                pass
        for raw in batch.split("\n"):
            line_no += 1
            line = raw.strip()
            if not line:
                continue
            fields = [f.strip() for f in line.split(",")]
            if first:
                first = False
                if not _looks_numeric(fields[0]):
                    continue  # header line: only the first may be one
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
            if ts > _TS_MAX:
                raise StreamFormatError(
                    f"timestamp {ts} out of range: timestamps are milliseconds "
                    f"since session start, at most 24.8 days", line_no)

            if columns:
                try:
                    value = float(fields[1])
                except ValueError:
                    raise StreamFormatError(
                        f"bad {schema} value {fields[1]!r}", line_no) from None
                if not value > 0:
                    raise StreamFormatError(f"{schema} must be positive", line_no)
            else:
                active = _parse_bool(fields[1], line_no)
                try:
                    activity = ActivityState(fields[2].lower())
                except ValueError:
                    raise StreamFormatError(
                        f"bad activity state {fields[2]!r}", line_no) from None
                value = ContextSample(ts, active, activity)

            if ts < prev_ts:
                raise StreamFormatError(
                    f"non-monotonic timestamp {ts} after {prev_ts}", line_no)
            if ts == prev_ts:
                values[n - 1] = value  # duplicate timestamp: last value wins
            else:
                if columns:
                    timestamps[n] = ts
                values[n] = value
                n += 1
            prev_ts = ts

    if not n:
        raise StreamFormatError("empty stream")
    del values[n:]
    if not columns:
        return values
    del timestamps[n:]
    return Series(_frozen(timestamps), _frozen(values))


def parse_rr_stream(stream: str) -> Series:
    return _parse_samples(stream, "rr")


def parse_hr_stream(stream: str) -> Series:
    return _parse_samples(stream, "hr")


def parse_context_stream(stream: str) -> list[ContextSample]:
    return _parse_samples(stream, "context")


def write_series_csv(out: TextIO, samples: Series, value_name: str) -> None:
    """Write an RR or HR stream as CSV, under the header
    ``timestamp_ms,<value_name>``, one row at a time."""
    out.write(f"timestamp_ms,{value_name}\n")
    out.writelines(f"{t},{v:.3f}\n" for t, v in zip(samples.timestamps, samples.values))


def write_context_csv(out: TextIO, samples: Iterable[ContextSample]) -> None:
    """Write a context stream as CSV, one row at a time."""
    out.write("timestamp_ms,session_active,activity_state\n")
    out.writelines(f"{s.timestamp},{1 if s.session_active else 0},"
                   f"{s.activity_state.value}\n" for s in samples)


def _drop(samples: Series, dropped: list[int]) -> Series:
    """``samples`` without the rows at the ascending indices ``dropped``."""
    if not dropped:
        return samples  # immutable, so sharing it is safe
    # Each kept column is allocated once, at its final size, and the kept
    # runs are copied into it: a column grown run by run would realloc.
    kept = []
    for view in (samples.timestamps, samples.values):
        column = array(view.format, [0]) * (len(view) - len(dropped))
        out = memoryview(column)
        start = at = 0
        for i in dropped:
            out[at:at + i - start] = view[start:i]
            at += i - start
            start = i + 1
        out[at:] = view[start:]
        kept.append(_frozen(column))
    return Series(*kept)


def reject_artifacts(samples: Series) -> Series:
    """Drop implausible inter-beat intervals, preserving order.

    A sample is rejected when its value falls outside [300, 2000] ms or
    differs from the previously retained value by more than 20%. The
    filter is idempotent; an empty result is a signal to the caller, not
    an error.
    """
    dropped: list[int] = []
    last = None
    for i, v in enumerate(samples.values):
        if (RR_MIN_MS <= v <= RR_MAX_MS
                and (last is None or abs(v - last) <= RR_MAX_REL_CHANGE * last)):
            last = v
        else:
            dropped.append(i)
    return _drop(samples, dropped)


def clean_hr(samples: Series) -> Series:
    """Drop heart-rate samples outside the [20, 250] bpm plausibility range."""
    return _drop(samples, [i for i, v in enumerate(samples.values)
                           if not HR_MIN_BPM <= v <= HR_MAX_BPM])


def _std(xs: Sequence[float], ddof: int = 0) -> float:
    """Std with divisor ``len(xs) - ddof``, centred on ``xs[0]`` so constants give 0.0."""
    x0 = xs[0]
    dev = [x - x0 for x in xs]
    m = math.fsum(dev) / len(dev)
    return math.sqrt(math.fsum([(e := d - m) * e for d in dev]) / (len(dev) - ddof))


def compute_rmssd(rr: Sequence[float]) -> float:
    """Root mean square of successive differences over an RR sequence, ms."""
    if len(rr) < 2:
        raise InsufficientDataError(
            f"RMSSD needs at least 2 intervals, got {len(rr)}")
    return math.sqrt(math.fsum([(b - a) * (b - a) for a, b in pairwise(rr)])
                     / (len(rr) - 1))


def compute_sdnn(rr: Sequence[float]) -> float:
    """Population standard deviation of an RR sequence, ms.

    Population form (divisor n): descriptive over a fixed window. Sums are
    correctly rounded, so the result is the same bits on every interpreter,
    and a constant series gives exactly 0.0.
    """
    if len(rr) < 2:
        raise InsufficientDataError(
            f"SDNN needs at least 2 intervals, got {len(rr)}")
    return _std(rr)


def compute_baseline(calibration: Sequence[FeatureWindow]) -> Baseline:
    """Derive the individual reference state from calibration windows.

    Means are taken over the calibration windows; scales are the sample
    standard deviation of each statistic, floored so that unnaturally
    flat calibration cannot inflate later deviations. A calibration with
    no beat-to-beat variability at all (zero mean RMSSD) gives no
    baseline: it raises InsufficientDataError.
    """
    n = len(calibration)
    if n < 3:
        raise InsufficientDataError(
            f"baseline calibration needs at least 3 windows with two or more "
            f"kept RR beats, got {n}: the calibration span has gaps or the "
            f"trace ends inside it")
    hr = [w.mean_hr for w in calibration]
    rmssd = [w.rmssd for w in calibration]
    sdnn = [w.sdnn for w in calibration]
    mean_rmssd = math.fsum(rmssd) / n
    if not mean_rmssd > 0:
        raise InsufficientDataError(
            f"baseline calibration is flat: the RR intervals of all {n} "
            f"calibration windows are constant (RMSSD 0 ms), so there is no "
            f"variability to measure deviations from")
    return Baseline(
        mean_hr=math.fsum(hr) / n,
        mean_rmssd=mean_rmssd,
        mean_sdnn=math.fsum(sdnn) / n,
        hr_scale=max(_std(hr, ddof=1), HR_SCALE_FLOOR),
        rmssd_scale=max(_std(rmssd, ddof=1), RMSSD_SCALE_FLOOR),
        sdnn_scale=max(_std(sdnn, ddof=1), SDNN_SCALE_FLOOR),
    )


def window_features(
    rr: Series,
    hr: Series,
    context: Sequence[ContextSample],
    baseline: Baseline,
    window_len_s: float = DEFAULT_WINDOW_LEN_S,
    stride_s: float = DEFAULT_STRIDE_S,
) -> list[FeatureWindow]:
    """The windows of `iter_window_features`, as a list."""
    return list(iter_window_features(rr, hr, context, baseline,
                                     window_len_s, stride_s))


def iter_window_features(
    rr: Series,
    hr: Series,
    context: Sequence[ContextSample],
    baseline: Baseline,
    window_len_s: float = DEFAULT_WINDOW_LEN_S,
    stride_s: float = DEFAULT_STRIDE_S,
) -> Iterator[FeatureWindow]:
    """Slide a window over cleaned streams and yield each window's features,
    measured against ``baseline``, or one sent in: ``send`` returns None,
    and the window just yielded comes again, read against the sent one.

    One window is produced per stride step whose end lies within the
    trace; windows holding fewer than two RR samples are skipped, not an
    error, and the sweep jumps over strides that cannot hold two. Mean
    HR comes from the HR samples inside the window when any exist,
    otherwise it is derived from the window's mean RR interval. Windows
    are made as they are consumed, so a bad window length or stride (too
    short, or not finite) raises ValueError at the first one.

    A window's context is the last row stamped at or before its end; rows
    before the first one inherit it. Continuous work minutes count from
    the start of that row's unbroken ``session_active`` run (time zero for
    a run that reaches the first row) and are zero while the session is
    inactive. With no context stream the session is one active, sedentary
    run from time zero. Consecutive windows with equal flags share one
    `ContextFlags`: every window of an inactive run carries the same one.
    """
    for name, value in (("window_len_s", window_len_s), ("stride_s", stride_s)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    if window_len_s < 60:
        raise ValueError("window_len_s must be at least 60 s")
    window_ms = round(window_len_s * 1000)
    stride_ms = round(stride_s * 1000)
    if stride_ms < 1:
        raise ValueError("stride_s must round to at least 1 ms")

    rr_ts, rr_v = rr.timestamps, rr.values
    hr_ts, hr_v = hr.timestamps, hr.values

    ends = [a[-1] for a in (rr_ts, hr_ts) if a]
    if not ends:
        return
    trace_end = max(ends)

    # Window ends only increase, so the row in effect and the start of its
    # active run advance with the sweep, each row read once.
    rows = iter(context or (ContextSample(0, True, ActivityState.SEDENTARY),))
    row, following, run_start = next(rows), next(rows, None), 0
    key = None
    start = 0
    while start + window_ms <= trace_end:
        end = start + window_ms
        i0 = bisect.bisect_left(rr_ts, start)
        i1 = bisect.bisect_left(rr_ts, end)
        if i1 - i0 < 2:
            # Until a window reaches beat i0 + 1, none holds two beats.
            if i0 + 1 >= len(rr_ts):
                break
            start = -(-(rr_ts[i0 + 1] - window_ms + 1) // stride_ms) * stride_ms
            continue
        seg = rr_v[i0:i1]
        rmssd = compute_rmssd(seg)
        sdnn = compute_sdnn(seg)
        j0 = bisect.bisect_left(hr_ts, start)
        j1 = bisect.bisect_left(hr_ts, end)
        if j1 > j0:
            mean_hr = math.fsum(hr_v[j0:j1]) / (j1 - j0)
        else:
            mean_hr = 60000.0 / (math.fsum(seg) / (i1 - i0))
        while following is not None and following.timestamp <= end:
            if following.session_active and not row.session_active:
                run_start = following.timestamp
            row, following = following, next(rows, None)
        work = (end - run_start) / 60000.0 if row.session_active else 0.0
        new = (work, row.activity_state, row.session_active)
        if new != key:
            key, flags = new, ContextFlags(*new)
        while (sent := (yield FeatureWindow(
            window_start=start,
            window_end=end,
            rmssd=rmssd,
            sdnn=sdnn,
            mean_hr=mean_hr,
            baseline=baseline,
            context=flags,
        ))) is not None:
            baseline = sent
            yield  # the send's reply: the next window is this one again
        start += stride_ms
