"""Physiological stream ingestion and sliding-window feature extraction.

Raw inter-beat (RR) and heart-rate (HR) streams arrive as line-oriented
CSV, are artifact-filtered, and are reduced to windowed time-domain
features (RMSSD, SDNN, mean HR) expressed as baseline-normalized
deviations, together with the contextual flags the classifier needs.

All timestamps are integer milliseconds since session start. RR and HR
are `Series` of immutable columns, with no object per sample. Everything
here is a pure function over immutable data, safe from any thread.

Ingest is linear in its input. Parsing is one pass over the lines, in
which ordinary rows take a cheap path. `window_features` builds its
context lookup (each row's timestamp and the start of its active run)
in one pass, then pays one bisect per window.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from enum import Enum
from itertools import compress, pairwise
from statistics import fmean
from typing import Callable, Sequence

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


@dataclass(frozen=True, slots=True)
class Series:
    """An RR (ms) or HR (bpm) stream as two equal-length columns."""

    timestamps: tuple[int, ...]
    values: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.timestamps) != len(self.values):
            raise ValueError("timestamps and values differ in length")

    def __len__(self) -> int:
        return len(self.timestamps)


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
    window_start: int
    window_end: int
    rmssd: float
    sdnn: float
    mean_hr: float
    z_hr: float
    z_rmssd: float
    z_sdnn: float
    context: ContextFlags


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


def parse_samples(stream: str, schema: str = "rr") -> Series | list[ContextSample]:
    """Parse a line-oriented CSV sample stream.

    Schemas: ``rr`` (`timestamp_ms,rr_ms`) and ``hr`` (`timestamp_ms,hr_bpm`)
    give a `Series`, ``context`` (`timestamp_ms,session_active,activity_state`)
    a `ContextSample` list. A header line is optional and detected by a
    non-numeric first field.

    Timestamps must be non-decreasing; rows sharing a timestamp collapse
    to the last value. Raises StreamFormatError (with the offending line
    number) on malformed rows or decreasing timestamps, and on an empty
    stream.
    """
    if schema not in ("rr", "hr", "context"):
        raise ValueError(f"unknown stream schema {schema!r}")
    columns = schema != "context"
    n_fields = 2 if columns else 3

    timestamps: list[int] = []
    values: list = []  # floats, or ContextSample rows for ``context``
    prev_ts = -1  # below every valid timestamp
    for line_no, raw in enumerate(stream.splitlines(), start=1):
        if columns:
            # The common row: two numbers, a later timestamp, a positive
            # value. int() and float() strip the same whitespace as
            # str.strip(), so it gives the checked path's sample; every
            # other row falls through to the checked path and its errors.
            a, _, b = raw.partition(",")
            try:
                ts, value = int(a), float(b)
            except ValueError:
                pass
            else:
                if ts > prev_ts and value > 0:
                    timestamps.append(ts)
                    values.append(value)
                    prev_ts = ts
                    continue
        line = raw.strip()
        if not line:
            continue
        fields = [f.strip() for f in line.split(",")]
        if not values and not _looks_numeric(fields[0]):
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
            values[-1] = value  # duplicate timestamp: last value wins
        else:
            timestamps.append(ts)
            values.append(value)
        prev_ts = ts

    if not values:
        raise StreamFormatError("empty stream")
    return Series(tuple(timestamps), tuple(values)) if columns else values


def parse_rr_stream(stream: str) -> Series:
    return parse_samples(stream, "rr")


def parse_hr_stream(stream: str) -> Series:
    return parse_samples(stream, "hr")


def parse_context_stream(stream: str) -> list[ContextSample]:
    return parse_samples(stream, "context")


def render_rr_csv(samples: Series) -> str:
    return "timestamp_ms,rr_ms\n" + "".join(
        f"{t},{v:.3f}\n" for t, v in zip(samples.timestamps, samples.values))


def render_hr_csv(samples: Series) -> str:
    return "timestamp_ms,hr_bpm\n" + "".join(
        f"{t},{v:.3f}\n" for t, v in zip(samples.timestamps, samples.values))


def render_context_csv(samples: Sequence[ContextSample]) -> str:
    lines = ["timestamp_ms,session_active,activity_state"]
    lines += [f"{s.timestamp},{1 if s.session_active else 0},{s.activity_state.value}"
              for s in samples]
    return "\n".join(lines) + "\n"


def _select(samples: Series, keep: list[bool]) -> Series:
    return Series(tuple(compress(samples.timestamps, keep)),
                  tuple(compress(samples.values, keep)))


def reject_artifacts(samples: Series) -> Series:
    """Drop implausible inter-beat intervals, preserving order.

    A sample is rejected when its value falls outside [300, 2000] ms or
    differs from the previously retained value by more than 20%. The
    filter is idempotent; an empty result is a signal to the caller, not
    an error.
    """
    keep: list[bool] = []
    last = None
    for v in samples.values:
        ok = (RR_MIN_MS <= v <= RR_MAX_MS
              and (last is None or abs(v - last) <= RR_MAX_REL_CHANGE * last))
        if ok:
            last = v
        keep.append(ok)
    return _select(samples, keep)


def clean_hr(samples: Series) -> Series:
    """Drop heart-rate samples outside the [20, 250] bpm plausibility range."""
    return _select(samples, [HR_MIN_BPM <= v <= HR_MAX_BPM for v in samples.values])


def _std(xs: Sequence[float], ddof: int = 0) -> float:
    """Std with divisor ``len(xs) - ddof``, centred on ``xs[0]`` so constants give 0.0."""
    dev = [x - xs[0] for x in xs]
    m = fmean(dev)
    return math.sqrt(math.fsum([(d - m) * (d - m) for d in dev]) / (len(dev) - ddof))


def compute_rmssd(rr: Sequence[float]) -> float:
    """Root mean square of successive differences over an RR sequence, ms."""
    if len(rr) < 2:
        raise InsufficientDataError(
            f"RMSSD needs at least 2 intervals, got {len(rr)}")
    return math.sqrt(fmean([(b - a) * (b - a) for a, b in pairwise(rr)]))


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
    flat calibration cannot inflate later deviations.
    """
    if len(calibration) < 3:
        raise InsufficientDataError(
            f"baseline calibration needs at least 3 windows, got {len(calibration)}")
    hr = [w.mean_hr for w in calibration]
    rmssd = [w.rmssd for w in calibration]
    sdnn = [w.sdnn for w in calibration]
    return Baseline(
        mean_hr=fmean(hr),
        mean_rmssd=fmean(rmssd),
        mean_sdnn=fmean(sdnn),
        hr_scale=max(_std(hr, ddof=1), HR_SCALE_FLOOR),
        rmssd_scale=max(_std(rmssd, ddof=1), RMSSD_SCALE_FLOOR),
        sdnn_scale=max(_std(sdnn, ddof=1), SDNN_SCALE_FLOOR),
    )


def _context_lookup(
        samples: Sequence[ContextSample]) -> Callable[[int], ContextFlags]:
    """Build, in one pass over ``samples``, the `context_at` function of ``t``.

    The pass records each row's timestamp and the start of the active run
    the row belongs to; a run that reaches the first row counts from time
    zero. Each lookup is then one bisect.
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


def context_at(samples: Sequence[ContextSample], t: int) -> ContextFlags:
    """Contextual flags in effect at time ``t``.

    Continuous work minutes accumulate from the start of the current
    unbroken ``session_active`` run and reset to zero whenever the
    session is inactive. With no context stream the session is assumed
    active (continuous desk work) from time zero; state before the first
    record extends the first record backwards, and an active run that
    reaches the first record counts from time zero.

    Each call costs one pass over ``samples``; `window_features` builds
    the lookup once and pays one bisect per window.
    """
    return _context_lookup(samples)(t)


def window_features(
    rr: Series,
    hr: Series,
    context: Sequence[ContextSample],
    baseline: Baseline,
    window_len_s: float = DEFAULT_WINDOW_LEN_S,
    stride_s: float = DEFAULT_STRIDE_S,
) -> list[FeatureWindow]:
    """Slide a window over cleaned streams and emit normalized features.

    One window is produced per stride step whose end lies within the
    trace; windows holding fewer than two RR samples are skipped, not an
    error. Mean HR comes from the HR samples inside the window when any
    exist, otherwise it is derived from the window's mean RR interval.
    """
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

    flags_at = _context_lookup(context)
    windows: list[FeatureWindow] = []
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
            windows.append(FeatureWindow(
                window_start=start,
                window_end=end,
                rmssd=rmssd,
                sdnn=sdnn,
                mean_hr=mean_hr,
                z_hr=(mean_hr - baseline.mean_hr) / baseline.hr_scale,
                z_rmssd=(rmssd - baseline.mean_rmssd) / baseline.rmssd_scale,
                z_sdnn=(sdnn - baseline.mean_sdnn) / baseline.sdnn_scale,
                context=flags_at(end),
            ))
        start += stride_ms
    return windows
