"""Check the outputs of `pipeline.py` against a stdlib-only reference.

Usage, from the checkout root::

    python3 bench/oracle.py INPUT_DIR OUT_DIR

It does not import `scentctl`. From the generated CSVs it recomputes, by
the definitions the program documents, what the ingest layer must give:
row counts, the artifact filter (RR outside 300-2000 ms or more than 20 %
from the last kept beat; HR outside 20-250 bpm), 120 s windows every 60 s
from t = 0 holding at least two beats, RMSSD and population SDNN (HRV Task
Force, Circulation 1996), mean HR, the calibration baseline (windows
ending within 5 min; sample SD floored at 3 bpm and 5 ms), z-values and
the context flags at each window end. Estimator and scent output are
checked for shape: points inside [-1, 1], a known state, and a scent
exactly when the state is not neutral.

Exit 0 and print nothing when the outputs pass; otherwise print the first
mismatch and exit 1.
"""

from __future__ import annotations

import bisect
import json
import math
import statistics
import sys
from pathlib import Path

WINDOW_MS, STRIDE_MS, CALIBRATION_MS = 120_000, 60_000, 300_000
STATES = {"elevated_stress_persistent", "elevated_stress_short", "recovery",
          "low_alertness", "mild_imbalance", "neutral"}
TOLERANCE = 1e-9  # relative and absolute; numpy and fsum differ near 1e-15


class Mismatch(Exception):
    pass


def read_csv(path: Path) -> list[list[str]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    return [line.split(",") for line in lines[1:] if line]


def close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=TOLERANCE, abs_tol=TOLERANCE)


def expect(name: str, got, want) -> None:
    same = (close(got, want) if isinstance(want, float)
            and isinstance(got, (int, float)) else got == want)
    if not same:
        raise Mismatch(f"{name}: got {got!r}, expected {want!r}")


def kept_rr(rows: list[list[str]]) -> list[tuple[int, float]]:
    kept: list[tuple[int, float]] = []
    for ts, value in rows:
        rr = float(value)
        if not 300.0 <= rr <= 2000.0:
            continue
        if kept and abs(rr - kept[-1][1]) > 0.20 * kept[-1][1]:
            continue
        kept.append((int(ts), rr))
    return kept


def context_runs(rows: list[list[str]]):
    """Per context row: (timestamp, active, activity, active-run start)."""
    out = []
    run_start = 0
    for i, (ts, active, activity) in enumerate(rows):
        on = active == "1"
        if on and (i == 0 or not out[-1][1]):
            run_start = 0 if i == 0 else int(ts)
        out.append((int(ts), on, activity, run_start))
    return out


def context_at(runs, stamps: list[int], t: int) -> tuple[float, bool, str]:
    idx = bisect.bisect_right(stamps, t) - 1
    ts, on, activity, run_start = runs[max(idx, 0)]
    if not on:
        return 0.0, False, activity
    return (t - (0 if idx < 0 else run_start)) / 60000.0, True, activity


def reference(in_dir: Path) -> dict:
    rr_rows = read_csv(in_dir / "rr.csv")
    hr_rows = read_csv(in_dir / "hr.csv")
    ctx_rows = read_csv(in_dir / "context.csv")
    rr = kept_rr(rr_rows)
    hr = [(int(ts), float(v)) for ts, v in hr_rows
          if 20.0 <= float(v) <= 250.0]
    runs = context_runs(ctx_rows)
    stamps = [r[0] for r in runs]
    rr_ts = [t for t, _ in rr]
    hr_ts = [t for t, _ in hr]
    trace_end = max(rr_ts[-1], hr_ts[-1])

    windows = []
    for start in range(0, trace_end - WINDOW_MS + 1, STRIDE_MS):
        end = start + WINDOW_MS
        i0, i1 = bisect.bisect_left(rr_ts, start), bisect.bisect_left(rr_ts, end)
        if i1 - i0 < 2:
            continue
        seg = [v for _, v in rr[i0:i1]]
        diffs = [b - a for a, b in zip(seg, seg[1:])]
        mean = math.fsum(seg) / len(seg)
        j0, j1 = bisect.bisect_left(hr_ts, start), bisect.bisect_left(hr_ts, end)
        mean_hr = (math.fsum(v for _, v in hr[j0:j1]) / (j1 - j0) if j1 > j0
                   else 60000.0 / mean)
        windows.append({
            "start": start, "end": end,
            "rmssd": math.sqrt(math.fsum(d * d for d in diffs) / len(diffs)),
            "sdnn": math.sqrt(math.fsum((v - mean) ** 2 for v in seg) / len(seg)),
            "mean_hr": mean_hr,
            "context": context_at(runs, stamps, end),
        })

    calib = [w for w in windows if w["end"] <= CALIBRATION_MS]
    baseline = {}
    for key, floor in (("hr", 3.0), ("rmssd", 5.0), ("sdnn", 5.0)):
        values = [w["mean_hr" if key == "hr" else key] for w in calib]
        baseline[f"mean_{key}"] = math.fsum(values) / len(values)
        baseline[f"{key}_scale"] = max(statistics.stdev(values), floor)
    return {"rows": {"rr": len(rr_rows), "hr": len(hr_rows),
                     "context": len(ctx_rows)},
            "kept": {"rr": len(rr), "hr": len(hr)},
            "baseline": baseline, "windows": windows}


def check(in_dir: Path, out_dir: Path) -> None:
    ref = reference(in_dir)
    summary = json.loads((out_dir / "summary.json").read_text(encoding="utf-8"))
    expect("rows", summary["rows"], ref["rows"])
    expect("kept", summary["kept"], ref["kept"])
    expect("windows", summary["windows"], len(ref["windows"]))
    b = ref["baseline"]
    for name, want in b.items():
        expect(f"baseline.{name}", summary["baseline"][name], want)

    evaluated = [w for w in ref["windows"] if w["end"] > CALIBRATION_MS]
    states: dict[str, int] = {}
    with (out_dir / "windows.ndjson").open(encoding="utf-8") as log:
        n = 0
        for n, line in enumerate(log, start=1):
            if n > len(evaluated):
                raise Mismatch(f"windows.ndjson has more than {len(evaluated)} lines")
            got, want = json.loads(line), evaluated[n - 1]
            where = f"windows.ndjson line {n}"
            for key in ("start", "end", "rmssd", "sdnn", "mean_hr"):
                expect(f"{where} {key}", got[key], want[key])
            expect(f"{where} z_hr", got["z_hr"],
                   (want["mean_hr"] - b["mean_hr"]) / b["hr_scale"])
            expect(f"{where} z_rmssd", got["z_rmssd"],
                   (want["rmssd"] - b["mean_rmssd"]) / b["rmssd_scale"])
            expect(f"{where} z_sdnn", got["z_sdnn"],
                   (want["sdnn"] - b["mean_sdnn"]) / b["sdnn_scale"])
            expect(f"{where} context", (got["work_minutes"],
                   got["session_active"], got["activity"]), want["context"])
            if not (-1 <= got["arousal"] <= 1 and -1 <= got["valence"] <= 1):
                raise Mismatch(f"{where}: arousal/valence outside [-1, 1]")
            if got["state"] not in STATES:
                raise Mismatch(f"{where}: unknown state {got['state']!r}")
            if (got["scent"] is None) != (got["state"] == "neutral"):
                raise Mismatch(f"{where}: scent {got['scent']!r} "
                               f"for state {got['state']}")
            states[got["state"]] = states.get(got["state"], 0) + 1
    expect("windows.ndjson lines", n, len(evaluated))
    expect("states", summary["states"], dict(sorted(states.items())))
    expect("scent count", sum(summary["scents"].values()),
           n - states.get("neutral", 0))


def main() -> int:
    try:
        check(Path(sys.argv[1]), Path(sys.argv[2]))
    except (Mismatch, OSError, KeyError, ValueError) as exc:
        print(f"{type(exc).__name__}: {exc}")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
