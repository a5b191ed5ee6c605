"""The front half of the scentctl control loop, run as one batch program.

Usage, from the checkout root with ``PYTHONPATH=src``::

    python3 bench/pipeline.py --rr RR.csv --hr HR.csv --context CTX.csv \\
        --seed N --out DIR

It runs, in the order `simulate.replay` runs them, the stages from raw
streams to a scent choice, through the public API of `scentctl.ingest`,
`scentctl.estimator` and `scentctl.scents`: parse the three CSVs, filter
artifacts, take provisional calibration windows, compute the baseline,
compute the windows again against it, then for every window after
calibration estimate, smooth and classify the arousal-valence point and
pick a scent for every non-neutral state. Scheduling, IR framing and the
event log are not part of it. Defaults are the program's own: 120 s
windows, 60 s stride, 5 calibration minutes, default estimator weights.

It writes ``DIR/windows.ndjson`` (one line per evaluated window, floats at
full precision, so `oracle.py` can check them) and ``DIR/summary.json``.
An import error is not handled: the traceback reaches stderr, exit 1.
"""

from __future__ import annotations

import argparse
import json
import random
from pathlib import Path

from scentctl import estimator, ingest, scents


def run(rr_path: str, hr_path: str, context_path: str, seed: int,
        out: Path) -> dict:
    """Run the stages and write the outputs; return the summary."""
    rr_raw = ingest.parse_rr_stream(Path(rr_path).read_text(encoding="utf-8"))
    hr_raw = ingest.parse_hr_stream(Path(hr_path).read_text(encoding="utf-8"))
    context = ingest.parse_context_stream(
        Path(context_path).read_text(encoding="utf-8"))

    rr = ingest.reject_artifacts(rr_raw)
    hr = ingest.clean_hr(hr_raw)
    calib_ms = round(ingest.DEFAULT_CALIBRATION_MINUTES * 60000)
    provisional = ingest.window_features(rr, hr, context,
                                         ingest.Baseline.provisional())
    baseline = ingest.compute_baseline(
        [w for w in provisional if w.window_end <= calib_ms])
    windows = ingest.window_features(rr, hr, context, baseline)

    cfg = estimator.EstimatorConfig()
    tracker = estimator.PersistenceTracker()
    history = scents.SelectionHistory()
    rng = random.Random(seed)
    smoothed = None
    states: dict[str, int] = {}
    out.mkdir(parents=True, exist_ok=True)
    with (out / "windows.ndjson").open("w", encoding="utf-8") as log:
        for fw in windows:
            if fw.window_end <= calib_ms:
                continue
            raw = estimator.estimate_av(fw, cfg)
            smoothed = raw if smoothed is None else estimator.smooth_av(
                smoothed, raw, cfg.alpha)
            state, tracker = estimator.classify(smoothed, fw.context,
                                                tracker, cfg)
            expr = scents.expression_for(state)
            scent = (None if expr is None
                     else scents.select_scent(expr, history, rng))
            states[state.value] = states.get(state.value, 0) + 1
            log.write(json.dumps({
                "start": fw.window_start, "end": fw.window_end,
                "rmssd": fw.rmssd, "sdnn": fw.sdnn, "mean_hr": fw.mean_hr,
                "z_hr": fw.z_hr, "z_rmssd": fw.z_rmssd, "z_sdnn": fw.z_sdnn,
                "work_minutes": fw.context.work_minutes_continuous,
                "session_active": fw.context.session_active,
                "activity": fw.context.activity_state.value,
                "arousal": smoothed.arousal, "valence": smoothed.valence,
                "state": state.value, "scent": scent,
            }) + "\n")

    summary = {
        "rows": {"rr": len(rr_raw), "hr": len(hr_raw), "context": len(context)},
        "kept": {"rr": len(rr), "hr": len(hr)},
        "baseline": {name: getattr(baseline, name) for name in (
            "mean_hr", "mean_rmssd", "mean_sdnn",
            "hr_scale", "rmssd_scale", "sdnn_scale")},
        "windows": len(windows),
        "evaluated": sum(states.values()),
        "states": dict(sorted(states.items())),
        "scents": dict(sorted(history.counts.items())),
    }
    (out / "summary.json").write_text(json.dumps(summary, indent=1) + "\n",
                                      encoding="utf-8")
    return summary


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rr", required=True)
    parser.add_argument("--hr", required=True)
    parser.add_argument("--context", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    opts = parser.parse_args(argv)
    run(opts.rr, opts.hr, opts.context, opts.seed, Path(opts.out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
