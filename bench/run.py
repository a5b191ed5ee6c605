"""The scentctl benchmark: time the front half of the control loop.

Usage, from the root of a checkout::

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all  --seed N --seconds S [--trace 1]

Each operation is one batch process of `pipeline.py`, which runs the
scentctl stages from raw RR/HR/context CSVs to a scent choice (parse,
artifact filter, windowed HRV features, baseline, arousal-valence
estimate, classification, scent selection). Load model: a closed loop
with one client; a process starts only after the previous one exited,
so one program process runs at a time. Every process gets the workload
seed through ``--seed`` and reads only the inputs that `gen.py` made.

``--trace 0`` runs the workload process and a fresh set-up process in
turn until ``--seconds`` have passed and reports end-to-end metrics as
medians over those processes. ``--trace 1`` runs the workload in-process
through `tracer.py`, plain and traced in turn, and reports per-module
times and counts. In both modes an untimed warm-up process comes first,
its outputs are checked against `oracle.py`, and every later process
must write byte-identical outputs. The last stdout line is one JSON
object; a readable table comes before it and a full record goes to
``.bench_work/results/``. NOTES.md lists every metric and workload.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import gen

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
PROGRAM = ROOT / "src" / "scentctl"

OP_TIMEOUT_S = 90.0      # a hung process counts as a failed op
SETUP_TIMEOUT_S = 30.0
HARD_LIMIT_S = 170.0     # no op may run past this point of the run
MIN_OPS = 3              # timed workload processes per run, time allowing
MIN_SETUPS = 9           # set-up processes per run
OUTPUTS = ("windows.ndjson", "summary.json")
# Set-up: what a fresh process pays before any work, the imports
# `pipeline.py` makes and the default configuration it builds.
SETUP = ("from scentctl import estimator, ingest, scents; "
         "estimator.EstimatorConfig(); scents.vocabulary()")

PER_LAYER = {
    "ingest.parse_s": "s",
    "ingest.parse_rows": "count",
    "ingest.filter_s": "s",
    "ingest.rr_kept_ratio": "ratio",
    "ingest.hr_kept_ratio": "ratio",
    "ingest.features_self_s": "s",
    "ingest.features_calls": "count",
    "ingest.windows": "count",
    "ingest.context_s": "s",
    "ingest.context_calls": "count",
    "ingest.hrv_s": "s",
    "ingest.hrv_calls": "count",
    "ingest.baseline_s": "s",
    "estimator.s": "s",
    "estimator.calls": "count",
    "estimator.step_us_p50": "us",
    "estimator.step_us_p99": "us",
    "scents.s": "s",
    "scents.selections": "count",
    "pipeline.self_s": "s",
    "pipeline.out_bytes": "bytes",
    "pipeline.run_s": "s",
    "trace.overhead_s": "s",
    "trace.attributed_ratio": "ratio",
}

# Self-time metric of each span: exact names first, then module prefixes.
SPAN_METRIC = {
    "ingest.parse_samples": "ingest.parse_s",
    "ingest.parse_rr_stream": "ingest.parse_s",
    "ingest.parse_hr_stream": "ingest.parse_s",
    "ingest.parse_context_stream": "ingest.parse_s",
    "ingest.reject_artifacts": "ingest.filter_s",
    "ingest.clean_hr": "ingest.filter_s",
    "ingest.window_features": "ingest.features_self_s",
    "ingest.context_at": "ingest.context_s",
    "ingest.compute_rmssd": "ingest.hrv_s",
    "ingest.compute_sdnn": "ingest.hrv_s",
    "ingest.compute_baseline": "ingest.baseline_s",
    "ingest.Baseline.provisional": "ingest.baseline_s",
}
MODULE_METRIC = {
    "estimator": "estimator.s",
    "scents": "scents.s",
    "pipeline": "pipeline.self_s",
}


class Harness:
    """One benchmark invocation: inputs, child processes, checks, records."""

    def __init__(self, workload: str, seed: int, seconds: float) -> None:
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.started = time.perf_counter()
        self.run_dir = WORK / "run" / f"{workload}-{seed}-{os.getpid()}"
        shutil.rmtree(self.run_dir, ignore_errors=True)
        self.run_dir.mkdir(parents=True)
        self.env = {k: v for k, v in os.environ.items()
                    if k not in ("SCENTCTL_CONFIG", "PYTHONPATH")}
        self.env["PYTHONPATH"] = str(ROOT / "src")
        # The program makes no BLAS calls; an idle OpenBLAS pool of one
        # thread per core only adds start-up noise.
        self.env["OPENBLAS_NUM_THREADS"] = "1"
        self.ops: list[dict] = []
        self.reasons: dict[str, int] = {}
        self.outputs: dict[str, str] | None = None  # of the first op
        self.verdict: str | None = None  # the oracle's, on those outputs
        self.inputs = self._build_inputs()

    # -- inputs -------------------------------------------------------
    def _build_inputs(self) -> dict:
        """Generate the workload's inputs, or reuse the last build if the
        seed and `gen.py` are the same (one cached set per workload)."""
        key = {"seed": self.seed, "gen_sha256": hashlib.sha256(
            Path(gen.__file__).read_bytes()).hexdigest()}
        self.in_dir = WORK / "inputs" / self.workload
        key_path = self.in_dir / "key.json"
        if key_path.is_file() and json.loads(key_path.read_text()) == key:
            return json.loads((self.in_dir / "info.json").read_text())
        shutil.rmtree(self.in_dir, ignore_errors=True)
        # In a child process: a child's ru_maxrss starts from this
        # process's high-water mark, so this process must stay small.
        built = subprocess.run(
            [sys.executable, gen.__file__, self.workload, str(self.seed),
             str(self.in_dir)], capture_output=True, text=True, check=True,
            timeout=OP_TIMEOUT_S)
        info = json.loads(built.stdout)
        (self.in_dir / "info.json").write_text(json.dumps(info, indent=1))
        key_path.write_text(json.dumps(key))  # written last: marks it complete
        return info

    def pipeline_args(self, out: Path) -> list[str]:
        return ["--rr", str(self.in_dir / "rr.csv"),
                "--hr", str(self.in_dir / "hr.csv"),
                "--context", str(self.in_dir / "context.csv"),
                "--seed", str(self.seed), "--out", str(out)]

    # -- child processes ----------------------------------------------
    def remaining(self) -> float:
        return HARD_LIMIT_S - (time.perf_counter() - self.started)

    def spawn(self, argv: list[str], timeout: float, tag: str) -> dict:
        """Run one child to exit; wall time plus its own rusage via wait4."""
        timeout = max(1.0, min(timeout, self.remaining()))
        err_path = self.run_dir / f"{tag}.stderr"
        timed_out = threading.Event()
        with err_path.open("wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL,
                                    stderr=err, env=self.env, cwd=ROOT)

            def kill() -> None:
                timed_out.set()
                proc.kill()

            timer = threading.Timer(timeout, kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:  # e.g. interrupted: leave no child behind
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
                timer.join()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        result = {
            "exit": proc.returncode,
            "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "peak_rss_mb": usage.ru_maxrss / 1024.0,  # ru_maxrss is KiB
            "error": None,
        }
        if timed_out.is_set():
            result["error"] = f"timeout after {timeout:.0f} s"
        elif proc.returncode != 0:
            result["error"] = f"exit {proc.returncode}: {first_error(err_path)}"
        return result

    def record(self, kind: str, op: dict) -> None:
        op["kind"] = kind
        self.ops.append(op)
        if op["error"]:
            self.reasons[op["error"]] = self.reasons.get(op["error"], 0) + 1

    # -- output checks ------------------------------------------------
    def check_outputs(self, out: Path) -> str | None:
        """Why the op's outputs are wrong, or None when they pass.

        The first outputs are checked against the reference in
        `oracle.py`; every later op must write the same bytes, and shares
        that verdict.
        """
        try:
            hashes = {name: sha256_file(out / name) for name in OUTPUTS}
        except OSError as exc:
            return f"missing output: {Path(exc.filename).name}"
        if self.outputs is not None:
            return (self.verdict if hashes == self.outputs
                    else "output differs from the first op")
        checked = subprocess.run(
            [sys.executable, str(BENCH / "oracle.py"), str(self.in_dir),
             str(out)], capture_output=True, text=True,
            timeout=max(1.0, self.remaining()))
        self.outputs = hashes
        if checked.returncode != 0:
            self.verdict = f"oracle: {(checked.stdout or checked.stderr).strip()}"
        return self.verdict

    def workload_op(self, tag: str, prefix: list[str] | None = None) -> dict:
        out = self.run_dir / "out"
        shutil.rmtree(out, ignore_errors=True)
        argv = [*(prefix or [sys.executable, str(BENCH / "pipeline.py")]),
                *self.pipeline_args(out)]
        op = self.spawn(argv, OP_TIMEOUT_S, tag)
        if op["error"] is None:
            op["error"] = self.check_outputs(out)
        op["beats"] = self.inputs["rr.csv"]["rows"]
        op["out_bytes"] = sum(p.stat().st_size for p in out.glob("*")) \
            if out.is_dir() else 0
        return op

    def setup_op(self, n: int) -> None:
        op = self.spawn([sys.executable, "-c", SETUP],
                        SETUP_TIMEOUT_S, f"setup{n}")
        self.record("setup", op)

    # -- modes --------------------------------------------------------
    def timed(self) -> dict:
        """Closed loop until the deadline: workload op, then a set-up op."""
        self.record("warmup", self.workload_op("warmup"))
        deadline = time.perf_counter() + self.seconds
        n = 0
        while self.remaining() > 0 and not self.any_timeout() and (
                time.perf_counter() < deadline
                or self.count("workload") < MIN_OPS):
            self.record("workload", self.workload_op(f"op{n}"))
            self.setup_op(n)
            n += 1
        while self.count("setup") < MIN_SETUPS and self.remaining() > 0:
            self.setup_op(n)
            n += 1
        work = [o for o in self.ops if o["kind"] == "workload"]
        setups = [o for o in self.ops if o["kind"] == "setup"]
        return {
            "wall_s": measure(work, lambda o: o["wall_s"], "s"),
            "cpu_s": measure(work, lambda o: o["cpu_s"], "s"),
            "peak_rss_mb": measure(work, lambda o: o["peak_rss_mb"], "MB"),
            "beats_per_s": measure(work, lambda o: o["beats"] / o["wall_s"], "1/s"),
            "setup_s": measure(setups, lambda o: o["wall_s"], "s"),
        }

    def traced(self) -> dict:
        """Plain and traced in-process runs in turn until the deadline."""
        self.record("warmup", self.workload_op("warmup"))
        deadline = time.perf_counter() + self.seconds
        plain, traced = [], []
        n = 0
        while self.remaining() > 0 and not self.any_timeout() and (
                time.perf_counter() < deadline or n == 0):
            for mode, into in (("plain", plain), ("traced", traced)):
                report = self.run_dir / f"{mode}{n}.json"
                op = self.workload_op(
                    f"{mode}{n}", [sys.executable, str(BENCH / "tracer.py"),
                                   "--mode", mode, "--report", str(report),
                                   "--"])
                if op["error"] is None:
                    data = json.loads(report.read_text())
                    report.unlink()
                    if data.get("hook_errors"):
                        op["error"] = f"tracer: {data['hook_errors']} count hooks failed"
                    else:  # keep the figures, not the spans
                        into.append({"run_s": data["run_s"]} if mode == "plain"
                                    else span_metrics(data, op["out_bytes"]))
                self.record(mode, op)
            n += 1
        return layer_metrics(plain, traced)

    def count(self, kind: str) -> int:
        return sum(o["kind"] == kind for o in self.ops)

    def any_timeout(self) -> bool:
        return any((o["error"] or "").startswith("timeout") for o in self.ops)


def first_error(path: Path) -> str:
    """The first line of the error a child printed last.

    For a traceback that is the first unindented line after its last
    frame; otherwise it is the last line printed.
    """
    lines = [ln for ln in path.read_text(errors="replace").splitlines()
             if ln.strip()]
    frames = [i for i, ln in enumerate(lines) if ln.startswith("  File ")]
    if frames:
        for line in lines[frames[-1] + 1:]:
            if not line[0].isspace():
                return line
    return lines[-1].strip() if lines else "no message"


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with path.open("rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def measure(ops: list[dict], value, unit: str) -> dict:
    """Summary of ``value(op)`` over the passing ops.

    When every op failed, the failed ones are measured instead (a crash
    still has a wall time) and the summary says so.
    """
    ok = [o for o in ops if o["error"] is None]
    return summarize([value(o) for o in (ok or ops)], unit,
                     from_failed=not ok)


def summarize(values: list[float], unit: str, from_failed: bool = False) -> dict:
    if not values:
        return {"value": 0.0, "unit": unit, "q1": 0.0, "q3": 0.0, "n": 0,
                "from_failed_ops": from_failed}
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"value": statistics.median(values), "unit": unit, "q1": q1,
            "q3": q3, "n": len(values), "from_failed_ops": from_failed}


def layer_metrics(plain: list[dict], traced: list[dict]) -> dict:
    """Per-module self times and counts, medians over the traced runs."""
    out = {}
    for name, unit in PER_LAYER.items():
        if name == "pipeline.run_s":
            values = [r["run_s"] for r in plain]
        elif name == "trace.overhead_s":
            values = []
            if plain and traced:
                values = [statistics.median(r["run_s"] for r in traced)
                          - statistics.median(r["run_s"] for r in plain)]
        else:
            values = [m[name] for m in traced]
        out[name] = summarize(values, unit)
    return out


def span_metrics(report: dict, out_bytes: int) -> dict:
    """Per-layer figures of one traced run, plus its ``run_s``."""
    spans = report["spans"]
    child = [0] * len(spans)
    for s in spans:
        if s[3] >= 0:
            child[s[3]] += s[2] - s[1]
    m = {name: 0.0 for name in PER_LAYER}
    est_us = []
    kept = {"ingest.reject_artifacts": [0, 0], "ingest.clean_hr": [0, 0]}
    attributed = 0
    for i, (name, start, end, parent, attrs) in enumerate(spans):
        attrs = attrs or {}
        dur = end - start
        module = name.partition(".")[0]
        metric = SPAN_METRIC.get(name) or MODULE_METRIC.get(module)
        if metric:
            m[metric] += (dur - child[i]) / 1e9
            attributed += dur - child[i]
        if name.startswith("ingest.parse_") and (
                parent < 0 or not spans[parent][0].startswith("ingest.parse_")):
            m["ingest.parse_rows"] += attrs.get("rows", 0)
        elif name == "ingest.window_features":
            m["ingest.features_calls"] += 1
            m["ingest.windows"] += attrs.get("windows", 0)
        elif name == "ingest.context_at":
            m["ingest.context_calls"] += 1
        elif name in ("ingest.compute_rmssd", "ingest.compute_sdnn"):
            m["ingest.hrv_calls"] += 1
        elif name in kept:
            kept[name][0] += attrs.get("in", 0)
            kept[name][1] += attrs.get("out", 0)
        elif module == "estimator":
            m["estimator.calls"] += 1
            est_us.append(dur / 1e3)
        elif name == "scents.select_scent":
            m["scents.selections"] += 1
    for name, (n_in, n_out) in kept.items():
        short = "rr" if name == "ingest.reject_artifacts" else "hr"
        m[f"ingest.{short}_kept_ratio"] = n_out / n_in if n_in else 0.0
    if est_us:
        est_us.sort()
        m["estimator.step_us_p50"] = statistics.median(est_us)
        m["estimator.step_us_p99"] = est_us[min(len(est_us) - 1,
                                                int(0.99 * len(est_us)))]
    m["pipeline.out_bytes"] = out_bytes
    m["run_s"] = report["run_s"]
    m["trace.attributed_ratio"] = attributed / 1e9 / report["run_s"]
    return m


def environment() -> dict:
    try:
        numpy = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy = None
    return {"python": platform.python_version(), "numpy": numpy,
            "nproc": len(os.sched_getaffinity(0)), "machine": platform.machine(),
            "system": platform.system()}


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    h = Harness(workload, seed, seconds)
    metrics = h.traced() if trace else h.timed()
    failed = sum(o["error"] is not None for o in h.ops)
    result = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": int(trace), "attempted": len(h.ops), "failed": failed,
        "failed_frac": failed / len(h.ops), "failure_reasons": h.reasons,
        "metrics": metrics, "inputs": h.inputs, "outputs": h.outputs,
        "ops": h.ops, "environment": environment(),
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{workload}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(result, indent=1))
    shutil.rmtree(h.run_dir, ignore_errors=True)
    result["path"] = path
    return result


def print_table(result: dict) -> None:
    print(f"== {result['workload']}  seed {result['seed']}  "
          f"trace {result['trace']}  ops {result['attempted']}")
    print(f"  {'metric':<30} {'unit':<6} {'median':>12} {'q1':>12} "
          f"{'q3':>12} {'n':>4}")
    for name, m in result["metrics"].items():
        note = "  (from failed ops)" if m.get("from_failed_ops") else ""
        print(f"  {name:<30} {m['unit']:<6} {m['value']:>12.6g} "
              f"{m['q1']:>12.6g} {m['q3']:>12.6g} {m['n']:>4}{note}")
    print(f"  {'failed_frac':<30} {'ratio':<6} {result['failed_frac']:>12.6g}"
          f"   ({result['failed']} of {result['attempted']} ops)")
    for reason, count in result["failure_reasons"].items():
        print(f"  failed x{count}: {reason}")
    print(f"  results: {result['path'].relative_to(ROOT)}")


def contract_line(result: dict) -> dict:
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v["value"], "unit": v["unit"]}
                    for k, v in result["metrics"].items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=(*gen.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = parser.parse_args()
    if opts.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (PROGRAM / "ingest.py").is_file():
        print(f"bench: no scentctl sources under {PROGRAM}", file=sys.stderr)
        return 2

    workloads = gen.WORKLOADS if opts.workload == "all" else (opts.workload,)
    lines = {}
    for workload in workloads:
        result = run_workload(workload, opts.seed, opts.seconds,
                              bool(opts.trace))
        print_table(result)
        lines[workload] = contract_line(result)
    sys.stdout.flush()
    print(json.dumps(lines if opts.workload == "all" else lines[workloads[0]]))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
