"""A/B the shipped CLI of two checkouts: wall time, CPU time and peak RSS.

Runs ``scentctl replay`` on one of `bench/gen.py`'s seeded inputs, or
``scentctl synth`` on the default plan of a given length (with an episode
script, if given), from two checkouts (each a directory holding
``src/scentctl``):

    python tools/cli_ab.py PARENT CHANGE replay --workload estimate-7d-wear
    python tools/cli_ab.py PARENT CHANGE synth --duration-min 1440 \
        --script tests/golden/ep24.csv

Every run is a child forked from this small process, which then execs a
fresh interpreter on the checkout's ``src``, and is reaped with
``os.wait4``: its CPU time and ``ru_maxrss`` are its own. On Linux a
child's peak RSS starts from the high-water mark of the process that
forks it, so this process imports nothing of scentctl, and a forked child
writes the inputs with `bench/gen.py`.

Each checkout first makes one untimed warm-up run, the parent first. Then
come ``--pairs`` pairs, the change first in odd-numbered pairs and the
parent first in even-numbered ones, so a drift of the host's speed falls
on both sides alike. Every run's ``events.ndjson`` and ``summary.json``
must hash the same as the parent's warm-up run: on any difference, or a
run that fails, the script stops and exits 1. It prints every timed run,
then per metric each side's median and quartiles, the change's median
minus the parent's, the parent's interquartile range, and the pairs in
which the change's value was lower.

Standard library only; it changes no file under ``bench/``.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "bench"))
import gen  # noqa: E402  (bench/ is not a package)

OUTPUTS = ("events.ndjson", "summary.json")
METRICS = ("wall_s", "cpu_s", "peak_rss_mb")


def _fork(child) -> int:
    """Run ``child()`` in a forked process; its exit status must be 0 (a
    child that raises exits 1). Return the child's pid, not yet reaped."""
    pid = os.fork()
    if pid == 0:
        # Nothing may leave the child but its exit status: an exception that
        # escaped would run the parent's cleanup in the child.
        try:
            child()
        except BaseException:
            traceback.print_exc()
            os._exit(1)
        os._exit(0)
    return pid


def _reap(pid: int, what: str):
    """Wait for ``pid``; return its resource usage, or exit on a failure."""
    _, status, usage = os.wait4(pid, 0)
    if not os.WIFEXITED(status) or os.WEXITSTATUS(status) != 0:
        sys.exit(f"{what} failed (wait status {status})")
    return usage


def write_inputs(workload: str, seed: int, out_dir: Path) -> None:
    """Write ``workload``'s inputs with `bench/gen.py`, in a forked child:
    building them takes far more memory than this process may hold."""
    _reap(_fork(lambda: gen.build(workload, seed, out_dir)),
          f"writing the {workload} inputs")


def run_cli(checkout: Path, argv: list[str], out_dir: Path) -> dict:
    """One forked ``python -m scentctl.cli`` run of ``checkout``: its
    metrics and the sha256 of each of its outputs."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONPATH", "SCENTCTL_CONFIG")}
    env["PYTHONPATH"] = str(checkout / "src")
    command = [sys.executable, "-m", "scentctl.cli", *argv, "--out", str(out_dir)]

    def child():
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, 1)
        os.execve(sys.executable, command, env)

    start = time.perf_counter()
    pid = _fork(child)
    usage = _reap(pid, f"{' '.join(argv[:1])} of {checkout}")
    wall = time.perf_counter() - start
    hashes = {name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
              for name in OUTPUTS}
    shutil.rmtree(out_dir)
    return {"wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime,
            "peak_rss_mb": usage.ru_maxrss / 1024, "hashes": hashes}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile) of ``values``."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="checkout A, the reference")
    parser.add_argument("change", type=Path, help="checkout B")
    parser.add_argument("command", choices=("replay", "synth"))
    parser.add_argument("--workload", choices=gen.WORKLOADS,
                        default="estimate-7d-wear",
                        help="the gen.py input that replay reads")
    parser.add_argument("--duration-min", type=float, default=120.0,
                        help="synth's session length")
    parser.add_argument("--script", type=Path,
                        help="synth's episode script, e.g. tests/golden/ep24.csv")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for checkout in sides.values():
        if not (checkout / "src" / "scentctl").is_dir():
            parser.error(f"{checkout} holds no src/scentctl")
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    work = Path(tempfile.mkdtemp(prefix="cli-ab-"))
    try:
        if args.command == "replay":
            write_inputs(args.workload, args.seed, work / "inputs")
            cli_argv = ["replay", "--seed", str(args.seed), *(
                f"--{name}={work / 'inputs' / f'{name}.csv'}"
                for name in ("rr", "hr", "context"))]
        else:
            cli_argv = ["synth", "--seed", str(args.seed),
                        "--duration-min", str(args.duration_min)]
            if args.script:
                cli_argv.append(f"--script={args.script.resolve()}")

        expected = None
        runs = []
        for pair in range(args.pairs + 1):  # pair 0: the untimed warm-up
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for side in order:
                run = run_cli(sides[side], cli_argv, work / "out")
                expected = expected or run["hashes"]
                if run["hashes"] != expected:
                    differ = [n for n in OUTPUTS if run["hashes"][n] != expected[n]]
                    print(f"{side} run of pair {pair}: {', '.join(differ)} "
                          f"differ from the parent's warm-up run", file=sys.stderr)
                    return 1
                if pair:
                    runs.append((pair, side, run))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    target = (args.workload if args.command == "replay"
              else f"{args.duration_min:g} min")
    print(f"{args.command} {target}, seed {args.seed}: {args.pairs} pairs")
    print(f"{'pair':>4}  {'side':<6}" + "".join(f"{m:>13}" for m in METRICS))
    for pair, side, run in runs:
        print(f"{pair:>4}  {side:<6}" + "".join(f"{run[m]:>13.3f}" for m in METRICS))
    print(f"{'metric':<12}{'parent median [q1, q3]':>26}"
          f"{'change median [q1, q3]':>26}{'change - parent':>17}"
          f"{'parent IQR':>12}  change lower in")
    for metric in METRICS:
        values = {side: [run[metric] for _, s, run in runs if s == side]
                  for side in sides}
        (p1, pm, p3), (c1, cm, c3) = (quartiles(values[s]) for s in sides)
        wins = sum(b < a for a, b in zip(values["parent"], values["change"]))
        print(f"{metric:<12}{f'{pm:.3f} [{p1:.3f}, {p3:.3f}]':>26}"
              f"{f'{cm:.3f} [{c1:.3f}, {c3:.3f}]':>26}{cm - pm:>+17.3f}"
              f"{p3 - p1:>12.3f}  {wins} of {args.pairs} pairs")
    print("outputs identical in every run: "
          + ", ".join(f"{name} {expected[name][:12]}" for name in OUTPUTS))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
