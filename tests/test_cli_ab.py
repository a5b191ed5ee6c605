"""Smoke tests of `tools/cli_ab.py`, the A/B harness of the shipped CLI."""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

from conftest import time_bound

ROOT = Path(__file__).resolve().parents[1]
CLI_AB = ROOT / "tools" / "cli_ab.py"


def _cli_ab(parent, change, *argv):
    return subprocess.run([sys.executable, str(CLI_AB), str(parent), str(change),
                           *argv], capture_output=True, text=True)


def test_one_pair_of_2h_synth_runs():
    with time_bound(60):
        proc = _cli_ab(ROOT, ROOT, "synth", "--duration-min", "120", "--pairs", "1")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    runs = [line.split() for line in lines if line.startswith("   1  ")]
    assert sorted(run[1] for run in runs) == ["change", "parent"]
    for metric in ("wall_s", "cpu_s", "peak_rss_mb"):
        row = next(line.split() for line in lines if line.startswith(metric))
        assert row[-4] in ("0", "1") and row[-3:] == ["of", "1", "pairs"]
    assert lines[-1].startswith("outputs identical in every run: events.ndjson ")


def test_differing_outputs_fail(tmp_path):
    # a copy whose feature records round to 5 decimals, not 6
    shutil.copytree(ROOT / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    simulate = tmp_path / "src" / "scentctl" / "simulate.py"
    text = simulate.read_text(encoding="utf-8")
    simulate.write_text(text.replace("return round(x, 6)", "return round(x, 5)"),
                        encoding="utf-8")
    with time_bound(60):
        proc = _cli_ab(ROOT, tmp_path, "synth", "--duration-min", "120",
                       "--pairs", "1")
    assert proc.returncode == 1
    assert "events.ndjson differ from the parent's warm-up run" in proc.stderr
