"""Golden outputs: seeded CLI runs must reproduce committed logs byte for byte.

Four cases pin the deterministic outputs of the whole loop: two 2 h
default-plan sessions, a 24 h session driven by the episode script
``golden/ep24.csv`` (it shows channel-active, cooldown and
repeat-cancelled suppressions), and a replay of that 24 h session under
``golden/alt.ini`` (10 s stride, 300 s interval, 120 s repeat horizon).
Each ``summary.json`` is compared with a committed copy; the larger
``events.ndjson`` and synth CSVs are compared through
``golden/SHA256SUMS``. The same cases are also run through
``python -m scentctl.cli`` on every other pyenv CPython 3.1x found under
``$PYENV_ROOT/versions``, so the outputs are pinned across interpreters.

After an intended output change, re-pin with
``PYTHONPATH=src python tests/test_golden.py`` and say in the change
which records changed and why.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from scentctl.cli import CONFIG_ENV_VAR, main
from scentctl.config import load_config
from scentctl.simulate import act

GOLDEN = Path(__file__).parent / "golden"
SUMS = GOLDEN / "SHA256SUMS"
SYNTH_24H = "synth-seed11-24h"

CASES = {
    "synth-seed7-2h": ["synth", "--seed", "7", "--duration-min", "120"],
    "synth-seed3-2h": ["synth", "--seed", "3", "--duration-min", "120"],
    SYNTH_24H: ["synth", "--seed", "11", "--duration-min", "1440",
                "--script", str(GOLDEN / "ep24.csv")],
    "replay-24h-alt": ["replay", "--config", str(GOLDEN / "alt.ini"),
                       "--rr", f"{{out}}/{SYNTH_24H}/rr.csv",
                       "--hr", f"{{out}}/{SYNTH_24H}/hr.csv",
                       "--context", f"{{out}}/{SYNTH_24H}/context.csv"],
}
HASHED = ("events.ndjson", "rr.csv", "hr.csv", "context.csv")
SRC = Path(__file__).resolve().parents[1] / "src"


def _argv(case: str, out: Path) -> list[str]:
    return [arg.replace("{out}", str(out)) for arg in CASES[case]] + [
        "--out", str(out / case)]


def run_cases(out: Path) -> None:
    """Run every case in order, each into ``out/<case>``."""
    with pytest.MonkeyPatch.context() as mp:
        mp.delenv(CONFIG_ENV_VAR, raising=False)
        for case in CASES:
            assert main(_argv(case, out)) == 0, case


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _expected_sums(case: str) -> dict[str, str]:
    sums = {}
    for line in SUMS.read_text(encoding="utf-8").splitlines():
        digest, name = line.split(maxsplit=1)
        if name.startswith(f"{case}/"):
            sums[name] = digest
    return sums


def _actual_sums(out: Path, case: str) -> dict[str, str]:
    return {f"{case}/{p.name}": _sha256(p)
            for p in sorted((out / case).iterdir()) if p.name in HASHED}


def _other_interpreters() -> list[Path]:
    """pyenv CPython 3.1x executables other than the running one."""
    root = os.environ.get("PYENV_ROOT")
    if not root:
        return []
    running = Path(sys.executable).resolve()
    return [exe for exe in sorted(Path(root).glob("versions/3.1?.*/bin/python3"))
            if exe.resolve() != running]


@pytest.fixture(scope="module")
def outputs(tmp_path_factory) -> Path:
    out = tmp_path_factory.mktemp("golden")
    run_cases(out)
    return out


@pytest.mark.parametrize("case", CASES)
def test_summary_matches_golden(outputs, case):
    expected = (GOLDEN / case / "summary.json").read_bytes()
    assert (outputs / case / "summary.json").read_bytes() == expected


@pytest.mark.parametrize("case", CASES)
def test_logs_and_traces_match_golden(outputs, case):
    expected = _expected_sums(case)
    assert expected, f"no SHA256SUMS entries for {case}"
    assert _actual_sums(outputs, case) == expected


# The actuation records follow from the logged states alone: `act` run on
# a log's `interaction_state` records gives back the whole log without
# its `feature` and `av_state` records.
@pytest.mark.parametrize("case, config", [
    (SYNTH_24H, dataclasses.replace(load_config(None), seed=11)),
    ("replay-24h-alt", load_config(GOLDEN / "alt.ini")),
])
def test_actuation_follows_from_the_logged_states(outputs, case, config):
    with open(outputs / case / "events.ndjson", encoding="utf-8") as lines:
        log = [json.loads(line) for line in lines]
    states = [r for r in log if r["kind"] == "interaction_state"]
    assert list(act(states, config)) == [
        r for r in log if r["kind"] not in ("feature", "av_state")]


def test_goldens_reproduce_on_other_interpreters(tmp_path):
    interpreters = _other_interpreters()
    if not interpreters:
        pytest.skip("no other CPython 3.1x under $PYENV_ROOT/versions")
    env = {k: v for k, v in os.environ.items() if k != CONFIG_ENV_VAR}
    env["PYTHONPATH"] = str(SRC)
    for exe in interpreters:
        out = tmp_path / exe.parts[-3]
        for case in CASES:
            proc = subprocess.run([str(exe), "-m", "scentctl.cli", *_argv(case, out)],
                                  env=env, capture_output=True, text=True,
                                  timeout=300)
            assert proc.returncode == 0, (exe, case, proc.stderr)
            assert ((out / case / "summary.json").read_bytes()
                    == (GOLDEN / case / "summary.json").read_bytes()), (exe, case)
            assert _actual_sums(out, case) == _expected_sums(case), (exe, case)


if __name__ == "__main__":
    run_cases(GOLDEN)
    lines = []
    for case in CASES:
        for path in sorted((GOLDEN / case).iterdir()):
            if path.name in HASHED:
                lines.append(f"{_sha256(path)}  {case}/{path.name}")
                path.unlink()
    SUMS.write_text("\n".join(lines) + "\n", encoding="utf-8")
