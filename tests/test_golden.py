"""Golden outputs: seeded CLI runs must reproduce committed logs byte for byte.

Four cases pin the deterministic outputs of the whole loop: two 2 h
default-plan sessions, a 24 h session driven by the episode script
``golden/ep24.csv`` (it shows channel-active, cooldown and
repeat-cancelled suppressions), and a replay of that 24 h session under
``golden/alt.ini`` (10 s stride, 300 s interval, 120 s repeat horizon).
Each ``summary.json`` is compared with a committed copy; the larger
``events.ndjson`` and synth CSVs are compared through
``golden/SHA256SUMS``.

After an intended output change, re-pin with
``PYTHONPATH=src python tests/test_golden.py`` and say in the change
which records changed and why.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import pytest

from scentctl.cli import CONFIG_ENV_VAR, main

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


def run_cases(out: Path) -> None:
    """Run every case in order, each into ``out/<case>``."""
    with pytest.MonkeyPatch.context() as mp:
        mp.delenv(CONFIG_ENV_VAR, raising=False)
        for case, argv in CASES.items():
            argv = [arg.replace("{out}", str(out)) for arg in argv]
            assert main(argv + ["--out", str(out / case)]) == 0, case


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _expected_sums() -> dict[str, str]:
    sums = {}
    for line in SUMS.read_text(encoding="utf-8").splitlines():
        digest, name = line.split(maxsplit=1)
        sums[name] = digest
    return sums


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
    expected = {name: digest for name, digest in _expected_sums().items()
                if name.startswith(f"{case}/")}
    assert expected, f"no SHA256SUMS entries for {case}"
    actual = {f"{case}/{p.name}": _sha256(p)
              for p in sorted((outputs / case).iterdir()) if p.name in HASHED}
    assert actual == expected


if __name__ == "__main__":
    run_cases(GOLDEN)
    lines = []
    for case in CASES:
        for path in sorted((GOLDEN / case).iterdir()):
            if path.name in HASHED:
                lines.append(f"{_sha256(path)}  {case}/{path.name}")
                path.unlink()
    SUMS.write_text("\n".join(lines) + "\n", encoding="utf-8")
