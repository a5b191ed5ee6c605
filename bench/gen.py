"""Seeded input generator for the benchmark workloads (stdlib only).

It does not import `scentctl`, so the inputs stay fixed when the
program's own synthetic generator changes, and they can be built even
when the package does not import. Every file follows the README's CSV
schemas with session-relative millisecond timestamps.

Physiology model, one value per second of the session: a mean RR
interval and a beat-to-beat jitter. Beats are drawn as the mean plus
AR(1) noise. Episodes reshape the mean and jitter with one-minute ramps,
so a clean trace never jumps by more than the artifact filter's 20 %:

- stress shortens the mean interval (heart rate up) and shrinks jitter;
- fatigue lengthens the mean interval and widens jitter a little;
- mild is a weak stress shape that lands in the mild-imbalance zone.

The 7-day wear trace adds the artifact types of Lipponen & Tarvainen
(2019): isolated ectopic beats (a premature interval and its
compensatory pause) and missed beats (one doubled interval), plus
30-120 s dropouts with neither RR nor HR rows and a few HR samples
outside the 20-250 bpm plausibility range.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from pathlib import Path

MIN = 60          # seconds per minute
HOUR = 60 * MIN
DAY = 24 * HOUR

RAMP_S = 60       # episode ramp in and out
AR_PHI = 0.3      # beat-to-beat noise correlation
CALIBRATION_QUIET_S = 10 * MIN  # no episode starts before this

# Resting levels are fixed, not drawn from the seed, so every seed gives
# about the same number of beats and runs differ in shape, not in size.
DAY_RR_MS, DAY_JITTER_MS = 800.0, 4.5
NIGHT_RR_MS, NIGHT_JITTER_MS = 1000.0, 8.0

# Episode shapes: (fractional change of the mean RR at magnitude 1,
# fractional change of the jitter at magnitude 1). Mild is stress at a
# magnitude of 0.10-0.18.
SHAPES = {"stress": (-0.18, -0.80), "fatigue": (0.10, 0.15)}
SHAPES["mild"] = SHAPES["stress"]

WORKLOADS = ("estimate-24h-episodic", "estimate-7d-wear")


def _rng(seed: int, tag: str) -> random.Random:
    """One independent stream per (seed, purpose)."""
    digest = hashlib.sha256(f"{seed}:{tag}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def _work_blocks(rng: random.Random, start_s: int, end_s: int,
                 work=(35, 55), brk=(5, 15)) -> list[tuple[int, int, bool]]:
    """Alternating (start, end, working) blocks covering [start_s, end_s)."""
    blocks = []
    t, working = start_s, True
    while t < end_s:
        lo, hi = work if working else brk
        length = round(rng.uniform(lo, hi) * MIN)
        blocks.append((t, min(t + length, end_s), working))
        t += length
        working = not working
    return blocks


def _place_episodes(rng: random.Random, spans: list[tuple[int, int]],
                    count: int, kinds: dict[str, float],
                    duration_min=(8, 40), gap_min=20) -> list[tuple]:
    """Up to ``count`` non-overlapping (start_s, end_s, kind, magnitude).

    Episodes fall inside the given spans and keep ``gap_min`` minutes
    apart, so releases, cooldown suppressions and repeats all occur.
    """
    episodes: list[tuple] = []
    names = sorted(kinds)
    weights = [kinds[k] for k in names]
    for _ in range(count * 20):
        if len(episodes) == count:
            break
        lo, hi = spans[rng.randrange(len(spans))]
        length = round(rng.uniform(*duration_min) * MIN)
        if hi - lo <= length:
            continue
        start = rng.randrange(lo, hi - length)
        end = start + length
        if any(start < e + gap_min * MIN and s < end + gap_min * MIN
               for s, e, _, _ in episodes):
            continue
        kind = rng.choices(names, weights)[0]
        magnitude = (rng.uniform(0.10, 0.18) if kind == "mild"
                     else rng.uniform(0.35, 1.0))
        episodes.append((start, end, kind, round(magnitude, 3)))
    return sorted(episodes)


def _apply_episodes(mean: list[float], jitter: list[float],
                    episodes: list[tuple]) -> None:
    for start, end, kind, magnitude in episodes:
        d_mean, d_jit = SHAPES[kind]
        for sec in range(start, end):
            ramp = min((sec - start) / RAMP_S, (end - sec) / RAMP_S, 1.0)
            effect = magnitude * ramp
            mean[sec] *= 1 + d_mean * effect
            jitter[sec] *= 1 + d_jit * effect


def _beats(rng: random.Random, mean: list[float], jitter: list[float],
           artifact_p: float = 0.0,
           dropped: bytearray | None = None) -> list[str]:
    """RR rows ``timestamp_ms,rr_ms``; the timestamp is the beat's end."""
    rows = []
    n = len(mean)
    t = 0.0
    noise = 0.0
    scale = (1 - AR_PHI * AR_PHI) ** 0.5
    gauss, rand = rng.gauss, rng.random
    while True:
        sec = int(t // 1000)
        if sec >= n:
            break
        noise = AR_PHI * noise + gauss(0.0, jitter[sec] * scale)
        rr = min(max(mean[sec] + noise, 320.0), 1900.0)
        if artifact_p and rand() < artifact_p:
            if rand() < 0.6:  # ectopic: premature beat, compensatory pause
                short = rr * rng.uniform(0.60, 0.70)
                intervals = (short, 2 * rr - short)
            else:             # missed beat: two intervals read as one
                intervals = (2 * rr,)
        else:
            intervals = (rr,)
        for value in intervals:
            t += value
            ts = round(t)
            if ts // 1000 >= n:
                return rows
            if dropped is None or not dropped[ts // 1000]:
                rows.append(f"{ts},{value:.3f}")
    return rows


def _heart_rate(rng: random.Random, mean: list[float],
                dropped: bytearray | None = None,
                out_of_range: set[int] = frozenset()) -> list[str]:
    """HR rows ``timestamp_ms,hr_bpm`` at 1 Hz."""
    rows = []
    gauss = rng.gauss
    for sec, m in enumerate(mean):
        if dropped is not None and dropped[sec]:
            continue
        if sec in out_of_range:
            value = rng.choice((rng.uniform(255, 290), rng.uniform(8, 18)))
        else:
            value = 60000.0 / m + gauss(0.0, 0.5)
        rows.append(f"{sec * 1000},{value:.3f}")
    return rows


def _context(duration_s: int, state_at) -> list[str]:
    """Context rows ``timestamp_ms,session_active,activity_state`` at 60 s."""
    rows = []
    for sec in range(0, duration_s + 1, MIN):
        active, activity = state_at(sec)
        rows.append(f"{sec * 1000},{1 if active else 0},{activity}")
    return rows


def _block_lookup(blocks: list[tuple[int, int, bool]]):
    def working(sec: int) -> bool | None:
        for start, end, is_work in blocks:
            if start <= sec < end:
                return is_work
        return None
    return working


def _late_fatigue(rng: random.Random, work_spans: list[tuple[int, int]],
                  taken: list[tuple], count: int) -> list[tuple]:
    """Fatigue episodes in the last part of long work blocks.

    Low alertness needs 30 continuous work minutes, so these start at
    least 32 minutes into a block.
    """
    out: list[tuple] = []
    spans = [(s + 32 * MIN, e) for s, e in work_spans if e - s >= 40 * MIN]
    rng.shuffle(spans)
    for lo, hi in spans:
        if len(out) == count:
            break
        if any(lo < e + 20 * MIN and s < hi + 20 * MIN
               for s, e, _, _ in taken + out):
            continue
        out.append((lo, hi, "fatigue", round(rng.uniform(0.6, 1.0), 3)))
    return out


def episodic_24h(seed: int) -> dict[str, list[str]]:
    """24 h desk session: work/break blocks all day, ~18 episodes."""
    rng = _rng(seed, "estimate-24h-episodic")
    duration = DAY
    mean = [DAY_RR_MS] * duration
    jitter = [DAY_JITTER_MS] * duration
    blocks = _work_blocks(rng, 0, duration)
    work_spans = [(max(s, CALIBRATION_QUIET_S), e)
                  for s, e, w in blocks if w and e > CALIBRATION_QUIET_S]
    episodes = _place_episodes(
        rng, [(CALIBRATION_QUIET_S, duration)], 14,
        {"stress": 0.6, "mild": 0.4})
    episodes += _late_fatigue(rng, work_spans, episodes, 4)
    _apply_episodes(mean, jitter, sorted(episodes))
    working = _block_lookup(blocks)

    def state_at(sec):
        w = working(sec)
        if w is None:
            w = blocks[-1][2]
        return w, "sedentary" if w else "active"

    return {
        "rr.csv": ["timestamp_ms,rr_ms"] + _beats(rng, mean, jitter),
        "hr.csv": ["timestamp_ms,hr_bpm"] + _heart_rate(rng, mean),
        "context.csv": ["timestamp_ms,session_active,activity_state"]
        + _context(duration, state_at),
    }


def wear_7d(seed: int) -> dict[str, list[str]]:
    """7-day wear trace starting at 08:00 on day one.

    Work hours (08:00-18:00) alternate work and break blocks and carry
    the episodes; evenings are active but off-session, nights (23:00 to
    07:00) are inactive with slower, more variable beats.
    """
    rng = _rng(seed, "estimate-7d-wear")
    duration = 7 * DAY
    ramp = 30 * MIN

    def clock(sec: int) -> int:
        return (sec + 8 * HOUR) % DAY

    def night_weight(c: int) -> float:
        """0 by day, 1 at night, linear over the 30 min around 23:00/07:00."""
        if 23 * HOUR <= c or c < 7 * HOUR:
            return 1.0
        if 23 * HOUR - ramp <= c < 23 * HOUR:
            return (c - (23 * HOUR - ramp)) / ramp
        if 7 * HOUR <= c < 7 * HOUR + ramp:
            return 1 - (c - 7 * HOUR) / ramp
        return 0.0

    mean, jitter = [], []
    for sec in range(duration):
        w = night_weight(clock(sec))
        mean.append(DAY_RR_MS + (NIGHT_RR_MS - DAY_RR_MS) * w)
        jitter.append(DAY_JITTER_MS + (NIGHT_JITTER_MS - DAY_JITTER_MS) * w)

    blocks: list[tuple[int, int, bool]] = []
    for day in range(7):
        start = day * DAY
        blocks += _work_blocks(rng, start, start + 10 * HOUR)
    work_spans = [(max(s, CALIBRATION_QUIET_S), e)
                  for s, e, w in blocks if w and e > CALIBRATION_QUIET_S]
    episodes: list[tuple] = []
    for day in range(7):
        lo = max(day * DAY, CALIBRATION_QUIET_S)
        episodes += _place_episodes(rng, [(lo, day * DAY + 10 * HOUR)], 5,
                                    {"stress": 0.6, "mild": 0.4})
    episodes += _late_fatigue(rng, work_spans, episodes, 10)
    _apply_episodes(mean, jitter, sorted(episodes))

    dropped = bytearray(duration)
    for _ in range(4 * 7):
        start = rng.randrange(CALIBRATION_QUIET_S, duration - 2 * MIN)
        for sec in range(start, start + rng.randint(30, 120)):
            dropped[sec] = 1
    out_of_range = {rng.randrange(CALIBRATION_QUIET_S, duration)
                    for _ in range(3 * 7)}

    working = _block_lookup(blocks)

    def state_at(sec):
        c = clock(sec)
        if c < 10 * HOUR:
            w = working(sec)
            if w is not None:
                return w, "sedentary" if w else "active"
        asleep = 23 * HOUR <= c or c < 7 * HOUR
        return False, "sedentary" if asleep else "active"

    return {
        "rr.csv": ["timestamp_ms,rr_ms"]
        + _beats(rng, mean, jitter, artifact_p=0.0025, dropped=dropped),
        "hr.csv": ["timestamp_ms,hr_bpm"]
        + _heart_rate(rng, mean, dropped, out_of_range),
        "context.csv": ["timestamp_ms,session_active,activity_state"]
        + _context(duration, state_at),
    }


def write_files(files: dict[str, list[str]], out_dir: Path) -> dict:
    """Write CSVs; return {name: {"rows": data rows, "sha256": hex}}."""
    out_dir.mkdir(parents=True, exist_ok=True)
    info = {}
    for name, lines in files.items():
        data = ("\n".join(lines) + "\n").encode()
        (out_dir / name).write_bytes(data)
        info[name] = {"rows": len(lines) - 1,
                      "sha256": hashlib.sha256(data).hexdigest()}
    return info


def build(workload: str, seed: int, out_dir: Path) -> dict:
    """Write one workload's inputs under ``out_dir``; return their info."""
    if workload == "estimate-24h-episodic":
        files = episodic_24h(seed)
    elif workload == "estimate-7d-wear":
        files = wear_7d(seed)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return write_files(files, out_dir)


if __name__ == "__main__":
    # python3 bench/gen.py WORKLOAD SEED OUT_DIR: write inputs, print their info
    print(json.dumps(build(sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]))))
