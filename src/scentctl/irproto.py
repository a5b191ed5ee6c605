"""Pulse-timing encoder/decoder for the atomizer's infrared command link.

The control board accepts power, shutdown, and channel-select commands
for channels 1-8, carried as 32-bit words on a 38 kHz carrier using the
common consumer framing: a 9000/4500 us leader, pulse-distance-coded
bits (560/560 us for 0, 560/1690 us for 1, most-significant bit first),
and a 560 us stop mark. Every frame is exactly 34 (mark, space) pairs.

Each command is named by its key, the name it has in `[ir] codes.<key>`
config entries and in the event log: "power", "shutdown" and
"channel_1" .. "channel_8" (`COMMANDS`). Code words are device-specific:
the shipped table holds placeholders and is meant to be overridden per
deployment with codes captured from the device's own remote. Release
intensity is realized as a PWM duty cycle on the atomizer side and never
travels over this link; it is carried in the event log instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .scheduler import ReleaseCommand

CARRIER_HZ = 38000
LEADER_MARK_US = 9000
LEADER_SPACE_US = 4500
BIT_MARK_US = 560
ZERO_SPACE_US = 560
ONE_SPACE_US = 1690
STOP_MARK_US = 560
WORD_BITS = 32
FRAME_PULSE_PAIRS = 34  # leader + 32 data bits + stop
DEFAULT_TOLERANCE_US = 150


class MalformedFrameError(ValueError):
    """Frame timing does not match the expected framing within tolerance."""


class UnknownCodeError(KeyError):
    """A decoded word (or command) is absent from the code table."""


# Every device command, in stable order.
COMMANDS: tuple[str, ...] = ("power", "shutdown",
                             *(f"channel_{n}" for n in range(1, 9)))


def _placeholder_word(command_byte: int) -> int:
    # Address 0x00 with complemented bytes, the usual remote-word layout.
    addr = 0x00
    return ((addr << 24) | ((addr ^ 0xFF) << 16)
            | (command_byte << 8) | (command_byte ^ 0xFF))


_PLACEHOLDER_BYTES: dict[str, int] = {
    "power": 0x0A,
    "shutdown": 0x0B,
    **{f"channel_{n}": 0x10 + n for n in range(1, 9)},
}


@dataclass(frozen=True)
class IRCodeTable:
    """Total, collision-free map from command key to 32-bit code word."""

    codes: Mapping[str, int]

    def __post_init__(self) -> None:
        expected = set(COMMANDS)
        present = set(self.codes)
        missing = expected - present
        if missing:
            raise ValueError(f"code table is missing commands: {sorted(missing)}")
        extra = present - expected
        if extra:
            raise ValueError(f"code table has unknown commands: {sorted(extra)}")
        for key, word in self.codes.items():
            if not 0 <= word <= 0xFFFFFFFF:
                raise ValueError(f"code for {key} must be a 32-bit word")
        if len(set(self.codes.values())) != len(self.codes):
            raise ValueError("code table words must be unique")

    @classmethod
    def default(cls) -> "IRCodeTable":
        """Placeholder table; override per device with captured codes."""
        return cls({key: _placeholder_word(_PLACEHOLDER_BYTES[key])
                    for key in COMMANDS})

    def with_overrides(self, by_key: Mapping[str, int]) -> "IRCodeTable":
        for key in by_key:
            if key not in COMMANDS:
                raise ValueError(f"unknown IR command key {key!r}")
        return IRCodeTable({**self.codes, **by_key})

    def code_for(self, key: str) -> int:
        try:
            return self.codes[key]
        except KeyError:
            raise UnknownCodeError(key) from None

    def command_for(self, word: int) -> str:
        for key, code in self.codes.items():
            if code == word:
                return key
        raise UnknownCodeError(f"0x{word:08X}")


@dataclass(frozen=True, slots=True)
class IRFrame:
    """Ordered (mark, space) pulse timings in microseconds."""

    pulses: tuple[tuple[int, int], ...]
    carrier_hz: int = CARRIER_HZ

    def render_lines(self) -> str:
        """One `mark_us,space_us` line per pulse pair, for external replay."""
        return "\n".join(f"{m},{s}" for m, s in self.pulses) + "\n"


def encode_frame(key: str, table: IRCodeTable) -> IRFrame:
    """Encode a command as a 34-pair pulse frame, MSB first."""
    word = table.code_for(key)
    pulses = [(LEADER_MARK_US, LEADER_SPACE_US)]
    for bit_pos in range(WORD_BITS - 1, -1, -1):
        bit = (word >> bit_pos) & 1
        pulses.append((BIT_MARK_US, ONE_SPACE_US if bit else ZERO_SPACE_US))
    pulses.append((STOP_MARK_US, 0))
    return IRFrame(tuple(pulses))


def _check(measured: int, nominal: int, tolerance: float, what: str) -> None:
    if abs(measured - nominal) > tolerance:
        raise MalformedFrameError(
            f"{what}: {measured} us is outside {nominal}±{tolerance:g} us")


def decode_frame(frame: IRFrame, table: IRCodeTable,
                 tolerance_us: float = DEFAULT_TOLERANCE_US) -> str:
    """Recover the command key from a pulse frame.

    Each pulse pair is classified against its nearest nominal timing and
    must lie within ±tolerance of it; the trailing space of the stop
    pulse is ignored. Raises MalformedFrameError on timing violations
    and UnknownCodeError when the reconstructed word is not in the table.
    """
    if tolerance_us < 0:
        raise ValueError("tolerance_us must be non-negative")
    if len(frame.pulses) != FRAME_PULSE_PAIRS:
        raise MalformedFrameError(
            f"expected {FRAME_PULSE_PAIRS} pulse pairs, got {len(frame.pulses)}")

    leader_mark, leader_space = frame.pulses[0]
    _check(leader_mark, LEADER_MARK_US, tolerance_us, "leader mark")
    _check(leader_space, LEADER_SPACE_US, tolerance_us, "leader space")

    word = 0
    for index, (mark, space) in enumerate(frame.pulses[1:1 + WORD_BITS]):
        _check(mark, BIT_MARK_US, tolerance_us, f"bit {index} mark")
        # Nearest-nominal classification keeps decoding independent of
        # the tolerance value, so a frame valid at t decodes identically
        # at any larger tolerance.
        nominal = ONE_SPACE_US if (
            abs(space - ONE_SPACE_US) < abs(space - ZERO_SPACE_US)) else ZERO_SPACE_US
        _check(space, nominal, tolerance_us, f"bit {index} space")
        word = (word << 1) | (1 if nominal == ONE_SPACE_US else 0)

    stop_mark, _stop_space = frame.pulses[-1]
    _check(stop_mark, STOP_MARK_US, tolerance_us, "stop mark")

    return table.command_for(word)


def command_sequence_for(release: ReleaseCommand) -> list[tuple[int, str]]:
    """Timestamped command keys realizing one release.

    Channel select and power-on go out at the release start, shutdown at
    the release end. Duty is not part of the sequence: the control link
    carries discrete commands only.
    """
    return [
        (release.start, f"channel_{release.channel}"),
        (release.start, "power"),
        (release.end, "shutdown"),
    ]
