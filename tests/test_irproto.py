"""Infrared frame encoding, decoding, and command sequencing."""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from typing import Mapping

import pytest
from hypothesis import example, given, strategies as st

from scentctl.irproto import (
    BIT_MARK_US,
    COMMANDS,
    DEFAULT_TOLERANCE_US,
    FRAME_PULSE_PAIRS,
    LEADER_MARK_US,
    LEADER_SPACE_US,
    ONE_SPACE_US,
    STOP_MARK_US,
    WORD_BITS,
    ZERO_SPACE_US,
    _PLACEHOLDER_BYTES,
    IRCodeTable,
    IRFrame,
    MalformedFrameError,
    UnknownCodeError,
    command_sequence_for,
    decode_frame,
    encode_frame,
    _placeholder_word,
)
from scentctl.scheduler import ReleaseCommand

TABLE = IRCodeTable.default()


def oracle_bits(word: int) -> list[int]:
    """Independent oracle: textual 32-bit expansion, MSB first."""
    return [int(b) for b in format(word, "032b")]


def _table_with(word: int, cmd="power") -> IRCodeTable:
    codes = dict(TABLE.codes)
    codes[cmd] = word
    return IRCodeTable(codes)


def _random_table(rng: random.Random) -> IRCodeTable:
    words = set()
    while len(words) < 10:
        words.add(rng.getrandbits(32))
    return IRCodeTable(dict(zip(COMMANDS, sorted(words))))


# -- commands and table -----------------------------------------------------

def test_command_set_is_total():
    assert len(COMMANDS) == 10
    assert "power" in COMMANDS and "shutdown" in COMMANDS
    assert COMMANDS[2:] == tuple(f"channel_{n}" for n in range(1, 9))


def test_select_channel_validation():
    # Channels outside 1..8, and a non-channel command carrying a channel,
    # have no key: the table refuses them on lookup, encode and override.
    for key in ("channel_0", "channel_9", "power_3"):
        with pytest.raises(UnknownCodeError):
            TABLE.code_for(key)
        with pytest.raises(UnknownCodeError):
            encode_frame(key, TABLE)
        with pytest.raises(ValueError, match="unknown IR command key"):
            TABLE.with_overrides({key: 0x12345678})


def test_command_keys():
    assert COMMANDS == ("power", "shutdown", "channel_1", "channel_2",
                        "channel_3", "channel_4", "channel_5", "channel_6",
                        "channel_7", "channel_8")
    with pytest.raises(UnknownCodeError):
        TABLE.code_for("volume_up")


def test_table_requires_all_commands():
    codes = dict(TABLE.codes)
    del codes["power"]
    with pytest.raises(ValueError, match="missing"):
        IRCodeTable(codes)


def test_table_rejects_duplicate_words():
    codes = dict(TABLE.codes)
    codes["power"] = codes["shutdown"]
    with pytest.raises(ValueError, match="unique"):
        IRCodeTable(codes)


def test_table_rejects_oversized_word():
    codes = dict(TABLE.codes)
    codes["power"] = 1 << 32
    with pytest.raises(ValueError, match="32-bit"):
        IRCodeTable(codes)


def test_table_overrides_by_key():
    table = TABLE.with_overrides({"power": 0x20DF10EF})
    assert table.code_for("power") == 0x20DF10EF
    with pytest.raises(ValueError, match="unknown IR command"):
        TABLE.with_overrides({"volume_up": 1})


# -- encoding ---------------------------------------------------------------

def test_encode_all_zero_word():
    frame = encode_frame("power", _table_with(0x00000000))
    assert len(frame.pulses) == FRAME_PULSE_PAIRS
    assert frame.pulses[0] == (LEADER_MARK_US, LEADER_SPACE_US)
    assert all(p == (BIT_MARK_US, ZERO_SPACE_US) for p in frame.pulses[1:33])
    assert frame.pulses[33] == (BIT_MARK_US, 0)


def test_encode_all_one_word():
    frame = encode_frame("power", _table_with(0xFFFFFFFF))
    assert all(p == (BIT_MARK_US, ONE_SPACE_US) for p in frame.pulses[1:33])


def test_encode_matches_bit_oracle():
    word = 0xA0A0A0A0
    frame = encode_frame("power", _table_with(word))
    spaces = [space for _, space in frame.pulses[1:33]]
    expected = [ONE_SPACE_US if bit else ZERO_SPACE_US
                for bit in oracle_bits(word)]
    assert spaces == expected


def test_frame_carrier_and_length_deterministic():
    frame = encode_frame("channel_5", TABLE)
    assert frame.carrier_hz == 38000
    assert len(frame.pulses) == 34
    assert frame == encode_frame("channel_5", TABLE)


def test_frame_line_export_round_trip():
    frame = encode_frame("shutdown", TABLE)
    text = frame.render_lines()
    assert text.endswith("\n") and not text.endswith("\n\n")
    lines = text.splitlines()
    assert lines[0] == f"{LEADER_MARK_US},{LEADER_SPACE_US}"
    assert [tuple(int(v) for v in line.split(",")) for line in lines] \
        == list(frame.pulses)


# -- decoding ---------------------------------------------------------------

def test_round_trip_every_command():
    for cmd in COMMANDS:
        assert decode_frame(encode_frame(cmd, TABLE), TABLE) == cmd


def test_decode_leader_out_of_tolerance():
    frame = encode_frame("power", TABLE)
    bad = IRFrame(((8000, LEADER_SPACE_US),) + frame.pulses[1:])
    with pytest.raises(MalformedFrameError, match="leader"):
        decode_frame(bad, TABLE, tolerance_us=150)


def test_decode_wrong_pair_count():
    frame = encode_frame("power", TABLE)
    with pytest.raises(MalformedFrameError, match="34"):
        decode_frame(IRFrame(frame.pulses[:-1]), TABLE)


def test_decode_unknown_word():
    table = _table_with(0x12345678)
    frame = encode_frame("power", table)
    with pytest.raises(UnknownCodeError):
        decode_frame(frame, TABLE)


def test_decode_bit_space_out_of_tolerance():
    frame = encode_frame("power", TABLE)
    pulses = list(frame.pulses)
    mark, space = pulses[5]
    pulses[5] = (mark, space + 400)
    with pytest.raises(MalformedFrameError, match="bit 4"):
        decode_frame(IRFrame(tuple(pulses)), TABLE, tolerance_us=150)


def test_decode_tolerates_jitter_within_bound():
    rng = random.Random(8)
    frame = encode_frame("channel_7", TABLE)
    jittered = IRFrame(tuple(
        (mark + rng.randint(-100, 100), space + rng.randint(-100, 100))
        for mark, space in frame.pulses))
    assert decode_frame(jittered, TABLE, tolerance_us=150) == "channel_7"


def test_tolerance_monotonicity_on_jittered_frames():
    rng = random.Random(42)
    for _ in range(50):
        cmd = rng.choice(COMMANDS)
        frame = encode_frame(cmd, TABLE)
        jittered = IRFrame(tuple(
            (mark + rng.randint(-220, 220), space + rng.randint(-220, 220))
            for mark, space in frame.pulses))
        outcomes = []
        for tol in (50, 150, 250):
            try:
                outcomes.append(decode_frame(jittered, TABLE, tolerance_us=tol))
            except (MalformedFrameError, UnknownCodeError):
                outcomes.append(None)
        decoded = [o for o in outcomes if o is not None]
        # once a frame decodes, larger tolerances agree
        if decoded:
            first = outcomes.index(decoded[0])
            assert all(o == decoded[0] for o in outcomes[first:])


def test_decode_rejects_negative_tolerance():
    with pytest.raises(ValueError):
        decode_frame(encode_frame("power", TABLE), TABLE, tolerance_us=-1)


@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_round_trip_arbitrary_word(word):
    table = _table_with(word)
    if len(set(table.codes.values())) != 10:
        return  # collision with another placeholder word
    assert decode_frame(encode_frame("power", table), table) == "power"


@given(st.integers(min_value=0, max_value=2**64 - 1))
def test_round_trip_random_tables(seed):
    rng = random.Random(seed)
    table = _random_table(rng)
    for cmd in COMMANDS:
        frame = encode_frame(cmd, table)
        assert len(frame.pulses) == FRAME_PULSE_PAIRS
        assert decode_frame(frame, table) == cmd


# -- command sequencing -----------------------------------------------------

def _release(channel=3, start=60_000, duration_s=8.0):
    return ReleaseCommand(start=start, channel=channel, duty=0.45,
                          duration_s=duration_s, scent="cedarwood")


def test_sequence_select_power_then_shutdown():
    seq = command_sequence_for(_release(channel=3))
    assert seq == [
        (60_000, "channel_3"),
        (60_000, "power"),
        (68_000, "shutdown"),
    ]


def test_sequence_back_to_back_ordering():
    first = command_sequence_for(_release(start=0))
    second = command_sequence_for(_release(start=908_000, channel=5))
    assert first[-1][0] <= second[0][0]
    assert first[-1][1] == "shutdown"
    assert second[0][1] == "channel_5"


def test_sequence_channel_bounds_enforced_by_type():
    _, key = command_sequence_for(_release(channel=9))[0]
    assert key == "channel_9"
    with pytest.raises(UnknownCodeError):
        TABLE.code_for(key)


# -- differential check against the DeviceCommand code table ----------------
#
# The reference below is a verbatim copy of the code table and codec that
# named each command by a `DeviceCommand(kind, channel)` object, renamed
# with a `_ref` prefix. The key-named table must give the same error text,
# or the same ordered (key, word) items, on every table and override set,
# and the codec the same pulses and the same decoded command.

class _RefCommandKind(str, Enum):
    POWER = "power"
    SHUTDOWN = "shutdown"
    SELECT_CHANNEL = "select_channel"


@dataclass(frozen=True, slots=True)
class _RefDeviceCommand:
    kind: _RefCommandKind
    channel: int | None = None

    def __post_init__(self) -> None:
        if self.kind is _RefCommandKind.SELECT_CHANNEL:
            if self.channel is None or not 1 <= self.channel <= 8:
                raise ValueError("channel selection requires channel in 1..8")
        elif self.channel is not None:
            raise ValueError(f"{self.kind.value} takes no channel")

    @property
    def key(self) -> str:
        """Stable identifier used in config files and the event log."""
        if self.kind is _RefCommandKind.SELECT_CHANNEL:
            return f"channel_{self.channel}"
        return self.kind.value


_REF_POWER = _RefDeviceCommand(_RefCommandKind.POWER)
_REF_SHUTDOWN = _RefDeviceCommand(_RefCommandKind.SHUTDOWN)


def _ref_select_channel(n: int) -> _RefDeviceCommand:
    return _RefDeviceCommand(_RefCommandKind.SELECT_CHANNEL, n)


def _ref_all_commands() -> tuple[_RefDeviceCommand, ...]:
    """The full 10-command set, in stable order."""
    return (_REF_POWER, _REF_SHUTDOWN) + tuple(_ref_select_channel(n) for n in range(1, 9))


@dataclass(frozen=True)
class _RefIRCodeTable:
    """Total, collision-free map from device command to 32-bit code word."""

    codes: Mapping[_RefDeviceCommand, int]

    def __post_init__(self) -> None:
        expected = set(_ref_all_commands())
        present = set(self.codes)
        missing = expected - present
        if missing:
            names = sorted(c.key for c in missing)
            raise ValueError(f"code table is missing commands: {names}")
        extra = present - expected
        if extra:
            names = sorted(c.key for c in extra)
            raise ValueError(f"code table has unknown commands: {names}")
        for cmd, word in self.codes.items():
            if not 0 <= word <= 0xFFFFFFFF:
                raise ValueError(f"code for {cmd.key} must be a 32-bit word")
        if len(set(self.codes.values())) != len(self.codes):
            raise ValueError("code table words must be unique")

    @classmethod
    def default(cls) -> "_RefIRCodeTable":
        """Placeholder table; override per device with captured codes."""
        return cls({cmd: _placeholder_word(_PLACEHOLDER_BYTES[cmd.key])
                    for cmd in _ref_all_commands()})

    def with_overrides(self, by_key: Mapping[str, int]) -> "_RefIRCodeTable":
        by_command = {cmd.key: cmd for cmd in _ref_all_commands()}
        codes = dict(self.codes)
        for key, word in by_key.items():
            if key not in by_command:
                raise ValueError(f"unknown IR command key {key!r}")
            codes[by_command[key]] = word
        return _RefIRCodeTable(codes)

    def code_for(self, cmd: _RefDeviceCommand) -> int:
        try:
            return self.codes[cmd]
        except KeyError:
            raise UnknownCodeError(cmd.key) from None

    def command_for(self, word: int) -> _RefDeviceCommand:
        for cmd, code in self.codes.items():
            if code == word:
                return cmd
        raise UnknownCodeError(f"0x{word:08X}")


def _ref_encode_frame(cmd: _RefDeviceCommand, table: _RefIRCodeTable) -> IRFrame:
    """Encode a command as a 34-pair pulse frame, MSB first."""
    word = table.code_for(cmd)
    pulses = [(LEADER_MARK_US, LEADER_SPACE_US)]
    for bit_pos in range(WORD_BITS - 1, -1, -1):
        bit = (word >> bit_pos) & 1
        pulses.append((BIT_MARK_US, ONE_SPACE_US if bit else ZERO_SPACE_US))
    pulses.append((STOP_MARK_US, 0))
    return IRFrame(tuple(pulses))


def _ref_check(measured: int, nominal: int, tolerance: float, what: str) -> None:
    if abs(measured - nominal) > tolerance:
        raise MalformedFrameError(
            f"{what}: {measured} us is outside {nominal}±{tolerance:g} us")


def _ref_decode_frame(frame: IRFrame, table: _RefIRCodeTable,
                      tolerance_us: float = DEFAULT_TOLERANCE_US) -> _RefDeviceCommand:
    """Recover the command from a pulse frame.

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
    _ref_check(leader_mark, LEADER_MARK_US, tolerance_us, "leader mark")
    _ref_check(leader_space, LEADER_SPACE_US, tolerance_us, "leader space")

    word = 0
    for index, (mark, space) in enumerate(frame.pulses[1:1 + WORD_BITS]):
        _ref_check(mark, BIT_MARK_US, tolerance_us, f"bit {index} mark")
        # Nearest-nominal classification keeps decoding independent of
        # the tolerance value, so a frame valid at t decodes identically
        # at any larger tolerance.
        nominal = ONE_SPACE_US if (
            abs(space - ONE_SPACE_US) < abs(space - ZERO_SPACE_US)) else ZERO_SPACE_US
        _ref_check(space, nominal, tolerance_us, f"bit {index} space")
        word = (word << 1) | (1 if nominal == ONE_SPACE_US else 0)

    stop_mark, _stop_space = frame.pulses[-1]
    _ref_check(stop_mark, STOP_MARK_US, tolerance_us, "stop mark")

    return table.command_for(word)


@dataclass(frozen=True)
class _RefOddKey:
    """A table key that names no command; the reference reads only `.key`."""

    key: str


_REF_BY_KEY = {cmd.key: cmd for cmd in _ref_all_commands()}
_ODD_KEYS = ("", "channel_0", "channel_9", "volume_up", "Power")


def _to_ref(codes: dict[str, int]) -> dict:
    return {_REF_BY_KEY.get(key) or _RefOddKey(key): word
            for key, word in codes.items()}


def _outcome(build):
    """Ordered (key, word) items of the built table, or the error raised."""
    try:
        table = build()
    except ValueError as exc:
        return str(exc)
    return [(getattr(key, "key", key), word) for key, word in table.codes.items()]


@st.composite
def _words(draw, taken):
    """A code word: in range, equal to a word in ``taken``, or out of range."""
    options = [st.integers(0, 2**32 - 1), st.integers(-2**33, -1),
               st.integers(2**32, 2**34)]
    if taken:
        options.append(st.sampled_from(sorted(taken)))
    return draw(st.one_of(*options))


@st.composite
def _code_dicts(draw):
    """Code dicts with commands dropped, odd keys added, in any order."""
    keys = [k for k in COMMANDS if draw(st.integers(0, 5))]
    keys += [k for k in _ODD_KEYS if not draw(st.integers(0, 4))]
    keys = draw(st.permutations(keys))
    codes: dict[str, int] = {}
    for key in keys:
        if draw(st.integers(0, 3)):
            codes[key] = draw(st.integers(0, 2**32 - 1))
        else:
            codes[key] = draw(_words(set(codes.values())))
    return codes


@st.composite
def _override_dicts(draw):
    """Overrides of known, unknown and empty keys, with odd words."""
    keys = draw(st.lists(st.sampled_from(COMMANDS + _ODD_KEYS),
                         unique=True, max_size=6))
    taken = set(TABLE.codes.values())
    return {key: draw(_words(taken)) for key in keys}


@example({"power": 1, "shutdown": 2})
@example({**dict(zip(COMMANDS, range(10))), "channel_9": 10, "volume_up": 11})
@given(_code_dicts())
def test_code_table_matches_reference(codes):
    assert (_outcome(lambda: IRCodeTable(codes))
            == _outcome(lambda: _RefIRCodeTable(_to_ref(codes))))


@example({"volume_up": 1})
@example({"power": 0x20DF10EF, "channel_9": 1})
@example({"power": 1 << 32, "volume_up": 1})
@given(_override_dicts())
def test_overrides_match_reference(by_key):
    assert (_outcome(lambda: TABLE.with_overrides(by_key))
            == _outcome(lambda: _RefIRCodeTable.default().with_overrides(by_key)))


def _decoded(decode, frame, table):
    """The decoded command's key, or the error raised."""
    try:
        return getattr(cmd := decode(frame, table), "key", cmd)
    except (MalformedFrameError, UnknownCodeError) as exc:
        return type(exc).__name__, str(exc)


@given(st.integers(min_value=0, max_value=2**64 - 1))
def test_codec_matches_reference(seed):
    rng = random.Random(seed)
    words = set()
    while len(words) < 10:
        words.add(rng.getrandbits(32))
    codes = dict(zip(rng.sample(COMMANDS, 10), sorted(words)))
    table, ref = IRCodeTable(codes), _RefIRCodeTable(_to_ref(codes))
    for key in COMMANDS:
        frame = encode_frame(key, table)
        assert frame == _ref_encode_frame(_REF_BY_KEY[key], ref)
        jittered = IRFrame(tuple(
            (mark + rng.randint(-200, 200), space + rng.randint(-200, 200))
            for mark, space in frame.pulses))
        for pulses in (frame, jittered):
            decoded = _decoded(decode_frame, pulses, table)
            assert decoded == _decoded(_ref_decode_frame, pulses, ref)
        assert _decoded(decode_frame, frame, table) == key
    for key in _ODD_KEYS:
        with pytest.raises(UnknownCodeError) as got:
            table.code_for(key)
        with pytest.raises(UnknownCodeError) as want:
            ref.code_for(_RefOddKey(key))
        assert str(got.value) == str(want.value)
