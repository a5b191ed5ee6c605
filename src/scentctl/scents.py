"""Scent vocabulary, scene profiles, and the state-to-expression mapping.

Eight single-note oils, each on its own atomizer channel, are grouped
into scene-oriented profiles (forest, open air, garden, meadow). Each
interaction state maps to one expression: a profile (possibly narrowed
to a subset of its members), an intensity level, and a release rhythm.
Selection within a profile rotates scents so the same note is never
released twice in a row.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from enum import Enum
from typing import Mapping

from .estimator import InteractionState

CHANNEL_COUNT = 8


@dataclass(frozen=True, slots=True)
class Scent:
    key: str
    name: str
    family: str
    scene_metaphor: str
    primary_role: str
    channel: int


# Default channel assignment follows vocabulary order; overridable per
# deployment since the physical cartridge layout is device-specific.
_VOCABULARY_ROWS: tuple[tuple[str, str, str, str, str], ...] = (
    ("bergamot", "Bergamot", "Citrus",
     "Sunlit grove / orchard edge", "Pleasantness"),
    ("rose_geranium", "Rose geranium", "Floral-green",
     "Garden / soft grassland bloom", "Balancing / Pleasantness"),
    ("peppermint", "Peppermint", "Herbal",
     "Cool open air / sea-breeze-like freshness", "Energizing"),
    ("tea_tree", "Tea tree", "Leafy-herbal",
     "Rain-cleared air / coastal freshness", "Cleansing"),
    ("cedarwood", "Himalayan cedarwood", "Woody",
     "Forest / wooded shelter", "Calming"),
    ("frankincense", "Frankincense", "Resinous-balsamic",
     "Quiet forest interior / still sanctuary", "Calming / Balancing"),
    ("vetiver", "Vetiver", "Rooty-earthy",
     "Forest floor / deep terrain", "Calming"),
    ("litsea_cubeba", "Litsea cubeba", "Seed profile",
     "Bright meadow / citrus field edge", "Energizing / Pleasantness"),
)


def vocabulary(channel_overrides: Mapping[str, int] | None = None) -> tuple[Scent, ...]:
    """The eight scent records, with optional per-deployment channels.

    Overrides map scent key to channel; the resulting assignment must be
    a permutation of 1..8 (duplicates rejected).
    """
    channels = {key: i + 1 for i, (key, *_rest) in enumerate(_VOCABULARY_ROWS)}
    if channel_overrides:
        for key, channel in channel_overrides.items():
            if key not in channels:
                raise ValueError(f"unknown scent key {key!r}")
            if not 1 <= channel <= CHANNEL_COUNT:
                raise ValueError(
                    f"channel for {key!r} must be in 1..{CHANNEL_COUNT}, got {channel}")
            channels[key] = channel
    if len(set(channels.values())) != CHANNEL_COUNT:
        raise ValueError(
            "channel assignment must be a permutation of "
            f"1..{CHANNEL_COUNT}: {channels}")
    return tuple(
        Scent(key, name, family, metaphor, role, channels[key])
        for key, name, family, metaphor, role in _VOCABULARY_ROWS
    )


class Profile(str, Enum):
    FOREST = "forest"
    OPEN_AIR = "open_air"
    GARDEN = "garden"
    MEADOW = "meadow"


PROFILE_MEMBERS: dict[Profile, tuple[str, ...]] = {
    Profile.FOREST: ("cedarwood", "frankincense", "vetiver"),
    Profile.OPEN_AIR: ("peppermint", "tea_tree"),
    Profile.GARDEN: ("rose_geranium", "bergamot"),
    Profile.MEADOW: ("bergamot", "rose_geranium", "litsea_cubeba"),
}


class Intensity(str, Enum):
    LOW = "low"
    LOW_MEDIUM = "low_medium"
    MEDIUM = "medium"
    MEDIUM_HIGH = "medium_high"


class Rhythm(str, Enum):
    SINGLE_BRIEF = "single_brief"
    REPEATED_LOW_FREQUENCY = "repeated_low_frequency"
    BRIEF_REPEAT_IF_NEEDED = "brief_repeat_if_needed"


@dataclass(frozen=True, slots=True)
class ScentExpression:
    """One row of the state-to-output mapping.

    ``members`` carries the candidate scent set explicitly because the
    short-duration stress row narrows the forest profile to two notes.
    """

    profile: Profile
    intensity: Intensity
    rhythm: Rhythm
    members: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.members:
            raise ValueError("expression must have at least one member scent")
        allowed = set(PROFILE_MEMBERS[self.profile])
        extras = set(self.members) - allowed
        if extras:
            raise ValueError(
                f"members {sorted(extras)} are not in profile {self.profile.value}")


_EXPRESSIONS: dict[InteractionState, ScentExpression | None] = {
    InteractionState.ELEVATED_STRESS_PERSISTENT: ScentExpression(
        Profile.FOREST, Intensity.MEDIUM_HIGH, Rhythm.REPEATED_LOW_FREQUENCY,
        PROFILE_MEMBERS[Profile.FOREST]),
    InteractionState.ELEVATED_STRESS_SHORT: ScentExpression(
        Profile.FOREST, Intensity.LOW_MEDIUM, Rhythm.SINGLE_BRIEF,
        ("cedarwood", "frankincense")),
    InteractionState.RECOVERY: ScentExpression(
        Profile.GARDEN, Intensity.LOW, Rhythm.SINGLE_BRIEF,
        PROFILE_MEMBERS[Profile.GARDEN]),
    InteractionState.LOW_ALERTNESS: ScentExpression(
        Profile.OPEN_AIR, Intensity.MEDIUM, Rhythm.BRIEF_REPEAT_IF_NEEDED,
        PROFILE_MEMBERS[Profile.OPEN_AIR]),
    InteractionState.MILD_IMBALANCE: ScentExpression(
        Profile.MEADOW, Intensity.LOW, Rhythm.SINGLE_BRIEF,
        PROFILE_MEMBERS[Profile.MEADOW]),
    InteractionState.NEUTRAL: None,
}


def expression_for(state: InteractionState) -> ScentExpression | None:
    """The scent expression for a state; neutral produces no output."""
    return _EXPRESSIONS[state]


@dataclass(slots=True)
class SelectionHistory:
    """Release history driving scent variation; mutated by select_scent."""

    last_released: str | None = None
    counts: dict[str, int] = field(default_factory=dict)


def select_scent(expr: ScentExpression, history: SelectionHistory,
                 rng: random.Random) -> str:
    """Pick the next scent for an expression, avoiding immediate repeats.

    The last-released scent is excluded unless it is the expression's
    sole member; among the remaining candidates the one with the lowest
    release count wins, ties broken by the seeded generator. The history
    is updated in place.
    """
    candidates = [k for k in expr.members if k != history.last_released]
    if not candidates:
        candidates = list(expr.members)
    low = min(history.counts.get(k, 0) for k in candidates)
    pool = [k for k in candidates if history.counts.get(k, 0) == low]
    pick = pool[0] if len(pool) == 1 else rng.choice(pool)
    history.counts[pick] = history.counts.get(pick, 0) + 1
    history.last_released = pick
    return pick
