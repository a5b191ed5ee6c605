"""Scent vocabulary, profile membership, and selection variation."""

from __future__ import annotations

import random

import pytest

from scentctl.estimator import InteractionState
from scentctl.scents import (
    CHANNEL_COUNT,
    PROFILE_MEMBERS,
    Intensity,
    Profile,
    Rhythm,
    ScentExpression,
    SelectionHistory,
    expression_for,
    select_scent,
    vocabulary,
)


# -- vocabulary -------------------------------------------------------------

def test_vocabulary_has_eight_scents():
    scents = vocabulary()
    assert len(scents) == 8
    assert len({s.name for s in scents}) == 8
    assert sorted(s.channel for s in scents) == list(range(1, 9))


def _by_key(key):
    return {s.key: s for s in vocabulary()}[key]


def test_lookup_peppermint():
    scent = _by_key("peppermint")
    assert scent.name == "Peppermint"
    assert scent.family == "Herbal"
    assert scent.primary_role == "Energizing"


def test_lookup_vetiver_role():
    assert _by_key("vetiver").primary_role == "Calming"


def test_lookup_by_key_and_unknown():
    assert _by_key("tea_tree").name == "Tea tree"


def test_channel_overrides_applied():
    scents = vocabulary({"cedarwood": 1, "bergamot": 5})
    by_key = {s.key: s for s in scents}
    assert by_key["cedarwood"].channel == 1
    assert by_key["bergamot"].channel == 5
    assert sorted(s.channel for s in scents) == list(range(1, 9))


def test_channel_override_duplicates_rejected():
    with pytest.raises(ValueError, match="permutation"):
        vocabulary({"cedarwood": 1})  # collides with bergamot's default


def test_channel_override_unknown_scent():
    with pytest.raises(ValueError, match="unknown scent"):
        vocabulary({"lavender": 3})


def test_channel_override_out_of_range():
    with pytest.raises(ValueError, match="1..8"):
        vocabulary({"cedarwood": 9})


def test_every_scent_in_some_profile():
    covered = set()
    for members in PROFILE_MEMBERS.values():
        covered.update(members)
    assert covered == {s.key for s in vocabulary()}


def test_profile_members_in_vocabulary():
    keys = {s.key for s in vocabulary()}
    for members in PROFILE_MEMBERS.values():
        assert set(members) <= keys


# -- state-to-expression mapping --------------------------------------------

def test_expression_rows():
    expr = expression_for(InteractionState.ELEVATED_STRESS_PERSISTENT)
    assert (expr.profile, expr.intensity, expr.rhythm) == (
        Profile.FOREST, Intensity.MEDIUM_HIGH, Rhythm.REPEATED_LOW_FREQUENCY)
    assert set(expr.members) == {"cedarwood", "frankincense", "vetiver"}

    expr = expression_for(InteractionState.ELEVATED_STRESS_SHORT)
    assert (expr.profile, expr.intensity, expr.rhythm) == (
        Profile.FOREST, Intensity.LOW_MEDIUM, Rhythm.SINGLE_BRIEF)
    assert set(expr.members) == {"cedarwood", "frankincense"}

    expr = expression_for(InteractionState.RECOVERY)
    assert (expr.profile, expr.intensity, expr.rhythm) == (
        Profile.GARDEN, Intensity.LOW, Rhythm.SINGLE_BRIEF)

    expr = expression_for(InteractionState.LOW_ALERTNESS)
    assert (expr.profile, expr.intensity, expr.rhythm) == (
        Profile.OPEN_AIR, Intensity.MEDIUM, Rhythm.BRIEF_REPEAT_IF_NEEDED)
    assert set(expr.members) == {"peppermint", "tea_tree"}

    expr = expression_for(InteractionState.MILD_IMBALANCE)
    assert (expr.profile, expr.intensity, expr.rhythm) == (
        Profile.MEADOW, Intensity.LOW, Rhythm.SINGLE_BRIEF)


def test_expression_neutral_is_none():
    assert expression_for(InteractionState.NEUTRAL) is None


def test_expression_total_and_pure():
    for state in InteractionState:
        assert expression_for(state) == expression_for(state)


def test_expression_rejects_foreign_members():
    with pytest.raises(ValueError):
        ScentExpression(Profile.FOREST, Intensity.LOW, Rhythm.SINGLE_BRIEF,
                        ("peppermint",))


# -- selection policy -------------------------------------------------------

FOREST = expression_for(InteractionState.ELEVATED_STRESS_PERSISTENT)
OPEN_AIR = expression_for(InteractionState.LOW_ALERTNESS)


def test_select_cold_start_is_member():
    history = SelectionHistory()
    pick = select_scent(FOREST, history, random.Random(3))
    assert pick in FOREST.members
    assert history.last_released == pick
    assert history.counts[pick] == 1


def test_select_excludes_last_released():
    history = SelectionHistory(last_released="cedarwood",
                               counts={"cedarwood": 1, "frankincense": 1,
                                       "vetiver": 1})
    pick = select_scent(FOREST, history, random.Random(0))
    assert pick in ("frankincense", "vetiver")


def test_select_two_member_profile_alternates():
    history = SelectionHistory(last_released="peppermint",
                               counts={"peppermint": 1})
    assert select_scent(OPEN_AIR, history, random.Random(0)) == "tea_tree"
    assert select_scent(OPEN_AIR, history, random.Random(0)) == "peppermint"


def test_select_sole_member_may_repeat():
    expr = ScentExpression(Profile.OPEN_AIR, Intensity.MEDIUM,
                           Rhythm.SINGLE_BRIEF, ("peppermint",))
    history = SelectionHistory(last_released="peppermint",
                               counts={"peppermint": 1})
    assert select_scent(expr, history, random.Random(0)) == "peppermint"


def test_select_prefers_lowest_count():
    history = SelectionHistory(last_released=None,
                               counts={"cedarwood": 5, "frankincense": 5,
                                       "vetiver": 2})
    assert select_scent(FOREST, history, random.Random(0)) == "vetiver"


def test_select_seeded_determinism():
    picks = set()
    for _ in range(5):
        history = SelectionHistory()
        picks.add(select_scent(FOREST, history, random.Random(99)))
    assert len(picks) == 1


def test_no_immediate_repeat_over_long_run():
    history = SelectionHistory()
    rng = random.Random(11)
    previous = None
    for _ in range(200):
        pick = select_scent(FOREST, history, rng)
        assert pick != previous
        previous = pick


def test_fairness_within_one():
    history = SelectionHistory()
    rng = random.Random(7)
    for _ in range(60):
        select_scent(FOREST, history, rng)
    counts = [history.counts.get(k, 0) for k in FOREST.members]
    assert sum(counts) == 60
    assert max(counts) - min(counts) <= 1


def test_fairness_odd_total():
    history = SelectionHistory()
    rng = random.Random(13)
    for _ in range(31):
        select_scent(OPEN_AIR, history, rng)
    counts = [history.counts.get(k, 0) for k in OPEN_AIR.members]
    assert max(counts) - min(counts) <= 1


def test_cross_profile_exclusion_shared_member():
    garden = expression_for(InteractionState.RECOVERY)
    meadow = expression_for(InteractionState.MILD_IMBALANCE)
    history = SelectionHistory()
    rng = random.Random(2)
    history.last_released = "bergamot"
    history.counts = {"bergamot": 1}
    pick = select_scent(meadow, history, rng)
    assert pick != "bergamot"
    assert pick in meadow.members
    assert garden.members != meadow.members


def test_channel_count_constant():
    assert CHANNEL_COUNT == 8
