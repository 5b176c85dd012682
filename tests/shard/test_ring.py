"""The hash ring and versioned routing table, unit-tested.

The properties the migration protocol leans on: tables always exactly
partition the hash space, lookups are deterministic and stable across
version bumps that do not touch a key's range, ``move`` is functional
and exact, and a split immediately followed by a merge restores the
original partition (at a higher version -- versions never rewind).
"""

import pytest
from hypothesis import given, strategies as st

from repro.net import node, wire
from repro.shard.ring import (
    HASH_SPACE,
    KeyRange,
    RoutingTable,
    hash_key,
)


# ----------------------------------------------------------------------
# hash_key
# ----------------------------------------------------------------------


@given(st.text(max_size=64))
def test_hash_key_in_space_and_deterministic(key):
    position = hash_key(key)
    assert 0 <= position < HASH_SPACE
    assert hash_key(key) == position


def test_hash_key_is_defined_once_and_pinned():
    # Routers and nodes share one function object (no per-package copy
    # to drift) ...
    assert hash_key is wire.hash_key is node.hash_key
    # ... and its values are part of the protocol: a change re-homes
    # every stored key, so it cannot happen silently.
    assert [hash_key(k) for k in ("", "k", "k0", "user:42", "ключ")] == [
        16476032584258269876,
        12417210735682507875,
        11933555063119778711,
        15647646390214308482,
        5536099946253895712,
    ]


# ----------------------------------------------------------------------
# KeyRange
# ----------------------------------------------------------------------


def test_key_range_validates():
    with pytest.raises(ValueError):
        KeyRange(5, 5)
    with pytest.raises(ValueError):
        KeyRange(7, 3)
    with pytest.raises(ValueError):
        KeyRange(-1, 3)
    with pytest.raises(ValueError):
        KeyRange(0, HASH_SPACE + 1)


def test_key_range_halves_cover_exactly():
    rng = KeyRange(10, 21)
    low, high = rng.halves()
    assert (low.lo, low.hi) == (10, 15)
    assert (high.lo, high.hi) == (15, 21)
    assert low.width + high.width == rng.width


def test_key_range_cannot_split_a_unit():
    with pytest.raises(ValueError):
        KeyRange(3, 4).halves()


# ----------------------------------------------------------------------
# RoutingTable construction
# ----------------------------------------------------------------------


def test_single_shard_degenerate_ring():
    # One group owns everything; every key routes to it; the widest
    # range is the whole space; splitting hands off the upper half.
    table = RoutingTable.initial([7])
    assert table.groups() == (7,)
    assert table.owner("anything") == 7
    assert table.ranges_of(7) == (KeyRange(0, HASH_SPACE),)
    upper = table.split_candidate(7)
    assert (upper.lo, upper.hi) == (HASH_SPACE // 2, HASH_SPACE)


def test_initial_partitions_equally_and_exactly():
    table = RoutingTable.initial([3, 1, 2])
    assert table.version == 1
    assert table.groups() == (1, 2, 3)
    cursor = 0
    for rng, _ in table.entries:
        assert rng.lo == cursor
        cursor = rng.hi
    assert cursor == HASH_SPACE


def test_tables_must_partition_the_space():
    with pytest.raises(ValueError):
        RoutingTable(1, ((KeyRange(0, 10), 1),))  # gap to HASH_SPACE
    with pytest.raises(ValueError):
        RoutingTable(
            1,
            ((KeyRange(0, 10), 1), (KeyRange(20, HASH_SPACE), 2)),
        )
    with pytest.raises(ValueError):
        RoutingTable(0, ((KeyRange(0, HASH_SPACE), 1),))
    with pytest.raises(ValueError):
        RoutingTable(1, ())


def test_adjacent_same_owner_ranges_coalesce():
    split = RoutingTable(
        2, ((KeyRange(0, 100), 1), (KeyRange(100, HASH_SPACE), 1))
    )
    assert split.entries == ((KeyRange(0, HASH_SPACE), 1),)
    # Canonical form: same ownership compares equal however built.
    assert split.entries == RoutingTable.initial([1]).entries


# ----------------------------------------------------------------------
# Lookup
# ----------------------------------------------------------------------


@given(st.integers(2, 6), st.text(min_size=1, max_size=16))
def test_owner_matches_contains(groups, key):
    table = RoutingTable.initial(list(range(1, groups + 1)))
    gid = table.owner(key)
    assert any(
        rng.contains(hash_key(key)) for rng in table.ranges_of(gid)
    )


def test_owner_of_hash_rejects_out_of_space():
    table = RoutingTable.initial([1])
    with pytest.raises(ValueError):
        table.owner_of_hash(-1)
    with pytest.raises(ValueError):
        table.owner_of_hash(HASH_SPACE)


# ----------------------------------------------------------------------
# Reassignment
# ----------------------------------------------------------------------


def test_move_carves_exactly():
    table = RoutingTable.initial([1, 2])
    rng = KeyRange(100, 200)
    after = table.move(rng, 2)
    assert after.version == 2
    assert after.owner_of_hash(99) == 1
    assert after.owner_of_hash(100) == 2
    assert after.owner_of_hash(199) == 2
    assert after.owner_of_hash(200) == 1


def test_ownership_stable_under_unrelated_version_bumps():
    # A key outside the moved range keeps its owner across any number
    # of bumps -- the stability the client's stale-table safety story
    # (route correctly or get refused, never silently misroute) needs.
    table = RoutingTable.initial([1, 2, 3])
    keys = [f"user:{i}" for i in range(200)]
    owners = {key: table.owner(key) for key in keys}
    moved = KeyRange(0, 1000)  # a sliver nothing hashes into here
    for _ in range(5):
        table = table.move(moved, 3 if table.owner_of_hash(0) != 3 else 2)
    for key in keys:
        if not moved.contains(hash_key(key)):
            assert table.owner(key) == owners[key]
    assert table.version == 6


def test_split_then_merge_restores_partition():
    table = RoutingTable.initial([1, 2])
    upper = table.split_candidate(1)
    split = table.move(upper, 2)
    assert split.owner_of_hash(upper.lo) == 2
    merged = split.move(upper, 1)
    # Ownership round-trips; the version never rewinds.
    assert merged.entries == table.entries
    assert merged.version == 3


def test_split_candidate_is_deterministic():
    table = RoutingTable.initial([1, 2])
    assert table.split_candidate(1) == table.split_candidate(1)
    with pytest.raises(ValueError):
        table.split_candidate(99)  # owns nothing


# ----------------------------------------------------------------------
# Serialization
# ----------------------------------------------------------------------


@given(st.integers(1, 5))
def test_dict_round_trip(groups):
    table = RoutingTable.initial(list(range(1, groups + 1)))
    again = RoutingTable.from_dict(table.to_dict())
    assert again == table
