"""Tests for the bounded intern tables (ISSUE 10 tentpole, ISSUE 26).

A flush only ever discards *memoized pure values* (interned caches,
tree provenance) -- everything is recomputable -- so it must be
semantically invisible: the model-checker parity suite
(``tests/mc/test_bounded.py``) pins that end to end.  These tests pin
the mechanics: the one setting (``Explorer.tree_cap``) is in force
exactly for its search's span, the cap counts live trees and triggers
flushes, a flush frees what only provenance held and keeps every held
tree the interned instance, a bound entered over a full table flushes
it.
"""

import gc
from contextlib import contextmanager

import pytest

from repro.core import CacheTree, cachemgr
from repro.core import cache as core_cache
from repro.core import tree as core_tree
from repro.core.cache import cache_intern_stats, flush_interned_caches
from repro.core.tree import (
    DEFAULT_TREE_CAP,
    ROOT_CID,
    flush_interned_trees,
    set_tree_cap,
    tree_cache_stats,
)
from repro.mc import ParallelExplorer, insert_btw_explorer, verify_intact_explorer
from repro.mc.explorer import OpBudget

from ..helpers import mc, root


@pytest.fixture(autouse=True)
def _empty_tables():
    """Every test starts with no tree that garbage cycles still hold,
    and leaves the cache table empty behind it."""
    gc.collect()
    yield
    flush_interned_trees()
    flush_interned_caches()


@contextmanager
def tree_cap(cap):
    """The bound a search applies for its span, without the search."""
    previous = set_tree_cap(cap)
    try:
        yield
    finally:
        set_tree_cap(previous)


def grow_chain(length, start_time=1):
    """The tip of a chain of ``length`` distinct interned trees: only
    the tip's provenance holds the trees before it."""
    tree = CacheTree.initial(root())
    parent = ROOT_CID
    for t in range(start_time, start_time + length):
        tree, parent = tree.add_leaf(parent, mc(1, t, t))
    return tree


SMALL_BUDGET = OpBudget(pulls=1, invokes=2, reconfigs=1, pushes=2)

#: What a test installs around a search, for the search to hand back.
OUTER_CAP = 1_000
INNER_CAP = 64


class Boom(Exception):
    pass


def bound_now():
    return core_tree._INTERN_CAP


@pytest.fixture
def outer_cap():
    """A cap already in force around the search."""
    with tree_cap(OUTER_CAP):
        yield OUTER_CAP


def bounded_search(explorer, nested=False, boom=False):
    """Run ``explorer`` and return the bound in force at each round
    (after a search nested in round 2's ``progress``, too)."""
    seen = []

    def progress(snapshot):
        seen.append(bound_now())
        if boom:
            raise Boom
        if nested and snapshot.level == 2:
            insert_btw_explorer(tree_cap=32).run()
            seen.append(bound_now())

    result = ParallelExplorer(explorer, workers=1, progress=progress).run()
    return result, seen


def assert_ran_under_its_own_bound(seen):
    """Every round ran under the search's cap, and the caller got its
    own back."""
    assert seen, "progress never ran"
    assert set(seen) == {INNER_CAP}
    assert bound_now() == OUTER_CAP


class TestPolicyFacade:
    """The policy's one surface: ``Explorer.tree_cap``, which ``search``
    applies for its span and hands back on every way out -- plus the
    counters ``bench/mc.py`` reads after a run."""

    def test_default_policy_values(self):
        default = verify_intact_explorer()
        assert default.tree_cap == DEFAULT_TREE_CAP == core_tree._INTERN_CAP
        # Residency, not identity: a checkpoint resumes under any cap.
        capped = verify_intact_explorer(tree_cap=8)
        assert capped.config_fingerprint() == default.config_fingerprint()

    def test_invalid_policies_rejected(self):
        with pytest.raises(ValueError, match="tree cap"):
            verify_intact_explorer(tree_cap=0)

    def test_bounded_restores_previous_policy(self, outer_cap):
        result, seen = bounded_search(
            verify_intact_explorer(SMALL_BUDGET, tree_cap=INNER_CAP)
        )
        assert result.safe
        assert_ran_under_its_own_bound(seen)

    def test_bounded_restores_on_exception(self, outer_cap):
        with pytest.raises(Boom):
            bounded_search(
                verify_intact_explorer(SMALL_BUDGET, tree_cap=INNER_CAP),
                boom=True,
            )
        assert bound_now() == OUTER_CAP

    def test_bounded_restores_after_a_first_violation(self, outer_cap):
        result, seen = bounded_search(insert_btw_explorer(tree_cap=INNER_CAP))
        assert not result.safe
        assert_ran_under_its_own_bound(seen)

    def test_a_nested_search_hands_the_outer_bound_back(self, outer_cap):
        result, seen = bounded_search(
            verify_intact_explorer(SMALL_BUDGET, tree_cap=INNER_CAP),
            nested=True,
        )
        assert result.safe and len(seen) > 2
        assert_ran_under_its_own_bound(seen)

    def test_the_exit_flushes_down_to_the_previous_cap(self, outer_cap):
        # A run that built far more trees than the caller's cap leaves
        # the table within it: its trees die with it, and what the
        # caller still held would be trimmed by the restored bound.
        result = verify_intact_explorer(
            OpBudget(pulls=2, invokes=1, reconfigs=1, pushes=2),
            tree_cap=1 << 16,
        ).run()
        assert result.states_visited > OUTER_CAP
        assert tree_cache_stats()["occupancy"] <= OUTER_CAP

    def test_stats_shape(self):
        stats = cachemgr.stats()
        for table in ("tree_interns", "cache_interns"):
            assert "flushes" in stats[table]
            assert "occupancy" in stats[table]


class TestWipePolicies:
    """The one flush: it evicts nothing (the table holds only live
    trees) and trims every live tree's provenance, which frees what
    only provenance held."""

    def test_cap_triggers_flush_and_bounds_occupancy(self):
        base = tree_cache_stats()["occupancy"]
        with tree_cap(16):
            before = tree_cache_stats()["flushes"]
            tip = grow_chain(64)
            stats = tree_cache_stats()
            assert stats["flushes"] > before
            # Only provenance held the chain behind the tip: each flush
            # freed it, so the cap bounds the live trees.
            assert stats["occupancy"] - base <= 16
        assert len(tip) == 65  # the tip itself is untouched

    def test_a_held_tree_stays_the_interned_instance_across_flushes(self):
        base = grow_chain(3)
        hot, _ = base.add_leaf(3, mc(1, 4, 4))
        with tree_cap(8):
            before = tree_cache_stats()["flushes"]
            grow_chain(32, start_time=100)  # force flushes
            assert tree_cache_stats()["flushes"] > before
            # Re-deriving the held successor finds the *same* interned
            # object: a flush never drops a live tree.
            again, _ = base.add_leaf(3, mc(1, 4, 4))
            assert again is hot

    def test_entering_a_bound_flushes_a_table_already_over_it(self):
        # A warm process: the table holds more trees than the search's
        # cap allows, and a run that only re-derives them never misses,
        # so nothing after entry would ever flush it.
        tip = grow_chain(32)  # holds the 31 trees before it
        assert tree_cache_stats()["occupancy"] > 8
        before = tree_cache_stats()["flushes"]
        explorer = verify_intact_explorer(
            OpBudget(pulls=1, invokes=0, reconfigs=0, pushes=0), tree_cap=8
        )
        at_entry = []
        real_initial = explorer.initial

        def initial():
            at_entry.append(tree_cache_stats())
            return real_initial()

        explorer.initial = initial
        explorer.run()
        stats, = at_entry
        assert stats["occupancy"] <= 8  # before the first intern
        assert stats["flushes"] == before + 1
        assert grow_chain(32) is tip  # re-derivable, and still interned


class TestCacheInternTable:
    def test_cache_cap_flushes_and_clears_entry_fps(self, monkeypatch):
        # The bound is a constant; lower it only to watch it act.
        monkeypatch.setattr(core_cache, "_CACHE_CAP", 32)
        before = cache_intern_stats()["flushes"]
        grow_chain(64)  # interns >32 distinct caches
        assert cache_intern_stats()["flushes"] > before
        # The fingerprint memo keyed by cache identity must have
        # been cleared with the table (id-stability soundness).
        flush_interned_caches()
        assert tree_cache_stats()["entry_fp_occupancy"] == 0


class TestMetricsExport:
    def test_export_metrics_publishes_gauges(self):
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        cachemgr.export_metrics(registry)
        snapshot = registry.snapshot()
        names = set(snapshot["gauges"])
        assert "cachemgr.tree_interns.occupancy" in names
        assert "cachemgr.cache_interns.flushes" in names
