"""Tests for the bounded intern-table cache manager (ISSUE 10 tentpole).

Eviction only ever discards *memoized pure values* (interned trees,
interned caches, derived memo scratch) -- everything is recomputable --
so every policy must be semantically invisible: the model-checker
parity suite (``tests/mc/test_bounded.py``) pins that end to end, and
these tests pin the mechanics (caps trigger flushes, policies keep
what they promise, the facade restores state).
"""

import pytest

from repro.core import CacheTree, cachemgr
from repro.core.cache import cache_intern_stats, flush_interned_caches
from repro.core.tree import (
    ROOT_CID,
    flush_interned_trees,
    set_tree_pin_provider,
    tree_cache_policy,
    tree_cache_stats,
)

from ..helpers import mc, root


@pytest.fixture(autouse=True)
def _restore_policy():
    """Every test runs under the default policy and leaves it behind."""
    previous = cachemgr.current_policy()
    yield
    cachemgr.configure(previous)
    flush_interned_trees()
    flush_interned_caches()


def grow_chain(length, start_time=1):
    """A chain of ``length`` distinct interned trees; returns them all."""
    tree = CacheTree.initial(root())
    parent = ROOT_CID
    out = [tree]
    for t in range(start_time, start_time + length):
        tree, parent = tree.add_leaf(parent, mc(1, t, t))
        out.append(tree)
    return out


class TestPolicyFacade:
    def test_default_policy_values(self):
        policy = cachemgr.DEFAULT_POLICY
        assert policy.wipe == cachemgr.WIPE_ALL
        assert policy.tree_cap >= 1
        assert policy.cache_cap >= 1

    def test_bounded_restores_previous_policy(self):
        before = cachemgr.current_policy()
        with cachemgr.bounded(tree_cap=8, wipe=cachemgr.WIPE_SUBNODES):
            active = cachemgr.current_policy()
            assert active.tree_cap == 8
            assert active.wipe == cachemgr.WIPE_SUBNODES
            assert tree_cache_policy() == (8, cachemgr.WIPE_SUBNODES)
        assert cachemgr.current_policy() == before

    def test_bounded_restores_on_exception(self):
        before = cachemgr.current_policy()
        with pytest.raises(RuntimeError):
            with cachemgr.bounded(tree_cap=4):
                raise RuntimeError("boom")
        assert cachemgr.current_policy() == before

    def test_invalid_policies_rejected(self):
        with pytest.raises(ValueError):
            cachemgr.CachePolicy(tree_cap=0, cache_cap=16, wipe="all")
        with pytest.raises(ValueError):
            cachemgr.CachePolicy(tree_cap=16, cache_cap=0, wipe="all")
        with pytest.raises(ValueError):
            cachemgr.CachePolicy(tree_cap=16, cache_cap=16, wipe="bogus")

    def test_stats_shape(self):
        stats = cachemgr.stats()
        for table in ("tree_interns", "cache_interns"):
            assert "flushes" in stats[table]
            assert "occupancy" in stats[table]


class TestWipePolicies:
    def test_cap_triggers_flush_and_bounds_occupancy(self):
        flush_interned_trees()
        with cachemgr.bounded(tree_cap=16, wipe=cachemgr.WIPE_ALL):
            before = tree_cache_stats()["flushes"]
            trees = grow_chain(64)
            stats = tree_cache_stats()
            assert stats["flushes"] > before
            assert stats["occupancy"] <= 32  # cap + one window of growth
            assert stats["evicted"] > 0
        assert trees  # the objects themselves are untouched by eviction

    def test_subnodes_keeps_pinned_trees_identity_stable(self):
        flush_interned_trees()
        # grow_chain(4): hot == base.add_leaf(parent_cid=3, mc(1, 4, 4)).
        chain = grow_chain(4)
        base, hot = chain[-2], chain[-1]
        previous = set_tree_pin_provider(
            lambda: [base.fingerprint(), hot.fingerprint()]
        )
        try:
            with cachemgr.bounded(tree_cap=8, wipe=cachemgr.WIPE_SUBNODES):
                grow_chain(32, start_time=100)  # force flushes
                assert tree_cache_stats()["flushes"] >= 1
                # Re-deriving the pinned successor finds the *same*
                # interned object: it survived every flush.
                again, _ = base.add_leaf(3, mc(1, 4, 4))
                assert again is hot
        finally:
            set_tree_pin_provider(previous)

    def test_wipe_all_drops_unpinned_identity(self):
        flush_interned_trees()
        chain = grow_chain(4)
        base, hot = chain[-2], chain[-1]
        with cachemgr.bounded(tree_cap=8, wipe=cachemgr.WIPE_ALL):
            flush_interned_trees()
            again, _ = base.add_leaf(3, mc(1, 4, 4))
            # Equal tree, new object: the old one was evicted.
            assert again == hot and again is not hot

    def test_entering_a_bound_flushes_a_table_already_over_it(self):
        # A warm process: the table holds more trees than the new cap
        # allows, and a run that only re-derives them never misses, so
        # nothing after entry would ever flush it.
        flush_interned_trees()
        chain = grow_chain(32)
        assert tree_cache_stats()["occupancy"] > 8
        before = tree_cache_stats()["flushes"]
        with cachemgr.bounded(tree_cap=8):
            stats = tree_cache_stats()
            assert stats["occupancy"] <= 8  # before the first intern
            assert stats["flushes"] == before + 1
            assert grow_chain(32) == chain  # all re-derivable

    def test_entering_a_bound_flushes_an_oversized_cache_table(self):
        flush_interned_caches()
        grow_chain(32)
        assert cache_intern_stats()["occupancy"] > 8
        with cachemgr.bounded(cache_cap=8):
            assert cache_intern_stats()["occupancy"] <= 8


class TestCacheInternTable:
    def test_cache_cap_flushes_and_clears_entry_fps(self):
        with cachemgr.bounded(tree_cap=1 << 16, cache_cap=32):
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
