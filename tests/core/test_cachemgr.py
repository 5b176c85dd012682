"""Tests for the bounded intern tables (ISSUE 10 tentpole, ISSUE 26).

Eviction only ever discards *memoized pure values* (interned trees,
interned caches, derived memo scratch) -- everything is recomputable --
so a flush must be semantically invisible: the model-checker parity
suite (``tests/mc/test_bounded.py``) pins that end to end.  These
tests pin the mechanics: the one setting (``Explorer.tree_cap``) is in
force exactly for its search's span, the cap triggers flushes, a flush
keeps what is pinned, a bound entered over a full table flushes it.
"""

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
    set_tree_pin_provider,
    tree_cache_stats,
)
from repro.mc import ParallelExplorer, insert_btw_explorer, verify_intact_explorer
from repro.mc.explorer import OpBudget

from ..helpers import mc, root


@pytest.fixture(autouse=True)
def _empty_tables():
    """Every test leaves both tables empty behind it."""
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
    """A chain of ``length`` distinct interned trees; returns them all."""
    tree = CacheTree.initial(root())
    parent = ROOT_CID
    out = [tree]
    for t in range(start_time, start_time + length):
        tree, parent = tree.add_leaf(parent, mc(1, t, t))
        out.append(tree)
    return out


SMALL_BUDGET = OpBudget(pulls=1, invokes=2, reconfigs=1, pushes=2)

#: What a test installs around a search, for the search to hand back.
OUTER_CAP = 1_000
INNER_CAP = 64


class Boom(Exception):
    pass


def bound_now():
    return core_tree._INTERN_CAP, core_tree._PIN_PROVIDER


@pytest.fixture
def outer_pins():
    """A cap and a pin provider already in force around the search."""

    def outer_pins():
        return []

    previous_cap = set_tree_cap(OUTER_CAP)
    previous_provider = set_tree_pin_provider(outer_pins)
    try:
        yield outer_pins
    finally:
        set_tree_pin_provider(previous_provider)
        set_tree_cap(previous_cap)


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


def assert_ran_under_its_own_bound(seen, outer_pins):
    """Every round ran under the search's cap and its own provider, and
    the caller got its own back."""
    assert seen, "progress never ran"
    cap, provider = seen[0]
    assert cap == INNER_CAP and provider is not outer_pins
    assert set(seen) == {(INNER_CAP, provider)}
    assert bound_now() == (OUTER_CAP, outer_pins)


class TestPolicyFacade:
    """The policy's one surface: ``Explorer.tree_cap``, which ``search``
    applies for its span beside its pin provider and hands back on every
    way out -- plus the counters ``bench/mc.py`` reads after a run."""

    def test_default_policy_values(self):
        default = verify_intact_explorer()
        assert default.tree_cap == DEFAULT_TREE_CAP == core_tree._INTERN_CAP
        # Residency, not identity: a checkpoint resumes under any cap.
        capped = verify_intact_explorer(tree_cap=8)
        assert capped.config_fingerprint() == default.config_fingerprint()

    def test_invalid_policies_rejected(self):
        with pytest.raises(ValueError, match="tree cap"):
            verify_intact_explorer(tree_cap=0)

    def test_bounded_restores_previous_policy(self, outer_pins):
        result, seen = bounded_search(
            verify_intact_explorer(SMALL_BUDGET, tree_cap=INNER_CAP)
        )
        assert result.safe
        assert_ran_under_its_own_bound(seen, outer_pins)

    def test_bounded_restores_on_exception(self, outer_pins):
        with pytest.raises(Boom):
            bounded_search(
                verify_intact_explorer(SMALL_BUDGET, tree_cap=INNER_CAP),
                boom=True,
            )
        assert bound_now() == (OUTER_CAP, outer_pins)

    def test_bounded_restores_after_a_first_violation(self, outer_pins):
        result, seen = bounded_search(insert_btw_explorer(tree_cap=INNER_CAP))
        assert not result.safe
        assert_ran_under_its_own_bound(seen, outer_pins)

    def test_a_nested_search_hands_the_outer_bound_back(self, outer_pins):
        result, seen = bounded_search(
            verify_intact_explorer(SMALL_BUDGET, tree_cap=INNER_CAP),
            nested=True,
        )
        assert result.safe and len(seen) > 2
        assert_ran_under_its_own_bound(seen, outer_pins)

    def test_the_exit_flushes_down_to_the_previous_cap(self, outer_pins):
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
    """The one flush: keep what the pin provider names, drop the rest."""

    def test_cap_triggers_flush_and_bounds_occupancy(self):
        flush_interned_trees()
        with tree_cap(16):
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
            with tree_cap(8):
                grow_chain(32, start_time=100)  # force flushes
                assert tree_cache_stats()["flushes"] >= 1
                # Re-deriving the pinned successor finds the *same*
                # interned object: it survived every flush.
                again, _ = base.add_leaf(3, mc(1, 4, 4))
                assert again is hot
        finally:
            set_tree_pin_provider(previous)

    def test_entering_a_bound_flushes_a_table_already_over_it(self):
        # A warm process: the table holds more trees than the search's
        # cap allows, and a run that only re-derives them never misses,
        # so nothing after entry would ever flush it.
        flush_interned_trees()
        chain = grow_chain(32)
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
        assert grow_chain(32) == chain  # all re-derivable


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
