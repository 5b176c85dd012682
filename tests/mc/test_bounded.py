"""Bounded-memory engine parity (ISSUE 10 acceptance) and the contract
of the one memory setting (ISSUE 26).

Cache eviction only discards *recomputable* memoized state (interned
trees/caches, memo scratch).  Therefore a tree cap must reproduce the
seed engine's recorded answer (``ROWS`` in :mod:`tests.mc.test_golden`)
bit for bit: same state count, same transition count, same verdict,
same first violation -- on the intact configuration and all four
ablations, sequentially and through the parallel engine.

Caps here are deliberately tiny so every run actually flushes many
times; the unbounded runs in ``tests/mc/test_parity.py`` stay the
baseline for the unbounded engine.

``Explorer.tree_cap`` is applied by ``search`` for its own span and
bounds the live trees: ``TestTheSearchOwnsTheBound`` pins that a flush
keeps every tree the search will expand the interned instance, and
that the cap is not part of a checkpoint's identity.
"""

import os
import warnings

import pytest

from repro.core import cachemgr
from repro.core import tree as core_tree
from repro.mc import ParallelExplorer
from repro.mc.bounded_cli import signature
from repro.mc.explorer import Explorer

from .test_golden import BFS, ROWS, SEQUENTIAL, explorer


#: Each row's peak of live interned trees under the default cap.  The
#: table holds only live trees, and a guided hunt keeps few alive (its
#: frontier and their parents), so a cap must sit below this or it
#: never flushes.
LIVE_PEAK = {
    "intact": 1_706, "r3": 89, "r2": 178, "overlap": 105,
    "insert_btw": 79, "r3-bfs": 3_953,
}


def tree_cap(name):
    # A quarter of the row's live peak is overflowed again and again.
    return min(512, LIVE_PEAK[name] // 4)


def tree_flushes():
    # The counter is process-cumulative and entering the bound may
    # itself flush: callers count one run's flushes as a difference.
    return cachemgr.stats()["tree_interns"]["flushes"]


@pytest.mark.parametrize("name", SEQUENTIAL)
class TestTreeCapParity:
    """A tiny tree cap, sequential engine: exact seed parity."""

    def test_matches_seed_engine(self, name):
        before = tree_flushes()
        result = explorer(name, tree_cap=tree_cap(name)).run()
        flushes = tree_flushes() - before
        assert signature(result) == ROWS[name]
        assert flushes > 0, "cap never hit: the test is not exercising eviction"


class TestParallelTreeCapParity:
    """A tiny tree cap through the parallel engine: the fork-shared
    visited table and the windowed level merge must not change the
    answer for any worker count, and pool workers inherit the cap."""

    @pytest.mark.parametrize("workers", [1, 4])
    @pytest.mark.parametrize("name", BFS)
    def test_matches_seed_engine(self, name, workers):
        capped = explorer(name, tree_cap=tree_cap(name))
        before = tree_flushes()
        result = ParallelExplorer(capped, workers=workers).run()
        assert signature(result) == ROWS[name]
        # The master re-interns every tree a worker ships back to it.
        assert tree_flushes() > before


# ----------------------------------------------------------------------
# The contract: the search owns the bound for its span
# ----------------------------------------------------------------------

class TestTheSearchOwnsTheBound:
    """What the bound a search applies for its span promises (the
    hand-back on every way out is ``tests/core/test_cachemgr.py``'s
    ``TestPolicyFacade``)."""

    def test_a_flush_keeps_every_frontier_tree(self, monkeypatch):
        """Every tree the search expands is still the table's own
        instance, however many flushes happened since it was queued: a
        flush drops no live tree, and a frontier entry holds its own."""
        real_expand = Explorer.expand
        stale = []

        def expand(self, state, budget):
            tree = state.tree
            # The initial tree (one cache) is built, never interned.
            if len(tree) > 1 and core_tree._interned(tree.fingerprint()) is not tree:
                stale.append(tree)
            return real_expand(self, state, budget)

        monkeypatch.setattr(Explorer, "expand", expand)
        before = tree_flushes()
        result = explorer("intact", tree_cap=tree_cap("intact")).run()
        assert tree_flushes() > before
        assert signature(result) == ROWS["intact"]
        assert stale == []

    def test_a_checkpoint_resumes_under_another_cap(self, tmp_path):
        path = str(tmp_path / "run.ckpt")
        sliced = ParallelExplorer(
            explorer("intact", tree_cap=64), workers=1, checkpoint=path,
            max_levels=2, checkpoint_interval=0,
        ).run()
        assert sliced.interrupted and os.path.exists(path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no "fingerprint mismatch"
            resumed = ParallelExplorer(
                explorer("intact", tree_cap=4096), workers=1, checkpoint=path
            ).run()
        assert signature(resumed) == ROWS["intact"]
        assert not os.path.exists(path)


class TestBoundedCli:
    """The CI harness module itself (one in-process invocation)."""

    def test_small_budget_parity(self, capsys):
        import json
        import resource

        from repro.mc import bounded_cli

        # --limit-mb 0: the pytest process's address space is already
        # larger than a meaningful cap; the CI job runs the module
        # standalone where the rlimit is real.
        saved = resource.getrlimit(resource.RLIMIT_AS)
        try:
            code = bounded_cli.main(
                ["--tree-cap", "512", "--limit-mb", "0"]
            )
        finally:
            resource.setrlimit(resource.RLIMIT_AS, saved)
        summary = json.loads(capsys.readouterr().out)
        assert code == 0
        assert summary["parity"] is True
        assert summary["cache_flushes"] > 0
        assert "wipe" not in summary
