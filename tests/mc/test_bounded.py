"""Bounded-memory engine parity (ISSUE 10 acceptance).

Cache eviction and disk spilling only discard *recomputable* memoized
state (interned trees/caches, memo scratch) or move *exact* data
structures to disk (the visited table, the frontier).  Therefore every
wipe policy and the spill mode must reproduce the seed engine's recorded
answer (``ROWS`` in :mod:`tests.mc.test_golden`) bit for bit: same
state count, same transition count, same verdict, same first violation
-- on the intact configuration and all four ablations, sequentially and
through the parallel engine.

Caps here are deliberately tiny so every run actually flushes and
spills many times; the unbounded runs in ``tests/mc/test_parity.py``
stay the baseline for the unbounded engine.
"""

import pytest

from repro.core import cachemgr
from repro.mc import ParallelExplorer
from repro.mc.bounded_cli import signature

from .test_golden import BFS, ROWS, SEQUENTIAL, explorer

#: Tiny bounds: every configuration overflows them many times over.
SPILL_WINDOW = 64


def tree_cap(name):
    # A run interns about one tree per state, so a quarter of the row's
    # states is overflowed at least four times (``insert_btw`` interns
    # 91 trees in all: a flat 512 would never evict there).
    return min(512, ROWS[name]["states"] // 4)


@pytest.mark.parametrize("name", SEQUENTIAL)
class TestWipePolicyParity:
    """Every eviction policy, tiny cap, no spill: exact seed parity."""

    @pytest.mark.parametrize("wipe", sorted(cachemgr.WIPE_POLICIES))
    def test_matches_seed_engine(self, name, wipe):
        with cachemgr.bounded(tree_cap=tree_cap(name), wipe=wipe):
            # The counter is process-cumulative and entering the bound
            # may itself flush: count this run's flushes only.
            before = cachemgr.stats()["tree_interns"]["flushes"]
            result = explorer(name).run()
            flushes = cachemgr.stats()["tree_interns"]["flushes"] - before
        assert signature(result) == ROWS[name]
        assert flushes > 0, "cap never hit: the test is not exercising eviction"


@pytest.mark.parametrize("name", SEQUENTIAL)
class TestSpillParity:
    """Disk-spilled frontier + visited set, sequential engine."""

    def test_matches_seed_engine(self, name, tmp_path):
        result = explorer(
            name, spill_dir=str(tmp_path), spill_window=SPILL_WINDOW
        ).run()
        assert signature(result) == ROWS[name]
        # The engine cleans its working spill files up after itself.
        assert not list(tmp_path.iterdir())


class TestParallelSpillParity:
    """Spilled frontier/visited through the parallel engine: the
    fork-shared mmap visited table and the windowed level merge must
    not change the answer for any worker count."""

    @pytest.mark.parametrize("workers", [1, 4])
    @pytest.mark.parametrize("name", BFS)
    def test_matches_seed_engine(self, name, workers, tmp_path):
        spilled = explorer(
            name, spill_dir=str(tmp_path), spill_window=SPILL_WINDOW
        )
        with cachemgr.bounded(
            tree_cap=tree_cap(name), wipe=cachemgr.WIPE_SUBNODES
        ):
            result = ParallelExplorer(spilled, workers=workers).run()
        assert signature(result) == ROWS[name]
        assert not list(tmp_path.iterdir())


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
                ["--tree-cap", "512", "--window", "128", "--limit-mb", "0"]
            )
        finally:
            resource.setrlimit(resource.RLIMIT_AS, saved)
        summary = json.loads(capsys.readouterr().out)
        assert code == 0
        assert summary["parity"] is True
        assert summary["cache_flushes"] > 0
