"""Seed-engine parity of the unbounded engine modes (ISSUE 5 acceptance).

The optimization rebuilt the model checker's hot path -- interned
hash-consed trees, incremental 128-bit fingerprints, compact visited
set, orbit-based symmetry -- **without changing what is checked**.
These tests pin that claim against the seed engine's recorded answers
(``ROWS`` in :mod:`tests.mc.test_golden`; the engine itself was deleted
in ISSUE 21): identical state count, transition count, verdict, first
violation (trace and messages), depth and coverage, on the intact
configuration and every ablation, with fingerprint and exact-equality
dedup, and through the parallel engine with 1 and 4 workers.

Configurations are scaled-down versions of the real experiments so the
whole module stays test-suite fast; the full Fig. 4 budget rows are run
by ``test_golden`` and ``test_explorer``.
"""

import pytest

from repro.mc import ParallelExplorer
from repro.mc.bounded_cli import signature

from .test_golden import BFS, CONFIGS, FULL_BUDGET, ROWS, SEQUENTIAL, explorer


@pytest.mark.parametrize("name", SEQUENTIAL)
class TestSequentialParity:
    def test_matches_seed_engine(self, name):
        assert signature(explorer(name).run()) == ROWS[name]

    def test_legacy_dedup_mode_matches_seed_engine(self, name):
        # fingerprints=False keeps the optimized core but dedups by
        # exact state equality, exactly like the seed engine did -- the
        # live collision canary for fingerprint mode.
        assert signature(explorer(name, fingerprints=False).run()) == ROWS[name]


@pytest.mark.parametrize(
    "name", sorted(set(CONFIGS) - set(SEQUENTIAL) - set(FULL_BUDGET))
)
def test_exact_equality_dedup_matches_seed_engine(name):
    # The capped rows test_golden runs in the default mode.
    assert signature(explorer(name, fingerprints=False).run()) == ROWS[name]


class TestParallelParity:
    """The parallel engine (bfs only) against the sequential seed
    engine's answer on the same configurations."""

    @pytest.mark.parametrize("workers", [1, 4])
    @pytest.mark.parametrize("name", BFS)
    def test_matches_seed_engine(self, name, workers):
        result = ParallelExplorer(explorer(name), workers=workers).run()
        assert signature(result) == ROWS[name]
