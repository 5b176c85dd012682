"""The tree intern table holds only trees something can still reach.

``repro.core.tree._INTERNED_TREES`` holds weak references, and the
search loop makes an expanded entry's tree let go of its parent
(``CacheTree.release_predecessor``): a tree dies once no unexpanded
frontier entry descends from it, and a run's trees die with the run.
While the table held strong references, every tree a run built stayed
until the process ended: 5,091 after the r2 hunt below and 15,507
after the intact search, against peaks of 178 and 4,092 live trees now.
"""

import gc
import weakref

import pytest

from repro.core import tree as core_tree
from repro.core.cachemgr import gc_paused
from repro.mc import (
    ParallelExplorer,
    insert_btw_explorer,
    r2_explorer,
    r3_explorer,
    verify_intact_explorer,
)
from repro.mc.explorer import Explorer, OpBudget
from repro.runtime import Cluster
from repro.schemes import RaftSingleNodeScheme

BUDGET = OpBudget(pulls=2, invokes=1, reconfigs=1, pushes=2)


@pytest.fixture(autouse=True)
def _no_garbage_cycles():
    """Start with no tree that an earlier test's garbage cycles hold."""
    gc.collect()


def live():
    return set(core_tree._INTERNED_TREES)


@pytest.fixture
def peak_live(monkeypatch):
    """The most trees the table held at once, read at every intern."""
    peak = [0]
    real = core_tree._intern_tree

    def intern(fp, tree):
        interned = real(fp, tree)
        peak[0] = max(peak[0], len(core_tree._INTERNED_TREES))
        return interned

    monkeypatch.setattr(core_tree, "_intern_tree", intern)
    return peak


@pytest.mark.parametrize(
    "factory,bound",
    [(r2_explorer, 1_000), (verify_intact_explorer, 8_000)],
    ids=["r2-hunt", "intact"],
)
def test_a_search_keeps_few_trees_alive(factory, bound, peak_live):
    result = factory(max_states=5_000).run()
    assert result.states_visited == 5_000
    assert peak_live[0] <= bound


def test_a_safe_search_leaves_no_tree_behind():
    before = live()
    result = verify_intact_explorer(BUDGET).run()
    assert result.safe and result.exhausted
    assert live() - before == set()


@pytest.mark.parametrize(
    "factory", [r3_explorer, insert_btw_explorer], ids=["guided", "bfs"]
)
def test_a_hunt_leaves_only_its_violations_trees(factory):
    before = live()
    result = factory().run()
    violation, = result.violations
    # The violation's tree, and what its provenance still holds: its
    # parent, whose expansion the hunt stopped in, and the grandparent.
    chain, tree = [], violation.state.tree
    while tree is not None:
        chain.append(tree.fingerprint())
        prov = (tree._memo or {}).get("prov")
        tree = prov[0] if prov is not None else None
    assert len(chain) == 3
    assert live() - before == set(chain)


def test_a_safety_check_leaves_no_tree_behind():
    cluster = Cluster(frozenset({1, 2, 3}), RaftSingleNodeScheme(), seed=4)
    assert cluster.elect(1)
    for i in range(10):
        assert cluster.submit(("put", f"k{i}", i), leader=1) is not None
    cluster.sync_followers(1)
    before = live()
    assert cluster.check_safety() == []
    assert live() - before == set()


def test_expanded_trees_die_by_reference_counting(monkeypatch):
    """With the collector off and never run, a tree outlives the BFS
    round that expanded it only while an entry still queued has it as
    its own tree or as its parent's, and none outlives the search."""
    expanded = [[]]  # per round: weak references to the expanded trees
    fps = [set()]  # per round: their fingerprints
    alive = []  # per round: earlier rounds' trees alive at its end
    real_expand = Explorer.expand

    def expand(self, state, budget):
        expanded[-1].append(weakref.ref(state.tree))
        fps[-1].add(state.tree.fingerprint())
        return real_expand(self, state, budget)

    def progress(snapshot):
        held = (ref() for done in expanded[:-1] for ref in done)
        alive.append({tree.fingerprint() for tree in held if tree is not None})
        expanded.append([])
        fps.append(set())

    monkeypatch.setattr(Explorer, "expand", expand)
    explorer = verify_intact_explorer(BUDGET)
    with gc_paused():
        result = ParallelExplorer(explorer, workers=1, progress=progress).run()
        assert result.safe and len(alive) > 3
        refs = [ref for done in expanded for ref in done]
        assert [ref for ref in refs if ref() is not None] == []
    # Round r + 1 expands the entries queued at the end of round r; the
    # search itself holds its initial state.
    initial = explorer.initial().tree.fingerprint()
    for r, held in enumerate(alive):
        assert held <= fps[r] | fps[r + 1] | {initial}, r
