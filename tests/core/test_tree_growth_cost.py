"""Growing a cache tree costs O(new node) interpreted work.

``add_leaf`` / ``insert_btw`` assemble the successor from the
predecessor's own parts (``CacheTree._shared``): one C-level dict copy,
one tuple concatenation, no pass over the existing nodes.  The counts
are ``sys.setprofile`` ``call`` + ``c_call`` events -- deterministic
work, not seconds (the ``tests/runtime/test_log_fold.py`` style).

Recorded on the parent commit (PR 17, every successor built through
``CacheTree.__init__``: an order check and a pairing pass over every
node), then on this one:

======================================  ======================  ==========
                                        parent                  now
======================================  ======================  ==========
one ``add_leaf``, 8 / 64 / 512 / 4,096  86 / 198 / 1,094 /      64 at
nodes                                   8,262                   every size
one ``insert_btw`` (child map held),    120 / 232 / 1,128 /     98 at
8 / 64 / 512 / 4,096 nodes              8,296                   every size
fold 300 / 600 / 1,200 plain entries    138,068 / 456,117 /     45,968 /
through ``IncrementalTreeChecker        1,632,068               91,917 /
(trim=True).observe``                   (x3.30, x3.58)          183,668
                                                                (x2.00)
======================================  ======================  ==========

The single-step counts include interning the new cache and hashing its
entry term: each step starts from a cache no tree has held.
"""

import pytest

from repro.core.safety import IncrementalTreeChecker
from repro.core.tree import ROOT_CID, flush_interned_trees

from ..helpers import NODES3, cc, mc
from .test_derived_tables import Entry, calls_during, chain


@pytest.fixture(autouse=True)
def fresh_intern_table():
    # An interned successor would be returned without being built.
    flush_interned_trees()
    yield
    flush_interned_trees()


def add_leaf_cost(nodes):
    tree, tip = chain(nodes - 2)
    assert len(tree) == nodes
    cache = mc(1, 1, nodes, method="new")
    return calls_during(lambda: tree.add_leaf(tip, cache))


def insert_btw_cost(nodes):
    tree, tip = chain(nodes - 2)
    tree.children(ROOT_CID)  # the tree holds its child map
    below = tree.parent(tip)  # an inner node: one child to re-parent
    held = tree.cache(below)
    marker = cc(1, held.time, held.vrsn)
    return calls_during(lambda: tree.insert_btw(below, marker))


@pytest.mark.parametrize("cost", [add_leaf_cost, insert_btw_cost])
def test_one_growth_step_costs_the_same_whatever_the_tree_size(cost):
    small, large = cost(8), cost(512)
    assert small == large, (small, large)


def fold_cost(entries):
    flush_interned_trees()
    engine = IncrementalTreeChecker(NODES3, trim=True)
    # Payloads no other fold shares, so every fold interns its caches
    # afresh and the count does not depend on what ran before.
    log = [Entry(1, vrsn, ("put", entries, vrsn)) for vrsn in range(1, entries + 1)]
    calls = calls_during(lambda: engine.observe(1, 0, log, commit_len=0))
    assert engine.ok and len(engine.tree) == entries + 1
    return calls


def test_folding_a_log_of_plain_entries_is_linear_in_its_length():
    half, full = fold_cost(300), fold_cost(600)
    assert full <= 2.2 * half, (half, full)
