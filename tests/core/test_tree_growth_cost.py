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

PR 22 (the parent is PR 21), the same fold with a commit marker after
*every* entry -- and the plain fold again, which now freezes each
payload once instead of three times:

======================================  ======================  ==========
                                        parent                  now
======================================  ======================  ==========
300 / 600 / 1,200 entry + marker        359,205 / 1,248,956 /   173,499 /
pairs, all calls                        4,657,856               517,550 /
                                        (x3.48, x3.73)          1,755,050
                                                                (x2.98,
                                                                x3.39)
... of them outside the marker's        267,705 / 885,956 /     81,999 /
root-path walk (``_branch_of``)         3,211,856               154,550 /
                                        (x3.31, x3.63)          309,050
                                                                (x1.88,
                                                                x2.00)
child-map / kind-partition builds       one per marker          1 / 1
1,280 entries, a marker every 64:       249,031                 192,923
all calls
... child-map builds                    20                      20
... child-map copies (slots copied)     20 (13,650)             324
                                                                (213,834)
fold 300 / 600 / 1,200 plain entries    45,968 / 91,868 /       34,568 /
                                        183,668                 69,068 /
                                                                138,068
======================================  ======================  ==========

The tables a marker reads are carried for ``_CARRY_RUN`` (16) entries
after a marker and no further: a copy is one call but touches every
slot, and carrying through all 64 entries between two markers would
make 1,236 copies of 843,570 slots to save 19 builds.

What is left quadratic is the walk itself: each marker's check asks for
its root path, the branch table is not carried (ROADMAP item 2: doing
so is cubic), so the path is walked again, one ``list.append`` per
ancestor -- 1,446,000 of the 1,755,050 calls at 1,200 pairs.
"""

import gc
import sys

import pytest

import repro.core.tree as tree_mod
from repro.core.safety import _CARRY_RUN, IncrementalTreeChecker
from repro.core.tree import ROOT_CID, CacheTree

from ..helpers import NODES3, cc, mc
from .test_derived_tables import Entry, calls_during, chain


@pytest.fixture(autouse=True)
def fresh_intern_table():
    # An interned successor would be returned without being built, and
    # garbage cycles may still hold one.
    gc.collect()
    yield
    gc.collect()


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
    gc.collect()
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


def marker_fold_cost(entries, every=1):
    """``(calls outside the root-path walk, child-map builds,
    kind-partition builds, child-map copies, child-map slots copied)``
    of a fold in which the replica reports a commit after every
    ``every`` entries.  The slots are the C-level work a call count
    cannot see: ``dict(base)`` is one call whatever the tree's size."""
    gc.collect()
    engine = IncrementalTreeChecker(NODES3, trim=True)
    log = [Entry(1, vrsn, ("put", "marked", entries, vrsn)) for vrsn in range(1, entries + 1)]
    walk = CacheTree._branch_of.__code__
    builders = (tree_mod._build_child_map.__code__, tree_mod._build_kind_lists.__code__)
    copier = tree_mod._extend_child_map.__code__
    calls, builds, copies = 0, [0, 0], [0, 0]

    def profiler(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1
            if frame.f_code in builders:
                builds[builders.index(frame.f_code)] += 1
            elif frame.f_code is copier:
                copies[0] += 1
                copies[1] += len(frame.f_locals["base"])
        elif event == "c_call" and frame.f_code is not walk:
            calls += 1

    sys.setprofile(profiler)
    try:
        for at in range(0, entries, every):
            engine.observe(1, at, log[at:at + every], commit_len=at + every)
    finally:
        sys.setprofile(None)
    assert engine.ok and len(engine.tree) == entries + entries // every + 1
    return (calls, *builds, *copies)


def test_a_marker_per_entry_rebuilds_no_table_and_is_linear_but_for_its_path():
    half, full = marker_fold_cost(300), marker_fold_cost(600)
    # The first marker builds the child map and the kind partition;
    # every tree after it extends its predecessor's before the
    # provenance goes.  The parent built both at every marker.
    assert half[1:3] == full[1:3] == (1, 1)
    assert full[0] <= 2.2 * half[0], (half, full)


def test_a_marker_every_64_entries_is_not_taxed_for_the_entries_between():
    # Carrying the child map costs one copy of it per tree, so it stops
    # _CARRY_RUN entries after a marker: a replica that commits in
    # batches builds the tables at each marker, as the parent did, and
    # pays at most _CARRY_RUN + 1 copies beside each build, not one per
    # entry (1,236 copies of 843,570 slots in all for this log).
    markers = 1280 // 64
    calls, child_builds, kind_builds, copies, slots = marker_fold_cost(1280, every=64)
    assert child_builds == markers
    assert kind_builds == markers + 1  # the first tree's full check
    assert copies <= (_CARRY_RUN + 1) * markers, (copies, slots)
    assert calls < 249_031  # the parent's count for this fold
