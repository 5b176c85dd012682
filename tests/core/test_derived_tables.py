"""A successor tree extends its predecessor's derived tables.

What :meth:`repro.core.tree.CacheTree.derive` promises beyond equal
answers (those are ``test_tree_properties.py``'s business): the parts a
new node leaves alone are the predecessor's own objects, nobody can
write through them, and the work and memory of an extension do not
grow with the tree.  The counts are deterministic -- ``sys.setprofile``
events and tuple lengths, not seconds or bytes.
"""

import dataclasses
import gc
import sys

import pytest

from repro.core import AdoreState, CacheTree, TimeMap
from repro.core.safety import IncrementalTreeChecker, SafetyReport, check_state
from repro.core.tree import ROOT_CID

from ..helpers import NODES3, cc, ec, mc, rc, root
from .test_incremental_checker import E as Entry

NO_TIMES = TimeMap()


@pytest.fixture(autouse=True)
def fresh_intern_table():
    # A tree that garbage cycles still hold keeps its memo from test to
    # test; the intern table holds nothing else between tests.
    gc.collect()
    yield
    gc.collect()


def report_of(tree, **kwargs):
    return check_state(AdoreState(tree, NO_TIMES), **kwargs)


def chain(length):
    """root - E - M - ... - M with ``length`` MCaches; returns the tip too."""
    tree = CacheTree.initial(root())
    tree, tip = tree.add_leaf(ROOT_CID, ec(1, 1))
    for vrsn in range(1, length + 1):
        tree, tip = tree.add_leaf(tip, mc(1, 1, vrsn, method=f"m{vrsn}"))
    return tree, tip


def calls_during(thunk, code=None):
    """Python + C calls made by ``thunk`` (only those running ``code``
    when one is given).  The collector is paused while it runs: a
    collection landing inside ``thunk`` would count whatever finalizer,
    weakref or ``gc.callbacks`` entry it triggers."""
    count = 0

    def profiler(frame, event, arg):
        nonlocal count
        if code is None:
            count += event in ("call", "c_call")
        else:
            count += event == "call" and frame.f_code is code

    enabled = gc.isenabled()
    gc.disable()
    sys.setprofile(profiler)
    try:
        thunk()
    finally:
        sys.setprofile(None)
        if enabled:
            gc.enable()
    return count


# ----------------------------------------------------------------------
# Sharing: what the new node does not change *is* the predecessor's
# ----------------------------------------------------------------------

def test_unchanged_tables_are_the_predecessors_own_objects():
    parent, tip = chain(3)
    parent, marker = parent.insert_btw(tip, cc(1, 1, 3))
    held = parent.node_tables(), parent._kind_lists(), parent._child_map()

    # An MCache leaf by node 2: observed/active gain node 2's entry;
    # no CCache, so the commit table is untouched.
    child, cid = parent.add_leaf(marker, mc(2, 1, 4))
    observed, active, committed = child.node_tables()
    assert committed is held[0][2]
    assert active is not held[0][1] and active[2][1] == cid
    # ... and the predecessor's own tables did not move.
    assert parent.node_tables() is held[0]
    assert 2 not in held[0][1]

    for kind in ("E", "R", "C"):
        assert child.kind_cids(kind) is parent.kind_cids(kind)
    assert child.kind_cids("M") == parent.kind_cids("M") + (cid,)
    assert parent._kind_lists() is held[1]

    for other in parent.cids():
        if other != marker:
            assert child.children(other) is parent.children(other)
    assert child.children(marker) == (cid,)
    assert parent.children(marker) == ()


def test_a_cache_that_beats_nothing_shares_all_three_node_tables():
    parent, tip = chain(2)
    tables = parent.node_tables()
    # Smaller than everything node 1 already called or observed.
    child, _ = parent.add_leaf(ROOT_CID, mc(1, 0, 1))
    assert child.node_tables() is tables


def test_branch_paths_are_inherited_not_recomputed():
    parent, tip = chain(4)
    path = parent._branch_of(tip)
    leaf, _ = parent.add_leaf(tip, mc(1, 1, 5))
    assert leaf._branch_of(tip) is path
    # Inserting below ``tip`` keeps tip's own path and everything not
    # through it; nothing stale is served for the paths that grew.
    sibling, side = parent.add_leaf(ROOT_CID, ec(2, 2))
    side_path = sibling._branch_of(side)
    sibling._branch_of(tip)
    grown, marker = sibling.insert_btw(ROOT_CID, cc(1, 0, 0))
    assert grown.branch(side) == [ROOT_CID, marker, side]
    assert grown.branch(tip)[:2] == [ROOT_CID, marker]
    assert sibling._branch_of(side) is side_path


# ----------------------------------------------------------------------
# Aliasing: shared values cannot be written through
# ----------------------------------------------------------------------

def test_clean_reports_of_distinct_trees_cannot_leak_into_each_other():
    first, tip = chain(2)
    second, _ = first.add_leaf(tip, mc(1, 1, 3))
    one, other = report_of(first), report_of(second)
    assert one.ok and other.ok
    with pytest.raises(AttributeError):
        one.safety.append("planted")
    with pytest.raises(dataclasses.FrozenInstanceError):
        one.safety = ("planted",)
    assert other.ok and other.all_violations() == []
    assert report_of(second).ok and report_of(first).ok
    third, _ = second.add_leaf(tip, mc(2, 1, 3, method="other"))
    assert report_of(third).ok


def test_violating_reports_are_immutable_too():
    tree = CacheTree.initial(root())
    tree, a = tree.add_leaf(ROOT_CID, mc(1, 1, 1))
    tree, _ = tree.insert_btw(a, cc(1, 1, 1))
    tree, b = tree.add_leaf(ROOT_CID, mc(2, 2, 1))
    tree, _ = tree.insert_btw(b, cc(2, 2, 1))
    report = report_of(tree)
    assert not report.ok and report.safety
    with pytest.raises(AttributeError):
        report.safety.clear()
    kept = report.filtered(["safety"])
    assert kept.safety == report.safety and kept.well_formedness == ()
    assert report.violation_count() == len(report.all_violations())


def test_kind_lists_are_tuples():
    tree, tip = chain(2)
    tree, _ = tree.add_leaf(tip, rc(1, 1, 3))
    for kind in ("E", "M", "R", "C", "?"):
        assert isinstance(tree.kind_cids(kind), tuple)
    # The copying accessors still hand out lists of their own.
    assert tree.rcaches() == list(tree.kind_cids("R"))
    assert tree.rcaches() is not tree.rcaches()


# ----------------------------------------------------------------------
# Shape and work (recorded on the parent commit first: see each test)
# ----------------------------------------------------------------------

def test_branch_memo_of_a_folded_log_is_linear_in_its_length():
    # Parent commit: every link of the committed tip's chain memoized
    # its own prefix, 2,019,045 ints for these 2,009 caches (N²/2); now
    # the one path that was asked for, 2,009.
    entries, batch = 2_000, 250
    engine = IncrementalTreeChecker(NODES3)
    log = [Entry(1, vrsn, ("put", "k", vrsn)) for vrsn in range(1, entries + 1)]
    for done in range(0, entries, batch):
        engine.observe(1, done, log[done:done + batch], commit_len=done + batch)
    assert engine.ok and engine.stats()["commits"] == entries // batch
    table = engine.tree.memo()["branches"]
    held = sum(len(path) for path in table.values())
    assert held <= 3 * len(engine.tree), (held, len(table))


def test_extending_the_tables_costs_the_same_whatever_the_tree_size():
    # Parent commit: 116 / 732 / 5,660 calls for 8 / 64 / 512 nodes
    # (one pass per table over every cache); now 38 for each.
    def cost(nodes):
        gc.collect()
        parent, tip = chain(nodes - 2)
        parent.node_tables(), parent.kind_cids("C"), parent.children(ROOT_CID)
        assert len(parent) == nodes
        child, _ = parent.add_leaf(tip, mc(1, 1, nodes))

        def ask():
            child.node_tables(), child.kind_cids("C"), child.children(ROOT_CID)

        return calls_during(ask)

    small, medium, large = cost(8), cost(64), cost(512)
    assert small == medium == large, (small, medium, large)


def test_a_collection_inside_the_profiled_call_is_not_counted():
    # The tables test once read (38, 42, 38) in a full run: a collection
    # landed inside the profiled call and its callbacks were counted.
    def ask():
        return [[] for _ in range(64)]

    def on_collect(phase, info):
        pass

    quiet = calls_during(ask)
    threshold = gc.get_threshold()
    gc.callbacks.append(on_collect)
    gc.set_threshold(1)  # a young collection at every allocation
    try:
        noisy = calls_during(ask)
    finally:
        gc.set_threshold(*threshold)
        gc.callbacks.remove(on_collect)
    assert noisy == quiet


def test_the_delta_fast_path_allocates_no_report():
    # Parent commit: one fresh (empty) SafetyReport per clean tree.
    parent, tip = chain(3)
    assert report_of(parent).ok
    child, _ = parent.add_leaf(tip, mc(1, 1, 4))
    built = calls_during(lambda: report_of(child), SafetyReport.__init__.__code__)
    assert built == 0
    assert report_of(child) is report_of(parent)
    # The full checkers, run from scratch, arrive at the same object.
    rebuilt = CacheTree(dict(child._entries))
    assert report_of(rebuilt) is report_of(child)
