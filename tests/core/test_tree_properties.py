"""Property-based tests for the cache-tree data structure itself.

The paper spends ~2.3k lines of Coq on generic tree well-formedness
(acyclicity, parent-existence, ...).  These hypothesis tests are the
randomized analogue: random mixes of ``add_leaf``/``insert_btw`` keep
every structural invariant, and the derived queries (ancestors, paths,
nearest common ancestors) satisfy their algebraic laws.
"""

import gc
import pickle

from hypothesis import given, settings, strategies as st

from repro.core import (
    AdoreState,
    CacheTree,
    CCache,
    ECache,
    MCache,
    RCache,
    TimeMap,
    TreeEntry,
)
from repro.core.safety import (
    IncrementalTreeChecker,
    SafetyReport,
    check_state,
    rdist,
)
from repro.core import tree as core_tree
from repro.core.tree import ROOT_CID, _restore_tree, flush_interned_trees
from repro.mc.explorer import uncommitted_rcaches
from repro.mc.symmetry import apply_renaming

from ..helpers import NODES3, root
from .test_incremental_checker import E as Entry


def grow_random_tree(data, max_ops=12):
    """Apply a random mix of add_leaf / insert_btw operations."""
    tree = CacheTree.initial(root())
    ops = data.draw(st.integers(min_value=0, max_value=max_ops), label="ops")
    for i in range(ops):
        parent = data.draw(
            st.sampled_from(sorted(tree.cids())), label=f"parent{i}"
        )
        cache = MCache(
            caller=data.draw(st.integers(1, 3), label=f"caller{i}"),
            time=data.draw(st.integers(0, 5), label=f"time{i}"),
            vrsn=i + 1,
            conf=frozenset({1, 2, 3}),
            method=f"m{i}",
        )
        if data.draw(st.booleans(), label=f"btw{i}"):
            tree, _ = tree.insert_btw(parent, cache)
        else:
            tree, _ = tree.add_leaf(parent, cache)
    return tree


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_random_growth_is_structurally_sound(data):
    tree = grow_random_tree(data)
    # Structural invariants (ignoring the cache-content checks, which
    # random payloads deliberately violate).
    problems = [
        p
        for p in tree.well_formedness_violations()
        if "version" not in p and "time/vrsn" not in p and "CCache" not in p
    ]
    assert problems == []


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_every_cache_reaches_the_root(data):
    tree = grow_random_tree(data)
    for cid in tree.cids():
        assert tree.branch(cid)[0] == ROOT_CID


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_ancestor_relation_is_a_strict_partial_order(data):
    tree = grow_random_tree(data, max_ops=8)
    cids = list(tree.cids())
    for a in cids:
        assert not tree.is_ancestor(a, a)  # irreflexive
        for b in cids:
            if tree.is_ancestor(a, b):
                assert not tree.is_ancestor(b, a)  # antisymmetric
                for c in cids:
                    if tree.is_ancestor(b, c):
                        assert tree.is_ancestor(a, c)  # transitive


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_nca_laws(data):
    tree = grow_random_tree(data, max_ops=8)
    cids = list(tree.cids())
    for a in cids:
        for b in cids:
            nca = tree.nearest_common_ancestor(a, b)
            assert tree.is_ancestor(nca, a, strict=False)
            assert tree.is_ancestor(nca, b, strict=False)
            assert tree.nearest_common_ancestor(b, a) == nca
    for a in cids:
        assert tree.nearest_common_ancestor(a, a) == a


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_path_between_is_symmetric_in_length(data):
    tree = grow_random_tree(data, max_ops=8)
    cids = list(tree.cids())
    for a in cids:
        for b in cids:
            forward = tree.path_between(a, b)
            backward = tree.path_between(b, a)
            assert len(forward) == len(backward)
            assert set(forward) == set(backward)
            assert a not in forward and b not in forward


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_children_partition_descendants(data):
    tree = grow_random_tree(data, max_ops=10)
    for cid in tree.cids():
        descendants = set(tree.descendants(cid))
        via_children = set()
        for child in tree.children(cid):
            via_children |= set(tree.descendants(child, include_self=True))
        assert descendants == via_children


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_insert_btw_preserves_leaf_count_or_structure(data):
    tree = grow_random_tree(data, max_ops=6)
    parent = data.draw(st.sampled_from(sorted(tree.cids())), label="parent")
    cache = MCache(caller=1, time=9, vrsn=99, conf=frozenset({1}), method="x")
    children_before = tree.children(parent)
    grown, cid = tree.insert_btw(parent, cache)
    # The new cache takes over exactly the old children.
    assert grown.children(parent) == (cid,)
    assert set(grown.children(cid)) == set(children_before)


def render_recursively(tree):
    """``CacheTree.render`` as it was written before it had to cope
    with log-deep trees: the reference for the explicit-stack walk."""
    lines = []

    def walk(cid, depth):
        prefix = "  " * depth + ("- " if depth else "")
        lines.append(f"{prefix}[{cid}] {tree.cache(cid).describe()}")
        for child in tree.children(cid):
            walk(child, depth + 1)

    walk(ROOT_CID, 0)
    return "\n".join(lines)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_render_equals_the_recursive_rendering(data):
    tree = grow_random_tree(data)
    assert tree.render() == render_recursively(tree)


def assert_same_tree(tree, direct):
    assert list(tree.cids()) == list(direct.cids())
    assert list(tree.items()) == list(direct.items())
    assert list(tree.parent_items()) == list(direct.parent_items())
    assert tree.fingerprint() == direct.fingerprint()
    assert tree == direct
    assert tree.fresh_cid() == direct.fresh_cid()


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_grown_tree_equals_the_tree_built_directly_from_its_entries(data):
    # Two construction paths.  The growth operations assemble the
    # successor from the predecessor's own parts and rely on producing
    # cid order by construction; everything else (direct construction,
    # unpickling, canonicalisation) goes through __init__, which sorts.
    # Fed the same entries in any order, each of those must arrive at
    # the grown tree.
    assert "_children" not in CacheTree.__slots__
    # The intern table holds only live trees: collect what an earlier
    # example left in cycles, so every growth step below builds its tree.
    gc.collect()
    tree = grow_random_tree(data)
    parent = data.draw(st.sampled_from(sorted(tree.cids())), label="last parent")
    last = MCache(caller=1, time=9, vrsn=99, conf=frozenset({1, 2, 3}), method="last")
    for grown, _ in (tree.add_leaf(parent, last), tree.insert_btw(parent, last)):
        # The successor holds the predecessor's very pairs, plus one.
        assert len(grown._items) == len(tree._items) + 1
        assert all(mine is theirs for mine, theirs in zip(grown._items, tree._items))
        assert list(grown.cids()) == sorted(grown._entries)

        entries = [
            (cid, TreeEntry(grown.parent(cid), grown.cache(cid)))
            for cid in grown.cids()
        ]
        shuffled = data.draw(st.permutations(entries), label="order")
        assert_same_tree(grown, CacheTree(dict(shuffled)))

        # Unpickling: a real round trip, and the hook fed the entries
        # out of order.  The table forgets the live tree first each time,
        # as if it had died, or the hook would hand it back without
        # building one.
        for restore in (
            lambda: pickle.loads(pickle.dumps(grown)),
            lambda: _restore_tree(dict(shuffled), grown.fingerprint()),
        ):
            del core_tree._INTERNED_TREES[grown.fingerprint()]
            restored = restore()
            assert restored is not grown
            assert_same_tree(grown, restored)

        # Canonicalisation rebuilds the tree from renamed entries;
        # renaming there and back again is the identity.
        swap = {1: 2, 2: 1}
        state = AdoreState(grown, NO_TIMES)
        renamed = apply_renaming(apply_renaming(state, swap), swap)
        assert renamed.tree is not grown
        assert_same_tree(grown, renamed.tree)


# ----------------------------------------------------------------------
# Every derived table of a grown tree (extended from its predecessor's
# where the predecessor holds one) against the same tables built from
# scratch on a directly constructed tree with the same entries.
# ----------------------------------------------------------------------

KINDS = ("E", "M", "R", "C")
NO_TIMES = TimeMap()


def mixed_cache(data, tree, parent, step):
    """A cache of a random kind that usually *fits* below ``parent``
    (so clean verdicts and the delta fast path occur) and sometimes
    does not (so violating ones and the full checkers do)."""
    below = tree.cache(parent)
    kind = data.draw(st.sampled_from(KINDS), label=f"kind{step}")
    caller = data.draw(st.integers(1, 3), label=f"caller{step}")
    if data.draw(st.integers(0, 5), label=f"odd{step}") == 0:
        time = data.draw(st.integers(0, 4), label=f"time{step}")
        vrsn = data.draw(st.integers(0, 4), label=f"vrsn{step}")
    elif kind == "E":
        time, vrsn = below.time + data.draw(st.integers(1, 2), label=f"dt{step}"), 0
    elif kind == "C":
        time, vrsn = below.time, below.vrsn
    else:
        time, vrsn = below.time, below.vrsn + 1
    voters = frozenset(
        data.draw(st.sets(st.integers(1, 3), min_size=1), label=f"voters{step}")
    )
    if kind == "E":
        return ECache(caller=caller, time=time, vrsn=vrsn, conf=NODES3, voters=voters)
    if kind == "C":
        return CCache(caller=caller, time=time, vrsn=vrsn, conf=NODES3, voters=voters)
    if kind == "R":
        conf = frozenset(
            data.draw(st.sets(st.integers(1, 4), min_size=1), label=f"conf{step}")
        )
        return RCache(caller=caller, time=time, vrsn=vrsn, conf=conf)
    return MCache(caller=caller, time=time, vrsn=vrsn, conf=NODES3, method=f"m{step}")


#: One reader per derived table; a random subset runs after each growth
#: step, so the next step's extension meets a predecessor that holds
#: some of the tables and lacks the rest.
TOUCHES = {
    "children": lambda tree, cid: tree.children(ROOT_CID),
    "branches": lambda tree, cid: tree.branch(cid),
    "descendants": lambda tree, cid: tree.descendants(ROOT_CID),
    "node_tables": lambda tree, cid: tree.node_tables(),
    "kinds": lambda tree, cid: tree.kind_cids("C"),
    "rprefix": lambda tree, cid: rdist(tree, ROOT_CID, cid),
    "report": lambda tree, cid: check_state(AdoreState(tree, NO_TIMES)),
    "scent": lambda tree, cid: check_state(
        AdoreState(tree, NO_TIMES), only=("safety", "ccache-in-rcache-fork")
    ),
    "uncommitted_r": lambda tree, cid: uncommitted_rcaches(tree),
}


def rcaches_with_no_ccache_below(tree):
    """Reference: the subtree walk per RCache that the guided search's
    ``aux_score`` did for every state before the table was derived."""
    return {
        cid
        for cid in tree.rcaches()
        if not any(tree.cache(d).kind == "C" for d in tree.descendants(cid))
    }


def grow_mixed_tree(data, max_ops=10):
    """Random growth over all four kinds with random table reads and
    one epoch flush somewhere along the way."""
    # Trees an earlier example left in cycles keep their memos: collect
    # them so every run derives afresh.
    gc.collect()
    tree = CacheTree.initial(root())
    ops = data.draw(st.integers(0, max_ops), label="ops")
    flush_at = data.draw(st.integers(0, max_ops), label="flush_at")
    for step in range(ops):
        parent = data.draw(st.sampled_from(sorted(tree.cids())), label=f"parent{step}")
        cache = mixed_cache(data, tree, parent, step)
        # Mostly the shapes the semantics produce (CCaches inserted,
        # the rest added as leaves), sometimes the other way round.
        usual = cache.kind == "C"
        if data.draw(st.integers(0, 4), label=f"swap{step}") == 0:
            usual = not usual
        if usual:
            tree, cid = tree.insert_btw(parent, cache)
        else:
            tree, cid = tree.add_leaf(parent, cache)
        if step == flush_at:
            flush_interned_trees()
        touched = data.draw(
            st.sets(st.sampled_from(sorted(TOUCHES))), label=f"touch{step}"
        )
        for name in sorted(touched):
            TOUCHES[name](tree, cid)
    return tree


def rebuilt_from_shuffled_entries(data, tree):
    entries = [
        (cid, TreeEntry(tree.parent(cid), tree.cache(cid))) for cid in tree.cids()
    ]
    return CacheTree(dict(data.draw(st.permutations(entries), label="order")))


def assert_same_derived_tables(tree, direct):
    cids = list(direct.cids())
    assert list(tree.cids()) == cids
    assert tree.fingerprint() == direct.fingerprint()
    for cid in cids:
        assert tree.children(cid) == direct.children(cid)
        assert tree.branch(cid) == direct.branch(cid)
        assert tree.ancestors(cid) == direct.ancestors(cid)
        assert tree.ancestors(cid, include_self=True) == direct.ancestors(
            cid, include_self=True
        )
        assert tree.descendants(cid) == direct.descendants(cid)
    for a in cids:
        for b in cids:
            assert tree.is_ancestor(a, b) == direct.is_ancestor(a, b)
            assert tree.nearest_common_ancestor(a, b) == direct.nearest_common_ancestor(a, b)
            assert rdist(tree, a, b) == rdist(direct, a, b)
    assert tree.node_tables() == direct.node_tables()
    # Insertion order too: the extension must fold the new cache in
    # where the one-pass builder would have.
    assert [list(t) for t in tree.node_tables()] == [
        list(t) for t in direct.node_tables()
    ]
    for kind in KINDS:
        assert tree.kind_cids(kind) == direct.kind_cids(kind)
    assert (
        uncommitted_rcaches(tree)
        == uncommitted_rcaches(direct)
        == rcaches_with_no_ccache_below(direct)
    )
    for only in (None, ("safety",), ("ccache-in-rcache-fork", "election-commit-order")):
        for bound in (1, None):
            got = check_state(AdoreState(tree, NO_TIMES), bound, only=only)
            want = check_state(AdoreState(direct, NO_TIMES), bound, only=only)
            assert got.all_violations() == want.all_violations()
            assert got.violation_count() == len(want.all_violations())


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_extended_tables_equal_the_tables_built_from_scratch(data):
    tree = grow_mixed_tree(data)
    assert_same_derived_tables(tree, rebuilt_from_shuffled_entries(data, tree))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_trimming_checker_tree_equals_the_tree_built_from_scratch(data):
    # IncrementalTreeChecker(trim=True) drops each tree's provenance
    # right after checking it, so every table is derived inside the one
    # check_state call that still sees the predecessor, or from scratch.
    gc.collect()
    engine = IncrementalTreeChecker(NODES3, trim=True, lemma_rdist_bound=None,
                                    invariants=SafetyReport.LABELS)
    logs = {nid: [] for nid in (1, 2, 3)}
    for step in range(data.draw(st.integers(0, 8), label="observations")):
        nid = data.draw(st.integers(1, 3), label=f"nid{step}")
        log = logs[nid]
        base = data.draw(st.integers(0, len(log)), label=f"base{step}")
        suffix = [
            Entry(
                time=data.draw(st.integers(1, 3), label=f"time{step}.{i}"),
                vrsn=base + i + 1,
                payload=(
                    frozenset({1, 2, 3, 4}) - {data.draw(st.integers(1, 4))}
                    if config else data.draw(st.integers(0, 2))
                ),
                is_config=config,
            )
            for i, config in enumerate(
                data.draw(st.lists(st.booleans(), max_size=3), label=f"suffix{step}")
            )
        ]
        del log[base:]
        log.extend(suffix)
        commit_len = data.draw(st.integers(0, len(log)), label=f"commit{step}")
        engine.observe(nid, base, suffix, commit_len)
    tree = engine.tree
    assert "prov" not in (tree._memo or {})
    assert_same_derived_tables(tree, rebuilt_from_shuffled_entries(data, tree))
