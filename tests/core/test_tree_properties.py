"""Property-based tests for the cache-tree data structure itself.

The paper spends ~2.3k lines of Coq on generic tree well-formedness
(acyclicity, parent-existence, ...).  These hypothesis tests are the
randomized analogue: random mixes of ``add_leaf``/``insert_btw`` keep
every structural invariant, and the derived queries (ancestors, paths,
nearest common ancestors) satisfy their algebraic laws.
"""

from hypothesis import given, settings, strategies as st

from repro.core import CacheTree, MCache, TreeEntry
from repro.core.tree import ROOT_CID

from ..helpers import root


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


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_grown_tree_equals_the_tree_built_directly_from_its_entries(data):
    # Direct construction sorts and validates; the growth operations
    # rely on producing cid order by construction.  Fed the same entries
    # in any order, direct construction must arrive at the grown tree --
    # the reference any cheaper growth path has to meet.
    tree = grow_random_tree(data)
    entries = [
        (cid, TreeEntry(tree.parent(cid), tree.cache(cid)))
        for cid in tree.cids()
    ]
    shuffled = data.draw(st.permutations(entries), label="order")
    direct = CacheTree(dict(shuffled))
    assert list(tree.cids()) == sorted(cid for cid, _ in entries)
    assert list(tree.cids()) == list(direct.cids())
    assert list(tree.items()) == list(direct.items())
    assert list(tree.parent_items()) == list(direct.parent_items())
    assert tree.fingerprint() == direct.fingerprint()
    assert tree == direct
    assert tree.fresh_cid() == direct.fresh_cid()
