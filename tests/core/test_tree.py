"""Unit tests for the cache tree (Fig. 6: addLeaf, insertBtw, ancestry)."""

import pytest

from repro.core import CacheTree, UnknownCache
from repro.core.tree import ROOT_CID

from ..helpers import build_tree, cc, ec, mc, rc, root


@pytest.fixture
def simple_tree():
    """root -> E1 -> M1 -> M2, plus a fork E2 under root."""
    return build_tree({
        1: (0, ec(1, 1)),
        2: (1, mc(1, 1, 1)),
        3: (2, mc(1, 1, 2)),
        4: (0, ec(2, 2)),
    })


def test_initial_tree_has_only_root():
    tree = CacheTree.initial(root())
    assert len(tree) == 1
    assert tree.parent(ROOT_CID) is None
    assert tree.is_well_formed()


def test_fresh_cid_is_max_plus_one(simple_tree):
    assert simple_tree.fresh_cid() == 5


def test_add_leaf_returns_new_tree(simple_tree):
    new_tree, cid = simple_tree.add_leaf(3, mc(1, 1, 3))
    assert cid == 5
    assert len(new_tree) == len(simple_tree) + 1
    # Original tree untouched (immutability).
    assert 5 not in simple_tree
    assert new_tree.parent(5) == 3


def test_add_leaf_unknown_parent_raises(simple_tree):
    with pytest.raises(UnknownCache):
        simple_tree.add_leaf(99, mc(1, 1, 3))


def test_insert_btw_reparents_children(simple_tree):
    # Insert a CCache between M1 (cid 2) and its child M2 (cid 3).
    new_tree, cid = simple_tree.insert_btw(2, cc(1, 1, 1))
    assert new_tree.parent(cid) == 2
    assert new_tree.parent(3) == cid
    assert new_tree.children(2) == (cid,)
    assert set(new_tree.children(cid)) == {3}


def test_insert_btw_on_leaf_acts_as_add_leaf(simple_tree):
    new_tree, cid = simple_tree.insert_btw(3, cc(1, 1, 2))
    assert new_tree.parent(cid) == 3
    assert new_tree.children(cid) == ()


def test_insert_btw_moves_all_children():
    tree = build_tree({
        1: (0, ec(1, 1)),
        2: (1, mc(1, 1, 1)),
        3: (1, mc(2, 1, 1)),
    })
    new_tree, cid = tree.insert_btw(1, mc(1, 1, 9))
    assert set(new_tree.children(cid)) == {2, 3}
    assert new_tree.children(1) == (cid,)


def test_ancestors_and_branch(simple_tree):
    assert simple_tree.ancestors(3) == [2, 1, 0]
    assert simple_tree.ancestors(3, include_self=True) == [3, 2, 1, 0]
    assert simple_tree.branch(3) == [0, 1, 2, 3]


def test_is_ancestor_strict_and_nonstrict(simple_tree):
    assert simple_tree.is_ancestor(0, 3)
    assert simple_tree.is_ancestor(1, 3)
    assert not simple_tree.is_ancestor(3, 1)
    assert not simple_tree.is_ancestor(3, 3)
    assert simple_tree.is_ancestor(3, 3, strict=False)
    assert not simple_tree.is_ancestor(4, 3)


def test_same_branch(simple_tree):
    assert simple_tree.same_branch(1, 3)
    assert simple_tree.same_branch(3, 1)
    assert simple_tree.same_branch(2, 2)
    assert not simple_tree.same_branch(3, 4)


def test_nearest_common_ancestor(simple_tree):
    assert simple_tree.nearest_common_ancestor(3, 4) == 0
    assert simple_tree.nearest_common_ancestor(2, 3) == 2
    assert simple_tree.nearest_common_ancestor(3, 3) == 3


def test_path_between_excludes_endpoints(simple_tree):
    # 3 -> 2 -> 1 -> 0 -> 4; endpoints 3 and 4 excluded.
    assert simple_tree.path_between(3, 4) == [2, 1, 0]
    # Ancestor relation: path from 1 to 3 is just the middle cache.
    assert simple_tree.path_between(1, 3) == [2]
    assert simple_tree.path_between(2, 3) == []


def test_descendants(simple_tree):
    assert simple_tree.descendants(1) == [2, 3]
    assert simple_tree.descendants(1, include_self=True) == [1, 2, 3]
    assert set(simple_tree.descendants(0)) == {1, 2, 3, 4}


def test_leaves(simple_tree):
    assert simple_tree.leaves() == [3, 4]


def test_max_cache_uses_order_then_cid(simple_tree):
    assert simple_tree.max_cache([1, 2, 3]) == 3  # largest (time, vrsn)
    assert simple_tree.max_cache([3, 4]) == 4      # time 2 beats time 1
    assert simple_tree.max_cache([]) is None


def test_selectors(simple_tree):
    assert simple_tree.ecaches() == [1, 4]
    assert simple_tree.ccaches() == [0]
    assert simple_tree.rcaches() == []


def test_items_in_cid_order(simple_tree):
    cids = [cid for cid, _ in simple_tree.items()]
    assert cids == sorted(cids)


def test_well_formed_simple(simple_tree):
    assert simple_tree.is_well_formed()


def test_wf_detects_missing_parent():
    from repro.core import TreeEntry

    tree = CacheTree({
        0: TreeEntry(None, root()),
        5: TreeEntry(7, mc(1, 1, 1)),
    })
    problems = tree.well_formedness_violations()
    assert any("unknown parent" in p for p in problems)


def test_wf_detects_second_root():
    from repro.core import TreeEntry

    tree = CacheTree({
        0: TreeEntry(None, root()),
        1: TreeEntry(None, ec(1, 1)),
    })
    problems = tree.well_formedness_violations()
    assert any("second root" in p for p in problems)


def test_wf_detects_nonzero_ecache_version():
    bad = ec(1, 1)
    object.__setattr__(bad, "vrsn", 3)
    tree = build_tree({1: (0, bad)})
    problems = tree.well_formedness_violations()
    assert any("nonzero version" in p for p in problems)


def test_wf_detects_ccache_under_wrong_parent():
    tree = build_tree({
        1: (0, ec(1, 1)),
        2: (1, cc(1, 1, 0)),  # CCache directly under an ECache
    })
    problems = tree.well_formedness_violations()
    assert any("expected MCache or RCache" in p for p in problems)


def test_wf_detects_ccache_time_mismatch():
    tree = build_tree({
        1: (0, ec(1, 1)),
        2: (1, mc(1, 1, 1)),
        3: (2, cc(1, 2, 5)),  # wrong time/vrsn
    })
    problems = tree.well_formedness_violations()
    assert any("differ" in p for p in problems)


def test_tree_equality_and_hash(simple_tree):
    clone = build_tree({
        1: (0, ec(1, 1)),
        2: (1, mc(1, 1, 1)),
        3: (2, mc(1, 1, 2)),
        4: (0, ec(2, 2)),
    })
    assert simple_tree == clone
    assert hash(simple_tree) == hash(clone)
    bigger, _ = simple_tree.add_leaf(3, mc(1, 1, 3))
    assert bigger != simple_tree


def test_render_mentions_every_cache(simple_tree):
    text = simple_tree.render()
    for cid in simple_tree.cids():
        assert f"[{cid}]" in text


def test_render_of_a_log_deep_chain():
    # The tree check_safety grows from a long run is one chain as deep
    # as the log; the recursive walk hit RecursionError near 1,000.
    depth = 3_000
    tree = CacheTree.initial(root())
    tip = ROOT_CID
    for vrsn in range(1, depth + 1):
        tree, tip = tree.add_leaf(tip, mc(1, 1, vrsn))
    lines = tree.render().split("\n")
    assert len(lines) == depth + 1
    assert lines[0].startswith("[0] ")
    assert lines[-1].startswith("  " * depth + f"- [{tip}] ")


def test_contains_and_len(simple_tree):
    assert 3 in simple_tree
    assert 99 not in simple_tree
    assert len(simple_tree) == 5


def test_rcaches_selector():
    tree = build_tree({
        1: (0, ec(1, 1)),
        2: (1, rc(1, 1, 1, conf=frozenset({1, 2}))),
    })
    assert tree.rcaches() == [2]


# ---------------------------------------------------------------------------
# Bounded intern-table eviction (repro.core.cachemgr)


def test_flush_trims_provenance_of_all_table_members():
    """An epoch flush drops the ``"prov"`` memo entry from every live
    interned tree.

    Provenance tuples hold a strong reference to the parent tree, and
    the intern table only a weak one, so the provenance chain is all
    that keeps a live tree's ancestors alive: trimming it frees them.
    """
    import gc
    import weakref

    from repro.core.tree import flush_interned_trees, tree_cache_stats

    tree = CacheTree.initial(root())
    parent_cid = ROOT_CID
    ancestors = []
    for t in range(1, 30):
        tree, parent_cid = tree.add_leaf(parent_cid, mc(1, t, t))
        ancestors.append(weakref.ref(tree))
    tip = tree
    del tree
    ancestors, tip_ref = ancestors[:-1], ancestors[-1]
    assert tip_ref() is tip

    before = tree_cache_stats()["prov_trimmed"]
    flush_interned_trees()
    gc.collect()

    assert tree_cache_stats()["prov_trimmed"] > before
    assert "prov" not in (tip._memo or {})
    # With provenance trimmed, nothing references the ancestor chain.
    leaked = [ref for ref in ancestors if ref() is not None]
    assert not leaked, f"{len(leaked)} ancestors still pinned"


def test_successors_reestablish_provenance_after_flush():
    from repro.core.tree import flush_interned_trees

    tree = CacheTree.initial(root())
    tree, cid = tree.add_leaf(ROOT_CID, mc(1, 1, 1))
    flush_interned_trees()
    assert "prov" not in (tree._memo or {})
    child, _ = tree.add_leaf(cid, mc(1, 2, 2))
    assert (child._memo or {}).get("prov") is not None
