"""Auxiliary definitions of the Adore semantics (Fig. 9 / Fig. 25-26).

These are direct transcriptions of the paper's helper functions.  They
operate on cids rather than caches so callers can navigate the tree from
the results.
"""

from __future__ import annotations

from typing import Iterable, Optional

from .cache import Cache, Cid, Config, NodeId, cache_gt, is_ccache, is_committable, is_rcache
from .config import ReconfigScheme
from .state import AdoreState
from .tree import ROOT_CID, CacheTree


def most_recent(tree: CacheTree, group: Iterable[NodeId]) -> Cid:
    """``mostRecent(tr, Q)``: the greatest cache *observed* by any node of ``Q``.

    This is the snapshot a new leader adopts: because election and commit
    quorums overlap, some member of ``Q`` has observed (acknowledged) the
    latest commit, so the adopted branch contains every committed method.
    Observation is log coverage (see ``Cache.observers``): election votes
    bump timestamps but do not transfer logs.  Falls back to the root
    (observed by all of conf₀) when no member of ``Q`` has observed
    anything else.

    Implemented against the tree's per-node greatest-observed table
    (:meth:`CacheTree.node_tables`): the max over ``Q`` of per-node
    maxima equals the max over all caches observed by ``Q``, and the
    table keys are ``(order_key, cid)`` so the larger-cid tie-break of
    :meth:`CacheTree.max_cache` is preserved exactly.
    """
    observed = tree.node_tables()[0]
    best = None
    for nid in group:
        entry = observed.get(nid)
        if entry is not None and (best is None or entry > best):
            best = entry
    return ROOT_CID if best is None else best[1]


def active_cache(tree: CacheTree, nid: NodeId) -> Optional[Cid]:
    """``activeCache(tr, nid)``: the greatest cache *called* by ``nid``.

    ``None`` when ``nid`` has never successfully called an operation --
    in that case it has no active branch and ``invoke``/``reconfig``/
    ``push`` are no-ops for it.
    """
    entry = tree.node_tables()[1].get(nid)
    return None if entry is None else entry[1]


def last_commit(tree: CacheTree, nid: NodeId) -> Cid:
    """``lastCommit(tr, nid)``: the greatest CCache supported by ``nid``.

    Falls back to the root CCache; a node outside conf₀ that has never
    acknowledged a commit simply gets the root (time 0), which never
    blocks anything.
    """
    entry = tree.node_tables()[2].get(nid)
    return ROOT_CID if entry is None else entry[1]


def valid_supp(
    nid: NodeId, group: Iterable[NodeId], cache: Cache, scheme: ReconfigScheme
) -> bool:
    """``validSupp(nid, Q, C) ≜ nid ∈ Q ∧ Q ⊆ mbrs(conf(C))`` (Fig. 9)."""
    group_set = frozenset(group)
    return nid in group_set and group_set <= scheme.members(cache.conf)


def can_commit(tree: CacheTree, cid: Cid, nid: NodeId, state: AdoreState) -> bool:
    """``canCommit(C, nid, st)`` (Fig. 9): may ``nid`` commit cache ``cid``?

    The cache must be an MCache or RCache called by ``nid``, ``nid`` must
    still be the leader at the cache's timestamp, and the cache must be
    more recent than the last commit ``nid`` has supported (committing it
    cannot conflict with an earlier commit).
    """
    cache = tree.cache(cid)
    if not is_committable(cache) or cache.caller != nid:
        return False
    if not state.is_leader(nid, cache.time):
        return False
    return cache_gt(cache, tree.cache(last_commit(tree, nid)))


def r2_holds(tree: CacheTree, cid: Cid) -> bool:
    """R2 (Fig. 7/25): no uncommitted RCache on the active branch.

    Every RCache that is an ancestor-or-self of ``cid`` must have a
    CCache strictly below it and at-or-above ``cid``.  Counting ``cid``
    itself ensures a leader whose active cache *is* an uncommitted
    RCache cannot start a second reconfiguration.

    Pure in the (immutable) tree and ``cid``, so the result is memoized
    on the interned tree -- the reconfig enumerator re-asks this for the
    same active cache once per candidate configuration.
    """
    memo = tree.memo()
    key = ("r2", cid)
    held = memo.get(key)
    if held is None:
        held = True
        branch = tree.branch(cid)
        for index, anc in enumerate(branch):
            if not is_rcache(tree.cache(anc)):
                continue
            below = branch[index + 1 :]
            if not any(is_ccache(tree.cache(c)) for c in below):
                held = False
                break
        memo[key] = held
    return held


def r3_holds(tree: CacheTree, cid: Cid) -> bool:
    """R3 (Fig. 7/25): a committed entry with the current timestamp.

    There must be a CCache at-or-above ``cid`` on its branch whose
    timestamp equals ``cid``'s.  This is Ongaro's fix to the single-node
    membership bug: it forces the leader to commit a command of its own
    term before reconfiguring, which implicitly finalizes or invalidates
    any reconfiguration still pending from an earlier term.

    Memoized on the interned tree like :func:`r2_holds`.
    """
    memo = tree.memo()
    key = ("r3", cid)
    held = memo.get(key)
    if held is None:
        target = tree.cache(cid)
        held = any(
            is_ccache(tree.cache(anc)) and tree.cache(anc).time == target.time
            for anc in tree.ancestors(cid, include_self=True)
        )
        memo[key] = held
    return held


def can_reconf(
    tree: CacheTree, cid: Cid, new_conf: Config, scheme: ReconfigScheme
) -> bool:
    """``canReconf(tr, C, ncf) ≜ R1⁺(conf(C), ncf) ∧ R2(tr, C) ∧ R3(tr, C)``."""
    return (
        scheme.r1_plus(tree.cache(cid).conf, new_conf)
        and r2_holds(tree, cid)
        and r3_holds(tree, cid)
    )
