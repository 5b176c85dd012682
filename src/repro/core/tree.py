"""The Adore cache tree (Fig. 6 / Fig. 24 of the paper).

``CacheTree ≜ N_cid → N_cid * Cache``: a partial map from cache ids to the
id of the parent plus the cache itself.  The root occupies cid 0.  The two
growth operations are

* :meth:`CacheTree.add_leaf` -- add a new child under a parent (used by
  ``pull``, ``invoke`` and ``reconfig``), and
* :meth:`CacheTree.insert_btw` -- insert a new cache *between* a parent
  and its current children (used by ``push`` to place a CCache below the
  committed cache while keeping its partial-failure children viable).

Trees are immutable: both operations return a new tree.  This makes
states hashable, which the explicit-state model checker
(:mod:`repro.mc`) relies on, and makes scenario scripts trivially
re-playable.  They are also hash-consed: a growth step that yields a
tree equal to a live one returns that instance.  The table holds weak
references, so a tree lives exactly as long as something else holds it.

The paper keeps the tree append-only -- committed methods are not moved
to a separate persistent log as in the ADO model; instead a cache is
*implicitly* committed when a CCache is among its descendants.
"""

from __future__ import annotations

import weakref
from _weakref import _remove_dead_weakref
from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, Iterable, Iterator, List, Optional, Tuple

from .cache import (
    _ENTRY_FPS,
    Cache,
    Cid,
    NodeId,
    intern_cache,
    is_ccache,
    is_committable,
    is_ecache,
    order_key,
)
from .errors import MalformedTree, UnknownCache
from .fingerprint import FP_MASK, fp128

ROOT_CID: Cid = 0


@dataclass(frozen=True)
class TreeEntry:
    """One slot of the cache tree: parent pointer plus the cache."""

    parent: Optional[Cid]
    cache: Cache


def _entry_fp(cid: Cid, parent: Optional[Cid], cache: Cache) -> int:
    """The multiset term one ``(cid, parent, cache)`` slot contributes.

    A tree's fingerprint is the sum of its entry terms mod 2**128
    (see :mod:`repro.core.fingerprint`), which is what lets
    :meth:`CacheTree.add_leaf` / :meth:`CacheTree.insert_btw` derive the
    successor's fingerprint from the parent's in O(changed entries).

    Memoized per ``(cid, parent, interned cache)``: the same few slots
    recur across millions of candidate successors.  The cache is
    interned first, so ``id(cache)`` is a stable memo key for as long
    as the memo lives: it sits beside the cache intern table and is
    cleared by the same flush.
    """
    cache = intern_cache(cache)
    key = (cid, parent, id(cache))
    term = _ENTRY_FPS.get(key)
    if term is None:
        term = _ENTRY_FPS[key] = fp128(
            b"%d|%d|%s"
            % (cid, -1 if parent is None else parent, cache.fingerprint().to_bytes(16, "little"))
        )
    return term


#: Per-process hash-consing table: tree fingerprint -> a weak reference
#: to the one shared instance, so the table holds exactly the trees that
#: something else still holds (a frontier entry, a successor's
#: ``"prov"``, a violation, a checker's current tree).  Weak is enough
#: for the model checker: in breadth-first order a duplicate tree is
#: generated only while its first occurrence waits in the frontier, so
#: that occurrence is alive and is found (a run materialises exactly as
#: many trees as a strong table did).  A dead tree's slot is deleted by
#: its reference's callback.  A search bounds the table for its own span
#: (``Explorer.tree_cap``, :func:`set_tree_cap`): at the bound, an epoch
#: flush (:func:`flush_interned_trees`) trims what keeps otherwise dead
#: trees alive.
_INTERNED_TREES: Dict[int, weakref.KeyedRef] = {}

#: The tree table's bound outside any search, and ``Explorer.tree_cap``'s
#: default.
DEFAULT_TREE_CAP = 1 << 19

#: Current cap (set by :func:`set_tree_cap`).
_INTERN_CAP = DEFAULT_TREE_CAP

#: Effective flush trigger.  Normally ``_INTERN_CAP``; raised after a
#: flush that leaves more live trees than the cap (a frontier wider than
#: the bound), which would otherwise re-trigger a flush on every insert.
_FLUSH_AT = _INTERN_CAP

#: Flush counters, surfaced via repro.obs metrics by
#: :func:`repro.core.cachemgr.export_metrics`.
_TREE_STATS: Dict[str, int] = {"flushes": 0, "prov_trimmed": 0}


def _unintern(ref: weakref.KeyedRef, _table=_INTERNED_TREES) -> None:
    # The callback of a dead tree's reference: delete its slot, but only
    # while the slot still holds a dead reference (one C-level step, the
    # helper ``weakref.WeakValueDictionary`` uses).
    _remove_dead_weakref(_table, ref.key)


def _interned(fp: int) -> Optional["CacheTree"]:
    ref = _INTERNED_TREES.get(fp)
    return ref() if ref is not None else None


def flush_interned_trees() -> None:
    """Drop the ``"prov"`` memo entry of every interned tree.

    A flush evicts nothing: every member of the table is alive, held
    by someone else, and removing it would free nothing.  What keeps
    otherwise dead trees alive is provenance -- each tuple holds a
    strong reference to the parent tree -- so trimming it frees every
    parent that only a successor's provenance still held (provenance
    only exists to give :meth:`CacheTree.derive` *one* predecessor to
    extend tables from; a tree without it builds them from scratch).
    """
    global _FLUSH_AT
    trimmed = 0
    # A trimmed parent dies at once and its callback deletes its slot,
    # so iterate over a copy.
    for ref in list(_INTERNED_TREES.values()):
        tree = ref()
        memo = tree._memo if tree is not None else None
        if memo is not None and memo.pop("prov", None) is not None:
            trimmed += 1
    _TREE_STATS["flushes"] += 1
    _TREE_STATS["prov_trimmed"] += trimmed
    # The live trees may legitimately exceed the cap (a frontier wider
    # than the table bound); back off the trigger so the next flush
    # happens after a fresh quarter-epoch of growth, not on every insert.
    _FLUSH_AT = max(_INTERN_CAP, len(_INTERNED_TREES) + max(_INTERN_CAP // 4, 1))


def _intern_tree(fp: int, tree: "CacheTree") -> "CacheTree":
    # Callers looked ``fp`` up and missed.
    if len(_INTERNED_TREES) >= _FLUSH_AT:
        flush_interned_trees()
    _INTERNED_TREES[fp] = weakref.KeyedRef(tree, _unintern, fp)
    return tree


def set_tree_cap(cap: int) -> int:
    """Make ``cap`` the tree intern table's bound; returns the previous
    one (the search loop's enter/restore pair).

    A table already over ``cap`` is flushed at once: an intern *hit*
    never flushes, so a run in a warm process that only re-derives
    known trees would otherwise stay over the cap throughout.
    """
    global _INTERN_CAP, _FLUSH_AT
    previous = _INTERN_CAP
    _INTERN_CAP = _FLUSH_AT = cap
    if len(_INTERNED_TREES) > cap:
        flush_interned_trees()
    return previous


def tree_cache_stats() -> Dict[str, int]:
    """Flush counters plus current table sizes (``occupancy``: live
    trees)."""
    stats = dict(_TREE_STATS)
    stats["occupancy"] = len(_INTERNED_TREES)
    stats["entry_fp_occupancy"] = len(_ENTRY_FPS)
    return stats


class CacheTree:
    """An immutable cache tree.

    Construct the initial tree with :meth:`initial`, then grow it with
    :meth:`add_leaf` / :meth:`insert_btw`.  All query methods treat the
    tree as the paper does: a set of caches with ancestor structure.
    """

    __slots__ = ("_entries", "_fp", "_items", "_memo", "__weakref__")

    def __init__(self, entries: Dict[Cid, TreeEntry], _fp: Optional[int] = None) -> None:
        # The path for trees built directly from a dict of entries
        # (initial, unpickling, canonicalisation, tests): copy, put in
        # ascending-cid order, pair.  The growth operations never come
        # here -- they assemble the successor from this tree's own parts
        # (_shared).
        held = dict(entries)
        cids = list(held)
        if any(a >= b for a, b in zip(cids, cids[1:])):
            held = dict(sorted(held.items()))
        self._entries: Dict[Cid, TreeEntry] = held
        self._items: Tuple[Tuple[Cid, Cache], ...] = tuple(
            (cid, entry.cache) for cid, entry in held.items()
        )
        self._fp: Optional[int] = _fp
        self._memo: Optional[Dict] = None

    def derive(
        self,
        key,
        extend: Callable[["CacheTree", object, str, Cid, Cid], object],
        build: Callable[["CacheTree"], object],
    ):
        """The memoized per-tree table ``key`` -- the one derivation path.

        Returns the memoized value; else, when this tree still knows
        the growth step that made it (``"prov"``) and its predecessor
        holds the same table, ``extend(self, base, op, new_cid,
        parent_cid)`` grows the predecessor's by the one new node; else
        (no provenance left after an epoch flush or a trimming checker,
        an unpickled or directly constructed tree, a predecessor that
        never built the table, or ``extend`` answering ``None``)
        ``build(self)`` computes it from the entries alone.

        An extension *shares* with the predecessor whatever the new
        node leaves unchanged, so every derived value is immutable, or
        at least never mutated once stored: tuples rather than lists,
        and a dict is copied before the first write.  ``extend`` reads
        only what the predecessor already holds and never asks it to
        derive anything, so the work stays O(new node) and the call
        depth flat however long the provenance chain is.
        """
        memo = self._memo
        if memo is None:
            memo = self._memo = {}
        value = memo.get(key)
        if value is None:
            prov = memo.get("prov")
            if prov is not None:
                held = prov[0]._memo
                base = held.get(key) if held else None
                if base is not None:
                    value = extend(self, base, prov[1], prov[2], prov[3])
            if value is None:
                value = build(self)
            memo[key] = value
        return value

    def _child_map(self) -> Dict[Cid, Tuple[Cid, ...]]:
        # Built on first use: push-free expansion paths never ask.  It
        # lives in the memo, where a successor can find and extend it.
        return self.derive("children", _extend_child_map, _build_child_map)

    @classmethod
    def _shared(
        cls,
        entries: Dict[Cid, TreeEntry],
        items: Tuple[Tuple[Cid, Cache], ...],
        fp: int,
    ) -> "CacheTree":
        """The interned successor tree made of ``entries`` and ``items``.

        Only the growth operations call this, after their intern lookup
        on ``fp`` missed.  They hand over a private copy of their own
        entries dict -- already in ascending-cid order, the new cid
        (the greatest) inserted last -- and their own item tuple plus
        the one new pair, so nothing is copied, ordered or paired a
        second time: the successor *shares* every ``(cid, cache)`` pair
        but the last with its predecessor.  Structurally-equal trees
        are reference-equal within a process for as long as one of
        them is alive, so the per-tree derived tables
        (:meth:`node_tables`, the ``r2``/``r3`` memos in
        :mod:`repro.core.aux`) are computed once per *distinct* tree
        instead of once per path reaching it.
        """
        tree = cls.__new__(cls)
        tree._entries = entries
        tree._items = items
        tree._fp = fp
        tree._memo = None
        return _intern_tree(fp, tree)

    def fingerprint(self) -> int:
        """The 128-bit structural fingerprint of this tree.

        Order-insensitive multiset combine of the entry terms, so it
        never depends on dict insertion order; maintained incrementally
        by the growth operations and computed from scratch only for
        directly constructed trees.
        """
        fp = self._fp
        if fp is None:
            fp = 0
            for cid, entry in self._entries.items():
                fp = (fp + _entry_fp(cid, entry.parent, entry.cache)) & FP_MASK
            self._fp = fp
        return fp

    def memo(self) -> Dict:
        """This tree's scratch memo-dict for derived, pure-function data.

        Shared by every holder of the interned instance; values must
        depend only on the tree itself.
        """
        memo = self._memo
        if memo is None:
            memo = self._memo = {}
        return memo

    def release_predecessor(self, carry: bool = False) -> None:
        """Forget the growth step that made this tree (``"prov"`` pins
        the predecessor), for a consumer that will ask this tree to
        derive nothing more from it: the search, once the tree's
        successors are all generated and checked, and a checker that
        grows one tree forever and never goes back.  With the intern
        table weak, the predecessor then dies with its last holder.

        With ``carry``, first extend the child map the predecessor
        holds -- and, with it, its kind partition -- so that a later
        reader finds both here instead of building them from the
        entries: one C-level dict copy now against one pass over every
        node then.  A predecessor without a child map hands on nothing.
        """
        memo = self._memo
        prov = memo.get("prov") if memo is not None else None
        if prov is None:
            return
        if carry:
            held = prov[0]._memo
            if held and "children" in held:
                self._child_map()
                if "kinds" in held:
                    self._kind_lists()
        del memo["prov"]

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def initial(cls, root_cache: Cache) -> "CacheTree":
        """A tree holding only ``root_cache`` at :data:`ROOT_CID`."""
        return cls({ROOT_CID: TreeEntry(None, root_cache)})

    def fresh_cid(self) -> Cid:
        """The next unused cache id (``max + 1``, Fig. 26)."""
        return self._items[-1][0] + 1 if self._items else ROOT_CID

    def add_leaf(self, parent: Cid, cache: Cache) -> Tuple["CacheTree", Cid]:
        """Add ``cache`` as a new leaf child of ``parent``.

        Returns the new tree and the cid assigned to the new cache.
        """
        self._require(parent)
        cache = intern_cache(cache)
        cid = self.fresh_cid()
        fp = (self.fingerprint() + _entry_fp(cid, parent, cache)) & FP_MASK
        # Fingerprint-first: when the successor tree is already interned
        # (most candidate successors the model checker generates are),
        # return it without materializing the new entries dict at all.
        tree = _interned(fp)
        if tree is None:
            entries = dict(self._entries)
            entries[cid] = TreeEntry(parent, cache)
            tree = CacheTree._shared(entries, self._items + ((cid, cache),), fp)
            # Record how this tree was derived: derive() extends the
            # predecessor's tables by this one node, and any one valid
            # derivation does (every table is a pure function of the
            # tree, so which one is irrelevant).
            tree.memo().setdefault("prov", (self, "leaf", cid, parent))
        return tree, cid

    def insert_btw(self, parent: Cid, cache: Cache) -> Tuple["CacheTree", Cid]:
        """Insert ``cache`` between ``parent`` and its current children.

        Every existing child of ``parent`` is re-parented onto the new
        cache (Fig. 26, ``insertBtw``).  Used by ``push``: children of a
        committed cache represent partial failures that must remain
        candidates for later commits, so they are shifted below the new
        CCache rather than discarded.
        """
        self._require(parent)
        cache = intern_cache(cache)
        cid = self.fresh_cid()
        fp = self.fingerprint()
        children = self._child_map()
        for child in children[parent]:
            child_cache = self._entries[child].cache
            fp = (
                fp - _entry_fp(child, parent, child_cache) + _entry_fp(child, cid, child_cache)
            ) & FP_MASK
        fp = (fp + _entry_fp(cid, parent, cache)) & FP_MASK
        tree = _interned(fp)
        if tree is None:
            entries = dict(self._entries)
            for child in children[parent]:
                entries[child] = TreeEntry(cid, entries[child].cache)
            entries[cid] = TreeEntry(parent, cache)
            # Re-parenting changes no cache and keeps every existing
            # dict slot, so the pairs and their order carry over here
            # exactly as they do for a new leaf.
            tree = CacheTree._shared(entries, self._items + ((cid, cache),), fp)
            tree.memo().setdefault("prov", (self, "btw", cid, parent))
        return tree, cid

    # ------------------------------------------------------------------
    # Basic queries
    # ------------------------------------------------------------------

    def _require(self, cid: Cid) -> TreeEntry:
        try:
            return self._entries[cid]
        except KeyError:
            raise UnknownCache(f"cache id {cid} not in tree") from None

    def __contains__(self, cid: Cid) -> bool:
        return cid in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def cids(self) -> Iterator[Cid]:
        """All cache ids, in insertion (= cid) order."""
        return (cid for cid, _ in self._items)

    def cache(self, cid: Cid) -> Cache:
        """The cache stored at ``cid``."""
        try:
            return self._entries[cid].cache
        except KeyError:
            raise UnknownCache(f"cache id {cid} not in tree") from None

    def parent(self, cid: Cid) -> Optional[Cid]:
        """The parent cid of ``cid`` (``None`` for the root)."""
        return self._require(cid).parent

    def children(self, cid: Cid) -> Tuple[Cid, ...]:
        """The direct children of ``cid``, in cid order."""
        self._require(cid)
        return self._child_map()[cid]

    def items(self) -> Iterator[Tuple[Cid, Cache]]:
        """``(cid, cache)`` pairs in cid order."""
        return iter(self._items)

    def parent_items(self) -> Iterator[Tuple[Cid, Optional[Cid], Cache]]:
        """``(cid, parent, cache)`` triples in cid order.

        The per-node safety checkers walk every node together with its
        parent; this saves them a lookup round-trip per node.
        """
        entries = self._entries
        return ((cid, entries[cid].parent, cache) for cid, cache in self._items)

    def leaves(self) -> List[Cid]:
        """Cids with no children."""
        children = self._child_map()
        return [cid for cid, _ in self._items if not children[cid]]

    # ------------------------------------------------------------------
    # Ancestry
    # ------------------------------------------------------------------

    def _branch_of(self, cid: Cid) -> Tuple[Cid, ...]:
        """The root-to-``cid`` path as a memoized tuple.

        Every ancestry query (:meth:`ancestors`, :meth:`branch`,
        :meth:`is_ancestor`, :meth:`path_between`) reduces to this
        table; the safety checkers issue them by the million against the
        same interned tree.  Only the path asked for is memoized -- one
        tuple, not one per link of the chain, which on a log-shaped
        tree of depth d was d tuples and d²/2 ints per query.  The walk
        stops at the nearest ancestor whose path the table holds
        (paths the predecessor tree computed included, see
        :func:`_inherit_branches`).  Parent chains are walked exactly as
        the un-memoized code did (a dangling parent still raises
        ``KeyError``; the walk is bounded so a cyclic parent chain
        cannot hang it).
        """
        table = self.derive("branches", _inherit_branches, _no_branches)
        got = table.get(cid)
        if got is None:
            chain: List[Cid] = []
            current: Optional[Cid] = cid
            bound = len(self._entries) + 1
            while current is not None and current not in table and bound > 0:
                chain.append(current)
                current = self._entries[current].parent
                bound -= 1
            base: Tuple[Cid, ...] = table.get(current, ()) if current is not None else ()
            chain.reverse()
            got = table[cid] = base + tuple(chain)
        return got

    def ancestors(self, cid: Cid, include_self: bool = False) -> List[Cid]:
        """Ancestors of ``cid`` from its parent up to the root.

        With ``include_self`` the list starts at ``cid`` itself.
        """
        self._require(cid)
        branch = self._branch_of(cid)
        if not include_self:
            branch = branch[:-1]
        return list(reversed(branch))

    def branch(self, cid: Cid) -> List[Cid]:
        """The root-to-``cid`` path, inclusive on both ends."""
        self._require(cid)
        return list(self._branch_of(cid))

    def is_ancestor(self, anc: Cid, desc: Cid, strict: bool = True) -> bool:
        """True iff ``anc`` is an ancestor of ``desc``.

        ``strict=False`` additionally accepts ``anc == desc``.
        """
        self._require(anc)
        if anc == desc:
            return not strict
        return anc in self._branch_of(desc)

    def same_branch(self, a: Cid, b: Cid) -> bool:
        """True iff one of ``a``/``b`` is an ancestor-or-self of the other."""
        return self.is_ancestor(a, b, strict=False) or self.is_ancestor(b, a, strict=False)

    def nearest_common_ancestor(self, a: Cid, b: Cid) -> Cid:
        """The nearest common ancestor of ``a`` and ``b`` (possibly one of them)."""
        self._require(a)
        self._require(b)
        # Root-to-node paths share exactly their common prefix; the NCA
        # is the last element of it.
        nca: Optional[Cid] = None
        for x, y in zip(self._branch_of(a), self._branch_of(b)):
            if x != y:
                break
            nca = x
        if nca is None:
            raise MalformedTree(f"no common ancestor of {a} and {b}")
        return nca

    def path_between(self, a: Cid, b: Cid) -> List[Cid]:
        """The path from ``a`` to ``b`` through their nearest common
        ancestor, *excluding* both endpoints (used by ``rdist``).
        """
        nca = self.nearest_common_ancestor(a, b)
        up_a = self.ancestors(a, include_self=True)
        up_b = self.ancestors(b, include_self=True)
        leg_a = up_a[: up_a.index(nca) + 1]
        leg_b = up_b[: up_b.index(nca) + 1]
        # a .. nca plus reversed nca .. b, dropping the duplicate nca.
        path = leg_a + list(reversed(leg_b[:-1]))
        return [cid for cid in path if cid not in (a, b)]

    def descendants(self, cid: Cid, include_self: bool = False) -> List[Cid]:
        """All descendants of ``cid`` (pre-order; memoized per tree)."""
        self._require(cid)
        memo = self.memo().setdefault("descendants", {})
        got = memo.get(cid)
        if got is None:
            out: List[Cid] = []
            children = self._child_map()
            stack = list(reversed(children[cid]))
            while stack:
                current = stack.pop()
                out.append(current)
                stack.extend(reversed(children[current]))
            got = memo[cid] = tuple(out)
        return [cid, *got] if include_self else list(got)

    def subtree_cids(self, cid: Cid) -> FrozenSet[Cid]:
        """The set of cids rooted at ``cid`` (inclusive)."""
        return frozenset(self.descendants(cid, include_self=True))

    # ------------------------------------------------------------------
    # Selection
    # ------------------------------------------------------------------

    def select(self, predicate: Callable[[Cache], bool]) -> List[Cid]:
        """Cids whose caches satisfy ``predicate``, in cid order."""
        return [cid for cid, cache in self.items() if predicate(cache)]

    def max_cache(self, cids: Iterable[Cid]) -> Optional[Cid]:
        """The cid whose cache is greatest under the order ``>``.

        Ties on the order key are broken by the larger cid (the cache
        added later), which makes scenario replays deterministic.
        Returns ``None`` for an empty selection.
        """
        best: Optional[Cid] = None
        for cid in cids:
            cache = self.cache(cid)
            if best is None:
                best = cid
                continue
            best_cache = self.cache(best)
            if (order_key(cache), cid) > (order_key(best_cache), best):
                best = cid
        return best

    def node_tables(
        self,
    ) -> Tuple[
        Dict[NodeId, Tuple[Tuple, Cid]],
        Dict[NodeId, Tuple[Tuple, Cid]],
        Dict[NodeId, Tuple[Tuple, Cid]],
    ]:
        """Per-node greatest-cache tables, computed once per tree.

        Returns ``(observed, active, committed)``: for each node id, the
        ``((order_key, cid))`` of the greatest cache the node observes /
        the greatest non-root cache it called / the greatest CCache it
        supports.  One pass over the tree replaces the per-query scans
        that dominated :func:`repro.core.aux.most_recent`,
        :func:`~repro.core.aux.active_cache` and
        :func:`~repro.core.aux.last_commit` -- the successor generator
        issues dozens of those queries per state against the same tree.
        Max keys include the cid, preserving :meth:`max_cache`'s
        larger-cid tie-break exactly.  A table the tree's newest cache
        does not beat anywhere is the predecessor tree's own dict, so
        callers must not mutate what they get.
        """
        return self.derive("node_tables", _extend_node_tables, _build_node_tables)

    def _kind_lists(self) -> Dict[str, Tuple[Cid, ...]]:
        """Cids partitioned by cache kind, memoized per tree.

        The safety checkers select by kind several times per tree; this
        replaces repeated full scans with a single partition.
        """
        return self.derive("kinds", _extend_kind_lists, _build_kind_lists)

    def kind_cids(self, kind: str) -> Tuple[Cid, ...]:
        """The cids of ``kind`` (``"E"``/``"M"``/``"R"``/``"C"``) in cid
        order, without the defensive copy of :meth:`ccaches` and
        friends.  A tuple, and the *same* tuple as the predecessor
        tree's for every kind but the new node's; the safety checkers
        iterate these once per distinct tree."""
        return self._kind_lists().get(kind, ())

    def ccaches(self) -> List[Cid]:
        """All commit caches, in cid order."""
        return list(self._kind_lists().get("C", ()))

    def rcaches(self) -> List[Cid]:
        """All reconfiguration caches, in cid order."""
        return list(self._kind_lists().get("R", ()))

    def ecaches(self) -> List[Cid]:
        """All election caches, in cid order."""
        return list(self._kind_lists().get("E", ()))

    # ------------------------------------------------------------------
    # Well-formedness (the paper's 2.3k lines of generic tree invariants)
    # ------------------------------------------------------------------

    def well_formedness_violations(self) -> List[str]:
        """Check the structural invariants of a legal cache tree.

        Returns a list of human-readable violation descriptions (empty
        when well formed).  Mirrors the generic invariants the Coq
        development proves about the tree data structure: single root at
        cid 0, parents present, acyclicity, ECaches have version 0, and
        every CCache sits directly below a committable cache with the
        same timestamp and version.
        """
        problems: List[str] = []
        entries = self._entries
        if ROOT_CID not in entries:
            return [f"root cid {ROOT_CID} missing"]
        if entries[ROOT_CID].parent is not None:
            problems.append("root has a parent")
        for cid, _ in self._items:
            if cid == ROOT_CID:
                continue
            parent = entries[cid].parent
            if parent is None:
                problems.append(f"cache {cid} is a second root")
            elif parent not in entries:
                problems.append(f"cache {cid} has unknown parent {parent}")
        # Acyclicity: walk each parent chain with a step bound.  Chains
        # that terminate (at the root, or at a dangling parent reported
        # above) are remembered so shared suffixes are walked once.
        bound = len(self._entries)
        terminating: set = set()
        for cid in self._entries:
            current: Optional[Cid] = cid
            chain: List[Cid] = []
            for _ in range(bound + 1):
                if current is None or current in terminating:
                    terminating.update(chain)
                    break
                entry = self._entries.get(current)
                if entry is None:
                    terminating.update(chain)
                    break
                chain.append(current)
                current = entry.parent
            else:
                problems.append(f"cycle reachable from cache {cid}")
        for cid, cache in self._items:
            entry = entries[cid]
            if is_ecache(cache) and cache.vrsn != 0:
                problems.append(f"ECache {cid} has nonzero version {cache.vrsn}")
            if is_ccache(cache) and entry.parent is not None:
                parent_cache = entries[entry.parent].cache
                if not is_committable(parent_cache):
                    problems.append(
                        f"CCache {cid} parent is a {parent_cache.kind}Cache, "
                        "expected MCache or RCache"
                    )
                elif (parent_cache.time, parent_cache.vrsn) != (cache.time, cache.vrsn):
                    problems.append(
                        f"CCache {cid} time/vrsn {(cache.time, cache.vrsn)} differ "
                        f"from parent's {(parent_cache.time, parent_cache.vrsn)}"
                    )
        return problems

    def is_well_formed(self) -> bool:
        """True iff :meth:`well_formedness_violations` finds nothing."""
        return not self.well_formedness_violations()

    # ------------------------------------------------------------------
    # Equality / hashing / rendering
    # ------------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, CacheTree):
            return NotImplemented
        if self.fingerprint() != other.fingerprint():
            return False
        return self._entries == other._entries

    def __hash__(self) -> int:
        return hash(self.fingerprint())

    def __reduce__(self):
        # Trees carry caches (weak-referenceable, memoized) and derived
        # tables; ship only the entries and re-intern on the other side
        # so unpickled trees rejoin that process's hash-consing table.
        # The fingerprint rides along so the reader can resolve an
        # intern hit without reconstructing anything (a checkpointed
        # or pool-shipped tree is often still interned).
        return (_restore_tree, (self._entries, self.fingerprint()))

    def __repr__(self) -> str:
        return f"CacheTree({len(self._entries)} caches)"

    def render(self) -> str:
        """ASCII rendering of the tree, one cache per line."""
        lines: List[str] = []
        entries = self._entries
        children = self._child_map()
        # Pre-order on an explicit stack: the tree check_safety grows
        # from a long run is as deep as the log is long.
        stack: List[Tuple[Cid, int]] = [(ROOT_CID, 0)]
        while stack:
            cid, depth = stack.pop()
            prefix = "  " * depth + ("- " if depth else "")
            lines.append(f"{prefix}[{cid}] {entries[cid].cache.describe()}")
            stack.extend((child, depth + 1) for child in reversed(children[cid]))
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Derived tables: from-scratch builders and one-node extensions
# (the ``build`` / ``extend`` pairs of :meth:`CacheTree.derive`)
# ----------------------------------------------------------------------

def _build_child_map(tree: CacheTree) -> Dict[Cid, Tuple[Cid, ...]]:
    entries = tree._entries
    children: Dict[Cid, Tuple[Cid, ...]] = {cid: () for cid in entries}
    for cid, entry in entries.items():
        # Tolerate dangling parents here so deliberately malformed
        # trees can still be constructed and then *diagnosed* by
        # well_formedness_violations().
        if entry.parent is not None and entry.parent in children:
            children[entry.parent] = children[entry.parent] + (cid,)
    return children


def _extend_child_map(
    tree: CacheTree,
    base: Dict[Cid, Tuple[Cid, ...]],
    op: str,
    new_cid: Cid,
    parent_cid: Cid,
) -> Dict[Cid, Tuple[Cid, ...]]:
    # One dict copy; every child tuple but the parent's is the
    # predecessor's own.
    children = dict(base)
    if op == "leaf":
        children[parent_cid] = base[parent_cid] + (new_cid,)
        children[new_cid] = ()
    else:  # "btw": the new cache adopts the parent's children
        children[new_cid] = base[parent_cid]
        children[parent_cid] = (new_cid,)
    return children


def _no_branches(tree: CacheTree) -> Dict[Cid, Tuple[Cid, ...]]:
    return {}


def _inherit_branches(
    tree: CacheTree,
    base: Dict[Cid, Tuple[Cid, ...]],
    op: str,
    new_cid: Cid,
    parent_cid: Cid,
) -> Dict[Cid, Tuple[Cid, ...]]:
    """The predecessor's root paths that are still this tree's.

    A new leaf changes no existing path; a cache inserted below
    ``parent_cid`` lengthens exactly the paths that run *through*
    ``parent_cid``, which are left for :meth:`CacheTree._branch_of` to
    walk again if anyone asks.  The tuples are shared, not copied.
    """
    if op == "leaf":
        return dict(base)
    return {
        cid: path
        for cid, path in base.items()
        if cid == parent_cid or parent_cid not in path
    }


_NodeTable = Dict[NodeId, Tuple[Tuple, Cid]]


def _build_node_tables(tree: CacheTree) -> Tuple[_NodeTable, _NodeTable, _NodeTable]:
    observed: _NodeTable = {}
    active: _NodeTable = {}
    committed: _NodeTable = {}
    for cid, cache in tree._items:
        okey = (order_key(cache), cid)
        for nid in cache.observers:
            cur = observed.get(nid)
            if cur is None or okey > cur:
                observed[nid] = okey
        if cid != ROOT_CID:
            nid = cache.caller
            cur = active.get(nid)
            if cur is None or okey > cur:
                active[nid] = okey
        if is_ccache(cache):
            for nid in cache.supporters:
                cur = committed.get(nid)
                if cur is None or okey > cur:
                    committed[nid] = okey
    return observed, active, committed


def _raised(table: _NodeTable, nids: Iterable[NodeId], okey: Tuple[Tuple, Cid]) -> _NodeTable:
    """``table`` with each of ``nids`` raised to ``okey`` where that
    beats what it holds -- ``table`` itself when none does."""
    grown = table
    for nid in nids:
        cur = grown.get(nid)
        if cur is None or okey > cur:
            if grown is table:
                grown = dict(table)
            grown[nid] = okey
    return grown


def _extend_node_tables(
    tree: CacheTree,
    base: Tuple[_NodeTable, _NodeTable, _NodeTable],
    op: str,
    new_cid: Cid,
    parent_cid: Cid,
) -> Tuple[_NodeTable, _NodeTable, _NodeTable]:
    # Neither growth operation touches an existing cache, and the new
    # one has the greatest cid, so it is the last the from-scratch pass
    # would have folded in: folding it into the finished tables gives
    # the same maxima, tie-breaks and key order.
    cache = tree._entries[new_cid].cache
    okey = (order_key(cache), new_cid)
    observed, active, committed = base
    grown = (
        _raised(observed, cache.observers, okey),
        _raised(active, (cache.caller,), okey),
        _raised(committed, cache.supporters, okey) if is_ccache(cache) else committed,
    )
    if grown[0] is observed and grown[1] is active and grown[2] is committed:
        return base
    return grown


def _build_kind_lists(tree: CacheTree) -> Dict[str, Tuple[Cid, ...]]:
    kinds: Dict[str, List[Cid]] = {}
    for cid, cache in tree._items:
        kinds.setdefault(cache.kind, []).append(cid)
    return {kind: tuple(cids) for kind, cids in kinds.items()}


def _extend_kind_lists(
    tree: CacheTree,
    base: Dict[str, Tuple[Cid, ...]],
    op: str,
    new_cid: Cid,
    parent_cid: Cid,
) -> Dict[str, Tuple[Cid, ...]]:
    # The new cid is the greatest, so appending keeps cid order.
    kind = tree._entries[new_cid].cache.kind
    kinds = dict(base)
    kinds[kind] = base.get(kind, ()) + (new_cid,)
    return kinds


def _restore_tree(entries: Dict[Cid, TreeEntry], fp: int) -> CacheTree:
    """Unpickle hook: rebuild and re-intern a tree in this process.

    ``fp`` (the pickled tree's own fingerprint -- a pure function of
    ``entries``) lets an intern hit return without building a tree at
    all.
    """
    tree = _interned(fp)
    if tree is not None:
        return tree
    return _intern_tree(fp, CacheTree(entries, _fp=fp))
