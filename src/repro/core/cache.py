"""Cache variants of the Adore model (Fig. 6 / Fig. 24 of the paper).

A *cache* is one node of the Adore cache tree.  There are four variants:

* :class:`ECache` -- records a leader election (paper: *ECache*).
* :class:`MCache` -- records a method invocation (paper: *MCache*).
* :class:`RCache` -- records a reconfiguration command (paper: *RCache*).
* :class:`CCache` -- records a successful commit (paper: *CCache*).

Every cache carries the node id of the replica whose operation created it
(``caller``), a logical timestamp (``time`` -- a Paxos ballot / Raft term),
a version number (``vrsn`` -- reset to 0 by elections, incremented by each
method/reconfig call), and the configuration (``conf``) under which it was
created.  For an :class:`RCache` the ``conf`` field holds the *new*
configuration, which takes effect immediately (hot reconfiguration).

Configurations are opaque to this module: they are any hashable value
interpreted by a :class:`repro.core.config.ReconfigScheme`.

The strict order ``>`` on caches (Fig. 9/26) compares ``(time, vrsn)``
lexicographically, with the tie-break that a :class:`CCache` is greater
than a non-CCache with the same timestamp and version.  This is exposed
as :func:`cache_gt` and as the sort key :func:`order_key`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Hashable, Tuple, Union

from .fingerprint import canonical_encode, fp128

NodeId = int
Time = int
Vrsn = int
Cid = int
Method = Hashable
Config = Hashable


@dataclass(frozen=True)
class _CacheBase:
    """Fields shared by every cache variant."""

    caller: NodeId
    time: Time
    vrsn: Vrsn
    conf: Config

    #: Short tag used in renderings and reprs; overridden per variant.
    kind: str = field(default="?", init=False, repr=False)

    @property
    def supporters(self) -> FrozenSet[NodeId]:
        """The replicas that approved this cache.

        For method and reconfiguration caches the only supporter is the
        caller (Fig. 9); election and commit caches override this with the
        explicit voter set recorded by the oracle.
        """
        memo = self.__dict__.get("_callerset")
        if memo is None:
            memo = frozenset({self.caller})
            object.__setattr__(self, "_callerset", memo)
        return memo

    @property
    def observers(self) -> FrozenSet[NodeId]:
        """The replicas whose *local log* covers this cache.

        This is the relation ``mostRecent`` maximizes over.  It differs
        from :attr:`supporters` in exactly one case: voting in an
        election records a supporter of the ECache (used for timestamp
        bookkeeping and the quorum-intersection arguments) but does
        **not** hand the voter the leader's log -- in Raft a granted
        vote leaves the voter's log untouched.  Hence an ECache is
        observed only by its caller (the winner adopted the branch),
        while a commit's acknowledging quorum has adopted the leader's
        branch up to the committed cache.  This distinction is what
        makes the Fig. 4 counterexample expressible: a voter of a later
        election can still legitimately serve an older branch.
        """
        return self.supporters

    def fingerprint(self) -> int:
        """A 128-bit structural fingerprint of this cache.

        Computed once per instance (caches are immutable) from the
        canonical type-tagged encoding, so two caches fingerprint
        equally iff they compare equal -- regardless of how the
        ``conf``/``voters`` collections were built up.
        """
        fp = self.__dict__.get("_fp")
        if fp is None:
            fp = fp128(canonical_encode((self.kind,) + self._fp_fields()))
            object.__setattr__(self, "_fp", fp)
        return fp

    def _fp_fields(self) -> Tuple:
        return (self.caller, self.time, self.vrsn, self.conf)

    def describe(self) -> str:
        """A compact human-readable rendering, e.g. ``E(n1,t2,v0)``."""
        return f"{self.kind}(n{self.caller},t{self.time},v{self.vrsn})"


@dataclass(frozen=True)
class ECache(_CacheBase):
    """An election cache: ``ECache(nid, time, vrsn, supporters, conf)``.

    Created by a successful ``pull``.  ``vrsn`` is always 0 (version
    numbers reset at the start of each round).  ``voters`` records the
    replicas whose votes elected the caller.
    """

    voters: FrozenSet[NodeId] = frozenset()
    kind: str = field(default="E", init=False, repr=False)

    @property
    def supporters(self) -> FrozenSet[NodeId]:
        return self.voters

    @property
    def observers(self) -> FrozenSet[NodeId]:
        # Votes do not transfer log entries (see _CacheBase.observers),
        # but winning does: the elected leader's state *is* the adopted
        # branch this ECache extends (explicitly adopted in Paxos-style
        # elections; the candidate's own log in Raft-style ones).  The
        # caller is therefore an observer; the voters are not.  Note
        # {caller} ⊆ voters, so this stays a sub-relation of the
        # paper's supporter relation.
        memo = self.__dict__.get("_callerset")
        if memo is None:
            memo = frozenset({self.caller})
            object.__setattr__(self, "_callerset", memo)
        return memo

    def _fp_fields(self) -> Tuple:
        return (self.caller, self.time, self.vrsn, self.conf, self.voters)


@dataclass(frozen=True)
class MCache(_CacheBase):
    """A method cache: ``MCache(nid, time, vrsn, method, conf)``.

    Created by ``invoke``.  The method is an arbitrary identifier: actual
    method semantics have no bearing on protocol safety (Section 3), so
    the model treats them opaquely.  Applications interpret them (see
    :mod:`repro.runtime.kvstore`).
    """

    method: Method = None
    kind: str = field(default="M", init=False, repr=False)

    def _fp_fields(self) -> Tuple:
        return (self.caller, self.time, self.vrsn, self.conf, self.method)


@dataclass(frozen=True)
class RCache(_CacheBase):
    """A reconfiguration cache: ``RCache(nid, time, vrsn, conf)``.

    Created by ``reconfig``.  Behaves like an :class:`MCache` whose
    payload is a new configuration; ``conf`` holds the *new*
    configuration, which descendants inherit immediately.
    """

    kind: str = field(default="R", init=False, repr=False)


@dataclass(frozen=True)
class CCache(_CacheBase):
    """A commit cache: ``CCache(nid, time, vrsn, supporters, conf)``.

    Created by a successful ``push``; inserted *between* the committed
    cache and its children (``insertBtw``), which keeps the tree
    append-only.  ``voters`` records the quorum that acknowledged the
    commit.  A CCache copies its parent's ``time`` and ``vrsn`` but is
    ordered strictly greater than it.
    """

    voters: FrozenSet[NodeId] = frozenset()
    kind: str = field(default="C", init=False, repr=False)

    @property
    def supporters(self) -> FrozenSet[NodeId]:
        return self.voters

    @property
    def observers(self) -> FrozenSet[NodeId]:
        # Acknowledging a commit adopts the leader's branch up to here.
        return self.voters

    def _fp_fields(self) -> Tuple:
        return (self.caller, self.time, self.vrsn, self.conf, self.voters)


Cache = Union[ECache, MCache, RCache, CCache]

#: Per-process intern table: cache -> the canonical instance.  Keyed by
#: the caches themselves: dataclass equality is exact (no fingerprint
#: collision risk) and the generated tuple hash is far cheaper than a
#: structural fingerprint, which matters because the successor generator
#: constructs millions of short-lived candidate caches.  Caches are tiny
#: and the set of distinct ones a run creates is far smaller than its
#: set of distinct trees (253 at the full Fig. 4 budget), so a strong
#: table is fine.
_INTERNED: Dict["Cache", "Cache"] = {}

#: Flush threshold of the cache intern table: a constant, with no
#: setter.  No search comes near it; it stays because the long-running
#: monitor interns one cache per observed log entry.
_CACHE_CAP = 1 << 20

#: Tree-entry fingerprint terms, keyed on ``(cid, parent, id(cache))``
#: (filled by :func:`repro.core.tree._entry_fp`).  ``id(cache)`` is a
#: stable key only while the cache is interned, so
#: :func:`flush_interned_caches` clears this table in the same step --
#: before a recycled id can alias a dead cache's entry.
_ENTRY_FPS: Dict[Tuple, int] = {}

_CACHE_STATS: Dict[str, int] = {"flushes": 0, "evicted": 0}


def intern_cache(cache: "Cache") -> "Cache":
    """The canonical shared instance structurally equal to ``cache``.

    Hash-consing: every tree-growth operation routes its new cache
    through this table, so structurally-equal caches are reference-equal
    within a process, their fingerprints/order keys/observer sets are
    computed once (and only for caches that actually get interned), and
    successor trees share cache objects with their parents.
    """
    got = _INTERNED.get(cache)
    if got is not None:
        return got
    if len(_INTERNED) >= _CACHE_CAP:
        flush_interned_caches()
    _INTERNED[cache] = cache
    return cache


def flush_interned_caches() -> None:
    """Flush the cache intern table and the id-keyed entry-fingerprint
    memo with it.

    Safe at any point: live caches stay alive through the trees holding
    them and re-intern (as the same object) on next use; only the
    canonical-instance mapping and the memoized terms are dropped.
    """
    _CACHE_STATS["flushes"] += 1
    _CACHE_STATS["evicted"] += len(_INTERNED)
    _INTERNED.clear()
    _ENTRY_FPS.clear()


def cache_intern_stats() -> Dict[str, int]:
    """Flush counters plus the current table size."""
    stats = dict(_CACHE_STATS)
    stats["occupancy"] = len(_INTERNED)
    return stats


def is_ecache(cache: _CacheBase) -> bool:
    """True iff ``cache`` is an election cache."""
    return isinstance(cache, ECache)


def is_mcache(cache: _CacheBase) -> bool:
    """True iff ``cache`` is a method cache."""
    return isinstance(cache, MCache)


def is_rcache(cache: _CacheBase) -> bool:
    """True iff ``cache`` is a reconfiguration cache."""
    return isinstance(cache, RCache)


def is_ccache(cache: _CacheBase) -> bool:
    """True iff ``cache`` is a commit cache."""
    return isinstance(cache, CCache)


def is_committable(cache: _CacheBase) -> bool:
    """True iff ``cache`` may be the target of a ``push`` (M or R cache)."""
    return isinstance(cache, (MCache, RCache))


def order_key(cache: _CacheBase) -> Tuple[Time, Vrsn, int]:
    """Sort key realizing the strict order ``>`` of Fig. 9/26.

    ``(time, vrsn)`` lexicographic, then CCaches above non-CCaches at the
    same ``(time, vrsn)``.  Under the model's invariants (unique leader
    per timestamp, version numbers incremented per call) this key is
    unique for the caches the semantics ever compares.
    """
    key = cache.__dict__.get("_okey")
    if key is None:
        key = (cache.time, cache.vrsn, 1 if is_ccache(cache) else 0)
        object.__setattr__(cache, "_okey", key)
    return key


def cache_gt(left: _CacheBase, right: _CacheBase) -> bool:
    """The strict order ``left > right`` on caches (Fig. 9/26)."""
    return order_key(left) > order_key(right)


def cache_ge(left: _CacheBase, right: _CacheBase) -> bool:
    """Non-strict order: ``left > right`` or equal order keys."""
    return order_key(left) >= order_key(right)
