"""Bounded, policy-driven management of the hash-consing caches.

PR 5 bought its model-checking speedup with three process-wide strong
tables -- the tree intern table, the cache intern table, and per-tree
memo scratch -- whose only bound was a blunt wipe-everything epoch
flush.  This module is the single knob for all of them, shaped after
the pydl8.5 tree-search cache (``CacheTrie``/``CacheHash`` with a
``maxcachesize`` bound and ``WipeType All/Subnodes`` wipe strategies;
its third type, ``Recall``, has no workload here):

* ``wipe="all"`` -- clear the table at the cap (the old behaviour, now
  with provenance trimming so flushed ancestors actually die).
* ``wipe="subnodes"`` -- keep the trees still reachable from the
  model checker's working set (its in-RAM frontier window); evict the
  rest.

The policy is process-global because the tables are: the model-checking
engines call :func:`bounded` around a run, and worker processes inherit
the configuration through ``fork``.  The other process-global memory
policy lives here for the same reason: :func:`gc_paused`, which turns
CPython's cycle collector off for the span of a run whose heap cannot
contain a cycle.

Eviction is always *sound*: these tables memoize pure functions of
immutable values (canonical instances, fingerprints, derived tables,
safety verdicts), so the worst case of any wipe is recomputation, never
a wrong answer.  Visited-state deduplication lives in
:class:`repro.mc.fpset.FingerprintSet`, which is never evicted -- see
DESIGN.md §16 for the full argument.

Typical use::

    from repro.core import cachemgr

    with cachemgr.bounded(tree_cap=1 << 16, wipe="subnodes"):
        result = explorer.run()
    print(cachemgr.stats())
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, Optional

from . import cache as _cache
from . import tree as _tree

#: The wipe strategies understood by :func:`configure`.
WIPE_ALL = "all"
WIPE_SUBNODES = "subnodes"

WIPE_POLICIES = (WIPE_ALL, WIPE_SUBNODES)


@dataclass(frozen=True)
class CachePolicy:
    """A complete cache-manager configuration.

    ``tree_cap``/``cache_cap`` bound the two intern tables;``wipe``
    selects the tree-table strategy (the cache table always wipes all:
    its members are tiny and its flushes must atomically invalidate the
    id-keyed entry-fingerprint memo anyway).
    """

    tree_cap: int = _tree._DEFAULT_INTERN_CAP
    cache_cap: int = _cache._DEFAULT_CACHE_CAP
    wipe: str = WIPE_ALL

    def __post_init__(self) -> None:
        if self.wipe not in WIPE_POLICIES:
            raise ValueError(f"unknown wipe policy {self.wipe!r}")
        if self.tree_cap < 1 or self.cache_cap < 1:
            raise ValueError("cache caps must be >= 1")


DEFAULT_POLICY = CachePolicy()


def configure(policy: CachePolicy) -> None:
    """Apply ``policy`` process-wide (takes effect at the next flush)."""
    _tree.configure_tree_cache(cap=policy.tree_cap, wipe=policy.wipe)
    _cache.configure_cache_intern(cap=policy.cache_cap)


def current_policy() -> CachePolicy:
    """The policy currently in force."""
    tree_cap, wipe = _tree.tree_cache_policy()
    return CachePolicy(tree_cap=tree_cap, cache_cap=_cache.cache_intern_policy(), wipe=wipe)


@contextmanager
def bounded(
    tree_cap: Optional[int] = None,
    cache_cap: Optional[int] = None,
    wipe: str = WIPE_ALL,
) -> Iterator[CachePolicy]:
    """Run a block under a bounded cache policy, then restore.

    ``None`` caps keep their current values.  A table already over its
    new cap is flushed on entry (an intern *hit* never triggers a flush,
    so a warm process whose run only re-derives known trees would
    otherwise stay over the cap throughout); on exit the previous policy
    is restored and the tables are flushed down to it, so a bounded run
    cannot leave an oversized table behind either.
    """
    previous = current_policy()
    policy = CachePolicy(
        tree_cap=previous.tree_cap if tree_cap is None else tree_cap,
        cache_cap=previous.cache_cap if cache_cap is None else cache_cap,
        wipe=wipe,
    )
    _enforce(policy)
    try:
        yield policy
    finally:
        _enforce(previous)


@contextmanager
def gc_paused() -> Iterator[None]:
    """Run a block with automatic cycle collection off, then hand it back.

    For the spans that build a large heap which cannot contain a cycle:
    a model-checking search and a nemesis run allocate immutable values
    that point only at older values, so reference counting frees
    everything the collector would, and every collection is a walk over
    the whole heap that finds nothing (a third of an exhaustive Fig. 4
    run).  ``tests/mc/test_gc_pause.py`` and
    ``tests/runtime/test_gc_pause.py`` pin that property; DESIGN.md §17
    has the argument.

    The collector is re-enabled on exit only if it was enabled on entry,
    so pauses nest, and a caller who already runs with it off keeps it
    off.  Usable as a decorator (each call gets its own pause).
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def _enforce(policy: CachePolicy) -> None:
    """Apply ``policy`` and flush whichever table already exceeds it."""
    configure(policy)
    if len(_tree._INTERNED_TREES) > policy.tree_cap:
        _tree.flush_interned_trees()
    if len(_cache._INTERNED) > policy.cache_cap:
        _cache.flush_interned_caches()


def flush() -> None:
    """Force both intern tables through a policy flush now."""
    _tree.flush_interned_trees()
    _cache.flush_interned_caches()


def stats() -> Dict[str, Dict[str, int]]:
    """Flush/occupancy counters for both tables (plus the fp memo)."""
    return {
        "tree_interns": _tree.tree_cache_stats(),
        "cache_interns": _cache.cache_intern_stats(),
    }


def export_metrics(registry) -> None:
    """Publish the counters to a :class:`repro.obs.MetricsRegistry`.

    Gauges mirror the current occupancy; counters are set to the
    monotonic totals (call once at the end of a run, or periodically --
    gauge ``set`` is idempotent).
    """
    snapshot = stats()
    for table, values in snapshot.items():
        for key, value in values.items():
            registry.gauge(f"cachemgr.{table}.{key}").set(value)
