"""What is left of process-global memory policy, and the counters.

PR 5 bought its model-checking speedup with process-wide intern tables
-- the tree intern table, the cache intern table, and per-tree memo
scratch.  The tree table is weak: it holds only the trees something
else still holds, so a search's trees die with the search.  Its bound
has one knob, and the search owns it: ``Explorer.tree_cap`` is applied
by :func:`repro.mc.parallel.search` for its own span and counts live
trees; a flush at the bound evicts nothing and trims the provenance
that keeps otherwise dead parents alive.  The cache table is strong and
its bound is a constant.  DESIGN.md §16 has why.

This module keeps the pieces that are not a setting:

* :func:`gc_paused`, which turns CPython's cycle collector off for the
  span of a run whose heap cannot contain a cycle (DESIGN.md §17);
* :func:`flush` and :func:`stats` / :func:`export_metrics` over both
  intern tables.

Eviction is always *sound*: these tables memoize pure functions of
immutable values (canonical instances, fingerprints, derived tables,
safety verdicts), so the worst case of any flush is recomputation,
never a wrong answer.  Visited-state deduplication lives in
:class:`repro.mc.fpset.FingerprintSet`, which is never evicted.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from typing import Dict, Iterator

from . import cache as _cache
from . import tree as _tree


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


def flush() -> None:
    """Force both intern tables through a flush now."""
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
