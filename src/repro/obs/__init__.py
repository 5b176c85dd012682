"""Observability: tracing, metrics, and replayable violation bundles.

* :mod:`repro.obs.trace` -- a :class:`Tracer` recording typed events
  (``send``/``receive``/``drop``/``duplicate``/``crash``/``restart``/
  ``election_start``/``leader_elected``/``commit``/``reconfig``/
  ``client_invoke``/``client_response``, plus the live cluster's
  ``log_advance``/``compaction``/``shard_ownership``), each stamped
  with a time and a per-node Lamport clock, in a bounded ring buffer
  that counts what it evicts.  The default everywhere is the no-op
  :data:`NULL_TRACER`.
* :mod:`repro.obs.metrics` -- a :class:`MetricsRegistry` of counters,
  gauges, and reservoir-sampled histograms (p50/p95/p99) with a
  ``snapshot()`` API; disabled default :data:`NULL_METRICS`.
* :mod:`repro.obs.bundle` -- the *violation bundle*, the one on-disk
  artifact both runtime checkers write on a failure: a nemesis run's
  (config, verdicts, stats, metrics snapshot, event trace, client
  history) or the live monitor's (journaled events, verdict).
  :func:`load_bundle` reads either kind, :func:`replay` re-derives its
  verdict (a nemesis run is re-run from its seed; a monitor journal is
  re-folded through a fresh engine) and :func:`verdict_matches` checks
  it against the recorded one; ``examples/trace_view.py`` renders one.
"""

from .bundle import (
    BUNDLE_VERSION,
    Bundle,
    load_bundle,
    nemesis_config_from_dict,
    nemesis_config_to_dict,
    replay,
    verdict_matches,
    write_bundle,
    write_monitor_bundle,
)
from .metrics import (
    NULL_METRICS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullMetrics,
)
from .trace import (
    EVENT_KINDS,
    NULL_TRACER,
    NullTracer,
    TraceEvent,
    Tracer,
    events_by_kind,
)

__all__ = [
    "BUNDLE_VERSION",
    "Bundle",
    "Counter",
    "EVENT_KINDS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_METRICS",
    "NULL_TRACER",
    "NullMetrics",
    "NullTracer",
    "TraceEvent",
    "Tracer",
    "events_by_kind",
    "load_bundle",
    "nemesis_config_from_dict",
    "nemesis_config_to_dict",
    "replay",
    "verdict_matches",
    "write_bundle",
    "write_monitor_bundle",
]
