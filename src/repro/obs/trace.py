"""Typed event tracing with per-node Lamport clocks.

The runtime-checking literature the chaos layer follows (Derecho's
runtime verification, the MongoDB logless-reconfig analysis) localizes
protocol bugs from *recorded event traces*, not from a final assertion
message.  :class:`Tracer` is that recorder for the simulated cluster: a
bounded ring buffer of :class:`TraceEvent` values, each stamped with

* the simulated wall clock (``t_ms``, the discrete-event simulator's
  ``now``), and
* a per-node Lamport clock.  Local events tick the node's counter;
  message receipt joins the sender's send-stamp (``max(local, sent)+1``),
  so ``lamport`` ordering is consistent with the happens-before
  relation even when the simulated clock ties or fault-injected
  reordering delivers messages out of send order.

The event vocabulary is closed (:data:`EVENT_KINDS`): ``send`` /
``receive`` / ``drop`` / ``duplicate`` for the transport, ``crash`` /
``restart`` for fail-stop faults, ``partition_start`` for nemesis
partitions, ``election_start`` / ``leader_elected`` / ``commit`` /
``reconfig`` for the protocol, and ``client_invoke`` /
``client_response`` for the workload.  Anything else is a programming
error and raises immediately.

**Disabled-path contract:** the default tracer everywhere is
:data:`NULL_TRACER`, whose recording methods are empty and return 0.
Instrumented hot paths guard on ``tracer.enabled`` so the disabled
cost is one attribute test and (at call sites that cannot guard) one
no-op call -- the overhead benchmark holds the instrumented-but-
disabled cluster within 5% of an uninstrumented baseline.  Tracing
never consumes simulator or fault-plan randomness and never schedules
simulator events, so enabling it cannot perturb a seeded run.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping

#: The closed vocabulary of event kinds a tracer will accept.
EVENT_KINDS = frozenset({
    "send",
    "receive",
    "drop",
    "duplicate",
    "crash",
    "restart",
    "partition_start",
    "election_start",
    "leader_elected",
    "commit",
    "reconfig",
    "client_invoke",
    "client_response",
    # Live-cluster kinds (repro.net): a node's log/commit advance (the
    # monitor's input) and a leader folding its committed prefix.
    "log_advance",
    "compaction",
    # Sharding (repro.shard): a node adopting a routing-table version
    # (the freeze/grant/publish pushes of a shard migration).
    "shard_ownership",
})

@dataclass(frozen=True)
class TraceEvent:
    """One recorded event.

    ``node`` is the node the event happened *at* (the sender for
    transport events); ``lamport`` is that node's Lamport stamp;
    ``data`` carries kind-specific detail (peer, message type, term,
    commit length, ...), restricted to JSON-representable values.
    """

    kind: str
    t_ms: float
    node: object
    lamport: int
    data: Mapping = field(default_factory=dict)

    def to_dict(self) -> Dict:
        out = {
            "kind": self.kind,
            "t_ms": round(self.t_ms, 6),
            "node": self.node,
            "lamport": self.lamport,
        }
        out.update(self.data)
        return out

    @classmethod
    def from_dict(cls, raw: Mapping) -> "TraceEvent":
        data = {
            k: v for k, v in raw.items()
            if k not in ("kind", "t_ms", "node", "lamport")
        }
        return cls(
            kind=raw["kind"],
            t_ms=raw["t_ms"],
            node=raw["node"],
            lamport=raw["lamport"],
            data=data,
        )

    def describe(self) -> str:
        detail = " ".join(f"{k}={v}" for k, v in self.data.items())
        return (
            f"{self.t_ms:10.3f}ms  S{self.node}  L{self.lamport:<5d} "
            f"{self.kind:<15s} {detail}"
        )


class Tracer:
    """A bounded recorder of typed cluster events.

    ``capacity`` bounds the ring buffer; when it overflows, the oldest
    events are evicted.  Eviction is *counted* (``dropped``), recorded
    in a violation bundle's manifest, and mirrored into
    ``metrics`` (counter ``trace.dropped``) when one is supplied --
    a silent ring buffer cannot back an online monitor.

    ``sink``, when given, is called synchronously with every recorded
    :class:`TraceEvent` and *owns* it: a tracer with a sink buffers
    nothing (its ring stays empty and ``dropped`` stays 0).  It is how
    a node streams its trace to :mod:`repro.monitor`; the node's export
    queue is the one copy of what it records.  A sink must never raise.
    """

    #: Instrumented hot paths guard on this instead of an isinstance
    #: check; the null tracer overrides it to False.
    enabled: bool = True

    def __init__(self, capacity: int = 65_536, sink=None, metrics=None) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self.events: deque = deque(maxlen=capacity)
        #: Per-node Lamport clocks.
        self.clocks: Dict[object, int] = {}
        #: Events recorded over the tracer's lifetime (>= len(events)).
        self.recorded = 0
        #: Events evicted from the ring buffer (recorded - buffered,
        #: for a tracer without a sink).
        self.dropped = 0
        self._sink = sink
        self._m_dropped = (
            metrics.counter("trace.dropped")
            if metrics is not None and metrics.enabled else None
        )

    # -- recording -----------------------------------------------------

    def _tick(self, node) -> int:
        stamp = self.clocks.get(node, 0) + 1
        self.clocks[node] = stamp
        return stamp

    def _append(self, event: TraceEvent) -> None:
        self.recorded += 1
        if self._sink is not None:
            self._sink(event)
            return
        events = self.events
        if len(events) == self.capacity:
            self.dropped += 1
            if self._m_dropped is not None:
                self._m_dropped.inc()
        events.append(event)

    def record(self, kind: str, t_ms: float, node, **data) -> int:
        """Record one local event at ``node``; returns its Lamport stamp."""
        if kind not in EVENT_KINDS:
            raise ValueError(f"unknown event kind {kind!r}")
        stamp = self._tick(node)
        self._append(TraceEvent(kind, t_ms, node, stamp, data))
        return stamp

    def send(self, t_ms: float, frm, to, msg: str, **data) -> int:
        """Record a ``send``; the returned stamp travels with the message
        and must be handed to :meth:`receive` at delivery."""
        return self.record("send", t_ms, frm, to=to, msg=msg, **data)

    def receive(self, t_ms: float, to, frm, msg: str, sent_lamport: int,
                **data) -> int:
        """Record a ``receive``, joining the sender's clock:
        ``L(to) = max(L(to), sent) + 1``."""
        stamp = max(self.clocks.get(to, 0), sent_lamport) + 1
        self.clocks[to] = stamp
        self._append(TraceEvent(
            "receive", t_ms, to, stamp,
            dict(frm=frm, msg=msg, sent_lamport=sent_lamport, **data),
        ))
        return stamp

    def snapshot(self) -> List[TraceEvent]:
        """The buffered events, oldest first."""
        return list(self.events)


def events_by_kind(
    events: Iterable[TraceEvent], *kinds: str
) -> List[TraceEvent]:
    """The sub-trace of the given kinds, preserving order."""
    wanted = frozenset(kinds)
    return [event for event in events if event.kind in wanted]


class NullTracer(Tracer):
    """The no-op tracer: records nothing, costs (almost) nothing.

    Every recording method is an empty body returning stamp 0, so call
    sites that cannot cheaply guard on ``enabled`` still pay only a
    method dispatch.  There is exactly one shared instance
    (:data:`NULL_TRACER`); constructing more is harmless but pointless.
    """

    enabled = False

    def __init__(self) -> None:
        super().__init__(capacity=1)

    def record(self, kind: str, t_ms: float, node, **data) -> int:
        return 0

    def send(self, t_ms: float, frm, to, msg: str, **data) -> int:
        return 0

    def receive(self, t_ms: float, to, frm, msg: str, sent_lamport: int,
                **data) -> int:
        return 0


#: The shared disabled tracer every instrumented component defaults to.
NULL_TRACER = NullTracer()
