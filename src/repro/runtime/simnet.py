"""A discrete-event network simulator.

This is the reproduction's substitute for the paper's EC2 deployment
(Section 7, Fig. 16): the extracted-OCaml-plus-real-network stack
becomes the *same specification handlers* scheduled over a simulated
network with realistic latency behaviour.  The simulator provides:

* a virtual clock and event heap (:class:`Simulator`);
* a latency model (:class:`LatencyModel`) with a base one-way delay,
  multiplicative jitter, occasional spikes (the paper observes sporadic
  latency spikes on EC2 and notes reconfiguration delays stay within
  their range), and a per-log-entry transfer cost that makes shipping a
  long log to a freshly added replica visibly slower -- the effect that
  makes "increasing the number of nodes" the more expensive direction
  in Fig. 16.

All randomness is seeded, so runs are reproducible; the eight-run
aggregation of the figure uses eight different seeds.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple


@dataclass
class LatencyModel:
    """One-way message latency in (simulated) milliseconds."""

    #: Base one-way latency between two nodes.
    base_ms: float = 0.4
    #: Multiplicative jitter: each message's latency is scaled by a
    #: lognormal-ish factor in [1, 1 + jitter] on average.
    jitter: float = 0.5
    #: Probability of a sporadic spike (network hiccup, GC pause, ...).
    spike_prob: float = 0.01
    #: Spike magnitude: multiplies the base latency.
    spike_scale: float = 25.0
    #: Additional cost per log entry carried by a message (models
    #: serialized log transfer; dominant when catching up a new node).
    per_entry_ms: float = 0.02
    #: Sender-side serialization cost per entry: a broadcast batch that
    #: includes a full-log catch-up message delays the *whole batch* by
    #: this much per shipped entry (the leader serializes before
    #: handing to the transport).  This is what makes the request
    #: during which a fresh node joins visibly slower -- the Fig. 16
    #: "increasing the number of nodes" spike.
    tx_per_entry_ms: float = 0.002

    def sample(self, rng: random.Random, payload_entries: int = 0) -> float:
        """One latency draw for a message carrying ``payload_entries``."""
        latency = self.base_ms * (1.0 + rng.random() * self.jitter)
        latency += payload_entries * self.per_entry_ms
        if rng.random() < self.spike_prob:
            latency += self.base_ms * self.spike_scale * rng.random()
        return latency


@dataclass
class NetworkConditions:
    """Stochastic link faults, applied independently to every message.

    All probabilities are evaluated against the :class:`FaultPlan`'s
    own RNG (not the simulator's latency RNG), so turning faults on or
    off never perturbs the latency draws of an otherwise identical run.
    """

    #: Probability that a message is silently lost.
    drop_prob: float = 0.0
    #: Probability that a message is delivered twice (the duplicate
    #: takes an independent latency draw, so the copies may reorder).
    duplicate_prob: float = 0.0
    #: Probability that a message is held back by an extra random delay
    #: in [0, reorder_window_ms), letting later messages overtake it.
    reorder_prob: float = 0.0
    #: Width of the reordering window.
    reorder_window_ms: float = 5.0
    #: Per-link drop-probability overrides, keyed by ``(frm, to)``;
    #: links not listed fall back to :attr:`drop_prob`.
    link_drop_prob: Dict[Tuple[int, int], float] = field(default_factory=dict)


@dataclass
class Partition:
    """A network partition between two node groups, active during
    ``[start_ms, heal_ms)``.

    ``symmetric`` partitions block both directions; an asymmetric one
    only blocks ``a → b`` (e.g. a leader whose outbound heartbeats
    still arrive but whose acks are lost).
    """

    start_ms: float
    heal_ms: float
    a: frozenset
    b: frozenset
    symmetric: bool = True

    def blocks(self, frm, to, now: float) -> bool:
        if not (self.start_ms <= now < self.heal_ms):
            return False
        if frm in self.a and to in self.b:
            return True
        return self.symmetric and frm in self.b and to in self.a


@dataclass
class CrashEvent:
    """A scheduled fail-stop crash, with an optional restart."""

    nid: int
    at_ms: float
    restart_ms: Optional[float] = None


@dataclass
class FaultPlan:
    """A deterministic, seeded schedule of network and node faults.

    The plan owns its own :class:`random.Random`; every stochastic
    decision (drop, duplicate, reorder) consumes from it in simulator
    event order, so a run is fully reproducible from
    ``(simulator seed, fault seed)``.  Counters record what was
    actually injected, for reporting.
    """

    seed: int = 0
    conditions: NetworkConditions = field(default_factory=NetworkConditions)
    partitions: List[Partition] = field(default_factory=list)
    crashes: List[CrashEvent] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.rng = random.Random(self.seed)
        self.dropped = 0
        self.duplicated = 0
        self.reordered = 0
        self.partition_blocked = 0

    # -- schedule construction -----------------------------------------

    def add_partition(
        self,
        start_ms: float,
        heal_ms: float,
        a,
        b,
        symmetric: bool = True,
    ) -> Partition:
        partition = Partition(
            start_ms=start_ms,
            heal_ms=heal_ms,
            a=frozenset(a),
            b=frozenset(b),
            symmetric=symmetric,
        )
        self.partitions.append(partition)
        return partition

    def add_crash(
        self, nid, at_ms: float, restart_ms: Optional[float] = None
    ) -> CrashEvent:
        event = CrashEvent(nid=nid, at_ms=at_ms, restart_ms=restart_ms)
        self.crashes.append(event)
        return event

    # -- per-message decisions (called at delivery-scheduling time) ----

    def partitioned(self, frm, to, now: float) -> bool:
        return any(p.blocks(frm, to, now) for p in self.partitions)

    def should_drop(self, frm, to, now: float) -> bool:
        """Partition check plus the stochastic per-link drop."""
        if self.partitioned(frm, to, now):
            self.partition_blocked += 1
            return True
        prob = self.conditions.link_drop_prob.get(
            (frm, to), self.conditions.drop_prob
        )
        if prob > 0 and self.rng.random() < prob:
            self.dropped += 1
            return True
        return False

    def should_duplicate(self) -> bool:
        prob = self.conditions.duplicate_prob
        if prob > 0 and self.rng.random() < prob:
            self.duplicated += 1
            return True
        return False

    def reorder_delay(self) -> float:
        """Extra delay for this copy; 0.0 when not reordered."""
        prob = self.conditions.reorder_prob
        if prob > 0 and self.rng.random() < prob:
            self.reordered += 1
            return self.rng.random() * self.conditions.reorder_window_ms
        return 0.0

    def describe(self) -> str:
        return (
            f"faults(seed={self.seed}: dropped={self.dropped}, "
            f"duplicated={self.duplicated}, reordered={self.reordered}, "
            f"partition_blocked={self.partition_blocked}, "
            f"partitions={len(self.partitions)}, crashes={len(self.crashes)})"
        )


class Simulator:
    """A minimal discrete-event loop with a virtual millisecond clock.

    The heap holds plain ``(time, seq, action)`` tuples, ordered in C:
    ``seq`` is unique, so ties on time go to the earlier ``schedule``
    and ``action`` is never compared.
    """

    def __init__(self, seed: Optional[int] = None) -> None:
        self.now: float = 0.0
        self.rng = random.Random(seed)
        self._heap: List[Tuple[float, int, Callable[[], None]]] = []
        self._seq = 0
        self.events_processed = 0

    def schedule(self, delay_ms: float, action: Callable[[], None]) -> None:
        """Run ``action`` ``delay_ms`` simulated milliseconds from now."""
        if delay_ms < 0:
            raise ValueError(f"negative delay {delay_ms}")
        self._seq += 1
        heapq.heappush(self._heap, (self.now + delay_ms, self._seq, action))

    def step(self) -> bool:
        """Process one event; returns False when the heap is empty."""
        if not self._heap:
            return False
        self.now, _, action = heapq.heappop(self._heap)
        action()
        self.events_processed += 1
        return True

    def run_until(
        self, condition: Callable[[], bool], max_events: int = 1_000_000
    ) -> bool:
        """Advance until ``condition`` holds; False if events ran out or
        the safety valve tripped."""
        for _ in range(max_events):
            if condition():
                return True
            if not self.step():
                return condition()
        raise RuntimeError("simulation exceeded max_events")

    def drain(self, max_events: int = 1_000_000) -> None:
        """Process all remaining events."""
        for _ in range(max_events):
            if not self.step():
                return
        raise RuntimeError("simulation exceeded max_events")

    def pending(self) -> int:
        return len(self._heap)
