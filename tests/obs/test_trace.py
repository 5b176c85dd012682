"""The tracer: closed vocabulary, Lamport clocks, ring buffer, event dicts.

A trace's JSONL file is a bundle's ``trace.jsonl``; its round trip is
tested with the bundle (``tests/obs/test_bundle.py``)."""

import pytest

from repro.obs import (
    EVENT_KINDS,
    NULL_TRACER,
    NullTracer,
    TraceEvent,
    Tracer,
    events_by_kind,
)
from repro.obs.metrics import MetricsRegistry


class TestVocabulary:
    def test_unknown_kind_is_rejected(self):
        tracer = Tracer()
        with pytest.raises(ValueError, match="unknown event kind"):
            tracer.record("typo_event", 0.0, 1)

    def test_every_documented_kind_is_accepted(self):
        tracer = Tracer()
        for kind in sorted(EVENT_KINDS):
            tracer.record(kind, 0.0, 1)
        assert tracer.recorded == len(EVENT_KINDS)


class TestLamport:
    def test_local_events_tick_per_node(self):
        tracer = Tracer()
        assert tracer.record("commit", 0.0, 1) == 1
        assert tracer.record("commit", 1.0, 1) == 2
        assert tracer.record("commit", 1.0, 2) == 1  # separate clock

    def test_receive_joins_the_senders_clock(self):
        tracer = Tracer()
        # Sender far ahead: the receiver's clock must jump past it.
        for _ in range(5):
            tracer.record("commit", 0.0, 1)
        stamp = tracer.send(1.0, 1, 2, "CommitReq")
        assert stamp == 6
        assert tracer.receive(2.0, 2, 1, "CommitReq", stamp) == 7
        # Receiver ahead of a stale stamp: max() keeps it monotone.
        assert tracer.receive(3.0, 2, 1, "CommitReq", 1) == 8

    def test_lamport_consistent_with_happens_before(self):
        # send happens-before its receive, even when sim-time ties.
        tracer = Tracer()
        s = tracer.send(5.0, 1, 2, "ElectReq")
        r = tracer.receive(5.0, 2, 1, "ElectReq", s)
        assert r > s


class TestRingBuffer:
    def test_overflow_evicts_oldest_and_keeps_total(self):
        tracer = Tracer(capacity=4)
        for i in range(10):
            tracer.record("commit", float(i), 1, index=i)
        assert len(tracer.events) == 4
        assert tracer.recorded == 10  # overflow is detectable
        assert [e.data["index"] for e in tracer.snapshot()] == [6, 7, 8, 9]

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            Tracer(capacity=0)

    def test_eviction_is_counted_not_silent(self):
        tracer = Tracer(capacity=4)
        for i in range(10):
            tracer.record("commit", float(i), 1, index=i)
        assert tracer.dropped == 6
        assert tracer.recorded - tracer.dropped == len(tracer.events)

    def test_eviction_mirrors_into_metrics(self):
        metrics = MetricsRegistry()
        tracer = Tracer(capacity=2, metrics=metrics)
        for i in range(5):
            tracer.record("commit", float(i), 1)
        assert metrics.counter("trace.dropped").value == 3

    def test_sink_sees_every_event_before_eviction(self):
        seen = []
        tracer = Tracer(capacity=2, sink=seen.append)
        for i in range(6):
            tracer.record("commit", float(i), 1, index=i)
        # The sink (the monitor's feed) missed none and owns them all:
        # the ring keeps no second copy, so nothing is evicted either.
        assert [e.data["index"] for e in seen] == list(range(6))
        assert not tracer.events and tracer.snapshot() == []
        assert tracer.recorded == 6 and tracer.dropped == 0


class TestExport:
    def test_event_dict_round_trip(self):
        event = TraceEvent("drop", 3.0, 1, 7, {"to": 2, "reason": "loss"})
        assert TraceEvent.from_dict(event.to_dict()) == event

    def test_events_by_kind_preserves_order(self):
        tracer = Tracer()
        tracer.record("commit", 0.0, 1)
        tracer.record("crash", 1.0, 2)
        tracer.record("commit", 2.0, 1)
        commits = events_by_kind(tracer.snapshot(), "commit")
        assert [e.t_ms for e in commits] == [0.0, 2.0]

    def test_describe_is_one_line(self):
        event = TraceEvent("restart", 1.0, 3, 2, {"term": 1})
        text = event.describe()
        assert "restart" in text and "\n" not in text


class TestNullTracer:
    def test_disabled_and_recordless(self):
        assert NULL_TRACER.enabled is False
        assert NULL_TRACER.record("commit", 0.0, 1) == 0
        assert NULL_TRACER.send(0.0, 1, 2, "CommitReq") == 0
        assert NULL_TRACER.receive(0.0, 2, 1, "CommitReq", 9) == 0
        assert NULL_TRACER.recorded == 0
        assert NULL_TRACER.snapshot() == []

    def test_is_a_tracer(self):
        # Call sites hold a Tracer-typed reference; the null object must
        # substitute transparently.
        assert isinstance(NullTracer(), Tracer)
