"""One node, no sockets: the read paths and the monitor export.

A :class:`~repro.net.node.NetNode` wired for synchronous delivery (its
driver's timers never fire, its event loop is a list of callbacks the
test runs) so each path through ``_handle_client_request`` and the
trace export can be pinned down without a cluster:

* a ``get`` on a leader that has committed in its term takes the
  ReadIndex path -- a ``_ReadBatch``, one probe round, no log append;
* the same ``get`` on a fresh leader (no current-term commit yet) goes
  through the log like a write and is answered when it commits;
* a trace event lost between node and monitor makes the node re-ship
  its log, instead of streaming deltas the monitor can no longer place.
"""

import pytest

from repro.monitor.service import Monitor, MonitorConfig
from repro.net import node as node_module
from repro.net.node import NetNode, NodeConfig
from repro.net.wire import ClientRequest, ReadProbeAck, decode_message
from repro.obs.metrics import MetricsRegistry
from repro.raft.messages import CommitAck, CommitReq, ElectAck, LogEntry
from repro.raft.server import LEADER
from repro.runtime.driver import ElectionDriver

CONF0 = frozenset({1, 2, 3})


class _Loop:
    """``call_soon`` collects; the test decides when the tick ends."""

    def __init__(self):
        self.soon = []

    def call_soon(self, fn):
        self.soon.append(fn)

    def tick(self):
        while self.soon:
            self.soon.pop(0)()


class _Writer:
    """A client connection that decodes what the node answers."""

    def __init__(self):
        self.replies = []

    def write(self, data):
        self.replies.append(decode_message(data[4:]))


def make_node(nid, **options):
    config = NodeConfig(nid=nid, port=0, peers={}, conf0=CONF0, seed=7,
                        **options)
    node = NetNode(config, metrics=MetricsRegistry())
    node.loop = _Loop()
    node.driver = ElectionDriver(
        server=node.server, scheme=node.scheme, timing=config.timing,
        rng=node.rng, schedule=lambda delay_ms, fn: None,
        send_all=node._send_all, is_active=lambda: True,
    )
    return node


def make_leader():
    node = make_node(1)
    node.driver._timer_fired(node.driver.epoch)  # election timeout
    node._deliver(ElectAck(frm=2, to=1, time=node.server.time, granted=True))
    assert node.server.role == LEADER
    return node


def ask(node, seq, *command):
    writer = _Writer()
    node._handle_client_request(
        ClientRequest(client_id="c", seq=seq, command=command), writer
    )
    return writer


def ack_everything(node):
    """End the tick (one broadcast) and have follower 2 ack the log."""
    node.loop.tick()
    node._deliver(CommitAck(
        frm=2, to=1, time=node.server.time, acked_len=len(node.server.log)
    ))


def test_a_fresh_leader_serves_a_get_through_the_log():
    node = make_leader()
    server = node.server
    assert not server.has_commit_at_current_time()
    put = ask(node, 0, "put", "x", 41)
    get = ask(node, 1, "get", "x")
    # Both were appended; neither is answered before it commits.
    assert len(server.log) == 2 and not node._read_batches
    assert put.replies == get.replies == []
    ack_everything(node)
    assert server.commit_len == 2
    assert [(r.ok, r.result) for r in put.replies + get.replies] == [
        (True, True), (True, 41)
    ]
    assert node._n_reads_fast == 0


def test_a_get_after_a_current_term_commit_never_touches_the_log():
    node = make_leader()
    server = node.server
    ask(node, 0, "put", "x", 41)
    ack_everything(node)
    assert server.has_commit_at_current_time()
    log_len = len(server.log)

    get = ask(node, 1, "get", "x")
    batch, = node._read_batches.values()
    assert len(server.log) == log_len and not node._pending
    assert batch.index == server.commit_len and get.replies == []
    node.loop.tick()  # the probes go out with the tick's broadcast
    node._on_read_probe_ack(ReadProbeAck(
        frm=2, to=1, probe=batch.probe, time=server.time
    ))
    reply, = get.replies
    assert (reply.ok, reply.result) == (True, 41)
    assert len(server.log) == log_len and not node._read_batches
    assert node._n_reads_fast == 1


# ----------------------------------------------------------------------
# The monitor's feed
# ----------------------------------------------------------------------


def replication_stream(n):
    entries = tuple(
        LogEntry(time=1, vrsn=i + 1, payload=("put", "k", i))
        for i in range(n)
    )
    return [
        CommitReq(frm=1, to=2, time=1, log=entries[: i + 1], commit_len=i)
        for i in range(n)
    ]


def ship(node, monitor):
    """What the monitor link does, minus the socket."""
    while node._export_q:
        monitor.on_event(node.config.nid, node._export_q.popleft())


def test_a_shed_trace_backlog_is_followed_by_a_full_reship(monkeypatch):
    # A follower streaming to a monitor that is down or slow: the link
    # never drains the queue, so the test does (or does not).
    node = make_node(2, monitor=("127.0.0.1", 1))
    monitor = Monitor(MonitorConfig(port=0, conf0=CONF0))
    stream = replication_stream(10)

    for msg in stream[:3]:
        node._deliver(msg)
    ship(node, monitor)
    assert monitor.engine.entries_added == 3

    # The 4th advance sits in a full queue when the 5th arrives: the
    # backlog is shed, so the monitor never sees #4 -- and the 5th, cut
    # against a shadow that included #4, is one it cannot place.
    monkeypatch.setattr(node_module, "EXPORT_QUEUE_LIMIT", 1)
    node._deliver(stream[3])
    node._deliver(stream[4])
    ship(node, monitor)
    assert monitor.engine.entries_added == 3 and monitor.engine.gaps == 1

    # Every later advance is placed again: the first one re-carries the
    # log from its base, the rest are ordinary deltas on top of it.
    for msg in stream[5:]:
        node._deliver(msg)
        ship(node, monitor)
    assert monitor.engine.entries_added == 10
    assert monitor.engine.gaps == 1 and monitor.status().ok
    assert node.metrics.counter("net.export_dropped").value == 1
