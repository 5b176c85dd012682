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
  its log, instead of streaming deltas the monitor can no longer place;
* what the node derives from its log is folded once: a put costs the
  same at any tail length, a command is applied once, the spec's own
  log walk is never reached, and a replica asked nothing folds nothing;
* the transport writes in the tick that made a frame -- the leader's
  broadcast at the end of the flush, a follower's ack before
  ``data_received`` returns -- and a link that pushes back holds one
  coalesced ``CommitReq`` and a bounded backlog until it resumes;
* a ReadIndex round costs one probe per follower: a tick that only
  reads sends no ``CommitReq``, one with something new to replicate
  (an append, a commit advance) still does, and the heartbeat chain
  always does, re-probing every outstanding round.
"""

import sys

from repro.monitor.service import Monitor, MonitorConfig
from repro.net import node as node_module
from repro.net import snapshot as snapshot_module
from repro.net.node import NetNode, NodeConfig, _Outbox
from repro.net.wire import (
    ClientRequest,
    DeltaDecoder,
    DeltaEncoder,
    Framer,
    PeerHello,
    ReadProbe,
    ReadProbeAck,
    decode_message,
)
from repro.obs.metrics import MetricsRegistry
from repro.raft.messages import CommitAck, CommitReq, ElectAck, LogEntry
from repro.raft import server as server_module
from repro.raft.server import LEADER
from repro.runtime import kvstore as kvstore_module
from repro.runtime.cluster import RequestIndex
from repro.runtime.driver import ElectionDriver
from repro.runtime.kvstore import KVView

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


def make_leader(**options):
    node = make_node(1, **options)
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


def test_the_export_shadow_frees_what_compaction_folds():
    # The shadow once kept every entry ever exported: after 2,000 puts
    # a node held 2,000 while its log's tail was empty.  It keeps the
    # positions at or above the base only, from the very step that
    # folds them: the export runs before the compaction, and a
    # compaction trims the shadow to its new base at once.
    threshold = 16
    node = make_leader(monitor=("127.0.0.1", 1), snapshot_threshold=threshold)
    for seq in range(300):
        put_and_commit(node, seq)
        log = node.server.log
        base = log.snap.base_len if hasattr(log, "snap") else 0
        assert node._shadow_off == base
        assert node._shadow == list(getattr(log, "tail", log))
    assert node.server.log.snap.base_len >= 256
    # The trimming export says nothing: every event moves the exported
    # log end or the commit point.  (No link drains the export queue
    # here and none of it was shed, so it holds every event exported;
    # the tracer keeps no copy.)
    assert node.metrics.counter("net.export_dropped").value == 0
    moved = [
        (e["base"] + len(e["entries"]), e["commit"])
        for e in node._export_q if e["kind"] == "log_advance"
    ]
    assert len(moved) >= 300 and not node.tracer.events
    assert all(a != b for a, b in zip(moved, moved[1:]))


# ----------------------------------------------------------------------
# Work counts: what a log means is folded once
# ----------------------------------------------------------------------


def put_and_commit(node, seq):
    writer = ask(node, seq, "put", f"k{seq % 5}", seq)
    ack_everything(node)
    assert [r.ok for r in writer.replies] == [True]


def leader_with_tail(n, **options):
    node = make_leader(**options)
    for seq in range(n):
        put_and_commit(node, seq)
    assert node.server.commit_len == n
    return node


def line_events(fn):
    """``line`` trace events in the node, the spec and the folds while
    ``fn`` runs -- unlike call counts they see the iterations of a loop
    that walks a log inside one frame.  (``repro.obs`` is left out: a
    histogram switches to reservoir sampling at its 1,024th sample.)"""
    count = 0

    def tracer(frame, event, arg):
        nonlocal count
        name = frame.f_code.co_filename
        if "/repro/" not in name or "/repro/obs/" in name:
            return None
        if event == "line":
            count += 1
        return tracer

    sys.settrace(tracer)
    try:
        fn()
    finally:
        sys.settrace(None)
    return count


def test_one_put_costs_the_same_at_any_uncompacted_tail_length():
    """Admit + flush + one ``CommitAck``, compaction off.  At the parent
    commit this counted 2,307 line events on a 128-entry tail and 61,827
    on a 4,096-entry one (``config_of``, ``find_request_compact`` and
    ``config_positions`` each walked the tail); it is 395 now, and what
    is left that grows with the log is C-level tuple work, which emits
    no line events."""
    counts = []
    for n in (128, 4096):
        node = leader_with_tail(n, snapshot_threshold=0)
        counts.append(line_events(lambda: put_and_commit(node, n)))
    assert counts[0] == counts[1] < 1000


def test_each_committed_command_is_applied_once_across_compactions(
    monkeypatch,
):
    """The leader used to apply every command twice: once into its read
    state, once more when ``compact()`` re-folded the prefix."""
    applied = []
    real_apply = kvstore_module.apply_command

    def counting_apply(store, command):
        applied.append(command)
        real_apply(store, command)

    monkeypatch.setattr(kvstore_module, "apply_command", counting_apply)
    n = 40
    node = leader_with_tail(n, snapshot_threshold=8)
    assert node.metrics.counter("net.compactions").value >= 3
    assert node.server.snapshot_base() > 0
    get = ask(node, n, "get", "k4")
    node.loop.tick()
    batch, = node._read_batches.values()
    node._on_read_probe_ack(ReadProbeAck(
        frm=2, to=1, probe=batch.probe, time=node.server.time
    ))
    assert [r.result for r in get.replies] == [n - 1]
    assert len(applied) == n


def test_the_specs_log_walk_is_never_reached_from_a_node(monkeypatch):
    def refuse(log, conf0):
        raise AssertionError("config_of walked a log")

    # ... nor from a copy of it a hosting module imported by name.
    for module in (server_module, snapshot_module, node_module):
        if hasattr(module, "config_of"):
            monkeypatch.setattr(module, "config_of", refuse)
    # A leader: election, requests, acks, a heartbeat, a reconfiguration.
    node = leader_with_tail(3)
    ask(node, 3, "get", "k0")
    ack_everything(node)
    node.driver._heartbeat(node.server.time)
    shrink = ask(node, 4, "reconfig", (1, 2))
    ack_everything(node)
    assert [r.ok for r in shrink.replies] == [True]
    assert node.server.config() == frozenset({1, 2})
    node._status()
    # A follower: replication, then its own election timeout.
    follower = make_node(2)
    for msg in replication_stream(4):
        follower._deliver(msg)
    follower.driver._timer_fired(follower.driver.epoch)
    assert follower.server.time == 2


def test_a_follower_that_is_asked_nothing_folds_nothing(monkeypatch):
    absorbed = []
    for fold in (RequestIndex, KVView):
        monkeypatch.setattr(
            fold, "absorb", lambda self, *entry: absorbed.append(entry)
        )
    follower = make_node(2)
    for msg in replication_stream(10):
        follower._deliver(msg)
    assert follower.server.commit_len == 9 and absorbed == []
    follower._status()  # asks for the configuration
    assert len(absorbed) == 10


# ----------------------------------------------------------------------
# The transport: a frame is written in the tick that made it
# ----------------------------------------------------------------------


class _Transport:
    """A connected socket that keeps every write."""

    def __init__(self):
        self.writes = []

    def write(self, data):
        self.writes.append(data)

    def get_extra_info(self, name):
        return None


def connect(node, nid):
    """``node``'s link to peer ``nid``, up over a fake transport."""
    link = node._add_peer(nid, None)
    transport = _Transport()
    link.connection_made(transport)
    return link, transport


def received(transport):
    """What the peer decodes, write by write."""
    framer, decoder = Framer(), DeltaDecoder()
    return [
        [decoder.decode(body) for body in framer.feed(data)]
        for data in transport.writes
    ]


def test_a_leader_writes_its_broadcast_in_the_flush_that_made_it():
    node = make_leader()
    links = {nid: connect(node, nid)[1] for nid in (2, 3)}
    ask(node, 0, "put", "x", 1)
    assert [len(t.writes) for t in links.values()] == [1, 1]  # hellos
    node.loop.tick()
    for nid, transport in links.items():
        hello, (req,) = received(transport)
        assert hello == [PeerHello(nid=1)]
        assert isinstance(req, CommitReq) and req.to == nid
        assert req.log == node.server.log
    assert all(
        not outbox.misc and outbox.commit is None
        for outbox in node._outboxes.values()
    )


def test_a_follower_has_acked_when_data_received_returns():
    node = make_node(2)
    _, leader = connect(node, 1)
    inbound = node._accept()
    inbound.connection_made(_Transport())
    req = replication_stream(3)[-1]
    inbound.data_received(DeltaEncoder().encode(req))
    hello, (ack,) = received(leader)
    assert ack == CommitAck(frm=2, to=1, time=1, acked_len=3)


def test_a_paused_link_holds_one_commit_and_a_bounded_backlog():
    node = make_leader()
    link, transport = connect(node, 2)
    coalesced = node.metrics.counter("net.commit_coalesced")
    shed = node.metrics.counter("net.outbox_shed")
    link.pause_writing()
    for seq in range(3):
        ask(node, seq, "put", "x", seq)
        node.loop.tick()
    assert coalesced.value == 2
    node._send_all([
        ReadProbe(frm=1, to=2, probe=i, time=node.server.time)
        for i in range(70)
    ])
    node._ship()
    assert shed.value == 6
    assert len(transport.writes) == 1  # the hello
    link.resume_writing()
    _, *batches = received(transport)
    assert [len(batch) for batch in batches] == [
        _Outbox.WINDOW, _Outbox.WINDOW, _Outbox.LIMIT - 2 * _Outbox.WINDOW + 1
    ]
    *backlog, (req,) = batches
    assert [msg.probe for batch in backlog for msg in batch] == list(
        range(6, 70)
    )
    assert isinstance(req, CommitReq) and req.log == node.server.log


# ----------------------------------------------------------------------
# ReadIndex frames: a read round is a probe and an ack per follower
# ----------------------------------------------------------------------


def quiet_leader():
    """A leader linked to 2 and 3 whose followers know everything it
    does: a put committed, and a heartbeat told them the commit."""
    node = make_leader()
    links = {nid: connect(node, nid)[1] for nid in (2, 3)}
    ask(node, 0, "put", "x", 41)
    ack_everything(node)
    node.driver._heartbeat(node.server.time)
    node._ship()
    return node, links


def sent_after(links, fn):
    """What each follower decodes from the writes ``fn`` causes."""
    before = {nid: len(t.writes) for nid, t in links.items()}
    fn()
    return {
        nid: [msg for batch in received(t)[before[nid]:] for msg in batch]
        for nid, t in links.items()
    }


def probes(node, batch):
    return {
        nid: [ReadProbe(frm=1, to=nid, probe=batch.probe,
                        time=node.server.time)]
        for nid in (2, 3)
    }


def read_tick(node, seq):
    """A ``get`` and the end of its tick; returns the round it opened."""
    get = ask(node, seq, "get", "x")
    node.loop.tick()
    return get, node._read_batches[node._probe_counter]


def test_a_read_only_tick_sends_each_follower_one_probe():
    node, links = quiet_leader()
    rounds = []
    sent = sent_after(links, lambda: rounds.append(read_tick(node, 1)[1]))
    assert sent == probes(node, rounds[0])
    # The first round is still unacked: the second tick probes only
    # its own round, and still replicates nothing.
    sent = sent_after(links, lambda: rounds.append(read_tick(node, 2)[1]))
    assert sent == probes(node, rounds[1])
    assert len(node._read_batches) == 2


def test_a_tick_that_appends_and_reads_sends_one_of_each():
    node, links = quiet_leader()
    rounds = []

    def put_and_get():
        ask(node, 1, "put", "y", 1)
        rounds.append(read_tick(node, 2)[1])

    for nid, msgs in sent_after(links, put_and_get).items():
        probe, req = msgs
        assert probe == probes(node, rounds[0])[nid][0]
        assert isinstance(req, CommitReq) and req.log == node.server.log


def test_a_read_only_tick_after_a_commit_advance_replicates_it():
    node, links = quiet_leader()
    ask(node, 1, "put", "y", 1)
    ack_everything(node)  # the ack advances commit_len past the broadcast
    commit_len = node.server.commit_len
    for msgs in sent_after(links, lambda: read_tick(node, 2)).values():
        probe, req = msgs
        assert isinstance(probe, ReadProbe)
        assert isinstance(req, CommitReq) and req.commit_len == commit_len


def test_a_heartbeat_replicates_even_when_nothing_changed():
    node, links = quiet_leader()

    def heartbeat():
        node.driver._heartbeat(node.server.time)
        node._ship()

    for msgs in sent_after(links, heartbeat).values():
        req, = msgs
        assert isinstance(req, CommitReq)
        assert req.commit_len == node.server.commit_len


def test_a_round_acked_at_a_stale_term_completes_after_the_reprobe():
    node, links = quiet_leader()
    term = node.server.time
    get, batch = read_tick(node, 1)
    # Follower 2 was probed while it was behind on the term.
    node._on_read_probe_ack(ReadProbeAck(
        frm=2, to=1, probe=batch.probe, time=term - 1
    ))
    assert get.replies == []

    def heartbeat():
        node.driver._heartbeat(term)
        node._ship()

    for nid, msgs in sent_after(links, heartbeat).items():
        probe, req = msgs
        assert probe == probes(node, batch)[nid][0]
        assert isinstance(req, CommitReq)
    node._on_read_probe_ack(ReadProbeAck(
        frm=2, to=1, probe=batch.probe, time=term
    ))
    reply, = get.replies
    assert (reply.ok, reply.result) == (True, 41)
