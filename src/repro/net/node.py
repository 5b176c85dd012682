"""One spec replica as a live asyncio TCP process.

A :class:`NetNode` hosts exactly one **unmodified**
:class:`repro.raft.server.Server` -- the same pure handlers the
simulator schedules (via the :class:`repro.net.snapshot.CompactServer`
subclass, which only changes how derived state is *queried*: from two
folds that follow the log, compacted or not, instead of walks over
it) -- and supplies everything the spec abstracts away on a real
network:

* **Timers**: the shared :class:`repro.runtime.driver.ElectionDriver`
  (identical policy to the simulator) armed against the asyncio clock
  (``loop.call_later``), so election timeouts and heartbeat chains run
  on wall-clock milliseconds.
* **Transport**: two ``asyncio.Protocol`` classes, shared with the
  monitor.  :class:`Inbound` is one accepted connection: the
  :class:`~repro.net.wire.Framer` cuts frames out of ``data_received``
  and each is handled before the call returns.  :class:`Link` is one
  outbound connection (to each peer, and to the monitor), re-established
  with capped exponential backoff.  Whatever a tick queued for a peer
  -- a read, the batched broadcast, a timer -- is written with one
  ``transport.write`` at that tick's end; ``pause_writing`` /
  ``resume_writing`` are the flow control.  No task, event or
  ``drain()`` per frame, and no Nagle delay (asyncio's TCP transports
  set ``TCP_NODELAY`` themselves).  The outbox is bounded: replication
  ``CommitReq``\\ s are coalesced latest-wins (each carries the full
  state, so an unsent older one is strictly superseded), and a write
  carries a bounded window of messages -- pipelined AppendEntries
  without waiting for acks.  Log-carrying messages travel through the
  per-connection delta layer (:mod:`repro.net.wire`); a reconnect
  resets that state, which *is* the rewind path when a peer's view
  diverges.
* **Snapshots**: once the committed prefix outgrows
  ``snapshot_threshold``, the leader folds it
  (:mod:`repro.net.snapshot`); followers adopt the compact log through
  the spec's own log-replacement, shipped as chunked InstallSnapshot
  frames plus the live tail -- a late joiner pays O(state), not
  O(history).
* **Clients**: requests carry ``(client_id, seq)`` ids; the leader
  deduplicates against its log *and* the snapshot's session table,
  lays down a no-op barrier when commit rules require one, batches all
  appends from one event-loop tick into a single broadcast, and
  answers when the entry's index commits.  Linearizable reads
  (``get``) skip the log entirely via ReadIndex: the leader records
  its commit index, confirms its leadership with a
  :class:`~repro.net.wire.ReadProbe` quorum round, and serves from the
  incrementally-applied committed state.  A tick that only reads sends
  each follower that round's probe and nothing else: a ``CommitReq``
  goes out only when the term, log or commit point moved since the
  last one.  Non-leaders answer ``not-leader`` with their best hint.

There is one transport, not a family of them: batching, pipelining and
ReadIndex are how the node works, not switches, and
:class:`NodeConfig` holds only what a deployment actually varies.  The
fixed sizes (outbox limit, pipelining window, reconnect backoff, export
queue) are constants beside the code that reads them.

Malformed frames close the offending connection and never crash the
node (every decode failure is a :class:`repro.net.wire.ProtocolError`).
"""

from __future__ import annotations

import asyncio
import logging
import random
import signal
import time
from collections import deque
from dataclasses import MISSING, dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..obs.metrics import NULL_METRICS, MetricsRegistry
from ..obs.trace import NULL_TRACER, Tracer
from ..raft.messages import CommitAck, CommitReq, ElectAck, ElectReq, Msg
from ..raft.server import FOLLOWER, LEADER
from ..runtime.driver import ElectionDriver, TimingConfig
from ..schemes.single_node import RaftSingleNodeScheme
from .snapshot import CompactLog, CompactServer, slice_prefix
from .wire import (
    ClientRequest,
    ClientResponse,
    DeltaDecoder,
    DeltaEncoder,
    Framer,
    LogRequest,
    LogResponse,
    MonitorHello,
    PartitionRequest,
    PartitionResponse,
    PeerHello,
    ProtocolError,
    ReadProbe,
    ReadProbeAck,
    ShardDumpRequest,
    ShardDumpResponse,
    ShardOwnershipRequest,
    ShardOwnershipResponse,
    StatusRequest,
    StatusResponse,
    TraceBatch,
    encode_frame,
    hash_key,
    pack_entry,
)

log = logging.getLogger("repro.net.node")

#: Node-to-node frames: the spec's messages plus the ReadIndex probes.
_PEER_TYPES = (ElectReq, ElectAck, CommitReq, CommitAck, ReadProbe,
               ReadProbeAck)

#: Reconnect backoff of an outbound connection: initial delay, doubled
#: per failed attempt, capped.
RECONNECT_MIN_MS = 40.0
RECONNECT_MAX_MS = 2_000.0

#: Trace events queued for the monitor; on overflow the backlog is
#: dropped whole and the log re-shipped (:meth:`NetNode._resync_export`).
EXPORT_QUEUE_LIMIT = 4096

#: Commands a node will admit into the log (anything else is refused
#: at the door, so the apply path never sees unknown vocabulary).
_COMMAND_ARITY = {
    "put": 3, "add": 3, "delete": 2, "get": 2, "noop": 1, "reconfig": 2,
}

#: Commands whose second element is a kvstore key (the ones shard
#: ownership applies to; ``noop``/``reconfig`` are group-local).
_KEYED_COMMANDS = frozenset(("put", "add", "delete", "get"))


def _reply(request: ClientRequest, ok: bool, **fields) -> ClientResponse:
    """The response to ``request``: its ``(client_id, seq)`` echoed,
    ``fields`` as the outcome."""
    return ClientResponse(
        client_id=request.client_id, seq=request.seq, ok=ok, **fields
    )


def _server_class(spec: str):
    """The server semantics a node hosts: the spec (R3 on) or the
    pre-fix algorithm (R3 forced off) for seeding live violations."""
    if spec == "raft":
        return CompactServer
    if spec == "buggy":
        from ..raft.buggy import NoR3Mixin

        class BuggyCompactServer(NoR3Mixin, CompactServer):
            pass

        return BuggyCompactServer
    raise ValueError(f"unknown server spec {spec!r}")


#: Trace kinds streamed to the monitor.  Per-message ``send``/``receive``
#: events only move the Lamport clocks (the export sink owns every
#: event and nothing else keeps one); the monitor needs protocol
#: milestones, not transport chatter.
_EXPORT_SKIP = frozenset({"send", "receive"})


def now_ms() -> float:
    """Milliseconds on this process's monotonic clock.

    Monotonic *within one process only*: each node (and each client)
    starts its clock at an arbitrary origin, so these values must never
    be compared across processes.  They time intra-node intervals
    (commit latency, read staleness) and order events recorded *at this
    node*; cross-process ordering -- what the safety monitor consumes --
    uses per-node Lamport stamps and arrival order exclusively.
    """
    return time.monotonic() * 1000.0


def option(help: str, default=MISSING, **metadata):
    """A field of a config dataclass: ``help`` is its flag's help text;
    pass ``flag=`` when the flag is not spelled like the field and
    ``choices=`` when the values are enumerated."""
    return field(default=default, metadata={"help": help, **metadata})


@dataclass
class NodeConfig:
    """Everything one node process can be told -- and nothing else.

    This is the single statement of a node's options: the ``node``
    sub-command's flags and the argv :class:`~repro.net.procs.LocalCluster`
    launches its children with are both derived from these fields
    (:func:`repro.net.procs.add_config_flags` / ``argv_of``), so a new
    option is one new :func:`option` line.
    """

    nid: int = option("this node's id")
    port: int = option("listen port")
    peers: Dict[int, Tuple[str, int]] = option(
        "every node's listen address, e.g. "
        "1=127.0.0.1:7001,2=127.0.0.1:7002 (self is ignored)")
    conf0: frozenset = option(
        "the initial configuration, e.g. 1,2,3 (hot reconfiguration "
        "evolves it)", flag="conf")
    host: str = option("listen address", "127.0.0.1")
    #: Wall-clock timing; the defaults suit localhost clusters.
    heartbeat_ms: float = option("leader heartbeat period", 25.0)
    election_timeout_min_ms: float = option(
        "election timeout, lower bound", 100.0)
    election_timeout_max_ms: float = option(
        "election timeout, upper bound", 200.0)
    seed: Optional[int] = option(
        "seed of this node's timeout RNG (default: its nid)", None)
    snapshot_threshold: int = option(
        "fold the committed prefix into a snapshot once it has grown this "
        "many entries past the snapshot point (0 disables)", 1024)
    #: None keeps the export entirely off -- one boolean test per
    #: progress step, nothing else.
    monitor: Optional[Tuple[str, int]] = option(
        "HOST:PORT of the safety monitor to stream the trace (log/commit "
        "advances and protocol milestones) to", None)
    spec: str = option(
        "server semantics: the spec (R3 on), or the pre-fix algorithm with "
        "the R3 reconfiguration guard off, for seeding live violations the "
        "monitor must catch", "raft", choices=("raft", "buggy"))

    @property
    def timing(self) -> TimingConfig:
        return TimingConfig(
            heartbeat_ms=self.heartbeat_ms,
            election_timeout_min_ms=self.election_timeout_min_ms,
            election_timeout_max_ms=self.election_timeout_max_ms,
        )


@dataclass
class _PendingRequest:
    """A client request waiting for its log index to commit."""

    request: ClientRequest
    target_len: int
    writer: asyncio.Transport
    invoked_ms: float


@dataclass
class _ReadBatch:
    """One ReadIndex round: reads registered at ``index`` waiting for a
    quorum of same-term :class:`ReadProbeAck`\\ s at ``term``."""

    probe: int
    term: int
    index: int
    born_ms: float
    acked: set
    reads: List[Tuple[ClientRequest, asyncio.Transport, float]]


class _Outbox:
    """Per-peer send queue.

    Control messages (votes, acks, probes) are FIFO with
    oldest-message shedding under overload.  Replication
    ``CommitReq``\\ s get a dedicated latest-wins slot: the spec's
    messages carry the entire log and commit index, so a newer one
    strictly supersedes an unsent older one -- a peer whose link is
    paused gets one fresh AppendEntries when it resumes instead of a
    backlog of stale ones.
    """

    #: Control messages held per peer; beyond this the oldest is shed.
    LIMIT = 64
    #: Messages drained per socket write: the pipelining window
    #: (in-flight, un-acked frames per connection).
    WINDOW = 32

    __slots__ = ("misc", "commit", "m_shed", "m_coalesced")

    def __init__(self, m_shed, m_coalesced) -> None:
        #: Full, it drops its oldest message to take a new one.
        self.misc: deque = deque(maxlen=self.LIMIT)
        self.commit: Optional[CommitReq] = None
        self.m_shed = m_shed
        self.m_coalesced = m_coalesced

    def put(self, msg: Msg) -> None:
        if isinstance(msg, CommitReq):
            if self.commit is not None:
                self.m_coalesced.inc()
            self.commit = msg
        else:
            if len(self.misc) == self.LIMIT:
                self.m_shed.inc()
            self.misc.append(msg)

    def pop_batch(self) -> List[Msg]:
        """Up to ``WINDOW`` messages for one pipelined socket write."""
        out: List[Msg] = []
        while self.misc and len(out) < self.WINDOW:
            out.append(self.misc.popleft())
        if self.commit is not None and len(out) < self.WINDOW:
            out.append(self.commit)
            self.commit = None
        return out


class Inbound(asyncio.Protocol):
    """One accepted connection.

    Every complete frame is handed to ``on_frame(body, transport)``
    inside ``data_received``, in arrival order.  A
    :class:`~repro.net.wire.ProtocolError` -- a bad length prefix, or
    one ``on_frame`` raises -- drops the connection with the rest of
    that read.  ``end_tick()`` runs after each read, so what its frames
    queued goes out before the loop moves on.  ``live`` holds the open
    transports, for shutdown to close."""

    def __init__(self, live: set, on_frame, end_tick=None, on_lost=None):
        self.live = live
        self.on_frame = on_frame
        self.end_tick = end_tick
        self.on_lost = on_lost
        self.framer = Framer()
        self.transport: Optional[asyncio.Transport] = None

    def connection_made(self, transport) -> None:
        self.transport = transport
        self.live.add(transport)

    def data_received(self, data: bytes) -> None:
        try:
            for body in self.framer.feed(data):
                self.on_frame(body, self.transport)
        except ProtocolError:
            self.transport.close()
        if self.end_tick is not None:
            self.end_tick()

    def connection_lost(self, exc) -> None:
        self.live.discard(self.transport)
        if self.on_lost is not None:
            self.on_lost()


class Link(asyncio.Protocol):
    """One outbound connection, kept up for its owner's lifetime.

    :meth:`run` connects with capped exponential backoff and starts over
    whenever the connection drops.  Each connection opens with
    ``hello``; ``connected()`` runs once per connection and returns that
    connection's ``next_batch`` -- whatever the sender keeps *per
    connection* starts fresh there.  :meth:`ship` writes
    ``next_batch()`` until it returns nothing or the transport pushes
    back (``pause_writing``); ``resume_writing`` ships the rest."""

    def __init__(self, address, hello, connected) -> None:
        self.address = address
        self.hello = hello
        self.connected = connected
        self.transport: Optional[asyncio.Transport] = None
        self.paused = False
        self.next_batch = None
        self._lost: Optional[asyncio.Future] = None

    async def run(self, stopping: asyncio.Event) -> None:
        loop = asyncio.get_running_loop()
        backoff_ms = RECONNECT_MIN_MS
        while not stopping.is_set():
            self._lost = loop.create_future()
            try:
                transport, _ = await loop.create_connection(
                    lambda: self, *self.address
                )
            except OSError:
                await asyncio.sleep(backoff_ms / 1000.0)
                backoff_ms = min(backoff_ms * 2, RECONNECT_MAX_MS)
                continue
            backoff_ms = RECONNECT_MIN_MS
            try:
                await self._lost  # the other end went away: reconnect
            finally:
                transport.close()

    def connection_made(self, transport) -> None:
        self.transport, self.paused = transport, False
        transport.write(encode_frame(self.hello))
        self.next_batch = self.connected()
        self.ship()

    def connection_lost(self, exc) -> None:
        self.transport = None
        if self._lost is not None and not self._lost.done():
            self._lost.set_result(None)

    def pause_writing(self) -> None:
        self.paused = True

    def resume_writing(self) -> None:
        self.paused = False
        self.ship()

    def ship(self) -> None:
        while self.transport is not None and not self.paused:
            data = self.next_batch()
            if not data:
                return
            self.transport.write(data)


class NetNode:
    """The asyncio runtime around one specification server."""

    def __init__(
        self,
        config: NodeConfig,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.config = config
        self.scheme = RaftSingleNodeScheme()
        self.server = _server_class(config.spec)(
            nid=config.nid, conf0=frozenset(config.conf0)
        )
        seed = config.seed if config.seed is not None else config.nid
        self.rng = random.Random(seed)
        #: Trace export to the safety monitor.  ``_export_enabled`` is
        #: the single gate the hot path tests; everything else below it
        #: only exists (and only costs) when a monitor is configured.
        self._export_enabled = config.monitor is not None
        self._export_q: deque = deque()
        #: Events of the batch last handed to the monitor socket while
        #: it pushed back: lost if that connection turns out dead.
        self._export_in_flight = 0
        #: Shadow of the entries already exported: ``_shadow[i]`` is
        #: the one at absolute position ``_shadow_off + i``.  Only
        #: positions at or above the log's base are kept, so a
        #: compaction frees the shadow's copy too.
        self._shadow: List[Any] = []
        self._shadow_off = 0
        self._exported_commit = 0
        if tracer is None and self._export_enabled:
            tracer = Tracer(sink=self._export_sink, metrics=metrics)
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics if metrics is not None else NULL_METRICS
        #: Fault injection: raft/probe traffic from or to these peers is
        #: dropped (admin :class:`PartitionRequest`; clients unaffected).
        self._blocked: frozenset = frozenset()
        self._obs = self.tracer.enabled or self.metrics.enabled
        self._m_sent = self.metrics.counter("net.messages_sent")
        self._m_received = self.metrics.counter("net.messages_received")
        self._m_shed = self.metrics.counter("net.outbox_shed")
        self._m_coalesced = self.metrics.counter("net.commit_coalesced")
        self._m_reconnects = self.metrics.counter("net.reconnects")
        self._m_protocol_errors = self.metrics.counter("net.protocol_errors")
        self._m_requests = self.metrics.counter("net.client_requests")
        self._m_compactions = self.metrics.counter("net.compactions")
        self._m_snapshots_in = self.metrics.counter("net.snapshots_installed")
        self._m_reads_fast = self.metrics.counter("net.reads_fast")
        self._m_partition_dropped = self.metrics.counter(
            "net.partition_dropped"
        )
        self._m_export_dropped = self.metrics.counter("net.export_dropped")
        self._h_commit = self.metrics.histogram("net.commit_latency_ms")
        self.driver: Optional[ElectionDriver] = None
        self.loop: Optional[asyncio.AbstractEventLoop] = None
        self._outboxes: Dict[int, _Outbox] = {}
        #: The outbound connections: one per peer, one to the monitor.
        self._links: List[Link] = []
        self._link_tasks: List[asyncio.Task] = []
        #: Something was queued for a link since the last ship.
        self._queued = False
        self._tcp_server: Optional[asyncio.base_events.Server] = None
        #: Accepted connections still open.
        self._connections: set = set()
        self._pending: List[_PendingRequest] = []
        self._leader_hint: Optional[int] = None
        self._stopping = asyncio.Event()
        self._timer_handles: List[asyncio.TimerHandle] = []
        self._flush_scheduled = False
        #: ReadIndex state: outstanding quorum rounds, the id of the
        #: round still accepting reads this tick, and an id counter.
        self._read_batches: Dict[int, _ReadBatch] = {}
        self._open_probe: Optional[int] = None
        self._probe_counter = 0
        #: ``_replication_key()`` at the last ``CommitReq`` broadcast
        #: queued: a flush that would repeat it sends only probes.
        self._broadcast_key: Optional[Tuple[int, int, int]] = None
        #: Shard ownership, pushed by a sharding manager
        #: (:class:`repro.shard.manager.ShardedCluster`): at routing
        #: table version ``_shard_version`` this node's group owns
        #: exactly the half-open hash ranges ``_shard_ranges``.
        #: ``None`` = never told: unsharded deployments accept every
        #: key, while *stamped* requests are refused until the manager
        #: (re-)pushes ownership -- that makes a freshly respawned
        #: node, whose in-memory ownership died with its predecessor,
        #: safe by refusal instead of wrong by amnesia.
        self._shard_version: Optional[int] = None
        self._shard_ranges: Tuple[Tuple[int, int], ...] = ()
        #: Cumulative transport/observability counters.
        self._n_bytes_sent = 0
        self._n_snapshots_in = 0
        self._n_reads_fast = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> None:
        self.loop = asyncio.get_running_loop()
        self.driver = ElectionDriver(
            server=self.server,
            scheme=self.scheme,
            timing=self.config.timing,
            rng=self.rng,
            schedule=self._schedule,
            send_all=self._send_all,
            is_active=lambda: not self._stopping.is_set(),
            on_leader=self._on_leader,
        )
        for nid, address in self.config.peers.items():
            if nid != self.config.nid:
                self._add_peer(nid, address)
        if self._export_enabled:
            self._links.append(self._monitor_link())
        self._tcp_server = await self.loop.create_server(
            self._accept, self.config.host, self.config.port
        )
        self._link_tasks = [
            asyncio.ensure_future(link.run(self._stopping))
            for link in self._links
        ]
        self.driver.arm()
        log.info(
            "S%d listening on %s:%d (conf0=%s)",
            self.config.nid, self.config.host, self.config.port,
            sorted(self.config.conf0),
        )

    async def serve_forever(self) -> None:
        await self.start()
        await self._stopping.wait()
        await self.close()

    def stop(self) -> None:
        """Request a clean shutdown (signal-handler safe)."""
        self._stopping.set()

    async def close(self) -> None:
        self._stopping.set()
        for handle in self._timer_handles:
            handle.cancel()
        if self._tcp_server is not None:
            self._tcp_server.close()
            for transport in list(self._connections):
                transport.close()
            await self._tcp_server.wait_closed()
        for task in self._link_tasks:
            task.cancel()
        await asyncio.gather(*self._link_tasks, return_exceptions=True)
        log.info("S%d stopped cleanly", self.config.nid)

    # ------------------------------------------------------------------
    # Driver plumbing
    # ------------------------------------------------------------------

    def _schedule(self, delay_ms: float, fn) -> None:
        handle = self.loop.call_later(delay_ms / 1000.0, self._timer, fn)
        # Keep handles so close() can cancel outstanding timers; prune
        # opportunistically to stay O(live timers).
        self._timer_handles.append(handle)
        if len(self._timer_handles) > 256:
            self._timer_handles = [
                h for h in self._timer_handles if not h.cancelled()
                and h.when() > self.loop.time()
            ]

    def _timer(self, fn) -> None:
        """A driver timer firing: what it sends goes out in its tick."""
        fn()
        self._ship()

    def _on_leader(self, term: int) -> None:
        self._leader_hint = self.config.nid
        log.info("S%d elected leader at term %d", self.config.nid, term)
        if self._obs:
            self.tracer.record(
                "leader_elected", now_ms(), self.config.nid, term=term
            )

    # ------------------------------------------------------------------
    # Outbound transport
    # ------------------------------------------------------------------

    def _send_all(self, msgs: List[Msg]) -> None:
        server = self.server
        if server.role == LEADER and any(
            isinstance(m, CommitReq) and m.frm == self.config.nid
            for m in msgs
        ):
            # A replication broadcast (the driver's heartbeat chain
            # included) carries two riders, and is what a flush with
            # nothing new to replicate compares against.
            self._broadcast_key = self._replication_key()
            msgs = msgs + self._courtesy_heartbeats() + self._read_probes(
                self._read_batches.values())
        blocked = self._blocked
        for msg in msgs:
            if blocked and msg.to in blocked:
                self._m_partition_dropped.inc()
                continue
            outbox = self._outboxes.get(msg.to)
            if outbox is None:
                continue
            outbox.put(msg)
            self._queued = True

    def _read_probes(self, batches) -> List[Msg]:
        """One current-term :class:`ReadProbe` per member peer for each
        of ``batches``.  A flush probes the round it closes; every
        replication broadcast re-probes all outstanding rounds, so a
        follower that was behind on the term when first probed re-acks
        at the next heartbeat and no round starves on one stale ack."""
        if not batches:
            return []
        server = self.server
        members = sorted(self.scheme.members(server.config()))
        return [
            ReadProbe(
                frm=self.config.nid, to=peer,
                probe=batch.probe, time=server.time,
            )
            for batch in batches
            if batch.term == server.time
            for peer in members
            if peer != self.config.nid
        ]

    def _replication_key(self) -> Tuple[int, int, int]:
        """What a ``CommitReq`` broadcast now would tell a follower."""
        server = self.server
        return server.time, len(server.log), server.commit_len

    def _courtesy_heartbeats(self) -> List[Msg]:
        """Replication for peers the configuration just dropped.

        ``broadcast_commit`` targets members only, so a removed node
        would never receive the config entry that removed it -- it
        would keep timing out and campaigning at ever-higher terms,
        dethroning the real leader (the classic removed-server
        disruption).  Whenever this leader broadcasts, it also sends
        the same ``CommitReq`` to each non-member peer that has not yet
        acknowledged up to *its own* removal entry -- the first config
        entry after the last configuration naming it.  Once the removed
        node holds that entry, the election driver sees it is not a
        member and goes quiescent, its log frozen at the removal point
        (so rejoining later still costs a real catch-up).  Targeting
        the peer's removal entry rather than the newest config entry
        matters: later reconfigurations must not wake long-removed
        peers back up and replicate to them logs they have no business
        holding.  When the removal entry has been folded into a
        snapshot, the snapshot itself is the shortest shippable prefix
        covering it (the peer still goes quiescent; it just holds the
        folded state instead of the raw prefix).
        """
        server = self.server
        positions = [
            (i, self.scheme.members(payload))
            for i, payload in server.index().configs
        ]
        if not positions:
            return []  # still on conf0: nobody has been removed

        def removal_target(peer: int) -> int:
            """Log length ``peer`` must ack to hold its removal entry."""
            last_in = (
                -1 if peer in self.scheme.members(server.conf0) else None
            )
            for i, group in positions:
                if peer in group:
                    last_in = i
            if last_in is None:
                return 0  # never a member: nothing to tell it
            for i, _ in positions:
                if i > last_in:
                    return i + 1
            return 0  # still a member of the newest configuration

        members = self.scheme.members(server.config())
        out = []
        for peer in sorted(self._outboxes):
            if peer in members:
                continue
            target = removal_target(peer)
            if server.acked.get(peer, 0) >= target:
                continue
            prefix = slice_prefix(server.log, target)
            out.append(
                CommitReq(
                    frm=self.config.nid,
                    to=peer,
                    time=server.time,
                    log=prefix,
                    commit_len=min(server.commit_len, len(prefix)),
                )
            )
        return out

    def _ship(self) -> None:
        """End of a tick: write what it queued, link by link.  A link
        that is down or paused keeps its queue until it connects or
        resumes, and ships it then."""
        if self._queued:
            self._queued = False
            for link in self._links:
                link.ship()

    def _add_peer(self, nid: int, address) -> Link:
        """The outbound connection to one peer.  Each write is a bounded
        *window* of queued messages -- no per-message ack wait --
        through a delta encoder that lives as long as the connection: a
        drop resets the delta/snapshot state, which is the rewind (the
        next frame re-ships from the last point the fresh state
        supports)."""
        outbox = self._outboxes[nid] = _Outbox(self._m_shed, self._m_coalesced)

        def connected():
            encoder = DeltaEncoder()
            self._m_reconnects.inc()

            def next_batch() -> bytes:
                msgs = outbox.pop_batch()
                if not msgs:
                    return b""
                data = b"".join(map(encoder.encode, msgs))
                self._n_bytes_sent += len(data)
                self._m_sent.inc(len(msgs))
                if self._obs:
                    for msg in msgs:
                        self.tracer.send(
                            now_ms(), self.config.nid, nid,
                            type(msg).__name__,
                            bytes=len(data) // len(msgs),
                        )
                return data

            return next_batch

        link = Link(address, PeerHello(nid=self.config.nid), connected)
        self._links.append(link)
        return link

    # ------------------------------------------------------------------
    # Inbound transport
    # ------------------------------------------------------------------

    def _accept(self) -> Inbound:
        """The protocol of one accepted connection, with its own delta
        decoder: frames are handled as they are cut, and what they
        queued for peers goes out at the end of the read."""
        decoder = DeltaDecoder()
        snapshots_seen = 0

        def on_frame(payload: bytes, transport) -> None:
            nonlocal snapshots_seen
            try:
                msg = decoder.decode(payload)
            except ProtocolError as exc:
                # Malformed input never crashes the node: log, count,
                # drop the connection (its delta state can no longer be
                # trusted).
                self._m_protocol_errors.inc()
                log.warning(
                    "S%d dropping connection after protocol error: %s",
                    self.config.nid, exc,
                )
                raise
            if decoder.snapshots_installed > snapshots_seen:
                delta = decoder.snapshots_installed - snapshots_seen
                snapshots_seen = decoder.snapshots_installed
                self._n_snapshots_in += delta
                self._m_snapshots_in.inc(delta)
            if msg is None:
                return  # a snapshot chunk, absorbed by the decoder
            if isinstance(msg, _PEER_TYPES):
                # Peer traffic is what a partition cuts (clients and
                # admin frames still get through).
                if self._blocked and msg.frm in self._blocked:
                    self._m_partition_dropped.inc()
                elif isinstance(msg, ReadProbe):
                    self._on_read_probe(msg)
                elif isinstance(msg, ReadProbeAck):
                    self._on_read_probe_ack(msg)
                else:
                    self._deliver(msg)
            elif isinstance(msg, ClientRequest):
                self._handle_client_request(msg, transport)
            elif isinstance(msg, PartitionRequest):
                transport.write(encode_frame(self._set_partition(msg)))
            elif isinstance(msg, ShardOwnershipRequest):
                transport.write(encode_frame(self._set_shard_ownership(msg)))
            elif isinstance(msg, ShardDumpRequest):
                transport.write(encode_frame(self._shard_dump(msg)))
            elif isinstance(msg, StatusRequest):
                transport.write(encode_frame(self._status()))
            elif isinstance(msg, LogRequest):
                transport.write(encode_frame(self._committed_tail()))
            elif not isinstance(msg, PeerHello):
                # A response type arriving where none belongs.
                self._m_protocol_errors.inc()
                raise ProtocolError(f"unexpected {type(msg).__name__}")

        return Inbound(self._connections, on_frame, self._ship)

    def _committed_tail(self) -> LogResponse:
        """The committed log for cross-node safety checks: the entries
        past the snapshot point, tagged with their absolute offset."""
        server = self.server
        committed = server.committed_log()
        if isinstance(committed, CompactLog):
            return LogResponse(
                entries=committed.tail, base_len=committed.snap.base_len
            )
        return LogResponse(entries=committed, base_len=0)

    # ------------------------------------------------------------------
    # Fault injection (admin)
    # ------------------------------------------------------------------

    def _set_partition(self, msg: PartitionRequest) -> PartitionResponse:
        """Replace the blocked-peer set (an empty request heals)."""
        self._blocked = frozenset(msg.blocked) - {self.config.nid}
        if self._obs:
            self.tracer.record(
                "partition_start", now_ms(), self.config.nid,
                blocked=sorted(self._blocked),
            )
        log.info(
            "S%d partition set: blocking %s",
            self.config.nid, sorted(self._blocked) or "nothing",
        )
        return PartitionResponse(
            nid=self.config.nid, blocked=tuple(sorted(self._blocked))
        )

    # ------------------------------------------------------------------
    # Shard ownership (admin)
    # ------------------------------------------------------------------

    def _set_shard_ownership(
        self, msg: ShardOwnershipRequest
    ) -> ShardOwnershipResponse:
        """Adopt an ownership fact at version >= the current one.

        An older push (a delayed manager retry) is ignored but acked
        with the version actually held, so the caller can tell; an
        equal version is re-adopted idempotently (the respawn re-push
        path)."""
        if self._shard_version is None or msg.version >= self._shard_version:
            self._shard_version = msg.version
            self._shard_ranges = tuple(msg.ranges)
            if self._obs:
                self.tracer.record(
                    "shard_ownership", now_ms(), self.config.nid,
                    version=msg.version, ranges=len(msg.ranges),
                )
            log.info(
                "S%d shard ownership v%d: %d range(s)",
                self.config.nid, msg.version, len(msg.ranges),
            )
        return ShardOwnershipResponse(
            nid=self.config.nid, version=self._shard_version
        )

    def _shard_dump(self, msg: ShardDumpRequest) -> ShardDumpResponse:
        """The applied committed kvstore entries hashing into
        ``[lo, hi)`` (the drain half of a migration), plus the log and
        commit lengths the manager's quiesce loop keys off."""
        server = self.server
        items = tuple(sorted(
            (key, value)
            for key, value in server.applied().store.items()
            if msg.lo <= hash_key(key) < msg.hi
        ))
        return ShardDumpResponse(
            nid=self.config.nid,
            role=server.role,
            commit_len=server.commit_len,
            log_len=len(server.log),
            items=items,
            version=self._shard_version,
            term=server.time,
            commit_in_term=server.has_commit_at_current_time(),
        )

    def _shard_refuses(self, request: ClientRequest) -> bool:
        """The wrong-shard admission check.

        Only *stamped* requests (``table_version`` set) participate --
        plain clients against an unsharded cluster are untouched.  A
        stamped keyed command is refused when this node cannot prove it
        owns the key:

        * it was never told its ownership (``_shard_version`` is
          ``None``: e.g. freshly respawned), or
        * the client routed by a *newer* table than the node has seen
          (the node's ownership may have shrunk since), or
        * the key's hash falls outside the owned ranges.

        Refusal happens before anything enters the log, so the client
        may safely re-route the command (fresh seq) to another group.
        """
        stamp = request.table_version
        command = request.command
        if stamp is None or command[0] not in _KEYED_COMMANDS:
            return False
        return not (
            self._shard_version is not None
            and stamp <= self._shard_version
            and any(
                lo <= hash_key(command[1]) < hi
                for lo, hi in self._shard_ranges
            )
        )

    # ------------------------------------------------------------------
    # Trace export (the monitor's feed)
    # ------------------------------------------------------------------

    def _export_sink(self, event) -> None:
        """Tracer sink: queue every non-transport event for shipment.
        Bounded: a monitor that is down or slow costs the node at most
        :data:`EXPORT_QUEUE_LIMIT` queued events, then the backlog goes
        and the log is re-shipped from its base."""
        if event.kind in _EXPORT_SKIP:
            return
        q = self._export_q
        if len(q) >= EXPORT_QUEUE_LIMIT:
            self._resync_export(lost=len(q))
            q.clear()
        q.append(event.to_dict())
        self._queued = True

    def _resync_export(self, lost: int = 0) -> None:
        """Forget what was exported, so the next ``log_advance`` carries
        the whole log from its base (with ``anchor`` when compacted).

        ``log_advance`` events are *deltas* against :attr:`_shadow`, the
        record of what was queued -- the monitor can only apply one
        whose predecessors all arrived (it counts the rest as gaps and
        skips them).  So whenever events may have been lost -- the
        queue overflowed, or the connection they were written to died
        -- the shadow no longer describes what the monitor holds and is
        dropped; the engine re-walks the positions it already has and
        picks up from there."""
        self._m_export_dropped.inc(lost)
        self._shadow = []
        self._shadow_off = 0
        self._exported_commit = 0

    def _maybe_export_log(self) -> None:
        """Emit a ``log_advance`` trace event when the server's log or
        commit point moved past what was last exported.

        The event carries the *delta* against the shadow of everything
        exported so far: ``base`` (the common-prefix length), the packed
        entries from there, and the absolute commit length.  Entries
        folded into a snapshot before this node ever exported them (a
        follower catching up via InstallSnapshot) show up as ``base``
        jumping past the shadow; the event then carries the snapshot's
        verbatim ``last_entry`` as ``anchor`` so the monitor can
        re-anchor the suffix onto entries some other node already
        streamed."""
        server = self.server
        log_ = server.log
        if isinstance(log_, CompactLog):
            base, tail = log_.snap.base_len, log_.tail
        else:
            base, tail = 0, log_
        shadow, off = self._shadow, self._shadow_off
        end = off + len(shadow)
        gap = base > end
        if gap or base < off:
            j = base
        else:
            hi = min(end, base + len(tail))
            if hi > base and shadow[hi - 1 - off] == tail[hi - 1 - base]:
                # Log matching: an identical entry at an identical
                # position implies an identical prefix, so the
                # append-only common case costs one comparison.
                j = hi
            else:
                j = base
                while j < hi and shadow[j - off] == tail[j - base]:
                    j += 1
        entries = tail[j - base:]
        # Keep the positions at or above the base only: what is below
        # it is folded into the snapshot.  A base that moved back (a
        # leader with a shorter snapshot) is re-sent from, not compared.
        if base < off:
            shadow.clear()
        else:
            del shadow[j - off:]
            del shadow[:base - off]
        shadow.extend(entries)
        self._shadow_off = base
        commit_len = server.commit_len
        if not entries and j == end and commit_len == self._exported_commit:
            return
        data = {
            "base": j,
            "entries": [pack_entry(e) for e in entries],
            "commit": commit_len,
            "term": server.time,
        }
        if gap:
            data["gap"] = True
            data["anchor"] = pack_entry(log_.snap.last_entry)
        self._exported_commit = commit_len
        self.tracer.record("log_advance", now_ms(), self.config.nid, **data)

    def _monitor_link(self) -> Link:
        """The outbound connection to the monitor: queued trace events
        as :class:`TraceBatch` frames.  Fire-and-forget -- the monitor
        never replies on this connection, and a dead monitor costs the
        node nothing but the reconnect backoff timer.  Whatever was
        handed to a connection that pushed back and then died is counted
        lost, and every new connection (the monitor may be a fresh
        process) starts from a full re-ship."""

        def next_batch() -> bytes:
            self._export_in_flight = 0  # the previous batch went out
            q = self._export_q
            if not q:
                return b""
            events = tuple(q.popleft() for _ in range(min(len(q), 256)))
            self._export_in_flight = len(events)
            return encode_frame(TraceBatch(nid=self.config.nid, events=events))

        def connected():
            self._resync_export(lost=self._export_in_flight)
            return next_batch

        return Link(
            self.config.monitor, MonitorHello(nid=self.config.nid), connected
        )

    # ------------------------------------------------------------------
    # Spec message path
    # ------------------------------------------------------------------

    def _deliver(self, msg: Msg) -> None:
        self._m_received.inc()
        if self._obs:
            self.tracer.receive(
                now_ms(), self.config.nid, msg.frm, type(msg).__name__, 0
            )
        responses, accepted = self.driver.on_message(msg)
        if accepted and isinstance(msg, CommitReq) and msg.frm != self.config.nid:
            self._leader_hint = msg.frm
        self._send_all(responses)
        self._after_progress()

    def _after_progress(self) -> None:
        """React to state changes a delivery may have caused: complete
        committed client requests, step down if the committed config
        dropped us, compact once the committed prefix outgrows the
        threshold, bounce pending work on dethrone."""
        if self._export_enabled:
            self._maybe_export_log()
        server = self.server
        if server.role == LEADER:
            still_waiting: List[_PendingRequest] = []
            for pending in self._pending:
                if server.commit_len >= pending.target_len:
                    self._write(pending.writer, self._committed_response(pending))
                else:
                    still_waiting.append(pending)
            self._pending = still_waiting
            self._expire_stale_reads()
            self._maybe_compact()
            self._maybe_step_down()
        if server.role != LEADER:
            if self._pending:
                for pending in self._pending:
                    # Everything pending was *appended* before the
                    # dethrone: the entry survives in the log and may
                    # still commit under the next leader, so the bounce
                    # is flagged as an ambiguous (admitted) refusal --
                    # the client must not treat it as not-applied.
                    self._write(pending.writer, _reply(
                        pending.request, False, error="not-leader",
                        leader_hint=self._hint(), admitted=True,
                    ))
                self._pending = []
            if self._read_batches:
                self._bounce_reads(error="not-leader")

    def _maybe_compact(self) -> None:
        """Leader-driven log compaction: fold the committed prefix once
        it has grown ``snapshot_threshold`` entries past the snapshot
        point.  Followers never compact on their own -- they adopt the
        leader's compact log through replication (InstallSnapshot)."""
        threshold = self.config.snapshot_threshold
        server = self.server
        if threshold <= 0 or server.role != LEADER:
            return
        if server.commit_len - server.snapshot_base() < threshold:
            return
        if server.compact():
            self._m_compactions.inc()
            if self._export_enabled:
                # This step's export ran before the fold; exporting once
                # more trims the shadow to the new base (nothing moved,
                # so no event goes out).
                self._maybe_export_log()
            if self._obs:
                self.tracer.record(
                    "compaction", now_ms(), self.config.nid,
                    base_len=server.snapshot_base(), term=server.time,
                )
            log.info(
                "S%d compacted log to snapshot at %d entries",
                self.config.nid, server.snapshot_base(),
            )

    def _maybe_step_down(self) -> None:
        """Raft section 6: a leader that committed the configuration
        entry removing itself stops leading (the spec keeps it LEADER
        forever, which would leave the remaining members waiting for
        heartbeats from a non-member).  Demoting to follower is always
        safe; the members elect a successor once heartbeats stop."""
        server = self.server
        if server.role != LEADER:
            return
        if self.config.nid in self.scheme.members(server.config()):
            return
        positions = server.index().configs
        if not positions:
            return
        # The newest config entry governs; a config folded into a
        # snapshot is committed by construction.
        index, payload = positions[-1]
        if server.commit_len >= index + 1:
            log.info(
                "S%d removed by committed config %s: stepping down",
                self.config.nid, sorted(payload),
            )
            server.role = FOLLOWER
            self._leader_hint = None

    # ------------------------------------------------------------------
    # Committed state
    # ------------------------------------------------------------------

    def _committed_response(self, pending: _PendingRequest) -> ClientResponse:
        request = pending.request
        command = request.command
        result: object = True
        if command[0] == "get":
            # A read that went through the log (no current-term commit
            # yet when it arrived) linearizes at response time: every
            # entry applied here committed before this response is sent.
            result = self.server.applied().store.get(command[1])
        self._h_commit.observe(now_ms() - pending.invoked_ms)
        return _reply(request, True, result=result)

    @staticmethod
    def _write(writer: asyncio.Transport, frame) -> None:
        """Answer on a client connection that may be gone by now."""
        try:
            writer.write(encode_frame(frame))
        except (OSError, RuntimeError):
            pass  # client gave up; its retry will dedup via request id

    # ------------------------------------------------------------------
    # ReadIndex reads
    # ------------------------------------------------------------------

    def _register_read(
        self, request: ClientRequest, writer: asyncio.Transport
    ) -> None:
        """Queue a linearizable read without appending to the log.

        The read joins the tick's open batch (one quorum round serves
        every read registered in the same tick); its probes go out at
        flush time, with the batched broadcast if there is one."""
        server = self.server
        batch = (
            self._read_batches.get(self._open_probe)
            if self._open_probe is not None
            else None
        )
        if batch is None or batch.term != server.time:
            self._probe_counter += 1
            batch = _ReadBatch(
                probe=self._probe_counter,
                term=server.time,
                index=server.commit_len,
                born_ms=now_ms(),
                acked={self.config.nid},
                reads=[],
            )
            self._read_batches[batch.probe] = batch
            self._open_probe = batch.probe
        batch.reads.append((request, writer, now_ms()))
        self._schedule_flush()

    def _on_read_probe(self, msg: ReadProbe) -> None:
        """A follower answers with *its own* current term: the ack only
        confirms the probing leader while the terms match."""
        self._send_all([
            ReadProbeAck(
                frm=self.config.nid, to=msg.frm,
                probe=msg.probe, time=self.server.time,
            )
        ])

    def _on_read_probe_ack(self, msg: ReadProbeAck) -> None:
        batch = self._read_batches.get(msg.probe)
        if batch is None:
            return
        server = self.server
        if server.role != LEADER or server.time != batch.term:
            return  # the batch will be bounced by _after_progress
        if msg.time != batch.term:
            # A stale follower (it will re-ack via the heartbeat
            # re-probe once caught up) or a newer term (in which case
            # raft traffic is about to dethrone us anyway).
            return
        batch.acked.add(msg.frm)
        self._maybe_complete_read(batch)

    def _maybe_complete_read(self, batch: _ReadBatch) -> None:
        server = self.server
        if not self.scheme.is_quorum(frozenset(batch.acked), server.config()):
            return
        self._read_batches.pop(batch.probe, None)
        if self._open_probe == batch.probe:
            self._open_probe = None
        # A same-term quorum acked after registration: no higher-term
        # leader existed when those acks were sent, so commit_len at
        # registration covered every write completed before the reads
        # began.  commit_len is monotonic, so the applied store (which
        # is at least at batch.index) serves linearizable results.
        store = server.applied().store
        for request, writer, invoked_ms in batch.reads:
            result = store.get(request.command[1])
            self._h_commit.observe(now_ms() - invoked_ms)
            self._write(writer, _reply(request, True, result=result))
        self._n_reads_fast += len(batch.reads)
        self._m_reads_fast.inc(len(batch.reads))

    def _expire_stale_reads(self) -> None:
        """Abandon read rounds that outlived an election timeout (a
        quorum is unreachable or the term moved on): the client
        retries, and the retry re-registers under current state."""
        if not self._read_batches:
            return
        horizon = now_ms() - 2 * self.config.election_timeout_max_ms
        stale = [
            batch for batch in self._read_batches.values()
            if batch.born_ms < horizon or batch.term != self.server.time
        ]
        for batch in stale:
            self._read_batches.pop(batch.probe, None)
            if self._open_probe == batch.probe:
                self._open_probe = None
            self._refuse_reads(batch, error="retry")

    def _bounce_reads(self, error: str) -> None:
        batches = list(self._read_batches.values())
        self._read_batches = {}
        self._open_probe = None
        for batch in batches:
            self._refuse_reads(batch, error=error)

    def _refuse_reads(self, batch: _ReadBatch, error: str) -> None:
        hint = self._hint() if error == "not-leader" else None
        for request, writer, _ in batch.reads:
            self._write(
                writer, _reply(request, False, error=error, leader_hint=hint)
            )

    # ------------------------------------------------------------------
    # Batched flush
    # ------------------------------------------------------------------

    def _schedule_flush(self) -> None:
        """Coalesce all appends/reads admitted in one event-loop tick
        into a single broadcast (and a single ReadIndex round)."""
        if not self._flush_scheduled:
            self._flush_scheduled = True
            self.loop.call_soon(self._flush)

    def _flush(self) -> None:
        self._flush_scheduled = False
        server = self.server
        if server.role == LEADER:
            # Close the tick's read batch: new reads start a new round.
            closing = self._read_batches.get(self._open_probe)
            self._open_probe = None
            # Called even when nothing is new: it also advances the
            # commit point under single-member quorums.
            broadcast = server.broadcast_commit(self.scheme)
            if self._replication_key() != self._broadcast_key:
                self._send_all(broadcast)  # probes ride along
            elif closing is not None:
                # A read-only tick: followers have nothing to learn, so
                # the closing round's probes go out alone.
                self._send_all(self._read_probes([closing]))
            # Single-member quorums (and the degenerate single-node
            # cluster) need no remote acks to confirm leadership.
            for batch in list(self._read_batches.values()):
                self._maybe_complete_read(batch)
        self._after_progress()
        self._ship()

    # ------------------------------------------------------------------
    # Client requests
    # ------------------------------------------------------------------

    def _hint(self) -> Optional[int]:
        if self.server.role == LEADER:
            return self.config.nid
        return self._leader_hint

    def _status(self) -> StatusResponse:
        server = self.server
        return StatusResponse(
            nid=self.config.nid,
            role=server.role,
            term=server.time,
            commit_len=server.commit_len,
            log_len=len(server.log),
            members=tuple(sorted(self.scheme.members(server.config()))),
            leader_hint=self._hint(),
            base_len=server.snapshot_base(),
            bytes_sent=self._n_bytes_sent,
            snapshots_installed=self._n_snapshots_in,
            reads_fast=self._n_reads_fast,
        )

    def _handle_client_request(
        self, request: ClientRequest, writer: asyncio.Transport
    ) -> None:
        self._m_requests.inc()
        if self._obs:
            self.tracer.record(
                "client_invoke", now_ms(), self.config.nid,
                client=request.client_id, seq=request.seq,
                payload=repr(request.command),
            )
        server = self.server
        command = request.command
        request_id = (request.client_id, request.seq)
        refuse = existing = None
        if server.role != LEADER:
            refuse = _reply(
                request, False, error="not-leader", leader_hint=self._hint()
            )
        elif not command:
            refuse = _reply(request, False, error="empty-command")
        elif _COMMAND_ARITY.get(command[0]) != len(command):
            # Admission-time vocabulary check: nothing the apply path
            # cannot fold ever enters the log.
            refuse = _reply(request, False, error="bad-command")
        else:
            # The one lookup of this request: every branch below reads it.
            existing = server.find_request(request_id)
            if existing is None and self._shard_refuses(request):
                # Before the ReadIndex fast path on purpose: a frozen or
                # handed-off range must refuse reads too, or a
                # stale-routed get could observe state the new owner has
                # moved past.  A retry of a command that *already*
                # entered the log pre-freeze is not refused: at-most-once
                # beats ownership, the existing entry is served so the
                # client can learn the outcome that may well have
                # committed.
                refuse = _reply(
                    request, False, error="wrong-shard",
                    table_version=self._shard_version,
                )
        if refuse is not None:
            writer.write(encode_frame(refuse))
            return

        if command[0] == "get" and server.has_commit_at_current_time():
            # ReadIndex fast path: no log append, no replication of the
            # read itself -- a commit-index barrier plus one quorum
            # probe round.  Requires a committed entry of the current
            # term (leader completeness); before that, fall through to
            # the log path below.
            self._register_read(request, writer)
            return

        if existing is not None:
            # At-most-once: a previous attempt's entry survived (maybe
            # from a dead leader's replicated log, maybe folded into a
            # snapshot).  Wait for it -- and lay down a current-term
            # no-op barrier so the commit rule can reach it (a new
            # leader only counts its own term).
            target_len = existing
            if not server.has_entry_at_current_time():
                server.invoke(("noop",))
        elif command[0] == "reconfig":
            outcome = self._start_reconfig(request, request_id)
            if isinstance(outcome, ClientResponse):
                writer.write(encode_frame(outcome))
                return
            target_len = outcome
        else:
            server.invoke(command, request_id=request_id)
            target_len = len(server.log)

        self._pending.append(
            _PendingRequest(
                request=request,
                target_len=target_len,
                writer=writer,
                invoked_ms=now_ms(),
            )
        )
        # Batch: every append admitted this tick replicates in one
        # broadcast at flush.
        self._schedule_flush()

    def _start_reconfig(self, request: ClientRequest, request_id):
        """Append the config entry, or say why not.  Returns the target
        log length, or a :class:`ClientResponse` refusal."""
        server = self.server
        try:
            members = frozenset(request.command[1])
        except (IndexError, TypeError):
            return _reply(request, False, error="bad-reconfig")
        ok, reason = server.reconfig(members, self.scheme,
                                     request_id=request_id)
        if ok:
            if self._obs:
                self.tracer.record(
                    "reconfig", now_ms(), self.config.nid,
                    members=sorted(members), term=server.time,
                )
            return len(server.log)
        if reason == "r3-denied":
            # No committed entry of the current term yet: lay down a
            # no-op barrier (once) and ask the client to retry; the
            # retry passes R3 after the barrier commits.
            if not server.has_entry_at_current_time():
                server.invoke(("noop",))
                self._schedule_flush()
        return _reply(
            request, False, error=reason if reason != "r3-denied" else "retry"
        )


# ----------------------------------------------------------------------
# Process entry point
# ----------------------------------------------------------------------


async def serve_until_signalled(service) -> None:
    """``service.serve_forever()`` with SIGINT/SIGTERM wired to its
    ``stop()`` (a node here, the monitor in ``repro.monitor``)."""
    loop = asyncio.get_running_loop()
    for sig in (signal.SIGINT, signal.SIGTERM):
        try:
            loop.add_signal_handler(sig, service.stop)
        except NotImplementedError:  # pragma: no cover - non-POSIX loops
            pass
    await service.serve_forever()


def run_node(
    config: NodeConfig,
    tracer: Optional[Tracer] = None,
    metrics: Optional[MetricsRegistry] = None,
) -> None:
    """Run one node until SIGTERM/SIGINT; the ``python -m repro.net
    node`` subcommand lands here."""
    asyncio.run(serve_until_signalled(
        NetNode(config, tracer=tracer, metrics=metrics)
    ))
