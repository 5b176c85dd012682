"""An executable cluster: the Raft spec handlers on a simulated network.

The paper extracts its Coq specification to OCaml and runs it on EC2;
here the Python specification (:mod:`repro.raft.server`) *is* the
executable, and :class:`Cluster` schedules its messages over the
discrete-event simulator.  Client requests are processed sequentially
by the leader: append, broadcast, gather acknowledgements, complete
when the entry's index is committed.  Reconfiguration requests go
through the same path (hot reconfiguration: processing never stops).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field, replace
from itertools import islice
from operator import attrgetter, is_
from typing import Dict, Iterable, Iterator, List, Optional

from ..core.cache import Config, Method, NodeId
from ..core.config import ReconfigScheme
from ..obs.metrics import NULL_METRICS, MetricsRegistry
from ..obs.trace import NULL_TRACER, Tracer
from ..raft.messages import CommitReq, ElectReq, Log, LogEntry, Msg
from ..raft.server import FOLLOWER, LEADER, Server
from .simnet import FaultPlan, LatencyModel, Simulator

#: The fields of a (frozen) log entry that can hold a mutable object.
_contents_of = attrgetter("payload", "request_id")


def _is_hashable(value) -> bool:
    try:
        hash(value)
    except TypeError:
        return False
    return True


class SharedLog:
    """A log that is a prefix of an append-only buffer: ``(buffer, length)``.

    The specification hands whole logs around -- every ``CommitReq``
    carries one, a follower adopts it, a leader appends with
    ``log + (entry,)`` -- and as tuples each append copied the log and
    each "is what I folded a prefix of this log?" compared the two entry
    by entry.  A ``SharedLog`` is a view of the first ``length`` entries
    of a list that is only ever appended to:

    * ``len``, indexing (negative too), iteration and ``reversed`` stop
      at the view's length, so an entry appended to the buffer later is
      invisible to it: a view never changes;
    * ``log[:k]`` is a view of the same buffer; any other slice is a
      plain tuple, as :class:`repro.net.snapshot.CompactLog` does it;
    * ``log + entries`` appends in place when the view is its buffer's
      tip and otherwise *forks*, copying its own prefix into a new
      buffer, so a buffer is never truncated or rewritten.  A leader
      extends one buffer for its term, a follower that adopts its
      ``CommitReq`` holds that buffer, and a new leader whose log stops
      short of its buffer's end copies once;
    * two views of one buffer are equal iff their lengths are; any other
      pair, and a view and a tuple, compare entry by entry; ``hash`` is
      the hash of the equal tuple.

    So every prefix test between views of one buffer is a length
    comparison, with no change to the code that asks it:
    :meth:`LogFold.follow`, :meth:`Cluster.check_safety`'s committed
    prefixes, the nemesis' reads of ``log[:index]``.  The simulated
    clusters seed each server with an empty one; :mod:`repro.raft` is
    the unchanged spec code, handed this log instead of a tuple.
    """

    __slots__ = ("_buf", "_len")

    def __init__(self, entries: Iterable[LogEntry] = ()) -> None:
        self._buf: List[LogEntry] = list(entries)
        self._len = len(self._buf)

    @classmethod
    def _view(cls, buf: List[LogEntry], length: int) -> "SharedLog":
        view = cls.__new__(cls)
        view._buf, view._len = buf, length
        return view

    def _entries(self) -> List[LogEntry]:
        """The view's entries as a list, to compare (never mutated)."""
        buf = self._buf
        return buf if len(buf) == self._len else buf[: self._len]

    def __len__(self) -> int:
        return self._len

    def __getitem__(self, index):
        if isinstance(index, slice):
            start, stop, step = index.indices(self._len)
            if start == 0 and step == 1:
                return self if stop == self._len else self._view(self._buf, stop)
            return tuple(map(self._buf.__getitem__, range(start, stop, step)))
        if index < 0:
            index += self._len
        if not 0 <= index < self._len:
            raise IndexError("log index out of range")
        return self._buf[index]

    def __iter__(self) -> Iterator[LogEntry]:
        return islice(self._buf, self._len)

    def __add__(self, entries):
        if not isinstance(entries, tuple):
            return NotImplemented
        buf = self._buf
        if len(buf) != self._len:
            buf = buf[: self._len]  # fork: a longer view reads past us
        buf.extend(entries)
        return self._view(buf, len(buf))

    def __eq__(self, other) -> bool:
        if isinstance(other, SharedLog):
            if other._buf is self._buf:
                return other._len == self._len
            return (
                other._len == self._len
                and other._entries() == self._entries()
            )
        if isinstance(other, tuple):
            return len(other) == self._len and list(other) == self._entries()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return f"SharedLog({tuple(self)!r})"


def _one_buffer(a, b) -> bool:
    """Whether ``a`` and ``b`` are views of one buffer, which hold the
    same entry *objects* at every position both reach."""
    return (
        isinstance(a, SharedLog)
        and isinstance(b, SharedLog)
        and a._buf is b._buf
    )


class DuplicateCopier:
    """Makes second in-flight copies of messages no recipient can corrupt.

    The copy is a new message object.  Log entries are frozen, so all a
    handler can mutate through one is a mutable payload or request id;
    an entry whose contents hash has neither (a hashable value keeps
    its equality-relevant state for life), so both copies may share it.
    Only entries with unhashable contents are deep-copied -- re-creating
    every entry of a full-log message cost more than anything else the
    simulator did, per duplicate and in proportion to log length.

    That the contents hash is checked, never assumed, but once per
    entry object: the copier remembers the last log it found hashable
    throughout, and of a log that starts with the *same entry objects*
    (one C-level identity pass, or none for two views of one
    :class:`SharedLog` buffer; equal is not enough, a ``set`` payload
    equals a ``frozenset`` one) it hashes only the rest.  A leader's
    successive broadcasts extend one another, so a duplicate costs the
    entries appended since the last one, not the log.
    """

    def __init__(self) -> None:
        self._hashable: Log = ()

    def copy(self, msg: Msg) -> Msg:
        if not isinstance(msg, (ElectReq, CommitReq)):
            return replace(msg)  # acks carry scalars only
        log = msg.log
        known = self._hashable
        done = min(len(log), len(known))
        if not _one_buffer(log, known) and not all(map(is_, log, known)):
            done = 0  # the pass compares the first `done`
        try:
            # one C-level pass over what is not known yet
            hash(tuple(map(_contents_of, log[done:])))
        except TypeError:
            entries = tuple(
                entry
                if _is_hashable(_contents_of(entry))
                else copy.deepcopy(entry)
                for entry in log
            )
            log = SharedLog(entries) if isinstance(log, SharedLog) else entries
        else:
            if len(log) > done:  # not a prefix of what is known already
                self._hashable = log
        return replace(msg, log=log)


def independent_copy(msg: Msg) -> Msg:
    """One copy by a :class:`DuplicateCopier` that remembers nothing."""
    return DuplicateCopier().copy(msg)


class LogFold:
    """State derived from one log by folding its entries in order.

    :meth:`follow` brings the state up to date with a log.  When the
    log extends the one folded so far, only the new entries are folded,
    so a consumer that asks once per operation pays for that
    operation's entries, not for the whole log again.  That the old log
    *is* a prefix of the new one is checked, never assumed -- a length
    comparison for two views of one :class:`SharedLog` buffer, else one
    tuple comparison in C, which compares shared entries by identity -- and
    when it is not (a follower adopted a diverging log, a failover moved
    the question to another server) the state is refolded from scratch.
    The result therefore always equals a fresh fold of the log given.

    A log may be *compacted*: an object with ``.snap``, a digest of its
    first ``snap.base_len`` entries (:class:`repro.net.snapshot.Snapshot`),
    and ``.tail``, the entries after them.  A digest that reaches past
    what was folded replaces the state (:meth:`reset` reads it) and the
    tail is folded on top; one at or behind it -- this server compacted
    entries the fold had seen -- leaves the state alone: only the tail
    both still hold is compared, plus the digest's verbatim last entry.

    Every fold keeps :attr:`configs`, the configuration entries so far
    as ``(absolute index, members)``; subclasses add the rest.
    """

    def __init__(self) -> None:
        self._log = ()  # the value last followed
        self._base = 0  # how many of its entries are held as a digest
        self._tail: Log = ()  # the entries folded after those
        self.configs: list = []
        self.reset(None)

    def reset(self, snap) -> None:
        """Return the derived state to that of the empty log, or to
        that of the prefix ``snap`` digests."""
        raise NotImplementedError

    def absorb(self, position: int, entry: LogEntry) -> None:
        """Fold in ``entry``, the ``position``-th (1-based) of the log."""
        raise NotImplementedError

    def forget(self, base: int) -> None:
        """The first ``base`` entries, all folded, are from now on
        answered by the log's digest: drop what only indexed them."""

    def config(self, conf0):
        """The newest configuration folded (hot semantics), or conf0."""
        return self.configs[-1][1] if self.configs else conf0

    def follow(self, log) -> None:
        if log is self._log:
            return
        snap = getattr(log, "snap", None)
        base, tail = (0, log) if snap is None else (snap.base_len, log.tail)
        held, kept = self._base, self._tail
        done = held + len(kept)
        if (
            held <= base <= done <= base + len(tail)
            and tail[: done - base] == kept[base - held :]
            and (base == held or kept[base - held - 1] == snap.last_entry)
        ):
            if base > held:
                self.forget(base)
        else:
            self.configs = list(snap.config_history) if snap else []
            self.reset(snap)
            done = base
        for position, entry in enumerate(tail[done - base :], done + 1):
            if entry.is_config:
                self.configs.append((position - 1, entry.payload))
            self.absorb(position, entry)
        self._log, self._base, self._tail = log, base, tail


class RequestIndex(LogFold):
    """Where each client request sits in a log.

    ``positions`` maps a request id to the 1-based position of the
    *first* entry carrying it, which is what a front-to-back scan for
    the id returns.  Entries behind a digest are not indexed: the
    digest's ``sessions`` answer for them
    (:meth:`repro.net.snapshot.CompactServer.find_request`).
    """

    def reset(self, snap) -> None:
        self.positions: Dict[object, int] = {}

    def absorb(self, position: int, entry: LogEntry) -> None:
        if entry.request_id is not None:
            self.positions.setdefault(entry.request_id, position)

    def forget(self, base: int) -> None:
        self.positions = {
            rid: at for rid, at in self.positions.items() if at > base
        }


@dataclass
class IndexedServer(Server):
    """A spec replica that answers questions about its log from a fold.

    The specification re-derives the hot configuration, "is this request
    already in my log" and "is there a commit at my term" by walking the
    log on every call; the layer hosting it may not.  Only those
    *queries* are overridden -- every handler, the election logic and
    the commit rule are the inherited spec code -- and the fold is
    followed lazily: a replica that is never asked folds nothing.
    """

    _index: RequestIndex = field(
        default_factory=RequestIndex, init=False, repr=False, compare=False
    )

    def index(self) -> RequestIndex:
        """The fold of the whole log, brought up to the current one."""
        self._index.follow(self.log)
        return self._index

    def config(self):
        return self.index().config(self.conf0)

    def find_request(self, request_id) -> Optional[int]:
        """Log position (1-based prefix length) of ``request_id``, if a
        previous attempt's entry already survived into this log."""
        if request_id is None:
            return None
        return self.index().positions.get(request_id)

    def has_entry_at_current_time(self) -> bool:
        """Whether any entry (committed or not) carries the current
        term -- the no-op-barrier trigger.  Times are nondecreasing
        along a log and never exceed the server's own, so the last
        entry of a prefix answers for all of it."""
        return bool(self.log) and self.log[-1].time == self.time

    def has_commit_at_current_time(self) -> bool:
        """R3, by the same argument: the last committed entry decides."""
        return (
            self.commit_len > 0
            and self.log[self.commit_len - 1].time == self.time
        )


@dataclass
class RequestRecord:
    """Timing of one client request."""

    index: int
    payload: object
    is_reconfig: bool
    submitted_ms: float
    completed_ms: Optional[float] = None
    #: Log position (length of the prefix ending at this request's
    #: entry) in the leader that committed it; lets clients materialize
    #: the state a read observed.
    log_index: Optional[int] = None

    @property
    def latency_ms(self) -> Optional[float]:
        if self.completed_ms is None:
            return None
        return self.completed_ms - self.submitted_ms


class Cluster:
    """A running cluster of specification servers on a simulated network."""

    def __init__(
        self,
        conf0: Config,
        scheme: ReconfigScheme,
        seed: int = 0,
        latency: Optional[LatencyModel] = None,
        processing_ms: float = 0.05,
        extra_nodes=(),
        faults: Optional[FaultPlan] = None,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.conf0 = conf0
        self.scheme = scheme
        self.sim = Simulator(seed=seed)
        self.latency = latency or LatencyModel()
        self.processing_ms = processing_ms
        nodes = set(scheme.members(conf0)) | set(extra_nodes)
        self.servers: Dict[NodeId, IndexedServer] = {
            nid: IndexedServer(nid=nid, conf0=conf0, log=SharedLog())
            for nid in sorted(nodes)
        }
        self.records: List[RequestRecord] = []
        self.messages_sent = 0
        self._crashed: set = set()
        self.faults = faults
        self._copier = DuplicateCopier()
        # -- observability (see repro.obs) -----------------------------
        # The disabled path must stay near-free: one boolean (`_obs`)
        # guards every instrumentation block, and instruments are
        # resolved once here, never per message.  Tracing/metrics
        # consume no randomness and schedule no simulator events, so an
        # instrumented run is bit-identical to a bare one.
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics if metrics is not None else NULL_METRICS
        self._obs = self.tracer.enabled or self.metrics.enabled
        registry = self.metrics
        self._m_sent = registry.counter("cluster.messages_sent")
        self._m_received = registry.counter("cluster.messages_received")
        self._m_dropped = registry.counter("cluster.messages_dropped")
        self._m_duplicated = registry.counter("cluster.messages_duplicated")
        self._m_commits = registry.counter("cluster.entries_committed")
        self._m_requests = registry.counter("cluster.requests_submitted")
        self._m_completed = registry.counter("cluster.requests_completed")
        self._m_timeouts = registry.counter("cluster.requests_timed_out")
        self._m_elections = registry.counter("cluster.elections_started")
        self._m_crashes = registry.counter("cluster.crashes")
        self._m_restarts = registry.counter("cluster.restarts")
        self._h_latency = registry.histogram("cluster.request_latency_ms")
        self._h_election = registry.histogram("cluster.election_ms")
        #: Last commit length the tracer saw, per node (commit events
        #: are emitted on the delta).
        self._commit_seen: Dict[NodeId, int] = {}
        if faults is not None:
            for event in faults.crashes:
                self.sim.schedule(
                    event.at_ms, lambda n=event.nid: self.crash(n)
                )
                if event.restart_ms is not None:
                    self.sim.schedule(
                        event.restart_ms, lambda n=event.nid: self.restart(n)
                    )

    # ------------------------------------------------------------------
    # Failure injection (fail-stop with durable logs)
    # ------------------------------------------------------------------

    def crash(self, nid: NodeId) -> None:
        """Fail-stop ``nid``: it drops every message until restarted.

        Its local state (log, commit index) persists, as benign
        consensus assumes durable storage.
        """
        if nid not in self.servers:
            raise KeyError(f"unknown node {nid}")
        self._crashed.add(nid)
        if self._obs:
            self.tracer.record("crash", self.sim.now, nid)
            self._m_crashes.inc()

    def restart(self, nid: NodeId) -> None:
        """Bring a crashed node back with its durable state intact.

        Only durable state survives: the log, the commit length, and
        (as Raft persists them) the current term and the vote.  The
        volatile role, vote tally, and replication bookkeeping are
        reset -- a restarted leader comes back as a follower, never as
        a zombie leader that :meth:`leader` would report and clients
        would submit to.
        """
        if nid not in self._crashed:
            return
        self._crashed.discard(nid)
        server = self.servers[nid]
        server.role = FOLLOWER
        server.votes = frozenset()
        server.acked = {}
        if self._obs:
            self.tracer.record(
                "restart", self.sim.now, nid,
                term=server.time, log_len=len(server.log),
            )
            self._m_restarts.inc()

    def is_crashed(self, nid: NodeId) -> bool:
        return nid in self._crashed

    # ------------------------------------------------------------------
    # Network plumbing
    # ------------------------------------------------------------------

    def _payload_size(self, msg: Msg) -> int:
        """Entries the receiver does not have yet.

        The specification ships full logs, but a real transport sends
        deltas; charging only the receiver's missing suffix keeps
        steady-state request latency flat while making the catch-up of
        a freshly (re-)added node -- an empty log receiving everything
        -- visibly expensive, which is exactly the asymmetry Fig. 16
        shows between shrinking and growing the cluster.
        """
        if isinstance(msg, (ElectReq, CommitReq)):
            receiver = self.servers.get(msg.to)
            have = len(receiver.log) if receiver is not None else 0
            return max(0, len(msg.log) - have)
        return 0

    def _send(self, msg: Msg, extra_delay: float = 0.0) -> None:
        if msg.to not in self.servers:
            return
        if msg.frm in self._crashed:
            # A dead node sends nothing: responses computed before the
            # crash (queued behind the processing delay) must not leak
            # onto the network.
            return
        self.messages_sent += 1
        copies = 1
        if self.faults is not None:
            if self.faults.should_drop(msg.frm, msg.to, self.sim.now):
                if self._obs:
                    # `partitioned` is RNG-free, so asking again for
                    # the drop reason cannot perturb the fault stream.
                    reason = (
                        "partition"
                        if self.faults.partitioned(msg.frm, msg.to, self.sim.now)
                        else "loss"
                    )
                    self.tracer.record(
                        "drop", self.sim.now, msg.frm,
                        to=msg.to, msg=type(msg).__name__, reason=reason,
                    )
                    self._m_dropped.inc()
                return
            if self.faults.should_duplicate():
                copies = 2
                if self._obs:
                    self.tracer.record(
                        "duplicate", self.sim.now, msg.frm,
                        to=msg.to, msg=type(msg).__name__,
                    )
                    self._m_duplicated.inc()
        for i in range(copies):
            # Each in-flight copy must be an independent object: both
            # fault-injected duplicates used to alias the *same* Msg, so
            # a handler mutating its received message (e.g. through a
            # mutable payload) corrupted the copy still on the wire.
            delivery = msg if i == 0 else self._copier.copy(msg)
            delay = extra_delay + self.latency.sample(
                self.sim.rng, self._payload_size(msg)
            )
            if self.faults is not None:
                delay += self.faults.reorder_delay()
            if self._obs:
                self._m_sent.inc()
                stamp = self.tracer.send(
                    self.sim.now, msg.frm, msg.to, type(msg).__name__
                )
                self.sim.schedule(
                    delay, lambda m=delivery, s=stamp: self._receive(m, s)
                )
            else:
                self.sim.schedule(delay, lambda m=delivery: self._receive(m))

    def _send_all(self, msgs) -> None:
        msgs = list(msgs)
        # Sender-side serialization: the whole batch waits for its total
        # encoding cost, so one full-log catch-up message (to a freshly
        # added node) delays that round for everyone -- the Fig. 16
        # growth spike.
        tx_cost = self.latency.tx_per_entry_ms * sum(
            self._payload_size(m) for m in msgs
        )
        for msg in msgs:
            self._send(msg, extra_delay=tx_cost)

    def _receive(self, msg: Msg, sent_lamport: int = 0) -> None:
        if msg.to in self._crashed:
            return  # dropped on the floor: the recipient is down
        server = self.servers[msg.to]
        if self._obs:
            self.tracer.receive(
                self.sim.now, msg.to, msg.frm,
                type(msg).__name__, sent_lamport,
            )
            self._m_received.inc()
            role_before = server.role
        responses = server.handle(msg, self.scheme)
        if self._obs:
            self._note_progress(server, role_before)
        self.sim.schedule(self.processing_ms, lambda: self._send_all(responses))

    def _note_progress(self, server: Server, role_before: str) -> None:
        """Trace state transitions a message handler just caused:
        commit-index advancement and promotions to leader."""
        seen = self._commit_seen.get(server.nid, 0)
        if server.commit_len > seen:
            self._commit_seen[server.nid] = server.commit_len
            self.tracer.record(
                "commit", self.sim.now, server.nid,
                commit_len=server.commit_len, term=server.time,
            )
            self._m_commits.inc(server.commit_len - seen)
        if role_before != LEADER and server.role == LEADER:
            self.tracer.record(
                "leader_elected", self.sim.now, server.nid, term=server.time
            )

    # ------------------------------------------------------------------
    # Cluster operations
    # ------------------------------------------------------------------

    def elect(self, nid: NodeId, max_wait_ms: float = 1_000.0) -> bool:
        """Run an election by ``nid`` and wait for it to resolve."""
        if nid in self._crashed:
            return False
        server = self.servers[nid]
        started_ms = self.sim.now
        if self._obs:
            self.tracer.record(
                "election_start", started_ms, nid, term=server.time + 1
            )
            self._m_elections.inc()
        self._send_all(server.start_election(self.scheme))
        if self._obs and server.role == LEADER:
            # Immediate win (single-member electorate): no ack will
            # arrive to trigger the transition in _receive.
            self.tracer.record(
                "leader_elected", self.sim.now, nid, term=server.time
            )
        deadline = self.sim.now + max_wait_ms
        self.sim.run_until(
            lambda: server.role == LEADER or self.sim.now >= deadline
            or self.sim.pending() == 0
        )
        won = server.role == LEADER
        if self._obs and won:
            self._h_election.observe(self.sim.now - started_ms)
        return won

    def leader(self) -> Optional[NodeId]:
        """The highest-term current *live* leader, if any."""
        best: Optional[NodeId] = None
        for nid, server in self.servers.items():
            if nid in self._crashed or server.role != LEADER:
                continue
            if best is None or server.time > self.servers[best].time:
                best = nid
        return best

    def submit(
        self,
        payload: Method,
        leader: NodeId,
        max_wait_ms: float = 10_000.0,
        request_id=None,
    ) -> RequestRecord:
        """Submit one regular command and wait until it is committed.

        ``request_id`` (a ``(client, seq)`` pair) makes the submission
        idempotent: if an entry carrying the same id is already in the
        leader's log -- a previous attempt that survived a failover --
        the command is *not* appended again; the call just waits for
        the existing entry to commit.
        """
        return self._submit(payload, leader, False, max_wait_ms, request_id)

    def submit_reconfig(
        self,
        new_conf: Config,
        leader: NodeId,
        max_wait_ms: float = 10_000.0,
        request_id=None,
    ) -> RequestRecord:
        """Submit a reconfiguration command and wait for commit."""
        return self._submit(new_conf, leader, True, max_wait_ms, request_id)

    def _submit(
        self,
        payload,
        leader_id: NodeId,
        is_reconfig: bool,
        max_wait_ms: float,
        request_id=None,
    ) -> RequestRecord:
        if leader_id in self._crashed:
            raise RuntimeError(f"leader S{leader_id} is down")
        server = self.servers[leader_id]
        record = RequestRecord(
            index=len(self.records),
            payload=payload,
            is_reconfig=is_reconfig,
            submitted_ms=self.sim.now,
        )
        self.records.append(record)
        if self._obs:
            self.tracer.record(
                "client_invoke", self.sim.now, leader_id,
                request=record.index, reconfig=is_reconfig,
                payload=repr(payload),
            )
            self._m_requests.inc()
        existing = server.find_request(request_id)
        if existing is not None:
            # At-most-once: a previous attempt already appended this
            # request and the entry survived into this leader's log.
            # Don't append again -- but a leader elected after the
            # append can only commit entries of its own term by
            # counting (Raft's commit rule), so lay down a no-op
            # barrier at the current term if none exists yet.
            target_len = existing
            if not server.has_entry_at_current_time():
                server.invoke(("noop",))
        elif is_reconfig:
            ok, reason = server.reconfig(
                payload, self.scheme, request_id=request_id
            )
            if not ok:
                raise RuntimeError(f"reconfig denied: {reason}")
            target_len = len(server.log)
        else:
            if not server.invoke(payload, request_id=request_id):
                raise RuntimeError("invoke refused: not leader")
            target_len = len(server.log)
        if self._obs and is_reconfig:
            try:
                members = sorted(payload)
            except TypeError:
                members = repr(payload)
            self.tracer.record(
                "reconfig", self.sim.now, leader_id,
                members=members, term=server.time,
            )
        self._send_all(server.broadcast_commit(self.scheme))
        if self._obs:
            # broadcast_commit re-evaluates the commit rule, so the
            # leader's index can advance here without any message
            # arriving (e.g. a single-member quorum).
            self._note_progress(server, server.role)
        deadline = self.sim.now + max_wait_ms
        self.sim.run_until(
            lambda: server.commit_len >= target_len
            or self.sim.now >= deadline
            or self.sim.pending() == 0
        )
        if server.commit_len < target_len:
            if self._obs:
                self._m_timeouts.inc()
            raise RuntimeError(
                f"request {record.index} did not commit within "
                f"{max_wait_ms}ms (commit_len={server.commit_len}, "
                f"target={target_len}, pending={self.sim.pending()})"
            )
        record.completed_ms = self.sim.now
        record.log_index = target_len
        if self._obs:
            self.tracer.record(
                "client_response", self.sim.now, leader_id,
                request=record.index, latency_ms=record.latency_ms,
            )
            self._m_completed.inc()
            self._h_latency.observe(record.latency_ms)
        return record

    def sync_followers(self, leader_id: NodeId, max_wait_ms: float = 1_000.0):
        """One extra broadcast so followers learn the commit index."""
        server = self.servers[leader_id]
        self._send_all(server.broadcast_commit(self.scheme))
        deadline = self.sim.now + max_wait_ms
        self.sim.run_until(
            lambda: self.sim.now >= deadline or self.sim.pending() == 0
        )

    # ------------------------------------------------------------------

    def committed_entries(self, nid: NodeId):
        return self.servers[nid].committed_log()

    def check_safety(self) -> List[str]:
        """The network-level safety check over the live cluster."""
        problems: List[str] = []
        items = sorted(
            (nid, s.committed_log()) for nid, s in self.servers.items()
        )
        for i, (nid_a, log_a) in enumerate(items):
            for nid_b, log_b in items[i + 1 :]:
                upto = min(len(log_a), len(log_b))
                if log_a[:upto] != log_b[:upto]:
                    problems.append(
                        f"S{nid_a}/S{nid_b} committed prefixes disagree"
                    )
        # The same engine the streaming monitor runs live: fold every
        # node's full log and commit point into one cache tree and
        # evaluate the core invariants.  This sees past the committed
        # prefixes -- e.g. two reconfig entries forked without an
        # intervening commit (Lemma B.8) are flagged here even though
        # no committed entry disagrees yet.
        from ..core.safety import IncrementalTreeChecker

        engine = IncrementalTreeChecker(
            frozenset(self.conf0), nodes=frozenset(self.servers)
        )
        for nid, server in sorted(self.servers.items()):
            engine.observe(nid, 0, list(server.log), server.commit_len)
        problems.extend(engine.violations())
        return problems

    def latencies(self) -> List[float]:
        """Latencies of completed requests, in submission order."""
        return [r.latency_ms for r in self.records if r.latency_ms is not None]
