"""A synchronous TCP client for the real-network runtime.

The operational loop mirrors the PR-2 failover driver, but over
sockets: every command is stamped with a ``(client_id, seq)`` request
id before the first attempt, so however many times it is retried --
across timeouts, dead leaders, and ``not-leader`` redirects -- the
cluster applies it **at most once** (the leader recognizes the id in
its log and waits for the existing entry instead of re-appending).

Leader discovery is hint-driven: any node answers a
:class:`~repro.net.wire.StatusRequest` with its best ``leader_hint``,
and a ``not-leader`` refusal carries one too; the client follows hints
and falls back to round-robin probing when they go stale.

Every kvstore operation is recorded into a
:class:`repro.runtime.history.History` with wall-clock timestamps:
``invoke`` before the first attempt, ``complete`` only on a definitive
response.  An operation that exhausts its deadline stays *pending* --
its outcome is unknown (it may commit later), which is exactly the
Jepsen-style semantics the Wing-Gong checker
(:mod:`repro.runtime.linearize`) expects.
"""

from __future__ import annotations

import dataclasses
import socket
import time
from typing import Any, Dict, Iterable, List, Optional, Tuple

from ..runtime.history import History, Operation
from .wire import (
    ClientRequest,
    ClientResponse,
    LogRequest,
    LogResponse,
    PartitionRequest,
    PartitionResponse,
    ProtocolError,
    ShardDumpRequest,
    ShardDumpResponse,
    ShardOwnershipRequest,
    ShardOwnershipResponse,
    StatusRequest,
    StatusResponse,
    decode_message,
    encode_frame,
    recv_frame,
)


def now_ms() -> float:
    return time.monotonic() * 1000.0


class ClientError(Exception):
    """A definitive, non-retryable failure (e.g. a denied reconfig)."""


class ClientTimeout(ClientError):
    """The operation's outcome is unknown: every attempt timed out."""


class WrongShard(ClientError):
    """The group refused the key: it does not own it (any more).

    Definitive and *safe to retry elsewhere*: the refusal happens at
    admission, before anything enters the log, so the command was not
    applied.  ``table_version`` is the refusing node's ownership
    version -- a routing-aware caller (:class:`repro.shard.client.
    ShardClient`) refetches at least that table version and re-routes.

    :meth:`NetClient.request` only raises this when **every** attempt
    of the request ended in a definitive pre-admission refusal.  If any
    attempt was ambiguous -- it timed out or errored after the request
    may have reached a node, or a dethroned leader bounced it *after*
    appending it (``admitted`` refusals) -- the command may sit in some
    log and commit later, so a wrong-shard reply from one node proves
    nothing group-wide: the request keeps retrying in-group (the dedup
    path can still surface the committed result) and exhaustion raises
    :class:`ClientTimeout`, never this.  Re-routing an ambiguous
    command to another group would let it apply twice.
    """

    def __init__(self, message: str, table_version: Optional[int] = None):
        super().__init__(message)
        self.table_version = table_version


class NetClient:
    """A blocking client of a :mod:`repro.net` cluster."""

    def __init__(
        self,
        addresses: Dict[int, Tuple[str, int]],
        client_id: str = "client-0",
        history: Optional[History] = None,
        request_timeout_s: float = 1.0,
        total_timeout_s: float = 20.0,
        retry_delay_s: float = 0.02,
        max_attempts: Optional[int] = None,
    ) -> None:
        if not addresses:
            raise ValueError("need at least one node address")
        self.addresses = dict(addresses)
        self.client_id = client_id
        self.history = history if history is not None else History()
        self.request_timeout_s = request_timeout_s
        self.total_timeout_s = total_timeout_s
        self.retry_delay_s = retry_delay_s
        #: Per-operation attempt cap (None: deadline-bound only).  A
        #: one-shot CLI invocation against a fully-down cluster fails
        #: after this many tries instead of spinning out the deadline.
        self.max_attempts = max_attempts
        self._seq = 0
        self._leader_guess: Optional[int] = None
        self._conns: Dict[int, socket.socket] = {}
        #: Per-op retry counts, for reporting.
        self.retries = 0

    # ------------------------------------------------------------------
    # Connections
    # ------------------------------------------------------------------

    def _connect(
        self, nid: int, timeout_s: Optional[float] = None
    ) -> socket.socket:
        sock = self._conns.get(nid)
        if sock is not None:
            return sock
        host, port = self.addresses[nid]
        # ``is None``, not truthiness: an explicit ``timeout_s=0.0`` (or
        # a sub-ms clamped remainder rounding to 0.0) must stay 0.0 --
        # ``or`` would silently replace it with the full default and
        # defeat the total-deadline clamp in :meth:`request`.
        sock = socket.create_connection(
            (host, port),
            timeout=(
                timeout_s if timeout_s is not None else self.request_timeout_s
            ),
        )
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._conns[nid] = sock
        return sock

    def _drop(self, nid: int) -> None:
        sock = self._conns.pop(nid, None)
        if sock is not None:
            try:
                sock.close()
            except OSError:  # pragma: no cover - close never matters
                pass

    def close(self) -> None:
        for nid in list(self._conns):
            self._drop(nid)

    def __enter__(self) -> "NetClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Raw RPCs
    # ------------------------------------------------------------------

    def _rpc(self, nid: int, message, timeout_s: Optional[float] = None):
        """One request/response exchange; connection errors propagate
        (after dropping the cached socket)."""
        try:
            sock = self._connect(nid, timeout_s)
            sock.settimeout(
                timeout_s if timeout_s is not None else self.request_timeout_s
            )
            sock.sendall(encode_frame(message))
            return decode_message(recv_frame(sock))
        except (OSError, ProtocolError, ConnectionError):
            self._drop(nid)
            raise

    def status(self, nid: int) -> Optional[StatusResponse]:
        """Probe one node; ``None`` when it is unreachable."""
        try:
            reply = self._rpc(nid, StatusRequest())
        except (OSError, ProtocolError, ConnectionError):
            return None
        return reply if isinstance(reply, StatusResponse) else None

    def committed_log(self, nid: int):
        """A node's committed log entries (for cross-node safety
        checks); ``None`` when unreachable.  After compaction only the
        tail past the snapshot is available -- use
        :meth:`committed_tail` when offsets matter."""
        tail = self.committed_tail(nid)
        return tail[0] if tail is not None else None

    def committed_tail(self, nid: int):
        """``(entries, base_len)``: a node's committed entries from
        absolute index ``base_len`` on; ``None`` when unreachable."""
        try:
            reply = self._rpc(nid, LogRequest(), timeout_s=5.0)
        except (OSError, ProtocolError, ConnectionError):
            return None
        if not isinstance(reply, LogResponse):
            return None
        return reply.entries, reply.base_len

    def find_leader(self) -> Optional[int]:
        """Probe every node and return the highest-term live leader."""
        best: Optional[Tuple[int, int]] = None
        hints: List[int] = []
        for nid in sorted(self.addresses):
            reply = self.status(nid)
            if reply is None:
                continue
            if reply.role == "leader":
                if best is None or reply.term > best[0]:
                    best = (reply.term, nid)
            elif reply.leader_hint is not None:
                hints.append(reply.leader_hint)
        if best is not None:
            self._leader_guess = best[1]
            return best[1]
        for hint in hints:
            if hint in self.addresses:
                self._leader_guess = hint
                return hint
        return None

    # ------------------------------------------------------------------
    # The at-most-once request loop
    # ------------------------------------------------------------------

    def request(
        self,
        command: Tuple,
        operation: Optional[Operation] = None,
        table_version: Optional[int] = None,
    ):
        """Submit one command until a definitive response or deadline.

        Returns the result value on success.  Raises
        :class:`ClientTimeout` when the outcome is unknown,
        :class:`WrongShard` when the group refuses the key at admission
        (safe to re-route), and :class:`ClientError` on any other
        definitive refusal.  ``operation`` (an open history record) is
        completed only on success.  ``table_version`` stamps the
        request with the routing-table version the caller routed by.

        Targeting: the current leader guess first; a refusal or failure
        updates or clears the guess, falling back to round-robin
        probing of every node.
        """
        seq = self._seq
        self._seq += 1
        request = ClientRequest(
            client_id=self.client_id, seq=seq, command=command,
            table_version=table_version,
        )
        deadline = time.monotonic() + self.total_timeout_s
        ordered = sorted(self.addresses)
        first = True
        probe = 0
        attempts = 0
        # Whether any attempt of *this* request ended ambiguously: the
        # request may have reached a node (sent but no definitive
        # reply), or a dethroned leader bounced it after appending it.
        # Once set, the command may sit in a log and commit later, so
        # "wrong-shard" from one node stops proving group-wide
        # non-admission and must surface as ClientTimeout, never as a
        # re-routable WrongShard (a cross-group retry could apply the
        # command twice).
        maybe_admitted = False
        while time.monotonic() < deadline:
            if self.max_attempts is not None and attempts >= self.max_attempts:
                raise ClientTimeout(
                    f"{command!r}: no definitive response after "
                    f"{attempts} attempts"
                )
            attempts += 1
            if self._leader_guess in self.addresses:
                nid = self._leader_guess
            else:
                nid = ordered[probe % len(ordered)]
                probe += 1
            if not first:
                self.retries += 1
                time.sleep(
                    min(self.retry_delay_s, max(0.0, deadline - time.monotonic()))
                )
            first = False
            # Clamp the attempt to the remaining total budget: an
            # unclamped per-attempt timeout lets the last attempt
            # overshoot ``total_timeout_s`` by up to a full
            # ``request_timeout_s`` (connect + recv).
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                break
            budget = min(self.request_timeout_s, remaining)
            # Connect separately from send/recv: a connection that
            # never came up is a *definitive* non-delivery, while any
            # failure after it (timeout, reset, garbage) leaves the
            # attempt's fate unknown.
            try:
                self._connect(nid, timeout_s=budget)
            except (OSError, ConnectionError):
                if self._leader_guess == nid:
                    self._leader_guess = None
                continue
            try:
                reply = self._rpc(nid, request, timeout_s=budget)
            except (OSError, ProtocolError, ConnectionError):
                # The request may have reached the node before the
                # failure: ambiguous.  Forget a guess that failed us
                # and move on to the next candidate.
                maybe_admitted = True
                if self._leader_guess == nid:
                    self._leader_guess = None
                continue
            if not isinstance(reply, ClientResponse) or reply.seq != seq:
                # Stale frame from an abandoned attempt; this attempt's
                # own request went out and its reply is lost: ambiguous.
                maybe_admitted = True
                self._drop(nid)
                continue
            if reply.admitted:
                # The command entered a log before this refusal (a
                # dethroned leader's bounce): it may still commit.
                maybe_admitted = True
            if reply.ok:
                if operation is not None:
                    self.history.complete(operation, now_ms(), reply.result)
                self._leader_guess = nid
                return reply.result
            if reply.error == "not-leader":
                self._leader_guess = (
                    reply.leader_hint
                    if reply.leader_hint in self.addresses
                    and reply.leader_hint != nid
                    else None
                )
                continue
            if reply.error == "retry":
                self._leader_guess = nid
                continue
            if reply.error == "wrong-shard":
                if maybe_admitted:
                    # This node refused at admission, but an earlier
                    # attempt may have landed the command in another
                    # node's log pre-freeze.  Keep retrying in-group:
                    # at-most-once beats ownership, so a node holding
                    # the entry serves its outcome; if none does, the
                    # deadline surfaces ClientTimeout (never re-routed).
                    self._leader_guess = None
                    continue
                raise WrongShard(
                    f"{command!r} refused: group does not own the key "
                    f"(node table version {reply.table_version})",
                    table_version=reply.table_version,
                )
            raise ClientError(f"{command!r} refused: {reply.error}")
        raise ClientTimeout(f"{command!r}: outcome unknown after deadline")

    # ------------------------------------------------------------------
    # The kvstore surface (history-recorded)
    # ------------------------------------------------------------------

    def _op(self, op: str, key: str, value: Any, command: Tuple):
        operation = self.history.invoke(
            self.client_id, op, key, value, now_ms()
        )
        return self.request(command, operation=operation)

    def put(self, key: str, value: Any):
        return self._op("put", key, value, ("put", key, value))

    def add(self, key: str, delta: int = 1):
        return self._op("add", key, delta, ("add", key, delta))

    def delete(self, key: str):
        return self._op("delete", key, None, ("delete", key))

    def get(self, key: str):
        return self._op("get", key, None, ("get", key))

    def reconfigure(self, members: Iterable[int]):
        """Change the membership (not a kvstore op: no history record)."""
        return self.request(("reconfig", frozenset(members)))

    # ------------------------------------------------------------------
    # Directed operations (fault-injection drivers)
    # ------------------------------------------------------------------

    def request_direct(
        self, nid: int, command: Tuple, timeout_s: Optional[float] = None
    ) -> ClientResponse:
        """One attempt against one *specific* node: no redirects, no
        retries, no history record.  Partition-schedule drivers need to
        ask a particular replica to act (e.g. a reconfig at an isolated
        leader) and to see its verbatim refusal; socket errors and
        timeouts propagate."""
        seq = self._seq
        self._seq += 1
        reply = self._rpc(
            nid,
            ClientRequest(
                client_id=self.client_id, seq=seq, command=command
            ),
            timeout_s=timeout_s,
        )
        if not isinstance(reply, ClientResponse):
            raise ProtocolError(f"unexpected reply {type(reply).__name__}")
        return reply

    def partition(self, nid: int, blocked: Iterable[int]):
        """Replace node ``nid``'s blocked-peer set (admin fault
        injection; an empty set heals).  Returns the ack or raises."""
        reply = self._rpc(
            nid, PartitionRequest(blocked=tuple(sorted(blocked))),
            timeout_s=5.0,
        )
        if not isinstance(reply, PartitionResponse):
            raise ProtocolError(f"unexpected reply {type(reply).__name__}")
        return reply

    def shard_ownership(
        self, nid: int, version: int, ranges: Iterable[Tuple[int, int]]
    ) -> ShardOwnershipResponse:
        """Push an ownership fact to node ``nid``: at routing-table
        ``version`` this group owns exactly ``ranges`` (hash-space
        ``[lo, hi)`` pairs).  The node refuses keyed commands outside
        them with ``"wrong-shard"``.  Returns the ack or raises."""
        reply = self._rpc(
            nid,
            ShardOwnershipRequest(
                version=version,
                ranges=tuple((lo, hi) for lo, hi in ranges),
            ),
            timeout_s=5.0,
        )
        if not isinstance(reply, ShardOwnershipResponse):
            raise ProtocolError(f"unexpected reply {type(reply).__name__}")
        return reply

    def shard_dump(
        self, nid: int, lo: int, hi: int, timeout_s: float = 10.0
    ) -> ShardDumpResponse:
        """Ask node ``nid`` for its *applied committed* kvstore entries
        whose keys hash into ``[lo, hi)`` (migration drain).  The reply
        carries the node's role and log/commit lengths so the caller
        can insist on a quiesced leader.  Returns the dump or raises."""
        reply = self._rpc(
            nid, ShardDumpRequest(lo=lo, hi=hi), timeout_s=timeout_s
        )
        if not isinstance(reply, ShardDumpResponse):
            raise ProtocolError(f"unexpected reply {type(reply).__name__}")
        return reply


def merge_histories(histories: Iterable[History]) -> History:
    """Merge per-client histories into one checkable record.

    Monotonic timestamps from one process are comparable across
    threads, so concatenation plus re-numbering preserves real-time
    order; op_ids are re-assigned to stay unique.  The sources are left
    untouched: renumbering happens on *copies*, so a history can be
    merged (e.g. per-group first, then across groups) any number of
    times without corrupting the originals' op_ids.
    """
    merged = History()
    operations = [
        op for history in histories for op in history.operations
    ]
    operations.sort(key=lambda op: op.invoked_ms)
    for op_id, op in enumerate(operations):
        merged.operations.append(dataclasses.replace(op, op_id=op_id))
    return merged
