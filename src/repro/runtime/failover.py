"""Failure injection and client-side failover.

The paper's introduction motivates reconfiguration with inevitable
server failures: a dead replica must be replaced without stopping the
system.  This module adds the missing runtime pieces to play that
scenario end to end on the simulated cluster:

* :meth:`repro.runtime.cluster.Cluster.crash` / ``restart`` -- crashed
  nodes silently drop every message (fail-stop; their persistent state
  -- the log -- survives a restart, as benign consensus assumes);
* :class:`FailoverDriver` -- a client that retries requests across
  leader failures: on a timeout it promotes the next live member of the
  current configuration and re-submits, recording how long the outage
  lasted and how many retries each request needed.

Together with hot reconfiguration this reproduces the full operational
story: crash → failover election → keep serving → reconfig the dead
node out → reconfig a fresh node in.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from ..core.cache import Config, Method, NodeId
from .cluster import Cluster, RequestRecord


@dataclass
class FailoverEvent:
    """One leader change performed by the driver."""

    at_ms: float
    old_leader: Optional[NodeId]
    new_leader: NodeId
    elections_tried: int


@dataclass
class FailoverDriver:
    """A client that survives leader crashes by re-electing and retrying.

    Every submission is stamped with a ``(client_id, seq)`` request id,
    so a retry after a timeout is *at most once*: if the first attempt's
    entry survived into the new leader's log, the retry recognizes it
    and waits for it to commit instead of appending the command a
    second time.
    """

    cluster: Cluster
    leader: NodeId
    request_timeout_ms: float = 50.0
    election_timeout_ms: float = 200.0
    events: List[FailoverEvent] = field(default_factory=list)
    client_id: str = "client-0"
    #: When False the client stamps no request ids -- the historical
    #: pre-dedup client, kept as an explicit (and bundle-serializable)
    #: chaos discipline so the checkers' teeth can be demonstrated and
    #: *replayed* from a violation bundle.
    use_request_ids: bool = True
    _seq: int = field(default=0, repr=False)

    def _next_request_id(self):
        if not self.use_request_ids:
            return None
        rid = (self.client_id, self._seq)
        self._seq += 1
        return rid

    def _live_candidates(self) -> List[NodeId]:
        """Live members of the current leader's configuration, preferring
        the most up-to-date logs (they can actually win)."""
        reference = self.cluster.servers[self.leader]
        members = self.cluster.scheme.members(reference.config())
        candidates = [
            nid
            for nid in sorted(members)
            if not self.cluster.is_crashed(nid)
        ]
        from ..raft.messages import log_order_key

        candidates.sort(
            key=lambda nid: log_order_key(self.cluster.servers[nid].log),
            reverse=True,
        )
        return candidates

    def _fail_over(self) -> NodeId:
        old = self.leader
        tried = 0
        started_ms = self.cluster.sim.now
        for candidate in self._live_candidates():
            tried += 1
            if self.cluster.elect(candidate, max_wait_ms=self.election_timeout_ms):
                self.leader = candidate
                self.events.append(
                    FailoverEvent(
                        at_ms=self.cluster.sim.now,
                        old_leader=old,
                        new_leader=candidate,
                        elections_tried=tried,
                    )
                )
                metrics = self.cluster.metrics
                if metrics.enabled:
                    metrics.counter("failover.count").inc()
                    metrics.histogram("failover.elections_tried").observe(tried)
                    metrics.histogram("failover.outage_ms").observe(
                        self.cluster.sim.now - started_ms
                    )
                return candidate
        metrics = self.cluster.metrics
        if metrics.enabled:
            metrics.counter("failover.exhausted").inc()
        raise RuntimeError("no live candidate could win an election")

    def submit(self, payload: Method, max_attempts: int = 6) -> RequestRecord:
        """Submit one command at most once, failing over as needed."""
        request_id = self._next_request_id()
        for _ in range(max_attempts):
            if self.cluster.is_crashed(self.leader):
                self._fail_over()
                continue
            try:
                return self.cluster.submit(
                    payload,
                    self.leader,
                    max_wait_ms=self.request_timeout_ms,
                    request_id=request_id,
                )
            except RuntimeError:
                # Timeout: the leader may be dead or partitioned from a
                # quorum; try the next candidate.  The request id keeps
                # the retry from re-appending a command whose entry
                # already survived into the next leader's log.
                metrics = self.cluster.metrics
                if metrics.enabled:
                    metrics.counter("failover.retries").inc()
                self._fail_over()
        raise RuntimeError(f"request {payload!r} failed after retries")

    def reconfigure(self, new_conf: Config, max_attempts: int = 6) -> RequestRecord:
        """Reconfigure with the same failover discipline.

        R3 may require a committed command of the current term first;
        the driver submits a no-op to satisfy it when needed.
        """
        request_id = self._next_request_id()
        for _ in range(max_attempts):
            if self.cluster.is_crashed(self.leader):
                self._fail_over()
                continue
            server = self.cluster.servers[self.leader]
            already_appended = server.find_request(request_id) is not None
            if not already_appended and not server.has_commit_at_current_time():
                self.submit(("noop",))
                continue
            try:
                return self.cluster.submit_reconfig(
                    new_conf,
                    self.leader,
                    max_wait_ms=self.request_timeout_ms,
                    request_id=request_id,
                )
            except RuntimeError:
                self._fail_over()
        raise RuntimeError(f"reconfiguration to {new_conf!r} failed")
