"""An autonomous cluster: timeouts, heartbeats, self-driven elections.

The paper's conclusion points at liveness as the natural next step:
"This requires introducing a notion of time and an assumption of a
partially synchronous network."  The discrete-event simulator provides
exactly that, so this module builds the missing operational layer the
externally-driven :class:`~repro.runtime.cluster.Cluster` leaves out:

* every node runs a randomized **election timeout**; if no heartbeat
  arrives in time it campaigns on its own (and campaigns again, with a
  fresh randomized timeout, if the election splits);
* the leader broadcasts **heartbeats** (empty ``CommitReq`` rounds) on a
  fixed interval, which also carries the commit index to followers;
* crashes silence a node; restarts resume it with durable state.

The policy itself -- when to campaign, when to heartbeat, when a
received message counts as a heartbeat -- lives in the
transport-agnostic :class:`~repro.runtime.driver.ElectionDriver`; this
module supplies the simulated-network transport around one driver per
node.  The real-TCP runtime (:mod:`repro.net.node`) wraps the *same*
driver around an asyncio loop, so both runtimes exercise identical
election logic (``tests/runtime/test_driver_equivalence.py`` pins the
extraction: seeded runs are bit-identical to the pre-driver code).

With this in place liveness becomes *measurable*: time to first
leader, unavailability window after a leader crash, and liveness under
hot reconfiguration -- the quantities
``benchmarks/test_liveness_recovery.py`` reports.  Safety remains
checked throughout (the model makes no liveness claims, and neither do
we beyond measurement: a partially synchronous network with randomized
timeouts recovers with high probability, not certainty).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..core.cache import Config, Method, NodeId
from ..core.config import ReconfigScheme
from ..raft.messages import CommitReq, ElectReq, Msg
from ..raft.server import LEADER
from .cluster import IndexedServer, SharedLog
from .driver import ElectionDriver, TimingConfig
from .simnet import LatencyModel, Simulator

__all__ = ["AutonomousCluster", "LeaderChange", "TimingConfig"]


@dataclass
class LeaderChange:
    """One observed leadership transition."""

    at_ms: float
    leader: NodeId
    term: int


class AutonomousCluster:
    """Specification servers driven entirely by timers and messages."""

    def __init__(
        self,
        conf0: Config,
        scheme: ReconfigScheme,
        seed: int = 0,
        latency: Optional[LatencyModel] = None,
        timing: Optional[TimingConfig] = None,
        processing_ms: float = 0.05,
        extra_nodes=(),
    ) -> None:
        self.scheme = scheme
        self.sim = Simulator(seed=seed)
        self.latency = latency or LatencyModel()
        self.timing = timing or TimingConfig()
        self.processing_ms = processing_ms
        nodes = set(scheme.members(conf0)) | set(extra_nodes)
        self.servers: Dict[NodeId, IndexedServer] = {
            nid: IndexedServer(nid=nid, conf0=conf0, log=SharedLog())
            for nid in sorted(nodes)
        }
        self._crashed: set = set()
        self._last_heartbeat: Dict[NodeId, float] = {
            nid: 0.0 for nid in self.servers
        }
        self.leader_changes: List[LeaderChange] = []
        # One policy driver per node, all drawing timeouts from the
        # simulator's seeded RNG (in arming order, which keeps seeded
        # runs reproducible -- and identical to the pre-driver code).
        self.drivers: Dict[NodeId, ElectionDriver] = {
            nid: ElectionDriver(
                server=self.servers[nid],
                scheme=scheme,
                timing=self.timing,
                rng=self.sim.rng,
                schedule=self.sim.schedule,
                send_all=self._send_all,
                is_active=lambda nid=nid: nid not in self._crashed,
                on_leader=lambda term, nid=nid: self._record_leader(nid, term),
            )
            for nid in self.servers
        }
        for nid in self.servers:
            self.drivers[nid].arm()

    def _record_leader(self, nid: NodeId, term: int) -> None:
        self.leader_changes.append(
            LeaderChange(at_ms=self.sim.now, leader=nid, term=term)
        )

    # ------------------------------------------------------------------
    # Network
    # ------------------------------------------------------------------

    def _send_all(self, msgs) -> None:
        msgs = list(msgs)
        tx = self.latency.tx_per_entry_ms * sum(
            self._payload(m) for m in msgs
        )
        for msg in msgs:
            if msg.to not in self.servers:
                continue
            delay = tx + self.latency.sample(self.sim.rng, self._payload(msg))
            self.sim.schedule(delay, lambda m=msg: self._receive(m))

    def _payload(self, msg: Msg) -> int:
        if isinstance(msg, (ElectReq, CommitReq)):
            receiver = self.servers.get(msg.to)
            have = len(receiver.log) if receiver is not None else 0
            return max(0, len(msg.log) - have)
        return 0

    def _receive(self, msg: Msg) -> None:
        if msg.to in self._crashed:
            return
        responses, accepted = self.drivers[msg.to].on_message(msg)
        if accepted:
            self._last_heartbeat[msg.to] = self.sim.now
        self.sim.schedule(
            self.processing_ms, lambda: self._send_all(responses)
        )

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------

    def crash(self, nid: NodeId) -> None:
        """Fail-stop ``nid`` (durable log survives)."""
        self._crashed.add(nid)

    def restart(self, nid: NodeId) -> None:
        self._crashed.discard(nid)
        self.servers[nid].role = "follower"
        self.drivers[nid].arm()

    def leader(self) -> Optional[NodeId]:
        """The live leader with the highest term, if any."""
        best = None
        for nid, server in self.servers.items():
            if nid in self._crashed or server.role != LEADER:
                continue
            if best is None or server.time > self.servers[best].time:
                best = nid
        return best

    def wait_for_leader(self, max_wait_ms: float = 2_000.0) -> Optional[NodeId]:
        """Advance simulated time until some live node leads."""
        deadline = self.sim.now + max_wait_ms
        self.sim.run_until(
            lambda: self.leader() is not None or self.sim.now >= deadline
        )
        return self.leader()

    def submit(
        self, payload: Method, max_wait_ms: float = 2_000.0
    ) -> Optional[float]:
        """Submit one command to whoever currently leads; returns the
        commit latency or ``None`` on timeout (liveness, not safety)."""
        start = self.sim.now
        deadline = start + max_wait_ms
        while self.sim.now < deadline:
            leader = self.wait_for_leader(deadline - self.sim.now)
            if leader is None:
                return None
            server = self.servers[leader]
            if not server.invoke(payload):
                continue
            target = len(server.log)
            self._send_all(server.broadcast_commit(self.scheme))
            self.sim.run_until(
                lambda: server.commit_len >= target
                or server.role != LEADER
                or leader in self._crashed
                or self.sim.now >= deadline
            )
            if server.commit_len >= target:
                return self.sim.now - start
        return None

    def run_for(self, duration_ms: float) -> None:
        """Let the cluster run autonomously for a while."""
        deadline = self.sim.now + duration_ms
        self.sim.run_until(lambda: self.sim.now >= deadline)

    def check_safety(self) -> List[str]:
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
        return problems
