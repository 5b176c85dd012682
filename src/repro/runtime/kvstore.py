"""A replicated key-value store on top of the cluster.

The paper's running example (Section 2.2) is a distributed key-value
store whose ``put`` goes through the consensus machinery; methods in
the model are opaque, and this module supplies the application-level
interpretation: commands are encoded as tuples, the committed log is
folded into a dictionary, and reads are served from committed state
only (linearizable reads at the leader).
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

from ..core.cache import Config, NodeId
from ..core.config import ReconfigScheme
from ..raft.messages import Log, LogEntry
from .cluster import Cluster, LogFold
from .simnet import FaultPlan, LatencyModel


#: ("put", key, value) | ("add", key, delta) | ("delete", key)
#: | ("get", key) | ("noop",)
Command = Tuple


def apply_command(store: Dict[str, Any], command: Command) -> None:
    """Apply one committed command to a materialized dictionary.

    ``add`` is a non-idempotent read-modify-write (a counter
    increment): re-applying a duplicated entry visibly corrupts the
    state, which is what makes at-most-once retry bugs detectable by
    the linearizability checker.  ``get`` and ``noop`` entries are
    protocol/read markers that do not change the state.
    """
    op = command[0]
    if op == "put":
        _, key, value = command
        store[key] = value
    elif op == "add":
        _, key, delta = command
        store[key] = store.get(key, 0) + delta
    elif op == "delete":
        _, key = command
        store.pop(key, None)
    elif op in ("get", "noop"):
        pass
    else:
        raise ValueError(f"unknown command {command!r}")


def materialize(entries) -> Dict[str, Any]:
    """Fold a committed log into the key-value state (skips config
    entries -- they are consumed by the protocol, not the app)."""
    store: Dict[str, Any] = {}
    for entry in entries:
        if not entry.is_config:
            apply_command(store, entry.payload)
    return store


class KVView(LogFold):
    """A log prefix, applied: exactly what a snapshot of it holds.

    ``store`` is the key-value state, ``sessions`` the highest ``seq``
    seen per client (at-most-once dedup), and the inherited ``configs``
    the configuration history.  ``state_of(prefix)`` equals
    ``materialize(prefix)`` for every prefix given, in any order:
    :class:`LogFold` checks that what was applied so far is a prefix of
    the new one and starts over when it is not, so a reader of the view
    observes what a fresh fold would show -- it does not come to rely
    on the Log Matching property that the linearizability checker is
    there to test.

    This is the one place either tier applies a logged command, so it
    is where the tolerance rule lives: vocabulary the store does not
    know (a model checker's bare method names, a malformed command from
    a foreign leader) folds as a no-op instead of poisoning every later
    read and every compaction.
    """

    def reset(self, snap) -> None:
        self.store: Dict[str, Any] = dict(snap.store) if snap else {}
        self.sessions: Dict[str, int] = dict(snap.sessions) if snap else {}

    def absorb(self, position: int, entry: LogEntry) -> None:
        if not entry.is_config:
            try:
                apply_command(self.store, entry.payload)
            except (ValueError, TypeError, IndexError):
                pass
        if entry.request_id is not None:
            client_id, seq = entry.request_id
            if self.sessions.get(client_id, -1) < seq:
                self.sessions[client_id] = seq

    def state_of(self, prefix: Log) -> Dict[str, Any]:
        """The state after ``prefix``; the view's own dictionary, valid
        until the next call -- copy it to keep or change it."""
        self.follow(prefix)
        return self.store


class ReplicatedKV:
    """A strongly-consistent key-value store over a simulated cluster."""

    def __init__(
        self,
        conf0: Config,
        scheme: ReconfigScheme,
        seed: int = 0,
        leader: Optional[NodeId] = None,
        extra_nodes=(),
        latency: Optional[LatencyModel] = None,
        faults: Optional[FaultPlan] = None,
    ) -> None:
        self.cluster = Cluster(
            conf0,
            scheme,
            seed=seed,
            extra_nodes=extra_nodes,
            latency=latency,
            faults=faults,
        )
        self.leader = leader if leader is not None else min(scheme.members(conf0))
        #: One applied view per replica read so far.
        self._views: Dict[NodeId, KVView] = {}
        if not self.cluster.elect(self.leader):
            raise RuntimeError("initial election failed")

    def put(self, key: str, value: Any) -> float:
        """Replicate a ``put``; returns the commit latency in ms."""
        record = self.cluster.submit(("put", key, value), self.leader)
        return record.latency_ms

    def add(self, key: str, delta: int = 1) -> float:
        """Replicate a counter increment; returns the commit latency."""
        record = self.cluster.submit(("add", key, delta), self.leader)
        return record.latency_ms

    def delete(self, key: str) -> float:
        """Replicate a ``delete``; returns the commit latency in ms."""
        record = self.cluster.submit(("delete", key), self.leader)
        return record.latency_ms

    def _committed_state(self, nid: NodeId) -> Dict[str, Any]:
        view = self._views.get(nid)
        if view is None:
            view = self._views[nid] = KVView()
        return view.state_of(self.cluster.committed_entries(nid))

    def get(self, key: str, default: Any = None) -> Any:
        """Read from the leader's committed state."""
        return self._committed_state(self.leader).get(key, default)

    def snapshot(self) -> Dict[str, Any]:
        """The full committed key-value state at the leader."""
        return dict(self._committed_state(self.leader))

    def snapshot_at(self, nid: NodeId) -> Dict[str, Any]:
        """A replica's committed view (a prefix of the leader's)."""
        return dict(self._committed_state(nid))

    def reconfigure(self, new_conf: Config) -> float:
        """Change the membership without stopping the store."""
        record = self.cluster.submit_reconfig(new_conf, self.leader)
        return record.latency_ms

    def sync(self) -> None:
        """Push the commit index out to all followers."""
        self.cluster.sync_followers(self.leader)
