"""Shard split/merge under load, as a checked scenario.

The Jepsen-style drill for the sharded deployment: worker threads
drive a mixed kvstore workload through :class:`ShardClient`\\ s (one
history each) while the control loop performs a shard **split** (half
of group 1's range moves to group 2) and then a **merge** (the range
moves back) mid-load, and a per-shard nemesis -- on its own thread,
so faults keep firing while the control thread is blocked inside a
migration -- kills group leaders and partitions them away,
deliberately jittered into the migration window, which is when the
freeze/drain/install protocol is actually under fire.

At the end the per-client histories are merged
(:func:`repro.net.client.merge_histories`) and the whole cross-group
record is checked per key by the unmodified Wing-Gong checker: every
key lives in exactly one group at a time, so linearizability composes
across shards by locality.  With per-group safety monitors enabled,
each group's live verdict is collected too.

Deterministic knobs (seeded workload mix, load-relative fault
schedule) keep runs reproducible; wall-clock still varies, so the
checked property is the safety verdict, never timing.
"""

from __future__ import annotations

import logging
import random
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..net.client import ClientError, merge_histories
from ..net.procs import poll
from ..runtime.history import History
from ..runtime.linearize import LinearizabilityResult, check_history
from ..runtime.nemesis import ShardFault, per_shard_schedule
from .manager import ShardedCluster
from .ring import KeyRange, RoutingTable

log = logging.getLogger("repro.shard.scenario")


@dataclass
class ShardScenarioConfig:
    """One scenario run: topology, workload mix, fault schedule."""

    groups: int = 2
    nodes_per_group: int = 3
    clients: int = 3
    ops: int = 200
    keys: int = 32
    seed: int = 0

    #: Operation mix (the remainder after reads/adds/deletes is puts).
    read_fraction: float = 0.3
    add_fraction: float = 0.35
    delete_fraction: float = 0.05

    #: Completed-op fractions at which the split and the merge start.
    split_at_frac: float = 0.25
    merge_at_frac: float = 0.55

    #: The per-shard nemesis (load-relative, seeded).
    faults: bool = True
    kills_per_group: int = 1
    respawn_after_ops: int = 30
    partition_groups: int = 1
    partition_ops: int = 25

    #: Per-operation client deadline; a timed-out op stays pending.
    op_timeout_s: float = 8.0
    #: Whole-run safety valve: workers abort past this.
    run_timeout_s: float = 180.0
    monitor: bool = False
    log_dir: Optional[str] = None


@dataclass
class ShardScenarioStats:
    ops_attempted: int = 0
    ops_completed: int = 0
    ops_unknown: int = 0
    reroutes: int = 0
    kills: int = 0
    respawns: int = 0
    partitions: int = 0
    migrations_done: int = 0
    migrations_failed: int = 0
    fault_log: List[str] = field(default_factory=list)

    def describe(self) -> str:
        return (
            f"{self.ops_completed}/{self.ops_attempted} ops ok "
            f"({self.ops_unknown} unknown, {self.reroutes} reroutes), "
            f"{self.kills} kills, {self.partitions} partitions, "
            f"{self.migrations_done}/"
            f"{self.migrations_done + self.migrations_failed} migrations"
        )


@dataclass
class ShardScenarioResult:
    config: ShardScenarioConfig
    history: History
    linearizability: LinearizabilityResult
    stats: ShardScenarioStats
    table: RoutingTable
    #: Per-group monitor verdict (``None`` when no monitor attached).
    monitor_ok: Dict[int, Optional[bool]] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        # Failed migration *attempts* are tolerated (they are retried
        # and leave nothing inconsistent behind); what must hold is
        # that both reconfigurations eventually completed and the
        # merged history checks out.
        expected = 2 if self.config.groups > 1 else 0
        return (
            self.linearizability.ok
            and self.stats.migrations_done == expected
            and all(v is not False for v in self.monitor_ok.values())
        )

    def describe(self) -> str:
        verdict = "OK" if self.ok else "VIOLATIONS FOUND"
        lines = [
            f"shard scenario seed={self.config.seed}: {verdict}",
            f"  {self.stats.describe()}",
            f"  routing table: {self.table.describe()}",
            f"  {self.linearizability.describe()}",
        ]
        for gid, good in sorted(self.monitor_ok.items()):
            state = "ok" if good else ("unreachable" if good is None
                                       else "VIOLATION")
            lines.append(f"  monitor g{gid}: {state}")
        if self.stats.fault_log:
            lines.append("  faults: " + "; ".join(self.stats.fault_log))
        return "\n".join(lines)


class _Workload:
    """The worker side: seeded per-client op streams over one shared
    attempt counter (the clock the nemesis and migrations key off)."""

    def __init__(self, config: ShardScenarioConfig,
                 cluster: ShardedCluster) -> None:
        self.config = config
        self.cluster = cluster
        self.attempts = 0
        self.completed = 0
        self.unknown = 0
        self.reroutes = 0
        self._lock = threading.Lock()
        self.abort = threading.Event()
        self.histories: List[History] = []
        self._threads: List[threading.Thread] = []

    def _bump(self, ok: bool) -> None:
        with self._lock:
            self.attempts += 1
            if ok:
                self.completed += 1
            else:
                self.unknown += 1

    def _run_client(self, index: int, quota: int) -> None:
        config = self.config
        rng = random.Random(config.seed * 1009 + index)
        client = self.cluster.client(
            client_id=f"shard-w{index}",
            total_timeout_s=config.op_timeout_s,
        )
        self.histories.append(client.history)
        with client:
            for _ in range(quota):
                if self.abort.is_set():
                    return
                key = f"k{rng.randrange(config.keys)}"
                draw = rng.random()
                try:
                    if draw < config.read_fraction:
                        client.get(key)
                    elif draw < config.read_fraction + config.add_fraction:
                        client.add(key, rng.randrange(1, 10))
                    elif draw < (config.read_fraction + config.add_fraction
                                 + config.delete_fraction):
                        client.delete(key)
                    else:
                        client.put(key, rng.randrange(1000))
                    self._bump(ok=True)
                except ClientError:
                    # Unknown outcome (or exhausted re-routes): the
                    # operation stays pending in the history.
                    self._bump(ok=False)
            with self._lock:
                self.reroutes += client.reroutes

    def start(self) -> None:
        config = self.config
        quota, extra = divmod(config.ops, config.clients)
        for index in range(config.clients):
            thread = threading.Thread(
                target=self._run_client,
                args=(index, quota + (1 if index < extra else 0)),
                daemon=True,
            )
            self._threads.append(thread)
            thread.start()

    def running(self) -> bool:
        return any(thread.is_alive() for thread in self._threads)

    def join(self, timeout_s: float) -> None:
        deadline = time.monotonic() + timeout_s
        for thread in self._threads:
            thread.join(max(0.1, deadline - time.monotonic()))
        if self.running():
            self.abort.set()
            for thread in self._threads:
                thread.join(5.0)


class _Nemesis:
    """The fault side: consumes a load-relative schedule against the
    live cluster on its **own daemon thread** (sharing the control
    thread would stall every fault for the full length of a migration
    call -- precisely the window faults exist to hit); every action is
    best-effort (a fault that finds its target already dead just
    logs).  Cluster surfaces it touches are nemesis-thread-safe:
    ``wait_for_leader`` probes through a fresh client, ``respawn``
    re-pushes ownership through its own client under the manager's
    ownership lock, and partitions go through this class's own admin
    clients."""

    def __init__(self, cluster: ShardedCluster,
                 schedule: Tuple[ShardFault, ...],
                 stats: ShardScenarioStats) -> None:
        self.cluster = cluster
        self.pending = list(schedule)
        self.stats = stats
        self._killed: Dict[int, int] = {}
        self._partitioned: Dict[int, int] = {}
        self._thread: Optional[threading.Thread] = None
        self._halt = threading.Event()

    def start(self, at_op_fn) -> None:
        """Fire schedule entries as ``at_op_fn()`` (the workload's
        attempt counter) passes them, until :meth:`stop` or the
        schedule runs dry."""

        def loop() -> None:
            while not self._halt.is_set() and self.pending:
                self.poll(at_op_fn())
                self._halt.wait(0.02)

        self._thread = threading.Thread(target=loop, daemon=True)
        self._thread.start()

    def stop(self) -> None:
        self._halt.set()
        if self._thread is not None:
            self._thread.join(timeout=30.0)
            self._thread = None

    def poll(self, at_op: int) -> None:
        while self.pending and self.pending[0].at_op <= at_op:
            fault = self.pending.pop(0)
            try:
                self._fire(fault)
                self.stats.fault_log.append(fault.describe())
            except (ClientError, RuntimeError, OSError) as exc:
                self.stats.fault_log.append(
                    f"{fault.describe()} failed: {exc}"
                )

    def _fire(self, fault: ShardFault) -> None:
        gid = fault.gid
        if fault.action == "kill-leader":
            leader = self.cluster.wait_for_leader(gid, timeout_s=5.0)
            self.cluster.kill(gid, leader)
            self._killed[gid] = leader
            self.stats.kills += 1
        elif fault.action == "respawn":
            nid = self._killed.pop(gid, None)
            if nid is not None:
                self.cluster.respawn(gid, nid)
                self.stats.respawns += 1
        elif fault.action == "partition-leader":
            leader = self.cluster.wait_for_leader(gid, timeout_s=5.0)
            self._set_partition(gid, leader)
            self._partitioned[gid] = leader
            self.stats.partitions += 1
        elif fault.action == "heal":
            if self._partitioned.pop(gid, None) is not None:
                self._set_partition(gid, None)

    def _set_partition(self, gid: int, leader: Optional[int]) -> None:
        """Isolate ``leader`` from its group (raft traffic only; admin
        and client connections still reach it, so it keeps refusing or
        stalling requests like a real isolated leader).  ``None``
        heals."""
        cluster = self.cluster.clusters[gid]
        with cluster.client(client_id=f"nemesis-g{gid}") as admin:
            for nid, handle in cluster.handles.items():
                if not handle.alive:
                    continue
                if leader is None:
                    blocked: Tuple[int, ...] = ()
                elif nid == leader:
                    blocked = tuple(
                        other for other in cluster.handles if other != nid
                    )
                else:
                    blocked = (leader,)
                try:
                    admin.partition(nid, blocked)
                except (ClientError, OSError) as exc:
                    log.warning("partition push to g%d n%d failed: %s",
                                gid, nid, exc)

    def heal_all(self) -> None:
        for gid in list(self._partitioned):
            try:
                self._fire(ShardFault(0, gid, "heal"))
            except (ClientError, RuntimeError, OSError):
                pass
        for gid, nid in list(self._killed.items()):
            try:
                self.cluster.respawn(gid, nid)
                self.stats.respawns += 1
            except (ClientError, RuntimeError, OSError):
                pass
        self._killed.clear()


def run_shard_scenario(config: ShardScenarioConfig) -> ShardScenarioResult:
    """Run one seeded split/merge-under-load drill; returns the merged
    history plus every verdict."""
    stats = ShardScenarioStats()
    schedule = (
        per_shard_schedule(
            config.seed,
            tuple(range(1, config.groups + 1)),
            config.ops,
            kills_per_group=config.kills_per_group,
            respawn_after_ops=config.respawn_after_ops,
            partition_groups=config.partition_groups,
            partition_ops=config.partition_ops,
        )
        if config.faults
        else ()
    )
    split_at = int(config.ops * config.split_at_frac)
    merge_at = int(config.ops * config.merge_at_frac)
    with ShardedCluster(
        groups=config.groups,
        nodes_per_group=config.nodes_per_group,
        seed=config.seed,
        monitor=config.monitor,
        log_dir=config.log_dir,
    ) as cluster:
        for gid in cluster.gids:
            cluster.wait_for_leader(gid)
        workload = _Workload(config, cluster)
        nemesis = _Nemesis(cluster, schedule, stats)
        workload.start()
        nemesis.start(lambda: workload.attempts)
        moved: Optional[KeyRange] = None
        merged_back = False
        src, dst = 1, 2 if config.groups > 1 else 1
        # A failed migration is retryable verbatim (nothing published,
        # every earlier step idempotent); until it succeeds the range
        # is frozen -- unavailable, never inconsistent -- so retry a
        # few times rather than strand the workload's keys.
        attempts_left = 3

        def migrate_when_due() -> Optional[bool]:
            """One look at the workload: ``True`` once it has finished;
            until then, fire the split / merge whose op count is due."""
            nonlocal moved, merged_back, attempts_left
            if not workload.running():
                return True
            at_op = workload.attempts
            if (moved is None and at_op >= split_at and dst != src
                    and attempts_left > 0):
                try:
                    moved, _ = cluster.split(src, dst)
                    stats.migrations_done += 1
                    attempts_left = 3
                    stats.fault_log.append(
                        f"@{at_op} split {moved.describe()} g{src}->g{dst}"
                    )
                except (ClientError, RuntimeError, OSError) as exc:
                    stats.migrations_failed += 1
                    attempts_left -= 1
                    stats.fault_log.append(f"@{at_op} split failed: {exc}")
            elif (moved is not None and not merged_back
                  and at_op >= merge_at and attempts_left > 0):
                try:
                    cluster.merge(moved, src)
                    stats.migrations_done += 1
                    attempts_left = 3
                    stats.fault_log.append(
                        f"@{at_op} merge {moved.describe()} g{dst}->g{src}"
                    )
                    merged_back = True
                except (ClientError, RuntimeError, OSError) as exc:
                    stats.migrations_failed += 1
                    attempts_left -= 1
                    stats.fault_log.append(f"@{at_op} merge failed: {exc}")
            return None

        if poll(migrate_when_due, config.run_timeout_s, 0.02) is None:
            workload.abort.set()
            stats.fault_log.append("run timeout: aborted workload")
        nemesis.stop()
        nemesis.heal_all()
        workload.join(timeout_s=30.0)
        stats.ops_attempted = workload.attempts
        stats.ops_completed = workload.completed
        stats.ops_unknown = workload.unknown
        stats.reroutes = workload.reroutes
        monitor_ok: Dict[int, Optional[bool]] = {}
        if config.monitor:
            for gid in cluster.gids:
                status = cluster.monitor_status(gid)
                monitor_ok[gid] = None if status is None else status.ok
        table = cluster.authority.table()
    history = merge_histories(workload.histories)
    return ShardScenarioResult(
        config=config,
        history=history,
        linearizability=check_history(history),
        stats=stats,
        table=table,
        monitor_ok=monitor_ok,
    )
