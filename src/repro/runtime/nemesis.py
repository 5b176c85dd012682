"""An autonomous chaos ("nemesis") driver over the simulated cluster.

Jepsen's architecture on the discrete-event simulator: a generator
produces client operations against the replicated KV store while a
nemesis process injects faults -- message drops/duplication/reordering
(via the :class:`~repro.runtime.simnet.FaultPlan` threaded through the
cluster's transport), leader crashes with delayed restarts, network
partitions with scheduled heals, and membership churn along a
reconfiguration trajectory (the Fig. 16 5→3→5 walk, under fire).

Every run records a client :class:`~repro.runtime.history.History` and
ends with the two checks the paper's safety story calls for:

* ``check_safety()`` -- committed prefixes agree across replicas, plus
  an at-most-once audit (no client request committed twice);
* the Wing–Gong linearizability check of the recorded history
  (:mod:`repro.runtime.linearize`).

Everything is deterministic per seed: the simulator, the fault plan,
and the operation generator each own a seeded RNG.  So a run records no
event trace: a failing run that is to leave a violation bundle is run
again from its config with the tracer on, and that replay fills the
bundle.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..core.cachemgr import gc_paused
from ..obs.bundle import write_bundle
from ..obs.metrics import MetricsRegistry
from ..obs.trace import NULL_TRACER, Tracer
from ..raft.server import LEADER
from ..schemes.single_node import RaftSingleNodeScheme
from .cluster import Cluster
from .failover import FailoverDriver
from .history import History
from .kvstore import KVView
from .linearize import LinearizabilityResult, check_history
from .simnet import FaultPlan, LatencyModel, NetworkConditions


#: The Fig. 16 membership walk (single-node scheme: one change per step).
FIG16_TRAJECTORY: Tuple[frozenset, ...] = (
    frozenset({1, 2, 3, 4}),
    frozenset({1, 2, 3}),
    frozenset({1, 2, 3, 4}),
    frozenset({1, 2, 3, 4, 5}),
)


@dataclass
class NemesisConfig:
    """One chaos run: workload mix, fault schedule, timeouts."""

    seed: int = 0
    ops: int = 500
    keys: int = 4
    initial_members: frozenset = frozenset({1, 2, 3})
    #: Nodes instantiated beyond the initial members (needed when the
    #: reconfiguration trajectory grows the cluster).
    extra_nodes: frozenset = frozenset()

    #: Operation mix (the remainder after reads/adds/deletes is puts).
    read_fraction: float = 0.3
    add_fraction: float = 0.35
    delete_fraction: float = 0.05

    #: Stochastic link faults, applied to every message.
    conditions: NetworkConditions = field(default_factory=NetworkConditions)
    latency: Optional[LatencyModel] = None

    #: Op indices at which the nemesis crashes the current leader.
    crash_leader_at: Tuple[int, ...] = ()
    #: Ops until a crashed node is restarted.
    restart_after_ops: int = 25
    #: Op index at which the current leader is partitioned away from
    #: the rest of the cluster (None = no partition).
    partition_at: Optional[int] = None
    #: How long the partition lasts, in simulated ms.
    partition_ms: float = 40.0
    partition_symmetric: bool = True

    #: Membership configurations to walk through, evenly spaced over
    #: the run; each must differ from its predecessor by one node.
    reconfig_trajectory: Tuple[frozenset, ...] = ()

    request_timeout_ms: float = 30.0
    election_timeout_ms: float = 200.0

    #: When False the driver runs without ``(client, seq)`` request ids
    #: -- the historical at-most-once bug, selectable as an explicit
    #: chaos discipline (and recorded in violation bundles, so a bundle
    #: of the resulting violation replays faithfully).
    client_request_ids: bool = True
    #: Ring-buffer capacity of a violation bundle's event trace.  The
    #: run itself is never traced; a failing run with ``bundle_dir``
    #: set is replayed once with a tracer of this size.  0 writes the
    #: bundle with an empty trace and skips the replay.
    trace_capacity: int = 200_000
    #: When set, a run that fails either checker writes a replayable
    #: violation bundle (config, verdicts, stats, metrics, trace,
    #: history) under this directory.
    bundle_dir: Optional[str] = None


@dataclass
class NemesisStats:
    """What actually happened during a run."""

    ops_attempted: int = 0
    ops_completed: int = 0
    ops_unknown: int = 0
    failovers: int = 0
    crashes_injected: int = 0
    restarts_injected: int = 0
    partitions_injected: int = 0
    reconfigs_done: int = 0
    reconfigs_failed: int = 0
    sim_ms: float = 0.0
    messages_sent: int = 0
    faults: str = ""

    def describe(self) -> str:
        return (
            f"{self.ops_completed}/{self.ops_attempted} ops ok "
            f"({self.ops_unknown} unknown), {self.failovers} failovers, "
            f"{self.crashes_injected} crashes, "
            f"{self.partitions_injected} partitions, "
            f"{self.reconfigs_done} reconfigs "
            f"({self.reconfigs_failed} failed), "
            f"{self.sim_ms:.1f} sim-ms, {self.messages_sent} msgs, "
            f"{self.faults}"
        )


@dataclass
class NemesisResult:
    """A finished chaos run, with both checkers' verdicts."""

    config: NemesisConfig
    history: History
    safety_violations: List[str]
    linearizability: LinearizabilityResult
    stats: NemesisStats
    #: ``MetricsRegistry.snapshot()`` taken at the end of the run.
    metrics: Optional[dict] = None
    #: Where the violation bundle was written, when one was.
    bundle_path: Optional[str] = None

    @property
    def ok(self) -> bool:
        return not self.safety_violations and self.linearizability.ok

    def describe(self) -> str:
        verdict = "OK" if self.ok else "VIOLATIONS FOUND"
        lines = [
            f"nemesis seed={self.config.seed}: {verdict}",
            f"  {self.stats.describe()}",
            f"  safety: {self.safety_violations or 'clean'}",
            f"  {self.linearizability.describe()}",
        ]
        if self.bundle_path is not None:
            lines.append(f"  violation bundle: {self.bundle_path}")
        return "\n".join(lines)


def duplicate_request_audit(cluster: Cluster) -> List[str]:
    """At-most-once audit: no request id committed more than once."""
    problems: List[str] = []
    for nid, server in sorted(cluster.servers.items()):
        counts: Dict[Tuple[str, int], int] = {}
        for entry in server.committed_log():
            if entry.request_id is not None:
                counts[entry.request_id] = counts.get(entry.request_id, 0) + 1
        for rid, count in sorted(counts.items()):
            if count > 1:
                problems.append(
                    f"S{nid} committed request {rid} {count} times"
                )
    return problems


def _verdict(result: NemesisResult):
    """What a traced replay of a run must reproduce exactly."""
    return result.safety_violations, result.linearizability, result.stats


@gc_paused()
def run_nemesis(config: NemesisConfig) -> NemesisResult:
    """Run one seeded chaos schedule; returns history plus verdicts.

    The run is metered (:mod:`repro.obs.metrics`) but not traced.  When
    a check fails and ``config.bundle_dir`` is set, the same config is
    run a second time with a :class:`~repro.obs.trace.Tracer` of
    ``config.trace_capacity`` events, and the violation bundle (config,
    verdicts, stats, metrics, trace, history) is written from that
    replay.  Tracing consumes no randomness and schedules no simulator
    events, so the replay must reach the same verdict and the same
    stats; if it does not, this raises ``RuntimeError`` instead of
    writing a bundle that would not replay.  ``trace_capacity=0``
    writes the bundle from the first run, with an empty trace.

    Automatic cycle collection is paused for the call
    (:func:`~repro.core.cachemgr.gc_paused`): logs, messages, history
    and trace records only ever point at older values.
    """
    result = _run_schedule(config, NULL_TRACER)
    if result.ok or config.bundle_dir is None:
        return result
    tracer = None
    if config.trace_capacity > 0:
        expected = _verdict(result)
        del result  # only its verdict is compared; free it for the replay
        tracer = Tracer(capacity=config.trace_capacity)
        result = _run_schedule(config, tracer)
        if _verdict(result) != expected:
            raise RuntimeError(
                f"nemesis seed={config.seed}: the traced replay diverged "
                "from the untraced run; tracing perturbed a seeded run"
            )
    result.bundle_path = write_bundle(config.bundle_dir, result, tracer)
    return result


def _run_schedule(config: NemesisConfig, tracer: Tracer) -> NemesisResult:
    """One run of ``config``'s schedule, recording into ``tracer``."""
    plan = FaultPlan(seed=config.seed + 1, conditions=config.conditions)
    metrics = MetricsRegistry()
    nemesis_faults = metrics.counter("nemesis.fault_activations")
    all_nodes = (
        set(config.initial_members)
        | set(config.extra_nodes)
        | {nid for conf in config.reconfig_trajectory for nid in conf}
    )
    cluster = Cluster(
        config.initial_members,
        RaftSingleNodeScheme(),
        seed=config.seed,
        latency=config.latency,
        extra_nodes=all_nodes,
        faults=plan,
        tracer=tracer,
        metrics=metrics,
    )
    leader0 = min(config.initial_members)
    if not cluster.elect(leader0):
        cluster.elect(leader0)  # retry once; drops may eat a round
    driver = FailoverDriver(
        cluster,
        leader=leader0,
        request_timeout_ms=config.request_timeout_ms,
        election_timeout_ms=config.election_timeout_ms,
        use_request_ids=config.client_request_ids,
    )
    history = History()
    stats = NemesisStats()
    reads = KVView()
    rng = random.Random(config.seed + 0xC0FFEE)

    crash_at = set(config.crash_leader_at)
    restarts_due: List[Tuple[int, int]] = []  # (op index, nid)
    reconfig_at: Dict[int, frozenset] = {}
    if config.reconfig_trajectory:
        spacing = max(1, config.ops // (len(config.reconfig_trajectory) + 1))
        for step, conf in enumerate(config.reconfig_trajectory):
            reconfig_at[(step + 1) * spacing] = frozenset(conf)

    def current_victim() -> Optional[int]:
        leader = cluster.leader()
        if leader is not None:
            return leader
        if not cluster.is_crashed(driver.leader):
            return driver.leader
        return None

    for i in range(config.ops):
        # -- nemesis actions scheduled for this op index ----------------
        for due, nid in list(restarts_due):
            if i >= due:
                cluster.restart(nid)
                stats.restarts_injected += 1
                nemesis_faults.inc()
                restarts_due.remove((due, nid))
        if i in crash_at:
            victim = current_victim()
            if victim is not None:
                cluster.crash(victim)
                stats.crashes_injected += 1
                nemesis_faults.inc()
                restarts_due.append((i + config.restart_after_ops, victim))
        if config.partition_at is not None and i == config.partition_at:
            victim = current_victim()
            if victim is None:
                # No live leader right now: partition around any live
                # node so the scheduled fault still happens.
                live = [
                    nid
                    for nid in sorted(cluster.servers)
                    if not cluster.is_crashed(nid)
                ]
                victim = live[0] if live else None
            if victim is not None:
                others = set(cluster.servers) - {victim}
                plan.add_partition(
                    cluster.sim.now,
                    cluster.sim.now + config.partition_ms,
                    {victim},
                    others,
                    symmetric=config.partition_symmetric,
                )
                stats.partitions_injected += 1
                nemesis_faults.inc()
                tracer.record(
                    "partition_start", cluster.sim.now, victim,
                    others=sorted(others),
                    heal_ms=cluster.sim.now + config.partition_ms,
                    symmetric=config.partition_symmetric,
                )
        if i in reconfig_at:
            try:
                driver.reconfigure(reconfig_at[i])
                stats.reconfigs_done += 1
            except RuntimeError:
                stats.reconfigs_failed += 1

        # -- one client operation ---------------------------------------
        stats.ops_attempted += 1
        key = f"k{rng.randrange(config.keys)}"
        draw = rng.random()
        try:
            if draw < config.read_fraction:
                op = history.invoke(
                    driver.client_id, "get", key, None, cluster.sim.now
                )
                record = driver.submit(("get", key))
                observed = reads.state_of(
                    cluster.servers[driver.leader].log[: record.log_index]
                ).get(key)
                history.complete(op, cluster.sim.now, observed)
            elif draw < config.read_fraction + config.add_fraction:
                delta = rng.randrange(1, 10)
                op = history.invoke(
                    driver.client_id, "add", key, delta, cluster.sim.now
                )
                driver.submit(("add", key, delta))
                history.complete(op, cluster.sim.now, True)
            elif draw < (
                config.read_fraction
                + config.add_fraction
                + config.delete_fraction
            ):
                op = history.invoke(
                    driver.client_id, "delete", key, None, cluster.sim.now
                )
                driver.submit(("delete", key))
                history.complete(op, cluster.sim.now, True)
            else:
                value = rng.randrange(1000)
                op = history.invoke(
                    driver.client_id, "put", key, value, cluster.sim.now
                )
                driver.submit(("put", key, value))
                history.complete(op, cluster.sim.now, True)
            stats.ops_completed += 1
        except RuntimeError:
            # Timeout/unavailability: the op's outcome stays unknown.
            stats.ops_unknown += 1

    # -- wind down: heal everything, settle, and audit ------------------
    for _, nid in restarts_due:
        cluster.restart(nid)
    for nid in sorted(cluster.servers):
        if cluster.is_crashed(nid):
            cluster.restart(nid)
    try:
        if (
            cluster.is_crashed(driver.leader)
            or cluster.servers[driver.leader].role != LEADER
        ):
            driver._fail_over()
        driver.submit(("noop",))  # commit barrier at the final term
        cluster.sync_followers(driver.leader)
    except RuntimeError:
        pass

    stats.failovers = len(driver.events)
    stats.sim_ms = cluster.sim.now
    stats.messages_sent = cluster.messages_sent
    stats.faults = plan.describe()

    safety = cluster.check_safety()
    safety.extend(duplicate_request_audit(cluster))
    linearizability = check_history(history)
    gauges = metrics
    gauges.gauge("nemesis.sim_ms").set(stats.sim_ms)
    gauges.gauge("nemesis.ops_completed").set(stats.ops_completed)
    gauges.gauge("nemesis.ops_unknown").set(stats.ops_unknown)
    gauges.gauge("nemesis.reconfigs_done").set(stats.reconfigs_done)
    return NemesisResult(
        config=config,
        history=history,
        safety_violations=safety,
        linearizability=linearizability,
        stats=stats,
        metrics=metrics.snapshot(),
    )


# ----------------------------------------------------------------------
# Per-shard fault schedules (the multi-group nemesis)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ShardFault:
    """One scheduled fault against one shard group, keyed to a global
    completed-operation count (so schedules are load-relative and
    deterministic per seed, not wall-clock flaky)."""

    at_op: int
    gid: int
    action: str  # "kill-leader" | "respawn" | "partition-leader" | "heal"

    def describe(self) -> str:
        return f"@{self.at_op} g{self.gid}:{self.action}"


def per_shard_schedule(
    seed: int,
    gids: Tuple[int, ...],
    ops: int,
    kills_per_group: int = 1,
    respawn_after_ops: int = 40,
    partition_groups: int = 1,
    partition_ops: int = 30,
) -> Tuple[ShardFault, ...]:
    """A deterministic multi-group fault schedule.

    Each group gets ``kills_per_group`` leader kills (each paired with
    a respawn ``respawn_after_ops`` later) and the first
    ``partition_groups`` groups get one leader partition (paired with a
    heal ``partition_ops`` later).  Fault points are jittered per seed
    inside the middle of the run -- the window where the shard
    scenario's split and merge migrations are in flight, which is
    exactly when losing a per-shard leader stresses the freeze/drain/
    install protocol.  Events are sorted by ``at_op``; a consumer pops
    every event whose ``at_op`` has passed its shared op counter.
    """
    if ops < 10:
        raise ValueError(f"{ops} ops leaves no room for a schedule")
    rng = random.Random(seed * 7919 + 0x5AD)
    window_lo, window_hi = ops // 5, (4 * ops) // 5
    events: List[ShardFault] = []
    for gid in sorted(gids):
        for _ in range(kills_per_group):
            at = rng.randrange(window_lo, window_hi)
            events.append(ShardFault(at, gid, "kill-leader"))
            events.append(
                ShardFault(at + respawn_after_ops, gid, "respawn")
            )
    for gid in sorted(gids)[:partition_groups]:
        at = rng.randrange(window_lo, window_hi)
        events.append(ShardFault(at, gid, "partition-leader"))
        events.append(ShardFault(at + partition_ops, gid, "heal"))
    return tuple(sorted(events, key=lambda e: (e.at_op, e.gid, e.action)))


def fig16_chaos_config(seed: int = 0, ops: int = 500) -> NemesisConfig:
    """The Fig. 16 5→3→5 trajectory under churn: drops, duplication,
    reordering, two leader crashes, and one mid-run partition."""
    return NemesisConfig(
        seed=seed,
        ops=ops,
        initial_members=frozenset({1, 2, 3, 4, 5}),
        reconfig_trajectory=FIG16_TRAJECTORY,
        conditions=NetworkConditions(
            drop_prob=0.01,
            duplicate_prob=0.01,
            reorder_prob=0.05,
            reorder_window_ms=2.0,
        ),
        crash_leader_at=(ops // 4, (5 * ops) // 8),
        partition_at=(3 * ops) // 8,
        partition_ms=40.0,
    )
