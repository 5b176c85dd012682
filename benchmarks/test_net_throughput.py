"""Experiment E10: the served write and read path, under load.

:mod:`repro.net` has one transport: leader-side append batching (one
log append + one broadcast per event-loop tick), pipelined
AppendEntries with a bounded in-flight window, ReadIndex reads that
skip the log entirely, and snapshot-based log compaction.  This
experiment drives it with ``N_CLIENTS`` concurrent clients over a real
3-node localhost cluster and checks that the path that ships is
*correct under load*: the recorded history linearizes, (nearly) every
operation completes, ReadIndex actually served reads, and compaction
actually happened mid-load.

Each client is a :class:`~repro.net.client.NetClient` (its own
connection, identity and ``(client_id, seq)`` dedup ids) on its own
thread, as ``bench/net.py`` drives them.  Speed is reported, not
gated: what gates the speed of this path on every PR is the
``net_put`` / ``net_read90`` pair in ``BENCHMARK.json``, parent against
change on the same machine.
"""

import random
import statistics
import time
from concurrent.futures import ThreadPoolExecutor

from repro.net.client import ClientTimeout, merge_histories
from repro.net.procs import LocalCluster
from repro.runtime.linearize import check_history

NIDS = (1, 2, 3)
#: Concurrent closed-loop clients, one thread each.
N_CLIENTS = 20
OPS_PER_CLIENT = 45
#: Fraction of operations that are reads (ReadIndex's territory).
READ_FRACTION = 0.75
KEYS = [f"k{i}" for i in range(8)]
HEARTBEAT_MS = 10.0
#: Low enough that the run actually compacts mid-load.
SNAPSHOT_THRESHOLD = 64
PER_OP_DEADLINE_S = 30.0


def _drive(client, rng):
    """One client: a read-heavy mixed workload.  Returns the latencies
    (ms) of the ops that completed and the number whose outcome is
    unknown."""
    latencies, unknown = [], 0
    with client:
        for _ in range(OPS_PER_CLIENT):
            key = rng.choice(KEYS)
            started = time.monotonic()
            try:
                if rng.random() < READ_FRACTION:
                    client.get(key)
                elif rng.random() < 0.5:
                    client.put(key, rng.randrange(10_000))
                else:
                    client.add(key, rng.randrange(1, 5))
            except ClientTimeout:
                unknown += 1
                continue
            latencies.append((time.monotonic() - started) * 1000.0)
    return latencies, unknown


def _cluster_totals(cluster, probe):
    """Sum the per-node wire/status counters across live nodes."""
    totals = {"bytes_sent": 0, "reads_fast": 0, "snapshots_installed": 0,
              "base_len": 0}
    for nid in cluster.nids:
        if not cluster.handles[nid].alive:
            continue
        status = probe.status(nid)
        if status is None:
            continue
        totals["bytes_sent"] += status.bytes_sent
        totals["reads_fast"] += status.reads_fast
        totals["snapshots_installed"] += status.snapshots_installed
        totals["base_len"] = max(totals["base_len"], status.base_len)
    return totals


def run_experiment():
    with LocalCluster(
        nids=NIDS,
        seed=13,
        heartbeat_ms=HEARTBEAT_MS,
        election_timeout_min_ms=8 * HEARTBEAT_MS,
        election_timeout_max_ms=16 * HEARTBEAT_MS,
        snapshot_threshold=SNAPSHOT_THRESHOLD,
    ) as cluster:
        cluster.wait_for_leader()
        clients = [
            cluster.client(
                client_id=f"load-{cid}", total_timeout_s=PER_OP_DEADLINE_S
            )
            for cid in range(N_CLIENTS)
        ]
        with cluster.client(client_id="probe") as probe:
            before = _cluster_totals(cluster, probe)
            started = time.monotonic()
            with ThreadPoolExecutor(max_workers=N_CLIENTS) as pool:
                results = list(pool.map(
                    _drive, clients,
                    [random.Random(1000 + cid) for cid in range(N_CLIENTS)],
                ))
            wall_s = time.monotonic() - started
            after = _cluster_totals(cluster, probe)
    latencies = [ms for lats, _ in results for ms in lats]
    verdict = check_history(merge_histories(c.history for c in clients))
    bytes_shipped = after["bytes_sent"] - before["bytes_sent"]
    return {
        "ops_requested": N_CLIENTS * OPS_PER_CLIENT,
        "unknown_ops": sum(unknown for _, unknown in results),
        "ops_per_s": len(latencies) / wall_s,
        "p50_ms": statistics.median(latencies),
        "p99_ms": statistics.quantiles(latencies, n=100)[98],
        "bytes_per_op": bytes_shipped / len(latencies),
        "reads_fast": after["reads_fast"] - before["reads_fast"],
        "snapshots_installed": after["snapshots_installed"],
        "snapshot_base_len": after["base_len"],
        "linearizable": verdict.ok,
        "checked_ops": verdict.checked_ops,
    }


def test_net_throughput(report):
    out = run_experiment()

    report(
        "",
        "=" * 72,
        "E10 -- served path: batching + pipelining + ReadIndex + compaction",
        f"({N_CLIENTS} concurrent clients, {out['ops_requested']} ops, "
        f"{int(READ_FRACTION * 100)}% reads, 3 nodes on localhost TCP)",
        "=" * 72,
        f"  {out['ops_per_s']:.1f} ops/s; latency p50 {out['p50_ms']:.2f} ms, "
        f"p99 {out['p99_ms']:.2f} ms; {out['bytes_per_op']:.0f} replication "
        f"bytes/op; {out['unknown_ops']} unknown",
        f"  compacted to base_len={out['snapshot_base_len']}, "
        f"{out['snapshots_installed']} snapshots installed, "
        f"{out['reads_fast']} ReadIndex reads",
        f"  history: {'OK' if out['linearizable'] else 'FAIL'} "
        f"({out['checked_ops']} ops)",
    )

    # Correct before fast: the recorded history linearizes, and nearly
    # every op completed.
    assert out["linearizable"]
    assert out["unknown_ops"] <= out["ops_requested"] * 0.02

    # The fast path actually engaged: ReadIndex served reads without
    # log appends, and compaction happened under load.
    assert out["reads_fast"] > 0
    assert out["snapshot_base_len"] > 0
