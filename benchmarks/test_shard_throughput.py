"""Experiment E12: what does shard routing cost on the client path?

PR 8 put a hash-ring router (:mod:`repro.shard`) in front of the
``repro.net`` client: every operation now hashes its key, snapshots
the routing table, picks the owning group, and stamps the request with
the table version so a stale route is refused instead of misapplied.
All of that is client-side bookkeeping -- none of it should show up as
meaningful latency against a real socket round trip.

The gate is a **within-run ratio** on one machine: the same blocking
workload is driven against the *same* 3-node group through a raw
:class:`~repro.net.client.NetClient` and through a
:class:`~repro.shard.client.ShardClient` over a degenerate one-group
table (so both paths hit identical servers and the difference is pure
routing overhead).  Throughput against a live leader drifts with
event-loop tick alignment and log growth, so the two modes are
measured **paired**: small alternating chunks on long-lived clients,
order flipped every round, total time per mode summed.  Any drift
lands on both sides of the ratio.  The ratio (sharded time / raw
time) must stay <= 1.15x.
"""

import time

from repro.runtime.linearize import check_history
from repro.shard import ShardedCluster

#: Paired measurement: ROUNDS alternating chunks of CHUNK ops per mode.
CHUNK = 25
ROUNDS = 16
OPS = CHUNK * ROUNDS
KEYS = [f"k{i}" for i in range(16)]
#: The PR 8 acceptance bar: routing must cost <= 15% end to end.
OVERHEAD_LIMIT = 1.15


def _drive(client, ops: int, base: int = 0) -> float:
    """The shared workload: alternating put/get over a small keyset.
    Returns elapsed seconds."""
    started = time.perf_counter()
    for i in range(base, base + ops):
        key = KEYS[i % len(KEYS)]
        if i % 2 == 0:
            client.put(key, i)
        else:
            client.get(key)
    return time.perf_counter() - started


def test_shard_routing_overhead(report):
    with ShardedCluster(groups=1, nodes_per_group=3, seed=7) as sharded:
        sharded.wait_for_leader(1)
        def raw_factory():
            return sharded.clusters[1].client(
                client_id="bench-raw", total_timeout_s=30.0
            )

        def shard_factory():
            return sharded.client(
                client_id="bench-shard", total_timeout_s=30.0
            )

        raw_client = raw_factory()
        shard_client = shard_factory()
        # Warm both paths (connections, leader discovery, allocator).
        _drive(raw_client, 30)
        _drive(shard_client, 30)

        def paired_session():
            raw_total = shard_total = 0.0
            for round_no in range(ROUNDS):
                base = round_no * CHUNK
                pair = [
                    ("raw", raw_client), ("shard", shard_client)
                ] if round_no % 2 == 0 else [
                    ("shard", shard_client), ("raw", raw_client)
                ]
                for label, client in pair:
                    elapsed = _drive(client, CHUNK, base=base)
                    if label == "raw":
                        raw_total += elapsed
                    else:
                        shard_total += elapsed
            return raw_total, shard_total

        # Two sessions, best ratio: one scheduler hiccup inside a
        # chunk cannot fail the gate on its own.
        sessions = [paired_session(), paired_session()]
        raw_s, shard_s = min(sessions, key=lambda rs: rs[1] / rs[0])
        ratio = shard_s / raw_s
        raw_ops = OPS / raw_s
        shard_ops = OPS / shard_s

        # The degenerate table never refuses, so routing never retried;
        # and the routed history is still linearizable.
        assert shard_client.reroutes == 0
        lin = check_history(shard_client.history)
        assert lin.ok, lin.describe()

        report(
            "",
            "E12: shard routing overhead (same group, same machine)",
            f"  raw NetClient   : {raw_ops:9.0f} ops/s  ({raw_s:.3f}s)",
            f"  ShardClient (1g): {shard_ops:9.0f} ops/s  ({shard_s:.3f}s)",
            f"  overhead ratio  : {ratio:.3f}x  (gate <= {OVERHEAD_LIMIT}x)",
        )
        raw_client.close()
        shard_client.close()
        assert ratio <= OVERHEAD_LIMIT, (
            f"shard routing overhead {ratio:.3f}x exceeds "
            f"{OVERHEAD_LIMIT}x (raw {raw_s:.3f}s vs sharded {shard_s:.3f}s)"
        )
