"""Experiment E10: the served write and read path, measured end to end.

:mod:`repro.net` has one transport: leader-side append batching (one
log append + one broadcast per event-loop tick), pipelined
AppendEntries with a bounded in-flight window, ReadIndex reads that
skip the log entirely, and snapshot-based log compaction.  This
benchmark drives it with a many-client load generator over a real
3-node localhost cluster and checks that the path that ships is
*correct under load*: the recorded history linearizes, (nearly) every
operation completes, ReadIndex actually served reads, and compaction
actually happened mid-load.

The load generator is a single-threaded asyncio fan-out of
``N_CLIENTS`` logical clients (each with its own connection, identity,
and ``(client_id, seq)`` dedup ids), so client-side thread scheduling
does not pollute the measurement and the server sees genuinely
concurrent load.

Speed is reported, not gated, here: ops/sec, p99 latency and replication
bytes per operation land in ``BENCH_net_throughput.json`` and CI's
bench-gate job tracks them as warn-only rows
(``benchmarks/compare.py``) -- absolute numbers depend on the runner.
What gates the speed of this path on every PR is the ``net_put`` /
``net_read90`` pair in ``BENCHMARK.json``, parent against change on the
same machine.
"""

import asyncio
import random
import socket
import statistics
import time

from repro.net.client import merge_histories
from repro.net.procs import LocalCluster
from repro.net.wire import (
    ClientRequest,
    ClientResponse,
    ProtocolError,
    decode_message,
    encode_frame,
)
from repro.runtime.history import History
from repro.runtime.linearize import check_history

from conftest import full_scale

NIDS = (1, 2, 3)
#: Concurrent logical clients (single-threaded asyncio fan-out).
N_CLIENTS = 20
#: Operations per client (x3 under REPRO_FULL=1).
OPS_PER_CLIENT = 45
#: Fraction of operations that are reads (ReadIndex's territory).
READ_FRACTION = 0.75
KEYS = [f"k{i}" for i in range(8)]
HEARTBEAT_MS = 10.0
#: Low enough that the run actually compacts mid-load.
SNAPSHOT_THRESHOLD = 64
PER_OP_DEADLINE_S = 30.0


def _now_ms() -> float:
    return time.monotonic() * 1000.0


def _percentile(samples, q: float) -> float:
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


async def _read_reply(reader):
    header = await reader.readexactly(4)
    return decode_message(await reader.readexactly(int.from_bytes(
        header, "big"
    )))


async def _drive_one(cid, addresses, leader_nid, ops, rng, results):
    """One logical client: a read-heavy mixed workload with at-most-once
    request ids, leader-hint redirects, and bounded retries."""
    history = History()
    latencies = []
    unknown = 0
    ordered = sorted(addresses)
    target = leader_nid
    reader = writer = None
    seq = 0

    async def connect():
        nonlocal reader, writer
        reader, writer = await asyncio.open_connection(*addresses[target])
        sock = writer.get_extra_info("socket")
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    def drop():
        nonlocal reader, writer
        if writer is not None:
            writer.close()
        reader = writer = None

    for i in range(ops):
        key = rng.choice(KEYS)
        if rng.random() < READ_FRACTION:
            op, value, command = "get", None, ("get", key)
        elif rng.random() < 0.5:
            value = rng.randrange(10_000)
            op, command = "put", ("put", key, value)
        else:
            value = rng.randrange(1, 5)
            op, command = "add", ("add", key, value)
        operation = history.invoke(cid, op, key, value, _now_ms())
        request = ClientRequest(client_id=cid, seq=seq, command=command)
        seq += 1
        started = time.monotonic()
        deadline = started + PER_OP_DEADLINE_S
        done = False
        while time.monotonic() < deadline:
            try:
                if writer is None:
                    await connect()
                writer.write(encode_frame(request))
                reply = await asyncio.wait_for(_read_reply(reader), 2.0)
            except (OSError, asyncio.TimeoutError, asyncio.IncompleteReadError,
                    ProtocolError):
                drop()
                target = ordered[(ordered.index(target) + 1) % len(ordered)]
                await asyncio.sleep(0.02)
                continue
            if (not isinstance(reply, ClientResponse)
                    or reply.seq != request.seq):
                drop()  # stale frame from an abandoned attempt
                continue
            if reply.ok:
                history.complete(operation, _now_ms(), reply.result)
                latencies.append((time.monotonic() - started) * 1000.0)
                done = True
                break
            if reply.error == "not-leader":
                drop()
                target = (
                    reply.leader_hint
                    if reply.leader_hint in addresses
                    else ordered[(ordered.index(target) + 1) % len(ordered)]
                )
                continue
            if reply.error == "retry":
                await asyncio.sleep(0.005)
                continue
            raise AssertionError(f"{command!r} refused: {reply.error}")
        if not done:
            unknown += 1
    drop()
    results.append((latencies, unknown, history))


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
    scale = 3 if full_scale() else 1
    ops = OPS_PER_CLIENT * scale
    with LocalCluster(
        nids=NIDS,
        seed=13,
        heartbeat_ms=HEARTBEAT_MS,
        election_timeout_min_ms=8 * HEARTBEAT_MS,
        election_timeout_max_ms=16 * HEARTBEAT_MS,
        snapshot_threshold=SNAPSHOT_THRESHOLD,
    ) as cluster:
        leader = cluster.wait_for_leader()
        with cluster.client(client_id="probe") as probe:
            before = _cluster_totals(cluster, probe)
            results = []

            async def fan_out():
                await asyncio.gather(*[
                    _drive_one(
                        f"load-{cid}", cluster.addresses, leader,
                        ops, random.Random(1000 + cid), results,
                    )
                    for cid in range(N_CLIENTS)
                ])

            started = time.monotonic()
            asyncio.run(fan_out())
            wall_s = time.monotonic() - started
            after = _cluster_totals(cluster, probe)
        latencies = [ms for lats, _, _ in results for ms in lats]
        unknown = sum(u for _, u, _ in results)
        history = merge_histories(h for _, _, h in results)
        verdict = check_history(history)
    bytes_shipped = after["bytes_sent"] - before["bytes_sent"]
    return {
        "clients": N_CLIENTS,
        "ops_requested": N_CLIENTS * ops,
        "ops_completed": len(latencies),
        "unknown_ops": unknown,
        "wall_s": wall_s,
        "ops_per_s": len(latencies) / wall_s,
        "mean_ms": statistics.mean(latencies),
        "p50_ms": _percentile(latencies, 0.50),
        "p99_ms": _percentile(latencies, 0.99),
        "bytes_shipped": bytes_shipped,
        "bytes_per_op": bytes_shipped / len(latencies),
        "reads_fast": after["reads_fast"] - before["reads_fast"],
        "snapshots_installed": after["snapshots_installed"],
        "snapshot_base_len": after["base_len"],
        "linearizable": verdict.ok,
        "checked_ops": verdict.checked_ops,
    }


def test_net_throughput(benchmark, report, bench_json):
    out = benchmark.pedantic(run_experiment, rounds=1, iterations=1)

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

    bench_json(out)

    # Correct before fast: the recorded history linearizes, and nearly
    # every op completed.
    assert out["linearizable"]
    assert out["unknown_ops"] <= out["ops_requested"] * 0.02

    # The fast path actually engaged: ReadIndex served reads without
    # log appends, and compaction happened under load.
    assert out["reads_fast"] > 0
    assert out["snapshot_base_len"] > 0
