"""The two served-tier workloads: a closed loop against three real nodes.

A 3-node ``LocalCluster`` on loopback with **no injected message
delay** (latency is processor time, loopback and tick waits) is driven
by two blocking ``NetClient`` threads -- one per core of the box this
was sized on -- over 64 keys.  ``net_put`` is all writes, so every op
crosses log append, a replication round trip and apply; ``net_read90``
is 90 % ``get``, which takes the ReadIndex path and never appends.

The nodes compact their log every :data:`SNAPSHOT_THRESHOLD` entries,
not every 1,024 as by default.  A node looks each request up in its
uncompacted log, so the cost of an op climbs with the log's length and
falls back at each compaction: at 1,024 that cycle lasts a second under
``net_put`` but some twelve under ``net_read90`` (throughput 1,260 ->
460 -> 1,070 ops/s inside one window), longer than the window, and what
a window measured was where in the cycle it lay.  At 128 both workloads
pass through several cycles in every slice.

The window is cut into slices.  In each, every client sends ops from a
thread of its own until the slice's time is up and finishes the op in
flight; between the slices the load stands still and the calibration
kernel (:mod:`bench.calibrate`) is timed.  Every number is taken from
outside the nodes: ``/proc/<pid>/stat`` and ``StatusResponse`` deltas,
and the load generator's own clocks.  With four processes on two cores
the run is CPU-saturated.
"""

from __future__ import annotations

import os
import random
import statistics
import threading
from time import perf_counter, process_time
from typing import Dict, List, Tuple

from .calibrate import Kernel

READ_SHARE = {"net_put": 0.0, "net_read90": 0.9}
CLIENTS = 2
KEYS = 64
SNAPSHOT_THRESHOLD = 128
WARMUP_S = 1.0
SMOKE_WARMUP_S = 0.3
#: The window is cut into slices of about this long.
SLICE_S = 2.0
#: A client gives up on one op after this long; the op then counts as failed.
OP_TIMEOUT_S = 5.0
#: Frames timed per direction by the codec measurement of the traced run.
WIRE_SAMPLE = 2_000
COMMITREQ_ENTRIES = 8

_TICKS_PER_S = os.sysconf("SC_CLK_TCK")

#: One finished op: ``(start, end, ok, command, result)``.
Sample = Tuple[float, float, bool, tuple, object]


def _cpu_s(pid: int) -> float:
    """User plus system CPU seconds of a live process."""
    with open(f"/proc/{pid}/stat") as stat:
        fields = stat.read().rpartition(")")[2].split()
    return (int(fields[11]) + int(fields[12])) / _TICKS_PER_S


def _peak_rss_mib(pid: int) -> float:
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    return 0.0


def _drive(client, rng, read_share, until, samples: List[Sample]) -> None:
    """One closed-loop client: the next op is sent when the last one
    returned, until the clock reads ``until``.  An op that raises keeps
    its place in the sample."""
    from repro.net.client import ClientError

    while perf_counter() < until:
        key = f"k{rng.randrange(KEYS)}"
        if rng.random() < read_share:
            command = ("get", key)
        else:
            command = ("put", key, rng.randrange(10_000))
        result, ok = None, True
        start = perf_counter()
        try:
            if command[0] == "get":
                result = client.get(key)
            else:
                result = client.put(key, command[2])
        except (ClientError, OSError):
            ok = False
        samples.append((start, perf_counter(), ok, command, result))


def _cpu(cluster) -> Dict[object, float]:
    """CPU seconds so far of each node and of this load generator."""
    cpu: Dict[object, float] = {
        nid: _cpu_s(h.process.pid) for nid, h in cluster.handles.items()
    }
    cpu["client"] = process_time()
    return cpu


def _counters(cluster, probe, clients) -> dict:
    """What the nodes and clients count, read at a window boundary."""
    status = {nid: probe.status(nid) for nid in cluster.nids}
    if None in status.values():
        raise RuntimeError("a node left a status probe unanswered")
    return {"status": status, "retries": sum(c.retries for c in clients)}


def _percentile(ordered: List[float], q: float) -> float:
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def _mean_us(call, items) -> float:
    start = perf_counter()
    for item in items:
        call(item)
    return (perf_counter() - start) / len(items) * 1e6


def _wire_costs(window: List[Sample]) -> Dict[str, float]:
    """Codec cost, timed in this process after the window on the
    window's own client frames and on a ``CommitReq`` with an
    8-entry log."""
    from repro.net.wire import (
        ClientRequest, ClientResponse, decode_message, encode_frame,
    )
    from repro.raft.messages import CommitReq, LogEntry

    step = max(1, len(window) // WIRE_SAMPLE)
    messages = []
    for seq, (_, _, _, command, result) in enumerate(window[::step]):
        messages.append(ClientRequest("bench-0", seq, command))
        messages.append(ClientResponse("bench-0", seq, True, result=result))
    bodies = [encode_frame(m)[4:] for m in messages]
    commit = CommitReq(frm=1, to=2, time=1, commit_len=COMMITREQ_ENTRIES, log=tuple(
        LogEntry(1, i, ("put", f"k{i}", i), request_id=("bench-0", i))
        for i in range(COMMITREQ_ENTRIES)
    ))
    commits = [commit] * WIRE_SAMPLE
    commit_bodies = [encode_frame(commit)[4:]] * WIRE_SAMPLE
    return {
        "net.wire.encode_us": _mean_us(encode_frame, messages),
        "net.wire.decode_us": _mean_us(decode_message, bodies),
        "net.wire.commitreq_encode_us": _mean_us(encode_frame, commits),
        "net.wire.commitreq_decode_us": _mean_us(decode_message, commit_bodies),
    }


def child(job: dict, t0: float) -> dict:
    """Run one ``net_*`` job: this process is the load generator."""
    from repro.net.client import merge_histories
    from repro.net.procs import LocalCluster
    from repro.runtime.linearize import check_history

    cluster = LocalCluster(
        seed=13, heartbeat_ms=10.0,
        election_timeout_min_ms=80.0, election_timeout_max_ms=160.0,
        snapshot_threshold=SNAPSHOT_THRESHOLD,
        log_dir=os.path.join(job["scratch"], f"nodes-{os.getpid()}"),
    )
    probe = cluster.client(client_id="bench-probe")
    clients = [
        cluster.client(client_id=f"bench-{i}", total_timeout_s=OP_TIMEOUT_S)
        for i in range(CLIENTS)
    ]
    # Leaving the block reaps the nodes -- terminate, then kill after a
    # deadline -- whatever happened inside it.
    with cluster:
        try:
            cluster.wait_for_leader()
            for i, client in enumerate(clients):
                client.put("warm", i)
            setup_s = perf_counter() - t0
            if job["setup_only"]:
                return {"setup_s": setup_s}
            with Kernel() as kernel:
                out = _measure(job, cluster, probe, clients, kernel)
        finally:
            for client in [probe, *clients]:
                client.close()
    out["setup_s"] = setup_s

    start = perf_counter()
    verdict = check_history(merge_histories(c.history for c in clients))
    check_s = perf_counter() - start
    if not verdict.ok:
        out["problems"].append(f"not linearizable: {verdict.failures}")
    window = out.pop("window")
    if job["trace"]:
        out["layers"]["runtime.linearize.check_s"] = check_s
        out["layers"].update(_wire_costs(window))
    return out


def _slice(clients, rngs, read_share, seconds) -> Tuple[float, List[Sample]]:
    """Load for ``seconds``; returns how long it really lasted (the ops
    in flight when the time is up are finished) and the ops."""
    samples: List[List[Sample]] = [[] for _ in clients]
    start = perf_counter()
    threads = [
        threading.Thread(
            target=_drive, daemon=True,
            args=(client, rng, read_share, start + seconds, samples[i]),
        )
        for i, (client, rng) in enumerate(zip(clients, rngs))
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=seconds + OP_TIMEOUT_S + 5.0)
    if any(thread.is_alive() for thread in threads):
        raise RuntimeError("a client thread did not stop")
    return perf_counter() - start, [s for one in samples for s in one]


def _measure(job, cluster, probe, clients, kernel: Kernel) -> dict:
    read_share = READ_SHARE[job["workload"]]
    rngs = [random.Random(job["seed"] * 1_000 + i) for i in range(CLIENTS)]
    # The reported end-to-end values are each the best any slice had.
    # What the box adds is all to one side -- a slice at half the typical
    # rate is common, one at twice it does not happen -- and a turbulent
    # spell takes most slices of a window, when the median slice follows
    # the box (spread of its p99 over forty windows 33 %, of the best
    # slice's 6 %).  What a slice cannot show, a stall rarer than one in
    # two seconds, is in ``net.client.latency_p999_ms``.
    slices = max(1, round(job["seconds"] / SLICE_S))
    _, warmup = _slice(clients, rngs, read_share,
                       SMOKE_WARMUP_S if job["smoke"] else WARMUP_S)
    before = _counters(cluster, probe, clients)
    kernel_s = [kernel.sample()]
    window: List[Sample] = []
    wall_s = 0.0
    cpu = dict.fromkeys(_cpu(cluster), 0.0)
    per_slice: Dict[str, List[float]] = {
        "ops_per_s": [], "latency_p50_ms": [], "latency_p99_ms": [],
        "cpu_ms_per_op": [],
    }
    for _ in range(slices):
        cpu_lo = _cpu(cluster)
        lasted, ops = _slice(clients, rngs, read_share, job["seconds"] / slices)
        cpu_hi = _cpu(cluster)
        kernel_s.append(kernel.sample())
        window.extend(ops)
        wall_s += lasted
        for k in cpu:
            cpu[k] += cpu_hi[k] - cpu_lo[k]
        good = sum(1 for s in ops if s[2])
        per_slice["ops_per_s"].append(good / lasted)
        if not good:
            continue  # a stalled slice: no rate-per-op to take from it
        # A failed op stays in the sample with the time it took to give up.
        latencies = sorted((s[1] - s[0]) * 1e3 for s in ops)
        per_slice["latency_p50_ms"].append(_percentile(latencies, 0.50))
        per_slice["latency_p99_ms"].append(_percentile(latencies, 0.99))
        per_slice["cpu_ms_per_op"].append(
            sum(cpu_hi[k] - cpu_lo[k] for k in cpu) * 1e3 / good
        )
    after = _counters(cluster, probe, clients)

    problems = []
    dead = [nid for nid, h in cluster.handles.items() if not h.alive]
    if dead:
        problems.append(f"nodes {dead} exited during the run")
    nodes_rss = sum(
        _peak_rss_mib(h.process.pid)
        for h in cluster.handles.values() if h.alive
    )
    done = sum(1 for s in window if s[2])
    if not done:
        raise RuntimeError("no op completed inside the window")

    leaders = [n for n, st in after["status"].items() if st.role == "leader"]
    if not leaders:
        raise RuntimeError("no node leads when the window closes")
    # A deposed leader may not know yet: the highest term is the real one.
    leader = max(leaders, key=lambda n: after["status"][n].term)

    def delta(nid: int, field: str) -> int:
        return (getattr(after["status"][nid], field)
                - getattr(before["status"][nid], field))

    followers = [nid for nid in cluster.nids if nid != leader]
    gets = sum(1 for s in window if s[3][0] == "get")
    layers = {
        "net.node.leader_cpu_ms_per_op": cpu[leader] * 1e3 / done,
        "net.node.follower_cpu_ms_per_op":
            sum(cpu[n] for n in followers) * 1e3 / len(followers) / done,
        "net.client.cpu_us_per_op": cpu["client"] * 1e6 / done,
        "net.client.retries_per_op":
            (after["retries"] - before["retries"]) / done,
        "net.client.latency_p999_ms": _percentile(
            sorted((s[1] - s[0]) * 1e3 for s in window), 0.999
        ),
        "net.client.warmup_ops_discarded": len(warmup),
        "net.node.bytes_per_op":
            sum(delta(n, "bytes_sent") for n in cluster.nids) / done,
        "net.node.log_entries_per_op": delta(leader, "log_len") / done,
        "net.node.reads_fast_share":
            delta(leader, "reads_fast") / gets if gets else 0.0,
        "net.snapshot.installed": sum(
            st.snapshots_installed for st in after["status"].values()
        ),
        "net.snapshot.base_len": after["status"][leader].base_len,
        # An election inside the window is the system's behaviour on a
        # starved box, not a wrong answer: counted, not failed.
        "net.node.elections": after["status"][leader].term - max(
            st.term for st in before["status"].values()
        ),
    }
    out = {
        "wall_s": wall_s,
        "cpu_s": sum(cpu.values()),
        "kernel_s": statistics.median(kernel_s),
        "ops": done,
        "attempted": len(window),
        "failed": len(window) - done,
        "problems": problems,
        "exact": {},
        # The nodes only: the load generator is the benchmark's, and its
        # memory is the history of every op, which grows with the rate.
        "peak_rss_mib": nodes_rss,
        "window": window,
        "layers": layers,
    }
    for name, values in per_slice.items():
        out[name] = max(values) if name == "ops_per_s" else min(values)
    return out
