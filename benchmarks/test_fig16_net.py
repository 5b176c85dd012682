"""Experiment E1-net (paper Fig. 16): the same trajectory, real sockets.

Where ``test_fig16_reconfig_latency`` replays the paper's workload on
the discrete-event simulator, this experiment runs it on
:mod:`repro.net`: five OS processes speaking framed TCP on localhost,
the membership walking 5 -> 4 -> 3 -> 4 -> 5 while a client drives
requests, **plus a SIGKILL of the leader** in the middle (3-node)
phase -- the paper's operational story end to end.  Latencies are real
wall-clock milliseconds measured at the client.

The claims reproduced are again the *shape*:

* steady-state latency is flat across configuration sizes;
* reconfiguration shows up as a latency spike at the phase boundary;
* growing the cluster is costlier than shrinking it -- a re-added
  node must catch up on every log entry it missed (shipped as one
  large delta frame), and after the leader kill the 3 -> 4 grow
  *blocks* on that catch-up, because the new four-member quorum needs
  the rejoined node's ack;
* the history -- recorded across reconfigurations and a leader kill --
  passes the Wing-Gong linearizability checker.
"""

import statistics
import time

from repro.analysis import render_series, render_table, summarize
from repro.net.client import ClientTimeout
from repro.net.procs import LocalCluster
from repro.runtime.linearize import check_history

NIDS = (1, 2, 3, 4, 5)
#: Requests per phase.
OPS_PER_PHASE = 100
#: Kill the leader this many requests into the 3-node phase.
KILL_AFTER = 30
#: Value payload size: entries must weigh something for a rejoining
#: node's catch-up (one delta frame carrying every missed entry) to be
#: a real cost, as it is in the paper's full-log transfers.
VALUE_BYTES = 16384
#: A short heartbeat keeps the commit-propagation quantum (settling
#: waits for followers' commit_len, which advances one heartbeat after
#: acks) well below the catch-up cost being measured.
HEARTBEAT_MS = 5.0


def _now_ms() -> float:
    return time.monotonic() * 1000.0


def _settle_ms(cluster, client, members, deadline_s: float = 30.0) -> float:
    """Time until every live member matches the leader's log and commit
    lengths -- i.e. until the new configuration is fully caught up.
    (No traffic runs while settling, so the lengths are stable.)"""
    started = time.monotonic()
    while time.monotonic() - started < deadline_s:
        stats = [
            status
            for nid in sorted(members)
            if cluster.handles[nid].alive
            and (status := client.status(nid)) is not None
        ]
        leaders = [s for s in stats if s.role == "leader"]
        if leaders and all(
            s.log_len == leaders[0].log_len
            and s.commit_len == leaders[0].commit_len
            for s in stats
        ):
            return (time.monotonic() - started) * 1000.0
        time.sleep(0.005)
    raise AssertionError(f"members {sorted(members)} never settled")


def run_experiment():
    out = {
        "latencies_ms": [],      # one entry per ordinary request
        "phase_slices": [],      # (start, end) into latencies_ms
        "reconfigs": [],         # {label, request_ms, settle_ms}
        "failover_ms": None,
        "unknown_ops": 0,
    }
    with LocalCluster(
        nids=NIDS,
        seed=42,
        heartbeat_ms=HEARTBEAT_MS,
        election_timeout_min_ms=8 * HEARTBEAT_MS,
        election_timeout_max_ms=16 * HEARTBEAT_MS,
    ) as cluster:
        first_leader = cluster.wait_for_leader()
        # The trajectory removes followers (the paper's operator does
        # not decommission the node serving traffic): v1 is out for
        # three phases, v2 for one, so the two grows re-add nodes with
        # very different catch-up debts.
        v1, v2 = sorted(n for n in NIDS if n != first_leader)[-2:]
        all_nodes = frozenset(NIDS)
        phases = [
            all_nodes,
            all_nodes - {v1},
            all_nodes - {v1, v2},
            all_nodes - {v1},
            all_nodes,
        ]
        with cluster.client(
            client_id="fig16", total_timeout_s=30.0
        ) as client:
            killed = None
            down_at = None
            for phase, members in enumerate(phases):
                if phase > 0:
                    prev = phases[phase - 1]
                    label = (
                        f"{len(prev)} -> {len(members)} "
                        f"({'grow' if len(members) > len(prev) else 'shrink'})"
                    )
                    started = _now_ms()
                    assert client.reconfigure(members) is True
                    request_ms = _now_ms() - started
                    settle = _settle_ms(cluster, client, members)
                    out["reconfigs"].append({
                        "label": label,
                        "request_ms": request_ms,
                        "settle_ms": settle,
                    })
                begin = len(out["latencies_ms"])
                for i in range(OPS_PER_PHASE):
                    if phase == 2 and i == KILL_AFTER and killed is None:
                        killed = cluster.wait_for_leader()
                        down_at = _now_ms()
                        cluster.kill(killed)
                    started = _now_ms()
                    try:
                        client.put(f"k{i % 7}", f"{i}:" + "x" * VALUE_BYTES)
                    except ClientTimeout:
                        out["unknown_ops"] += 1
                        continue
                    elapsed = _now_ms() - started
                    out["latencies_ms"].append(elapsed)
                    if down_at is not None and out["failover_ms"] is None:
                        out["failover_ms"] = _now_ms() - down_at
                out["phase_slices"].append(
                    (begin, len(out["latencies_ms"]))
                )
            out["phase_sizes"] = [len(m) for m in phases]
            out["retries"] = client.retries
            out["history"] = client.history
            out["verdict"] = check_history(client.history)
            # Cross-node safety: live nodes agree on committed prefixes.
            logs = {
                nid: entries
                for nid in cluster.nids
                if cluster.handles[nid].alive
                and (entries := client.committed_log(nid)) is not None
            }
            nids = sorted(logs)
            out["prefix_agreement"] = all(
                logs[a][: min(len(logs[a]), len(logs[b]))]
                == logs[b][: min(len(logs[a]), len(logs[b]))]
                for i, a in enumerate(nids)
                for b in nids[i + 1:]
            )
            out["killed"] = killed
    return out


def test_fig16_over_real_sockets(report):
    out = run_experiment()
    latencies = out["latencies_ms"]
    phase_medians = [
        statistics.median(latencies[lo:hi])
        for lo, hi in out["phase_slices"]
    ]
    grow = [r for r in out["reconfigs"] if "grow" in r["label"]]
    shrink = [r for r in out["reconfigs"] if "shrink" in r["label"]]
    grow_cost = statistics.mean(
        r["request_ms"] + r["settle_ms"] for r in grow
    )
    shrink_cost = statistics.mean(
        r["request_ms"] + r["settle_ms"] for r in shrink
    )
    steady_median = statistics.median(latencies)

    report(
        "",
        "=" * 72,
        "E1-net / Fig. 16 -- the trajectory on real TCP processes",
        f"({len(latencies)} requests over 5 phases "
        f"{'->'.join(f'({n})' for n in out['phase_sizes'])}; "
        f"leader S{out['killed']} SIGKILLed mid-run; wall-clock ms)",
        "=" * 72,
        render_series(
            latencies,
            markers=[hi - 1 for _, hi in out["phase_slices"][:-1]],
            title="client-observed latency per request (ms)",
        ),
        "",
        render_table(
            ["phase", "requests", "mean", "min", "p50", "p99", "max"],
            [
                (f"phase {i} ({out['phase_sizes'][i]} nodes)",)
                + summarize(latencies[lo:hi]).row()
                for i, (lo, hi) in enumerate(out["phase_slices"])
            ],
        ),
        "",
        render_table(
            ["reconfiguration", "request (ms)", "full catch-up (ms)"],
            [
                (r["label"], round(r["request_ms"], 2),
                 round(r["settle_ms"], 2))
                for r in out["reconfigs"]
            ],
        ),
        "",
        f"failover after SIGKILL: next request completed in "
        f"{out['failover_ms']:.0f} ms; {out['retries']} client retries, "
        f"{out['unknown_ops']} unknown outcomes",
        f"history: {out['verdict'].describe()}",
    )

    # --- The paper's shape claims, on real sockets ---

    # 0. The workload actually ran: >= 500 completed client operations
    #    spanning four reconfigurations and one leader kill.
    assert len(latencies) + out["unknown_ops"] >= 500
    assert len(out["reconfigs"]) == 4 and out["killed"] is not None

    # 1. Steady state is flat-ish across configuration sizes (medians
    #    are robust to the failover spike; wall clocks are noisy, so
    #    the tolerance is loose).
    assert max(phase_medians) < 5 * min(phase_medians), phase_medians

    # 2. Reconfiguration is a visible spike: costlier than the median
    #    request.
    boundary_requests = [r["request_ms"] for r in out["reconfigs"]]
    assert statistics.mean(boundary_requests) > steady_median

    # 3. Growing costs more than shrinking: the re-added node's
    #    catch-up (one big delta frame + replay) is on the critical
    #    path, unlike any shrink.
    assert grow_cost > shrink_cost, (grow_cost, shrink_cost)

    # 4. Safety: the real-TCP history linearizes and live nodes agree
    #    on committed prefixes.
    assert out["verdict"].ok, out["verdict"].describe()
    assert out["prefix_agreement"]
