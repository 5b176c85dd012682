"""Experiment E7 (extension; paper Section 9's future-work direction).

The paper: "Although Adore guarantees the safety of the protocols it
models, it makes no claims about their liveness or availability...
This requires introducing a notion of time and an assumption of a
partially synchronous network."

The reproduction's timed simulator provides exactly that substrate, so
this extension experiment *measures* the liveness quantities the paper
defers, over the autonomous (timeout/heartbeat-driven) cluster:

* time to elect the first leader from a cold start;
* unavailability window after a leader crash (crash → next committed
  client request), across seeds and cluster sizes;
* the same recovery including the reconfiguration that replaces the
  dead node (the intro's full operational story);
* safety re-checked after every run (liveness experiments must not
  trade safety away).
"""

import statistics

from repro.analysis import render_table, summarize
from repro.runtime import AutonomousCluster, TimingConfig
from repro.schemes import RaftSingleNodeScheme

SEEDS = range(12)
TIMING = TimingConfig(
    heartbeat_ms=5.0,
    election_timeout_min_ms=15.0,
    election_timeout_max_ms=30.0,
)


def measure_liveness():
    results = {}
    for size in (3, 5):
        nodes = frozenset(range(1, size + 1))
        cold, recovery = [], []
        for seed in SEEDS:
            cluster = AutonomousCluster(
                nodes, RaftSingleNodeScheme(), seed=seed, timing=TIMING
            )
            leader = cluster.wait_for_leader()
            assert leader is not None
            cold.append(cluster.sim.now)
            for i in range(5):
                assert cluster.submit(f"warm{i}") is not None
            crash_at = cluster.sim.now
            cluster.crash(leader)
            assert cluster.submit("probe", max_wait_ms=10_000.0) is not None
            recovery.append(cluster.sim.now - crash_at)
            assert cluster.check_safety() == []
        results[size] = (cold, recovery)
    return results


def test_liveness_recovery(report):
    results = measure_liveness()
    rows = []
    for size, (cold, recovery) in sorted(results.items()):
        cold_stats = summarize(cold)
        rec_stats = summarize(recovery)
        rows.append((
            f"{size} nodes",
            f"{cold_stats.mean:.1f}",
            f"{cold_stats.maximum:.1f}",
            f"{rec_stats.mean:.1f}",
            f"{rec_stats.maximum:.1f}",
        ))
    report(
        "",
        "=" * 72,
        "E7 (extension) / Section 9 -- liveness under partial synchrony",
        f"(timeouts {TIMING.election_timeout_min_ms:.0f}-"
        f"{TIMING.election_timeout_max_ms:.0f} ms, heartbeat "
        f"{TIMING.heartbeat_ms:.0f} ms, {len(list(SEEDS))} seeds; "
        "simulated ms)",
        "=" * 72,
        render_table(
            ["cluster", "cold-start mean", "cold-start max",
             "crash recovery mean", "crash recovery max"],
            rows,
        ),
    )
    for size, (cold, recovery) in results.items():
        # Cold start is bounded by roughly one timeout window (plus
        # retries for split votes); recovery by detection + election.
        assert statistics.mean(cold) < 4 * TIMING.election_timeout_max_ms
        assert statistics.mean(recovery) < 8 * TIMING.election_timeout_max_ms


def test_recovery_with_node_replacement(report):
    """Crash -> failover -> reconfigure the dead node out and a fresh
    one in -- while measuring the total disruption."""

    def run():
        out = []
        for seed in SEEDS:
            nodes = frozenset({1, 2, 3})
            cluster = AutonomousCluster(
                nodes,
                RaftSingleNodeScheme(),
                seed=seed,
                timing=TIMING,
                extra_nodes={4},
            )
            dead = cluster.wait_for_leader()
            for i in range(3):
                assert cluster.submit(f"w{i}") is not None
            crash_at = cluster.sim.now
            cluster.crash(dead)
            assert cluster.submit("probe", max_wait_ms=10_000.0) is not None
            leader = cluster.leader()
            server = cluster.servers[leader]
            survivors = frozenset(n for n in nodes if n != dead)
            ok, reason = server.reconfig(survivors, cluster.scheme)
            assert ok, reason
            assert cluster.submit("drain") is not None
            ok, reason = server.reconfig(
                survivors | {4}, cluster.scheme
            )
            assert ok, reason
            assert cluster.submit("fresh") is not None
            cluster.run_for(50.0)
            assert cluster.check_safety() == []
            out.append(cluster.sim.now - crash_at)
        return out

    durations = run()
    stats = summarize(durations)
    report(
        "",
        "E7 / full replacement story (crash -> failover -> remove dead "
        "node -> add fresh node):",
        f"  total disruption mean {stats.mean:.1f} ms, "
        f"p99 {stats.p99:.1f} ms, max {stats.maximum:.1f} ms "
        f"({stats.count} seeds); safety held in every run",
    )
    assert stats.maximum < 1_000.0
