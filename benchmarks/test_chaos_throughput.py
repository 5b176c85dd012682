"""Experiment E8 (extension): throughput degradation under message loss.

The paper measures the reconfiguration protocol on a healthy EC2
network; this extension measures how the same executable specification
degrades as the network gets *worse*.  A seeded nemesis workload (no
crashes or partitions -- the independent variable is loss alone) runs
at increasing per-message drop rates; we report client throughput in
ops per simulated second and the unknown-outcome rate.  Safety and
linearizability are asserted at every operating point: a lossy network
may slow the system down, but it must never corrupt it.
"""

import statistics

from repro.analysis import render_table
from repro.runtime import NemesisConfig, NetworkConditions, run_nemesis

DROP_RATES = (0.0, 0.05, 0.10, 0.20)
SEEDS = range(4)
OPS = 150


def measure_degradation():
    results = {}
    for drop in DROP_RATES:
        throughputs, unknown = [], 0
        for seed in SEEDS:
            run = run_nemesis(
                NemesisConfig(
                    seed=seed,
                    ops=OPS,
                    conditions=NetworkConditions(
                        drop_prob=drop, duplicate_prob=0.01
                    ),
                )
            )
            assert run.safety_violations == []
            assert run.linearizability.ok
            throughputs.append(
                run.stats.ops_completed / (run.stats.sim_ms / 1000.0)
            )
            unknown += run.stats.ops_unknown
        results[drop] = (throughputs, unknown)
    return results


def test_chaos_throughput_degradation(report):
    results = measure_degradation()
    rows = []
    for drop, (throughputs, unknown) in sorted(results.items()):
        rows.append((
            f"{drop:.0%}",
            f"{statistics.mean(throughputs):.0f}",
            f"{min(throughputs):.0f}",
            f"{unknown}",
        ))
    report(
        "",
        "=" * 72,
        "E8 (extension) -- KV throughput vs. message drop rate",
        f"({len(list(SEEDS))} seeds x {OPS} ops per point; faults: "
        "drops + 1% duplication; simulated time)",
        "=" * 72,
        render_table(
            ["drop rate", "mean ops/sim-s", "min ops/sim-s", "unknown ops"],
            rows,
        ),
    )
    healthy = statistics.mean(results[0.0][0])
    lossy = statistics.mean(results[max(DROP_RATES)][0])
    # Loss costs throughput (retransmission-by-retry), and visibly so.
    assert lossy < healthy
    # But not availability at these rates: most ops still complete.
    total = len(list(SEEDS)) * OPS
    for drop, (_, unknown) in results.items():
        assert unknown < total * 0.2
