"""Experiment E1 (paper Fig. 16): Raft latency under reconfiguration.

Paper setup: the extracted OCaml Raft on EC2 m4.xlarge processes client
requests while the membership goes 5 → 4 → 3 → 4 → 5 nodes, changing
once every 1000 requests; the figure plots per-request max/mean/min
latency over eight runs.

Reproduction: the same specification handlers on the discrete-event
simulator, identical workload shape (5 x 1000 requests, reconfiguration
at each boundary, 8 seeded runs).  Absolute numbers are simulated
milliseconds, not EC2 milliseconds; the claims reproduced are the
*shape*:

* steady-state latency is flat across configuration sizes;
* each reconfiguration adds a small delay;
* growing the cluster is costlier than shrinking it (full-log catch-up
  of the re-added node);
* the reconfiguration delay stays within the range of the sporadic
  latency spikes visible elsewhere in the series.
"""

import statistics

from repro.analysis import aggregate_runs, render_series, render_table, summarize
from repro.runtime import Fig16Config, run_fig16_experiment

RUNS = 8


def run_experiment():
    return run_fig16_experiment(runs=RUNS, config=Fig16Config())


def test_fig16_reconfiguration_latency(report):
    runs = run_experiment()

    maxima, means, minima = aggregate_runs([r.latencies_ms for r in runs])
    reconfig_indices = runs[0].reconfig_indices
    phase_sizes = runs[0].phase_sizes

    report(
        "",
        "=" * 72,
        "E1 / Fig. 16 -- OCaml Raft performance under reconfiguration",
        f"({RUNS} runs, 1000 requests per phase, phases "
        f"{'->'.join(f'({n})' for n in phase_sizes)})",
        "=" * 72,
        render_series(
            means,
            markers=reconfig_indices,
            title="mean latency per request (simulated ms)",
        ),
        "",
        render_series(
            maxima,
            markers=reconfig_indices,
            title="max latency per request (simulated ms)",
        ),
    )

    # Per-phase summary table (the figure's (n) annotations).
    rows = []
    boundaries = [0] + [i + 1 for i in reconfig_indices] + [len(means)]
    for phase, size in enumerate(phase_sizes):
        lo, hi = boundaries[phase], boundaries[phase + 1]
        segment = means[lo:hi]
        stats = summarize(segment)
        rows.append((f"phase {phase} ({size} nodes)",) + stats.row())
    report(
        "",
        render_table(
            ["phase", "requests", "mean", "min", "p50", "p99", "max"], rows
        ),
    )

    reconfig_means = [
        statistics.mean(r.reconfig_latencies_ms[i] for r in runs)
        for i in range(len(reconfig_indices))
    ]
    shrink = reconfig_means[:2]
    grow = reconfig_means[2:]
    report(
        "",
        render_table(
            ["reconfiguration", "mean latency (ms)"],
            [
                ("5 -> 4 (shrink)", round(shrink[0], 3)),
                ("4 -> 3 (shrink)", round(shrink[1], 3)),
                ("3 -> 4 (grow)", round(grow[0], 3)),
                ("4 -> 5 (grow)", round(grow[1], 3)),
            ],
        ),
    )

    # --- Shape claims (the paper's qualitative findings) ---

    # 1. Steady state is flat: per-phase medians within 50% of each other.
    phase_medians = [
        statistics.median(means[boundaries[i] : boundaries[i + 1]])
        for i in range(len(phase_sizes))
    ]
    assert max(phase_medians) < 1.5 * min(phase_medians), phase_medians

    # 2. Growing costs more than shrinking (log catch-up).
    assert statistics.mean(grow) > statistics.mean(shrink)

    # 3. Reconfiguration delay is within the sporadic-spike range: the
    #    worst reconfiguration is no worse than the worst ordinary
    #    request spike seen across runs.
    ordinary_max = max(
        lat
        for run in runs
        for i, lat in enumerate(run.latencies_ms)
        if i not in run.reconfig_indices
    )
    assert max(reconfig_means) <= ordinary_max, (
        max(reconfig_means),
        ordinary_max,
    )

    # 4. Safety held throughout (checked inside the workload runner) and
    #    every run completed all requests.
    assert all(len(r.latencies_ms) == 5004 for r in runs)

    report(
        "",
        f"shape checks: flat steady state {['%.3f' % m for m in phase_medians]}, "
        f"grow ({statistics.mean(grow):.3f} ms) > shrink "
        f"({statistics.mean(shrink):.3f} ms), "
        f"reconfig max {max(reconfig_means):.3f} ms <= ordinary spike max "
        f"{ordinary_max:.3f} ms",
    )
