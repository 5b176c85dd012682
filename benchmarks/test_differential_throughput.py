"""Differential-harness throughput: states/second per scheme (ISSUE 9).

Runs the harness's intact cell for every scheme of the matrix on one
identical budget (the smoke intact budget, exhaustive bfs so each
scheme's state count is a schedule-class invariant rather than a
search-order artifact) and records per-scheme states/second.

The gated metric is the **logless overhead ratio**: Raft single-node
and MongoDB logless explore the *same* reachable-state space intact
(the Q1/Q2 gates only bite once R2/R3 are ablated), so the ratio of
their within-run throughputs isolates the cost of the richer
``LoglessConfig`` representation -- (version, term, members) tuples,
coercion, and the gated candidate generator -- independent of the
runner's hardware.

Each scheme is measured over CPU time (``time.process_time``), best of
``REPEATS`` interleaved rounds, after one untimed warm-up, so a noisy
neighbour during a single run cannot swing the gate.
"""

import time

from repro.mc.differential import MATRIX, SMOKE_BUDGETS, explorer_for

#: One identical budget for every scheme: the smoke intact budget.
BUDGET = SMOKE_BUDGETS["intact"]
MAX_STATES = 50_000
REPEATS = 2

#: The intact state spaces raft and logless explore are identical, so
#: their throughput ratio is a pure representation-overhead measure.
#: 3.0 is a ceiling, not a tolerance: the ratio (~1.1x) of two
#: best-of-2 runs of ~0.1 s each reads 0.84-1.71 across runs of one
#: commit, so a bound near the typical value would gate noise.
OVERHEAD_CEILING = 3.0


def _measure(scheme):
    explorer = explorer_for(
        scheme, "intact", budget=BUDGET, max_states=MAX_STATES,
        strategy="bfs",
    )
    cpu_started = time.process_time()
    result = explorer.run()
    cpu = time.process_time() - cpu_started
    assert result.safe, f"{scheme.name} violated intact on the smoke budget"
    assert result.exhausted, f"{scheme.name} truncated at {MAX_STATES}"
    return {
        "states": result.states_visited,
        "cpu_seconds": cpu,
        "states_per_second": result.states_visited / cpu if cpu else 0.0,
    }


def test_differential_throughput(report):
    _measure(MATRIX[0])  # warm-up: intern tables, imports, caches

    rounds = {scheme.name: [] for scheme in MATRIX}
    for _ in range(REPEATS):  # interleaved so load drift hits all schemes
        for scheme in MATRIX:
            rounds[scheme.name].append(_measure(scheme))

    per_scheme = {
        name: max(runs, key=lambda r: r["states_per_second"])
        for name, runs in rounds.items()
    }
    for name, runs in rounds.items():
        for run in runs[1:]:
            assert run["states"] == runs[0]["states"], (
                f"{name}: bfs state count varied across repeats"
            )

    raft = per_scheme["raft-single-node"]
    logless = per_scheme["mongo-logless"]
    # Same budget, same universe, same schedule class: the intact state
    # spaces coincide exactly (hardware-independent).
    assert logless["states"] == raft["states"]
    overhead = raft["states_per_second"] / logless["states_per_second"]

    lines = [
        "",
        "Differential harness throughput (intact cell, identical budget, bfs)",
        f"budget {BUDGET}, best of {REPEATS} interleaved rounds over CPU time",
        f"{'scheme':<22} {'states':>7} {'st/s':>9} {'cpu s':>7}",
    ]
    for name, row in per_scheme.items():
        lines.append(
            f"{name:<22} {row['states']:>7} "
            f"{row['states_per_second']:>9,.0f} {row['cpu_seconds']:>7.2f}"
        )
    lines.append(f"logless overhead ratio (raft st/s / logless st/s): "
                 f"{overhead:.2f}")
    report(*lines)

    assert overhead <= OVERHEAD_CEILING, (
        f"LoglessConfig costs {overhead:.2f}x raft's frozenset configs "
        f"on the identical intact state space (ceiling: {OVERHEAD_CEILING}x)"
    )
