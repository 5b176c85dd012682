"""Bounded-memory model checking: throughput under a fixed RSS cap (ISSUE 10).

Runs the full Fig. 4 intact verification twice -- once unbounded, once
inside an ``RLIMIT_AS`` address-space cap with a tree-table cap
(``Explorer.tree_cap``, the one memory setting) -- and gates on the
ratio of their states/second.

Measurement protocol:

* Each run happens in a fresh forked child, so ``ru_maxrss`` is a
  clean per-run high-water mark and the rlimit applies only to that
  child.
* The ratio uses **CPU time** (``time.process_time``), so a noisy CI
  neighbour cannot swing it.
* Runs are interleaved (unbounded/bounded/unbounded/bounded) and each
  mode is scored by its best run.

Acceptance: the bounded run, capped at about 0.8x the unbounded peak
RSS (192 MiB vs ~229 MiB observed in a pytest process), must
sustain >= 0.8x the unbounded states/second, with exact parity on the
verification answer.
"""

import multiprocessing
import resource
import sys
import time

from repro.mc.ablations import verify_intact_explorer
from repro.mc.bounded_cli import signature

#: The fixed address-space cap for the bounded run.  The unbounded
#: Fig. 4 intact run peaked around 229 MiB here (forked from pytest)
#: while the tree table held every tree a run built; 192 MiB is about
#: 0.8x of that.  The table now holds only live trees (at most about
#: 34,700 at this budget, just above TREE_CAP), so the capped run still
#: flushes: once, peaking at 129 MiB standalone (``bounded_cli --budget
#: fig4 --tree-cap 32768``), against four flushes and 135 MiB before.
LIMIT_MB = 192
#: Live-tree cap sized for LIMIT_MB: just below the run's live peak, so
#: a flush fires, and large enough that rebuilding derived tables stays
#: off the critical path.
TREE_CAP = 32_768

THROUGHPUT_FLOOR = 0.8


def _run_mode(bounded, conn):
    if bounded:
        soft = LIMIT_MB * 1024 * 1024
        _, hard = resource.getrlimit(resource.RLIMIT_AS)
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))

    from repro.core import cachemgr

    if bounded:
        explorer = verify_intact_explorer(tree_cap=TREE_CAP)
    else:
        explorer = verify_intact_explorer()
    before = cachemgr.stats()["tree_interns"]["flushes"]
    cpu_started = time.process_time()
    result = explorer.run()
    cpu = time.process_time() - cpu_started
    flushes = cachemgr.stats()["tree_interns"]["flushes"] - before
    conn.send({
        "signature": signature(result),
        "states_per_second": result.states_visited / cpu if cpu else 0.0,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "cache_flushes": flushes,
    })
    conn.close()


def measure(bounded):
    """Run one mode cold in a fresh forked child; return its metrics."""
    context = multiprocessing.get_context("fork")
    parent_conn, child_conn = context.Pipe(duplex=False)
    process = context.Process(target=_run_mode, args=(bounded, child_conn))
    process.start()
    child_conn.close()
    payload = parent_conn.recv()
    process.join()
    assert process.exitcode == 0
    return payload


def best_of(payloads):
    return max(payloads, key=lambda p: p["states_per_second"])


def test_bounded_vs_unbounded(report):
    if sys.platform == "win32":
        import pytest

        pytest.skip("benchmark requires fork and RLIMIT_AS")

    unbounded_runs, bounded_runs = [], []
    for _ in range(2):  # interleaved: unbounded, bounded, unbounded, bounded
        unbounded_runs.append(measure(bounded=False))
        bounded_runs.append(measure(bounded=True))

    for run in unbounded_runs[1:] + bounded_runs:
        assert unbounded_runs[0]["signature"] == run["signature"], (
            "bounding memory changed the verification answer"
        )
    for run in bounded_runs:
        assert run["cache_flushes"] > 0, (
            "cap never hit: the bounded run is not exercising eviction"
        )
        assert run["peak_rss_kb"] <= LIMIT_MB * 1024, (
            f"bounded run peaked at {run['peak_rss_kb']} KB, above the "
            f"{LIMIT_MB} MiB address-space cap"
        )

    unbounded, bounded = best_of(unbounded_runs), best_of(bounded_runs)
    throughput_ratio = (
        bounded["states_per_second"] / unbounded["states_per_second"]
        if unbounded["states_per_second"]
        else float("inf")
    )

    report(
        "",
        "Bounded-memory model checking: Fig. 4 intact, "
        f"{LIMIT_MB} MiB RLIMIT_AS cap",
        "(states/second over CPU time, best of the interleaved runs)",
        f"{'mode':>10} {'states':>8} {'st/s':>10} {'peak RSS':>10} "
        f"{'flushes':>8}",
        f"{'unbounded':>10} {unbounded['signature']['states']:>8} "
        f"{unbounded['states_per_second']:>10,.0f} "
        f"{unbounded['peak_rss_kb'] / 1024:>8.0f}Mi {'-':>8}",
        f"{'bounded':>10} {bounded['signature']['states']:>8} "
        f"{bounded['states_per_second']:>10,.0f} "
        f"{bounded['peak_rss_kb'] / 1024:>8.0f}Mi "
        f"{bounded['cache_flushes']:>8}",
        f"throughput ratio (bounded/unbounded): {throughput_ratio:.2f}x",
    )

    # The acceptance bar: a fixed cap well under the unbounded peak
    # costs at most 20% of throughput.
    assert throughput_ratio >= THROUGHPUT_FLOOR, (
        f"bounded engine sustains only {throughput_ratio:.2f}x the "
        f"unbounded states/second (floor: {THROUGHPUT_FLOOR}x)"
    )
