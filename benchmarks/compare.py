"""Compare fresh BENCH_*.json results against committed baselines.

CI's bench-gate job runs the perf-sensitive benchmarks on every PR,
then invokes this script to diff the freshly-written
``benchmarks/results/BENCH_*.json`` files against the committed
reference numbers in ``benchmarks/baselines/``.  Each tracked metric
has a direction and a severity:

* **fail** metrics exit non-zero when they regress past the tolerance
  (default 20%).  These are chosen to be hardware-independent ratios
  (e.g. the routed/raw overhead of the sharding layer, both legs
  measured within one run on one machine), so a slower CI runner does
  not flag a phantom regression.
* **warn** metrics only print a warning.  Absolute numbers (ops/sec,
  wall-clock p99) land here: they track the trajectory across runs but
  depend on the runner's hardware.

Refreshing a baseline after an intentional perf change::

    PYTHONPATH=src python -m pytest benchmarks/test_net_throughput.py -q
    cp benchmarks/results/BENCH_net_throughput.json benchmarks/baselines/

Usage::

    python benchmarks/compare.py [--results DIR] [--baselines DIR]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))

#: (metric label, path into the JSON, direction, severity, tolerance).
#: direction "higher" means bigger is better (regression = drop);
#: "lower" means smaller is better (regression = rise).
Spec = Tuple[str, Sequence[str], str, str, float]

SPECS: dict = {
    "BENCH_net_throughput.json": [
        ("net ops/sec",
         ("test_net_throughput", "ops_per_s"), "higher", "warn", 0.20),
        ("net p99 latency (ms)",
         ("test_net_throughput", "p99_ms"), "lower", "warn", 0.20),
        ("net replication bytes per op",
         ("test_net_throughput", "bytes_per_op"), "lower", "warn", 0.20),
    ],
    "BENCH_obs_overhead.json": [
        ("obs disabled-path overhead ratio",
         ("test_disabled_observability_overhead", "disabled_ratio"),
         "lower", "fail", 0.20),
        ("obs enabled-path overhead ratio",
         ("test_disabled_observability_overhead", "enabled_ratio"),
         "lower", "warn", 0.20),
    ],
    "BENCH_shard_throughput.json": [
        ("shard routing overhead ratio (sharded/raw, same run)",
         ("test_shard_routing_overhead", "overhead_ratio"),
         "lower", "fail", 0.20),
        ("sharded ops/sec (1 group)",
         ("test_shard_routing_overhead", "sharded", "ops_per_s"),
         "higher", "warn", 0.20),
    ],
    "BENCH_differential_throughput.json": [
        ("logless overhead ratio (raft st/s / logless st/s, same run)",
         ("test_differential_throughput", "logless_overhead_ratio"),
         "lower", "fail", 0.20),
        ("raft-single-node states/sec (intact, bfs)",
         ("test_differential_throughput", "per_scheme", "raft-single-node",
          "states_per_second"), "higher", "warn", 0.20),
        ("mongo-logless states/sec (intact, bfs)",
         ("test_differential_throughput", "per_scheme", "mongo-logless",
          "states_per_second"), "higher", "warn", 0.20),
    ],
    "BENCH_bounded_mc.json": [
        ("bounded-mc throughput ratio (bounded/unbounded states/s, same run)",
         ("test_bounded_vs_unbounded", "throughput_ratio"),
         "higher", "fail", 0.20),
        ("bounded-mc bounded-run peak RSS (KB)",
         ("test_bounded_vs_unbounded", "bounded", "peak_rss_kb"),
         "lower", "warn", 0.25),
    ],
    "BENCH_monitor_overhead.json": [
        ("monitor disabled-path overhead ratio",
         ("test_disabled_monitor_overhead", "disabled_ratio"),
         "lower", "fail", 0.20),
        ("monitor enabled-path overhead ratio",
         ("test_disabled_monitor_overhead", "enabled_ratio"),
         "lower", "warn", 0.20),
    ],
}


def _dig(data, path: Sequence[str]) -> Optional[float]:
    node = data
    for key in path:
        if not isinstance(node, dict) or key not in node:
            return None
        node = node[key]
    return node if isinstance(node, (int, float)) else None


def _load(path: str) -> Optional[dict]:
    try:
        with open(path) as handle:
            return json.load(handle)
    except (OSError, ValueError):
        return None


#: Warn (never fail) when a test's peak RSS grows past this fraction of
#: its committed baseline.  RSS is allocator- and hardware-dependent,
#: so this tracks the memory trajectory without gating merges on it.
RSS_WARN_TOLERANCE = 0.25


def scan_rss(results_dir: str, baselines_dir: str, warnings: List[str]) -> None:
    """Warn-only sweep of ``peak_rss_kb`` across every benchmark pair.

    The ``bench_json`` fixture stamps each payload with the process's
    peak RSS; any test whose fresh value regressed past
    :data:`RSS_WARN_TOLERANCE` gets a warning line, whether or not it
    has tracked timing metrics in :data:`SPECS`.
    """
    import glob

    for base_path in sorted(
        glob.glob(os.path.join(baselines_dir, "BENCH_*.json"))
    ):
        filename = os.path.basename(base_path)
        baseline = _load(base_path)
        fresh = _load(os.path.join(results_dir, filename))
        if not baseline or not fresh:
            continue
        for test, payload in sorted(baseline.items()):
            if test.startswith("_") or not isinstance(payload, dict):
                continue
            ref = payload.get("peak_rss_kb")
            now_payload = fresh.get(test)
            now = (
                now_payload.get("peak_rss_kb")
                if isinstance(now_payload, dict) else None
            )
            if (
                isinstance(ref, (int, float)) and ref > 0
                and isinstance(now, (int, float))
            ):
                change = now / ref - 1.0
                if change > RSS_WARN_TOLERANCE:
                    warnings.append(
                        f"{filename}:{test}: peak RSS {now:,.0f} KB vs "
                        f"baseline {ref:,.0f} KB ({change:+.1%}; warn-only)"
                    )


def compare(results_dir: str, baselines_dir: str) -> int:
    failures: List[str] = []
    warnings: List[str] = []
    scan_rss(results_dir, baselines_dir, warnings)
    rows: List[Tuple[str, str, str, str, str]] = []
    compared = 0
    for filename, specs in sorted(SPECS.items()):
        baseline = _load(os.path.join(baselines_dir, filename))
        fresh = _load(os.path.join(results_dir, filename))
        if baseline is None:
            warnings.append(f"{filename}: no committed baseline, skipping")
            continue
        if fresh is None:
            failures.append(
                f"{filename}: baseline exists but no fresh result was "
                f"written -- did the benchmark run?"
            )
            continue
        for label, path, direction, severity, tolerance in specs:
            ref = _dig(baseline, path)
            now = _dig(fresh, path)
            if ref is None or now is None or ref == 0:
                warnings.append(f"{label}: metric missing, skipping")
                continue
            compared += 1
            change = now / ref - 1.0
            regressed = (
                change < -tolerance if direction == "higher"
                else change > tolerance
            )
            status = "ok"
            if regressed:
                status = severity.upper()
                text = (
                    f"{label}: {now:.3f} vs baseline {ref:.3f} "
                    f"({change:+.1%}, tolerance {tolerance:.0%}, "
                    f"{direction} is better)"
                )
                (failures if severity == "fail" else warnings).append(text)
            rows.append((
                label, f"{ref:.3f}", f"{now:.3f}", f"{change:+.1%}", status
            ))
    widths = [
        max(len(str(row[col])) for row in rows + [("metric", "base",
            "now", "change", "status")])
        for col in range(5)
    ] if rows else []
    if rows:
        header = ("metric", "base", "now", "change", "status")
        print("  ".join(h.ljust(w) for h, w in zip(header, widths)))
        for row in rows:
            print("  ".join(str(v).ljust(w) for v, w in zip(row, widths)))
    for text in warnings:
        print(f"WARN: {text}")
    for text in failures:
        print(f"FAIL: {text}", file=sys.stderr)
    if failures:
        return 1
    print(f"bench-gate: {compared} metrics compared, no hard regressions")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--results", default=os.path.join(HERE, "results"),
        help="directory holding freshly-written BENCH_*.json files",
    )
    parser.add_argument(
        "--baselines", default=os.path.join(HERE, "baselines"),
        help="directory holding the committed reference BENCH_*.json files",
    )
    args = parser.parse_args(argv)
    return compare(args.results, args.baselines)


if __name__ == "__main__":
    sys.exit(main())
