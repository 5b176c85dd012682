#!/usr/bin/env python3
"""Chaos-test the replicated KV store, Jepsen-style.

A seeded nemesis run: client load against the simulated cluster while
faults are injected -- message drops, duplication, reordering, a
network partition around the leader, leader crash/restart cycles, and
(optionally) the Fig. 16 5→3→5 membership walk under churn.  Every run
ends with two checks:

* ``check_safety()``: committed prefixes agree across replicas, and no
  client request committed twice (at-most-once audit);
* a Wing–Gong linearizability check of the recorded client history.

Run:  python examples/chaos.py --seed 7 --ops 500 \\
          --faults drop=0.02,dup=0.02,reorder=0.1,partitions=1,crashes=2
      python examples/chaos.py --fig16 --ops 400 --seed 3

Exits non-zero if either check fails, so it doubles as a CI gate.
"""

import argparse
import sys
import time

from repro.runtime import (
    NemesisConfig,
    NetworkConditions,
    fig16_chaos_config,
    run_nemesis,
)


def parse_faults(spec: str) -> dict:
    """Parse ``drop=0.02,dup=0.02,reorder=0.1,partitions=1,crashes=2``."""
    known = {"drop", "dup", "reorder", "partitions", "crashes"}
    out = {"drop": 0.0, "dup": 0.0, "reorder": 0.0, "partitions": 0, "crashes": 0}
    if not spec:
        return out
    for part in spec.split(","):
        key, _, value = part.partition("=")
        key = key.strip()
        if key not in known:
            raise SystemExit(
                f"unknown fault {key!r}; expected one of {sorted(known)}"
            )
        out[key] = float(value) if key in ("drop", "dup", "reorder") else int(value)
    return out


def build_config(args: argparse.Namespace) -> NemesisConfig:
    if args.fig16:
        config = fig16_chaos_config(seed=args.seed, ops=args.ops)
        return config
    faults = parse_faults(args.faults)
    crashes = int(faults["crashes"])
    crash_at = tuple(
        (i + 1) * args.ops // (crashes + 2) for i in range(crashes)
    )
    partition_at = None
    if faults["partitions"]:
        partition_at = (3 * args.ops) // 8
        while partition_at in crash_at:
            partition_at += 1
    return NemesisConfig(
        seed=args.seed,
        ops=args.ops,
        conditions=NetworkConditions(
            drop_prob=faults["drop"],
            duplicate_prob=faults["dup"],
            reorder_prob=faults["reorder"],
            reorder_window_ms=2.0,
        ),
        crash_leader_at=crash_at,
        partition_at=partition_at,
        partition_ms=40.0,
    )


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=7, help="run seed")
    parser.add_argument("--ops", type=int, default=500, help="client operations")
    parser.add_argument(
        "--faults",
        default="drop=0.02,dup=0.02,reorder=0.1,partitions=1,crashes=2",
        help="fault spec: drop=P,dup=P,reorder=P,partitions=N,crashes=N",
    )
    parser.add_argument(
        "--fig16",
        action="store_true",
        help="run the Fig. 16 5→3→5 reconfiguration trajectory under churn",
    )
    parser.add_argument(
        "--bundle-dir",
        default=None,
        help="write a replayable violation bundle here if a check fails "
        "(the failing seed is run again, traced, to fill it; view it "
        "with examples/trace_view.py)",
    )
    return parser.parse_args()


def main(
    seed: int = 7,
    ops: int = 500,
    faults: str = "drop=0.02,dup=0.02,reorder=0.1,partitions=1,crashes=2",
    fig16: bool = False,
    bundle_dir: str = None,
) -> int:
    args = argparse.Namespace(seed=seed, ops=ops, faults=faults, fig16=fig16)
    config = build_config(args)
    config.bundle_dir = bundle_dir
    print(
        f"nemesis: seed={config.seed} ops={config.ops} "
        f"drop={config.conditions.drop_prob} "
        f"dup={config.conditions.duplicate_prob} "
        f"reorder={config.conditions.reorder_prob} "
        f"crashes@{config.crash_leader_at} "
        f"partition@{config.partition_at} "
        f"reconfigs={len(config.reconfig_trajectory)}"
    )
    started = time.perf_counter()
    result = run_nemesis(config)
    wall = time.perf_counter() - started

    print(result.describe())
    throughput = (
        result.stats.ops_completed / (result.stats.sim_ms / 1000.0)
        if result.stats.sim_ms
        else 0.0
    )
    print(f"  throughput: {throughput:.0f} ops/sim-second ({wall:.2f}s wall)")
    if not result.ok:
        print("FAILED: safety or linearizability violation", file=sys.stderr)
        if result.bundle_path is not None:
            print(
                f"violation bundle: {result.bundle_path} "
                "(render it with examples/trace_view.py)",
                file=sys.stderr,
            )
        return 1
    print("all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main(**vars(parse_args())))
