"""``python -m repro.net`` -- run the spec on a real network.

Subcommands:

* ``node``   -- run one replica process (what :class:`LocalCluster`
  spawns; also usable by hand across terminals or machines).
* ``client`` -- one-shot operations against a running cluster
  (``put``/``get``/``add``/``delete``/``status``/``reconfig``).
* ``demo``   -- spawn a localhost cluster, drive a workload through it
  (optionally killing the leader mid-run), then verify the recorded
  history with the Wing-Gong checker and the committed logs with the
  cross-node prefix-agreement check.  Exits non-zero on any violation,
  so CI can gate on it.
"""

from __future__ import annotations

import argparse
import random
import sys
import time
import uuid
from typing import List, Tuple

from .client import ClientError, ClientTimeout, NetClient
from .node import NodeConfig, run_node
from .procs import (
    LocalCluster,
    add_config_flags,
    config_from,
    log_to_stdout,
    parse_conf,
    parse_peers,
)
from ..runtime.linearize import check_history


# ----------------------------------------------------------------------
# node
# ----------------------------------------------------------------------


def _cmd_node(args: argparse.Namespace) -> int:
    log_to_stdout(args.verbose)
    run_node(config_from(NodeConfig, args))
    return 0


# ----------------------------------------------------------------------
# client
# ----------------------------------------------------------------------


def _cmd_client(args: argparse.Namespace) -> int:
    addresses = parse_peers(args.peers)
    # Each one-shot invocation is a distinct client: a fixed default id
    # would restart the sequence counter at the same value every time,
    # and the at-most-once dedup would answer later invocations with
    # the first one's result.
    client_id = args.client_id or f"cli-{uuid.uuid4().hex[:12]}"
    with NetClient(
        addresses,
        client_id=client_id,
        total_timeout_s=args.timeout_s,
        max_attempts=args.max_attempts or None,
    ) as client:
        try:
            if args.op == "status":
                for nid in sorted(addresses):
                    reply = client.status(nid)
                    if reply is None:
                        print(f"S{nid}: unreachable")
                    else:
                        extras = ""
                        if reply.base_len:
                            extras += f" snap={reply.base_len}"
                        if reply.snapshots_installed:
                            extras += f" installed={reply.snapshots_installed}"
                        if reply.reads_fast:
                            extras += f" fast_reads={reply.reads_fast}"
                        print(
                            f"S{nid}: {reply.role} term={reply.term} "
                            f"commit={reply.commit_len}/{reply.log_len} "
                            f"members={sorted(reply.members)}" + extras
                        )
                return 0
            if args.op == "put":
                result = client.put(args.key, args.value)
            elif args.op == "get":
                result = client.get(args.key)
            elif args.op == "add":
                result = client.add(args.key, int(args.value or 1))
            elif args.op == "delete":
                result = client.delete(args.key)
            elif args.op == "reconfig":
                result = client.reconfigure(parse_conf(args.key))
            else:  # pragma: no cover - argparse restricts choices
                raise SystemExit(f"unknown op {args.op}")
        except (ClientError, ClientTimeout) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    print(result)
    return 0


# ----------------------------------------------------------------------
# demo
# ----------------------------------------------------------------------


def _run_workload(
    client: NetClient, rng: random.Random, ops: int, keys: List[str]
) -> Tuple[int, int]:
    """Drive ``ops`` random kvstore operations; returns (ok, unknown)."""
    ok = unknown = 0
    for _ in range(ops):
        key = rng.choice(keys)
        roll = rng.random()
        try:
            if roll < 0.4:
                client.put(key, rng.randrange(1000))
            elif roll < 0.6:
                client.add(key, rng.randrange(1, 5))
            elif roll < 0.7:
                client.delete(key)
            else:
                client.get(key)
            ok += 1
        except ClientTimeout:
            unknown += 1  # outcome unknown: the op stays pending
    return ok, unknown


def _committed_prefix_agreement(cluster: LocalCluster) -> Tuple[bool, str]:
    """Every pair of reachable nodes must agree on the shared prefix of
    their committed logs (the paper's log agreement, checked live)."""
    with cluster.client(client_id="safety-check") as probe:
        logs = {
            nid: tail
            for nid in cluster.nids
            if cluster.handles[nid].alive
            and (tail := probe.committed_tail(nid)) is not None
        }
    nids = sorted(logs)
    for i, a in enumerate(nids):
        for b in nids[i + 1:]:
            # Entries ship from each node's snapshot point on: compare
            # the overlap of the two visible (absolute) index ranges.
            entries_a, base_a = logs[a]
            entries_b, base_b = logs[b]
            lo = max(base_a, base_b)
            hi = min(base_a + len(entries_a), base_b + len(entries_b))
            if lo >= hi:
                continue  # no visible overlap (snapshots cover it)
            if (entries_a[lo - base_a : hi - base_a]
                    != entries_b[lo - base_b : hi - base_b]):
                return False, (
                    f"S{a} and S{b} disagree within their committed "
                    f"prefixes (absolute entries {lo}..{hi})"
                )
    return True, f"{len(nids)} nodes agree on committed prefixes"


def _run_fig4(cluster: LocalCluster, args: argparse.Namespace,
              failures: List[str]) -> None:
    """The staged divergent-reconfig schedule, asserted per spec."""
    from .fig4 import run_fig4_live

    print("demo: staging the Fig. 4 divergent-reconfig schedule ...")
    result = run_fig4_live(cluster, expect_violation=args.spec == "buggy")
    print(result.describe())
    if args.spec == "buggy":
        if not result.detected:
            failures.append(
                "the monitor missed the seeded fig4 violation"
            )
        elif result.bundle:
            from ..obs.bundle import load_bundle, verdict_matches

            if not verdict_matches(load_bundle(result.bundle)):
                failures.append(
                    f"bundle {result.bundle} does not replay to the "
                    f"recorded verdict"
                )
            else:
                print(f"demo: bundle replays and matches "
                      f"({result.bundle})")
        return
    # Clean spec under the same schedule: the reconfig must complete
    # legally, nothing may be flagged, and the survivors stay live.
    if result.detected:
        failures.append(
            f"monitor flagged the clean spec: {result.violations}"
        )
    if result.reconfig_outcome != "committed":
        failures.append(
            f"legal reconfig did not complete: {result.reconfig_outcome}"
        )
    with cluster.client(
        client_id="post-fig4", total_timeout_s=args.op_timeout_s
    ) as survivor:
        survivor.find_leader()
        try:
            for i in range(5):
                survivor.put(f"post-fig4-{i}", i)
            print("demo: survivors are live after the reconfiguration")
        except (ClientError, ClientTimeout) as exc:
            failures.append(f"survivors not live after reconfig: {exc}")


def _cmd_demo(args: argparse.Namespace) -> int:
    if args.spec == "buggy" and not args.monitor:
        print("--spec buggy requires --monitor (nothing else would "
              "observe the violation)", file=sys.stderr)
        return 2
    fig4 = args.fig4 or args.spec == "buggy"
    if fig4 and args.kill_leader:
        print("--kill-leader cannot be combined with the fig4 schedule",
              file=sys.stderr)
        return 2
    if fig4 and args.nodes < 3:
        print("the fig4 schedule needs at least 3 nodes", file=sys.stderr)
        return 2
    nids = tuple(range(1, args.nodes + 1))
    rng = random.Random(args.seed)
    keys = [f"k{i}" for i in range(5)]
    print(f"demo: spawning {args.nodes}-node cluster"
          + (" + monitor" if args.monitor else "")
          + (f" [spec={args.spec}]" if args.spec != "raft" else "")
          + " ...")
    with LocalCluster(
        nids=nids, seed=args.seed, log_dir=args.log_dir,
        snapshot_threshold=args.snapshot_threshold,
        spec=args.spec, monitor=args.monitor,
    ) as cluster:
        leader = cluster.wait_for_leader()
        print(f"demo: S{leader} is leader; driving {args.ops} ops ...")
        with cluster.client(
            client_id="demo", total_timeout_s=args.op_timeout_s
        ) as client:
            ok, unknown = _run_workload(client, rng, args.ops // 2, keys)
            if args.kill_leader:
                victim = cluster.wait_for_leader()
                print(f"demo: killing leader S{victim} (SIGKILL) ...")
                cluster.kill(victim)
                leader = cluster.wait_for_leader(exclude=(victim,))
                print(f"demo: S{leader} took over")
            ok2, unknown2 = _run_workload(
                client, rng, args.ops - args.ops // 2, keys
            )
            ok, unknown = ok + ok2, unknown + unknown2
            history = client.history
            print(
                f"demo: {ok} ops completed, {unknown} unknown, "
                f"{client.retries} retries"
            )

            failures = []
            verdict = check_history(history)
            print(f"demo: history {verdict.describe()}")
            if not verdict.ok:
                failures.append("history is not linearizable")
            agrees, detail = _committed_prefix_agreement(cluster)
            print(f"demo: {detail}")
            if not agrees:
                failures.append(detail)
            if ok == 0:
                failures.append("no operation completed")

        if fig4:
            _run_fig4(cluster, args, failures)
        if args.monitor:
            status = cluster.monitor_status()
            if status is None:
                failures.append("safety monitor unreachable at the end")
            elif args.spec == "buggy":
                if status.ok:
                    failures.append(
                        "monitor reports ok on the buggy spec"
                    )
            elif not status.ok:
                failures.append(
                    f"monitor flagged violations: {list(status.violations)}"
                )
            else:
                print(
                    f"demo: monitor clean after {status.events} events "
                    f"({status.entries} entries, {status.commits} commits, "
                    f"{status.gaps} gaps) from nodes "
                    f"{list(status.nodes)}"
                )

        codes = cluster.shutdown()
        clean = all(
            code is None or code <= 0  # -9 for the killed leader is fine
            for code in codes.values()
        )
        if not clean:
            failures.append(f"unclean shutdown: {codes}")
        if failures:
            for nid, text in cluster.logs().items():
                print(f"--- node {nid} log ---\n{text[-4000:]}")
            for failure in failures:
                print(f"FAIL: {failure}", file=sys.stderr)
            return 1
    print("demo: OK")
    return 0


# ----------------------------------------------------------------------


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m repro.net")
    sub = parser.add_subparsers(dest="command", required=True)

    node = sub.add_parser("node", help="run one replica process")
    add_config_flags(node, NodeConfig)
    node.add_argument("--verbose", action="store_true")
    node.set_defaults(func=_cmd_node)

    client = sub.add_parser("client", help="one-shot client operation")
    client.add_argument("--peers", required=True)
    client.add_argument(
        "--client-id", default=None,
        help="stable identity for retry dedup (default: unique per run)",
    )
    client.add_argument(
        "--max-attempts", type=int, default=20,
        help="give up (exit 1) after this many attempts with no "
             "definitive response (0 means deadline-bound only)",
    )
    client.add_argument(
        "--timeout-s", type=float, default=20.0,
        help="overall per-operation deadline in seconds",
    )
    client.add_argument(
        "op",
        choices=["put", "get", "add", "delete", "status", "reconfig"],
    )
    client.add_argument("key", nargs="?", default=None)
    client.add_argument("value", nargs="?", default=None)
    client.set_defaults(func=_cmd_client)

    demo = sub.add_parser("demo", help="self-checking localhost demo")
    demo.add_argument("--nodes", type=int, default=3)
    demo.add_argument("--ops", type=int, default=200)
    demo.add_argument("--seed", type=int, default=0)
    demo.add_argument("--kill-leader", action="store_true")
    demo.add_argument("--op-timeout-s", type=float, default=20.0)
    demo.add_argument(
        "--snapshot-threshold", type=int,
        default=NodeConfig.snapshot_threshold,
        help="per-node compaction threshold (low values force "
             "InstallSnapshot traffic mid-demo; 0 disables)",
    )
    demo.add_argument(
        "--log-dir", default=None,
        help="keep node logs here instead of a temporary directory",
    )
    demo.add_argument(
        "--monitor", action="store_true",
        help="attach the streaming safety monitor and require a clean "
             "verdict (with --spec buggy: require a violation verdict)",
    )
    demo.add_argument(
        "--spec", choices=["raft", "buggy"], default=NodeConfig.spec,
        help="node semantics; 'buggy' disables the R3 reconfiguration "
             "guard and implies the fig4 schedule",
    )
    demo.add_argument(
        "--fig4", action="store_true",
        help="stage the Fig. 4 divergent-reconfig schedule after the "
             "workload (always on under --spec buggy)",
    )
    demo.set_defaults(func=_cmd_demo)

    args = parser.parse_args(argv)
    start = time.monotonic()
    code = args.func(args)
    if args.command == "demo":
        print(f"demo: finished in {time.monotonic() - start:.1f}s")
    return code


if __name__ == "__main__":
    sys.exit(main())
