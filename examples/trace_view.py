#!/usr/bin/env python3
"""Render a violation bundle: timeline, message flow, replayed verdict.

Both runtime checkers leave a *violation bundle* on disk when they find
a violation, in one format (``repro.obs.bundle``):

* a failed nemesis run (``NemesisConfig(bundle_dir=...)``) writes the
  serialized chaos config, both checkers' verdicts, the metrics
  snapshot, the typed event trace (recorded by running the failing
  seed a second time with the tracer on), and the client history;
* the live safety monitor (``python -m repro.monitor serve
  --bundle-dir ...``) writes every trace event it journaled and the
  verdict naming the offending event.

This viewer turns either back into an explanation:

* the **timeline**: elections, leader changes, crashes/restarts,
  partitions, reconfigurations, and commit milestones, with Lamport
  stamps;
* the **message flow**: per-link sent/dropped/duplicated totals, which
  shows *where* the network was torn (a nemesis trace; the monitor
  is not streamed transport events);
* the **replayed verdict**: the bundle's verdict re-derived -- a
  nemesis run re-run from its config (same seed ⇒ same violation), a
  monitor journal re-folded through a fresh checker -- and compared
  with the recorded one.

Run:  python examples/trace_view.py runs/bundles/nemesis-seed2
      python examples/trace_view.py            # demo: make one, view it

Without an argument the demo builds its own bundle by running a chaos
schedule against the historical request-id-less client
(``client_request_ids=False``), whose retry-after-timeout double
commits -- the at-most-once bug request ids fixed, kept as a teaching
scenario.
"""

import argparse
import sys
import tempfile
from collections import Counter

from repro.analysis import render_table
from repro.obs import events_by_kind, load_bundle, verdict_matches

#: Event kinds worth a timeline line (transport noise is summarized
#: separately); commits are milestoned to every Nth per node.
TIMELINE_KINDS = (
    "election_start",
    "leader_elected",
    "crash",
    "restart",
    "partition_start",
    "reconfig",
)


def timeline_lines(events, commit_every: int = 25, limit: int = 60):
    """The protocol-level timeline: control events plus every
    ``commit_every``-th commit milestone per node."""
    lines = []
    commit_counts = Counter()
    for event in events:
        if event.kind in TIMELINE_KINDS:
            lines.append(event.describe())
        elif event.kind == "commit":
            commit_counts[event.node] += 1
            if commit_counts[event.node] % commit_every == 0:
                lines.append(event.describe())
    shown = lines[:limit]
    if len(lines) > limit:
        shown.append(f"  ... {len(lines) - limit} more timeline events")
    return shown


def flow_table(events) -> str:
    """Per-link sent/dropped/duplicated totals from the transport trace."""
    sent = Counter()
    dropped = Counter()
    duplicated = Counter()
    for event in events_by_kind(events, "send"):
        sent[(event.node, event.data["to"])] += 1
    for event in events_by_kind(events, "drop"):
        dropped[(event.node, event.data["to"])] += 1
    for event in events_by_kind(events, "duplicate"):
        duplicated[(event.node, event.data["to"])] += 1
    links = sorted(set(sent) | set(dropped) | set(duplicated))
    rows = [
        (
            f"S{frm} -> S{to}",
            sent[(frm, to)],
            dropped[(frm, to)],
            duplicated[(frm, to)],
        )
        for frm, to in links
    ]
    return render_table(("link", "sent", "dropped", "duplicated"), rows)


def render_bundle(bundle) -> None:
    manifest = bundle.manifest
    verdict = bundle.verdict
    print(f"bundle: {bundle.path} ({bundle.kind})")
    if bundle.kind == "nemesis":
        config = manifest["config"]
        print(
            f"  seed={config['seed']} ops={config['ops']} "
            f"client_request_ids={config['client_request_ids']} "
            f"crashes@{tuple(config['crash_leader_at'])} "
            f"partition@{config['partition_at']}"
        )
        print(
            f"  verdict: ok={verdict['ok']} "
            f"safety_violations={len(verdict['safety_violations'])} "
            f"linearizable={verdict['linearizability_ok']}"
        )
        for problem in verdict["safety_violations"][:5]:
            print(f"    safety: {problem}")
        print(f"    {verdict['linearizability']}")
    else:
        print(f"  conf0={manifest['conf0']} nodes={manifest['nodes']}")
        print(
            f"  verdict: violation at event #{verdict['event_index']}: "
            f"{verdict['described']}"
        )
        for problem in verdict["violations"]:
            print(f"    {problem}")

    print("\ntimeline (elections, faults, reconfigs, commit milestones):")
    for line in timeline_lines(bundle.events):
        print(f"  {line}")

    print("\nmessage flow:")
    print(flow_table(bundle.events))

    counters = manifest.get("metrics", {}).get("counters", {})
    if counters:
        print("\nrun counters:")
        for name in sorted(counters):
            print(f"  {name} = {counters[name]}")
    if bundle.kind == "nemesis":
        print(
            f"\ntrace: {len(bundle.events)} events buffered "
            f"({manifest['trace_recorded']} recorded), "
            f"history: {len(bundle.history.operations)} client operations"
        )
    else:
        print(
            f"\ntrace: {len(bundle.events)} events journaled "
            f"({manifest['journal_dropped']} dropped at the journal cap)"
        )


def make_demo_bundle(directory: str) -> str:
    """A self-contained violating run: the pre-dedup client under the
    chaos schedule the nemesis regression test uses."""
    from repro.runtime import NemesisConfig, NetworkConditions, run_nemesis

    config = NemesisConfig(
        seed=2,
        ops=250,
        conditions=NetworkConditions(drop_prob=0.05, reorder_prob=0.2),
        crash_leader_at=(60, 140),
        partition_at=100,
        partition_ms=60.0,
        partition_symmetric=False,
        client_request_ids=False,
        bundle_dir=directory,
    )
    print("demo: running a violating nemesis schedule "
          "(request-id-less client, seed=2) ...")
    result = run_nemesis(config)
    if result.bundle_path is None:
        raise SystemExit("demo run unexpectedly passed; no bundle written")
    return result.bundle_path


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "bundle", nargs="?", default=None,
        help="bundle directory (default: generate a demo bundle)",
    )
    parser.add_argument(
        "--no-replay", dest="replay", action="store_false",
        help="skip the replay/verdict-match step",
    )
    return parser.parse_args()


def main(bundle: str = None, replay: bool = True) -> int:
    if bundle is None:
        bundle = make_demo_bundle(tempfile.mkdtemp(prefix="trace-view-"))
    try:
        loaded = load_bundle(bundle)
        render_bundle(loaded)
        if not replay:
            return 0
        print("\nreplaying the bundle ...")
        matches = verdict_matches(loaded)
    except ValueError as error:  # another version, or a truncated journal
        print(f"trace_view: {error}", file=sys.stderr)
        return 2
    if not matches:
        print("REPLAY DIVERGED: the bundle no longer reproduces its "
              "verdict", file=sys.stderr)
        return 1
    print("replay verdict matches the bundle")
    return 0


if __name__ == "__main__":
    sys.exit(main(**vars(parse_args())))
