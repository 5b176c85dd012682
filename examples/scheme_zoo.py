#!/usr/bin/env python3
"""The reconfiguration scheme zoo (paper Section 6, plus scheme #7).

Adore's safety proof is parameterized: any ``Config``/``isQuorum``/
``R1⁺`` triple satisfying REFLEXIVE and OVERLAP inherits the proof.
This script exercises each bundled scheme twice:

* exhaustively checking REFLEXIVE and OVERLAP over a bounded node
  universe (the executable analogue of the per-scheme Coq side
  conditions -- about 200 lines for six schemes in the artifact), and
* running the same generic Adore machine through an election, a
  commit, and a reconfiguration under that scheme.

The zoo includes scheme #7, MongoDB's logless dynamic reconfiguration
(config state outside the oplog, ordered by ``(term, version)``).  It
also checks Raft single-node with OVERLAP deliberately ablated
(``OverlapAblation``: any one-step membership jump) and shows OVERLAP
failing with a concrete witness: the R1⁺-related config pair and one
disjoint quorum of each.

Run:  python examples/scheme_zoo.py
      python examples/scheme_zoo.py --differential   (comparison matrix)
"""

from repro.analysis import render_table
from repro.core import AdoreMachine, RandomOracle, check_state, committed_log
from repro.schemes import (
    DynamicQuorumScheme,
    JointConfig,
    JointConsensusScheme,
    LoglessConfig,
    LoglessReconfigScheme,
    PrimaryBackupConfig,
    PrimaryBackupScheme,
    SCHEMES,
    OverlapAblation,
    RaftSingleNodeScheme,
    RotatingPrimaryScheme,
    SizedConfig,
    UnanimousScheme,
    WeightedConfig,
    WeightedMajorityScheme,
    check_assumptions,
)

#: scheme, initial config, a legal reconfiguration target.
ZOO = [
    (RaftSingleNodeScheme(), frozenset({1, 2, 3}), frozenset({1, 2, 3, 4})),
    (
        JointConsensusScheme(),
        JointConfig.stable({1, 2, 3}),
        JointConfig.transition({1, 2, 3}, {1, 4, 5}),
    ),
    (
        PrimaryBackupScheme(),
        PrimaryBackupConfig.of(1, {2, 3}),
        PrimaryBackupConfig.of(1, {4, 5}),
    ),
    (
        RotatingPrimaryScheme(),
        PrimaryBackupConfig.of(1, {2, 3}),
        PrimaryBackupConfig.of(2, {1, 3}),
    ),
    (DynamicQuorumScheme(), SizedConfig.of(2, {1, 2, 3}),
     SizedConfig.of(4, {1, 2, 3, 4, 5})),
    (UnanimousScheme(), frozenset({1, 2, 3}), frozenset({1, 4, 5})),
    (
        WeightedMajorityScheme(),
        WeightedConfig.of({1: 2, 2: 1, 3: 1}),
        WeightedConfig.of({1: 2, 2: 1, 3: 1, 4: 1}),
    ),
    (
        # The reconfig bumps the version at the leader's (post-election)
        # term, exactly as MongoDB installs (version+1, leader_term).
        LoglessReconfigScheme(),
        LoglessConfig.initial({1, 2, 3}),
        LoglessConfig.of(1, 1, {1, 2, 3, 4}),
    ),
]


def print_witnesses(report) -> None:
    """Render an assumption report's concrete counterexamples."""
    for witness in (report.reflexive_witnesses + report.quorum_witnesses)[:3]:
        print(f"  witness: {witness.describe()}")
    for witness in report.overlap_witnesses[:3]:
        print(f"  witness: {witness.old_described} -> {witness.new_described}")
        print(f"    quorum of old config: {list(witness.quorum_old)}")
        print(f"    quorum of new config: {list(witness.quorum_new)} (disjoint)")


def main(differential: bool = False) -> None:
    if differential:
        from repro.mc.differential import SMOKE_BUDGETS, run_differential

        print("== Differential matrix (smoke budgets) ==\n")
        report = run_differential(
            budgets=SMOKE_BUDGETS,
            max_states=50_000,
            progress=lambda message: print(f"  {message}"),
        )
        print()
        print(report.render())
        return

    print("== REFLEXIVE / QUORUM-EXISTS / OVERLAP checks (3-node universe) ==\n")
    rows = []
    reports = []
    for scheme in SCHEMES.values():
        report = check_assumptions(scheme, [1, 2, 3])
        reports.append(report)
        rows.append((
            scheme.name,
            report.configs_checked,
            report.transition_pairs,
            report.quorum_pairs_checked,
            "OK" if report.ok else "VIOLATED",
        ))
    print(render_table(
        ["scheme", "configs", "R1+ transitions", "quorum pairs", "result"],
        rows,
    ))
    for report in reports:
        if not report.ok:
            print(f"\n{report.scheme} violations:")
            print_witnesses(report)

    print("\n== The same generic machine under every scheme ==\n")
    for scheme, conf0, target in ZOO:
        machine = AdoreMachine.create(
            conf0,
            scheme,
            RandomOracle(seed=1, fail_prob=0.0, quorums_only=True),
        )
        leader = sorted(scheme.members(conf0))[0]
        machine.pull(leader)
        machine.invoke(leader, "m")
        machine.push(leader)
        result = machine.reconfig(leader, target)
        machine.push(leader)
        safe = check_state(machine.state).ok
        print(
            f"{scheme.name:22s} reconfig {scheme.describe_config(conf0)} -> "
            f"{scheme.describe_config(target)}: {result.reason}; "
            f"committed {len(committed_log(machine.state.tree))} entries; "
            f"safe={safe}"
        )

    print("\n== The broken scheme: OVERLAP fails ==\n")
    broken = check_assumptions(
        OverlapAblation(RaftSingleNodeScheme()), [1, 2, 3, 4],
        stop_at_first=True,
    )
    print(broken.summary())
    print_witnesses(broken)


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--differential",
        action="store_true",
        help="print the seven-scheme comparison matrix on smoke budgets",
    )
    main(differential=parser.parse_args().differential)
