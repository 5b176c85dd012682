"""Experiment E2 (paper Fig. 4 / Fig. 12): the single-node membership bug.

The paper's motivating counterexample: Raft's original single-node
membership change algorithm (no R3) lets two leaders commit with
disjoint quorums.  This benchmark regenerates the behaviour at both
abstraction levels the paper uses, plus the automated rediscovery:

* Adore model (Fig. 12 cache trees) -- scripted oracle;
* network-based Raft (Fig. 4 message schedule) -- asynchronous spec;
* bounded model checker with R3 ablated -- finds a depth-8 violation of
  the same shape with no scripted guidance;
* the same schedule class with R3 on, over every quorum choice --
  exhaustively SAFE.
"""

from repro.analysis import render_table
from repro.core import check_replicated_state_safety, rdist
from repro.core.figures import fig4_blocked_machine, fig4_unsafe_machine
from repro.raft import run_buggy, run_fixed


def run_both_levels():
    adore_unsafe, labels = fig4_unsafe_machine()
    adore_blocked, denied = fig4_blocked_machine()
    net_unsafe = run_buggy()
    net_fixed = run_fixed()
    return adore_unsafe, labels, denied, net_unsafe, net_fixed


def test_fig4_bug_reproduction(report):
    adore_unsafe, labels, denied, net_unsafe, net_fixed = run_both_levels()

    tree = adore_unsafe.state.tree
    adore_violations = check_replicated_state_safety(tree)
    q_s2 = sorted(tree.cache(labels["C2"]).voters)
    q_s1 = sorted(tree.cache(labels["C3"]).voters)

    rows = [
        (
            "Adore model (Fig. 12)",
            "no R3",
            "SAFETY VIOLATED" if adore_violations else "safe",
            f"disjoint commit quorums {q_s2} / {q_s1}, "
            f"rdist={rdist(tree, labels['C2'], labels['C3'])}",
        ),
        (
            "Adore model (Fig. 12)",
            "R3 on",
            "blocked",
            f"first reconfig denied: {denied.reason}",
        ),
        (
            "network Raft (Fig. 4)",
            "no R3",
            "SAFETY VIOLATED" if net_unsafe.violated else "safe",
            f"{len(net_unsafe.system.leaders())} concurrent leaders, "
            f"{len(net_unsafe.safety_violations)} divergent prefix pairs",
        ),
        (
            "network Raft (Fig. 4)",
            "R3 on",
            "blocked",
            net_fixed.reconfig_results[0],
        ),
    ]
    report(
        "",
        "=" * 72,
        "E2 / Fig. 4+12 -- Raft's single-node membership change bug",
        "=" * 72,
        render_table(["level", "variant", "outcome", "evidence"], rows),
        "",
        "final Adore cache tree (no R3):",
        tree.render(),
    )

    # Paper claims, as assertions.
    assert len(adore_violations) == 1
    assert not set(q_s1) & set(q_s2)
    assert denied.reason == "r3-denied"
    assert net_unsafe.violated
    assert not net_fixed.violated
    assert net_fixed.reconfig_results == ["S1 removes S4: r3-denied"]


def test_fig4_automated_rediscovery(report):
    """The model checker finds the violation with zero guidance."""
    from repro.mc import ablate_r3

    result = ablate_r3()
    assert not result.safe
    violation = result.violations[0]
    report(
        "",
        "model checker, R3 ablated (guided search, safety invariant only):",
        "  " + result.summary(),
        "  schedule found:",
        *(
            f"    {i + 1}. {op}({nid}) {detail}"
            for i, (op, nid, detail) in enumerate(violation.trace)
        ),
    )
    assert len(violation.trace) == 8
    ops = [op for op, _, _ in violation.trace]
    assert ops.count("reconfig") == 2
    assert ops.count("push") == 2


def test_fig4_schedule_class_safe_with_r3(report):
    """Exhaustive BFS over the same schedule class and every quorum
    choice, R3 on: SAFE.  (The minimal-quorum run of this class is
    golden row ``fig4-hunt`` in tier-1.)"""
    from repro.mc import FIG4_BUDGET, FIG4_NODES, Explorer
    from repro.schemes import RaftSingleNodeScheme

    def verify():
        return Explorer(
            RaftSingleNodeScheme(),
            FIG4_NODES,
            callers=[1, 2],
            budget=FIG4_BUDGET,
            quorum_pulls_only=True,
            invariants=["safety"],
        ).run()

    result = verify()
    report(
        "",
        "same schedule class with R3 enforced, every quorum choice:",
        "  " + result.summary(),
    )
    assert result.safe
    assert result.exhausted
