"""Experiment E8 (extension; paper Section 8's sketches, executed).

Section 8 sketches how Adore could model two other reconfiguration
families: stop-the-world (Stoppable Paxos / WormSpace / VR) by deleting
off-branch caches when an RCache commits, and Lamport's α-delayed
scheme by deferring configurations until committed and bounding
in-flight speculation.  Both sketches are implemented in
``repro.core.extensions``; this experiment model-checks the
stop-the-world variant at the same bounds as the hot model and
contrasts the tree sizes (stop-the-world physically deletes
speculation), and exercises the α machine's two behavioural changes.
"""

from repro.analysis import render_table
from repro.core import PullOk, PushOk, ScriptedOracle
from repro.core.extensions import AlphaReconfigMachine, apply_push_stop_world
from repro.mc import Explorer, OpBudget
from repro.schemes import RaftSingleNodeScheme

NODES = frozenset({1, 2, 3})
SCHEME = RaftSingleNodeScheme()
BUDGET = OpBudget(pulls=2, invokes=1, reconfigs=1, pushes=2)
F = frozenset


def check_both():
    hot = Explorer(SCHEME, NODES, budget=BUDGET).run()
    stop = Explorer(
        SCHEME, NODES, budget=BUDGET, push_step=apply_push_stop_world
    ).run()
    return hot, stop


def test_stop_the_world_model_checked(report):
    hot, stop = check_both()
    report(
        "",
        "=" * 72,
        "E8 (extension) / Section 8 -- stop-the-world reconfiguration",
        "=" * 72,
        render_table(
            ["variant", "states", "transitions", "coverage", "result"],
            [
                ("hot (insertBtw, paper default)", hot.states_visited,
                 hot.transitions,
                 "exhaustive" if hot.exhausted else "truncated",
                 "SAFE" if hot.safe else "VIOLATED"),
                ("stop-the-world (prune on commit)", stop.states_visited,
                 stop.transitions,
                 "exhaustive" if stop.exhausted else "truncated",
                 "SAFE" if stop.safe else "VIOLATED"),
            ],
        ),
        "stop-the-world reaches fewer states: committing a "
        "reconfiguration deletes all off-branch speculation, the clean "
        "break the paper describes.",
    )
    assert hot.safe and stop.safe
    assert hot.exhausted and stop.exhausted
    assert stop.states_visited <= hot.states_visited


def test_alpha_machine_behaviour(report):
    """The two α-sketch requirements, demonstrated on one schedule."""

    def run():
        oracle = ScriptedOracle([
            PullOk(group=F({1, 2, 3}), time=1),
            PushOk(group=F({1, 2, 3}), target=2),
            PullOk(group=F({2, 3}), time=2),
        ])
        machine = AlphaReconfigMachine.create(
            NODES, SCHEME, oracle, alpha=2
        )
        machine.pull(1)
        machine.invoke(1, "m1")
        machine.push(1)
        machine.reconfig(1, F({1, 2}))            # uncommitted: inert
        blocked = machine.invoke(1, "m2")          # window: 1 slot left
        full = machine.invoke(1, "m3")             # window full
        election = machine.pull(2)                 # quorum vs *effective* cfg
        return machine, blocked, full, election

    machine, blocked, full, election = run()
    rows = [
        ("uncommitted RCache is inert",
         f"post-RCache MCache carries config "
         f"{sorted(machine.state.tree.cache(blocked.new_cid).conf)} "
         f"(not the pending {sorted(F({1, 2}))})"),
        ("α bounds speculation",
         f"third in-flight command refused: {full.reason}"),
        ("elections use committed config",
         f"new ECache config "
         f"{sorted(machine.state.tree.cache(election.new_cid).conf)}; "
         f"quorum {{2,3}} judged against it"),
    ]
    report(
        "",
        "E8 / Lamport α-reconfiguration (α = 2):",
        render_table(["sketch requirement", "observed"], rows),
    )
    assert machine.state.tree.cache(blocked.new_cid).conf == NODES
    assert full.reason == "alpha-window-full"
    assert election.ok
    assert machine.state.tree.cache(election.new_cid).conf == NODES
