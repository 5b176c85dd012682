"""Experiments E4 + E6 (Section 7 "Refinement", Section 5/Appendix C).

Paper claims reproduced:

* the refinement (and therefore the safety transfer) is parameterized
  over the same isQuorum/R1⁺ as Adore, and instantiating a scheme plus
  discharging its side conditions is trivial -- here: REFLEXIVE and
  OVERLAP checked exhaustively per scheme over bounded universes, with
  case counts (E4);
* the Raft → SRaft → Adore refinement pipeline -- invalid-message
  filtering (C.3), global reordering (C.7), atomic grouping (C.9), and
  the lockstep simulation preserving ℝ (C.1) -- validated over
  randomized asynchronous traces (E6).
"""

import random

from repro.analysis import render_table
from repro.raft import Deliver, RaftSystem
from repro.refinement import (
    SimulationChecker,
    atomic_groups,
    check_equivalent,
    filter_invalid,
    normalize,
)
from repro.schemes import (
    DynamicQuorumScheme,
    JointConsensusScheme,
    PrimaryBackupScheme,
    RaftSingleNodeScheme,
    RotatingPrimaryScheme,
    StaticScheme,
    UnanimousScheme,
    UnsafeMultiNodeScheme,
    WeightedMajorityScheme,
    check_assumptions,
)

CONF = frozenset({1, 2, 3})
SCHEME = RaftSingleNodeScheme()


# ----------------------------------------------------------------------
# E4: scheme instantiations
# ----------------------------------------------------------------------

def check_all():
    schemes = [
        RaftSingleNodeScheme(),
        JointConsensusScheme(),
        PrimaryBackupScheme(),
        RotatingPrimaryScheme(),
        DynamicQuorumScheme(),
        UnanimousScheme(),
        WeightedMajorityScheme(),
        StaticScheme(),
    ]
    good = [(s, check_assumptions(s, [1, 2, 3])) for s in schemes]
    bad = check_assumptions(
        UnsafeMultiNodeScheme(), [1, 2, 3, 4], stop_at_first=True
    )
    return good, bad


def test_scheme_instantiations(report):
    good, bad = check_all()
    rows = [
        (
            scheme.name,
            rep.configs_checked,
            rep.transition_pairs,
            rep.quorum_pairs_checked,
            "OK" if rep.ok else "VIOLATED",
        )
        for scheme, rep in good
    ]
    rows.append((
        "unsafe-multi-node (ablation)",
        bad.configs_checked,
        bad.transition_pairs,
        bad.quorum_pairs_checked,
        "VIOLATED (expected)",
    ))
    report(
        "",
        "=" * 72,
        "E4 / Section 6-7 -- scheme instantiations: REFLEXIVE + OVERLAP",
        "(exhaustive over a 3-node universe; 4-node for the broken scheme)",
        "=" * 72,
        render_table(
            ["scheme", "configs", "R1+ transitions", "quorum pairs", "result"],
            rows,
        ),
    )
    assert all(rep.ok for _, rep in good)
    assert not bad.ok and bad.overlap_violations


# ----------------------------------------------------------------------
# E6: the refinement pipeline
# ----------------------------------------------------------------------

def random_async_trace(seed: int, steps: int = 20):
    rng = random.Random(seed)
    system = RaftSystem(CONF, SCHEME)
    counter = 0
    for _ in range(steps):
        op = rng.choice(["elect", "invoke", "commit", "deliver", "deliver",
                         "deliver"])
        nid = rng.choice(sorted(CONF))
        if op == "elect":
            system.elect(nid)
        elif op == "invoke":
            counter += 1
            system.invoke(nid, f"m{counter}")
        elif op == "commit":
            system.commit(nid)
        else:
            pending = list(system.network.in_flight())
            if pending:
                system.deliver(rng.choice(pending))
    return system.trace


def refinement_pipeline(n_traces: int = 25):
    stats = []
    for seed in range(n_traces):
        trace = random_async_trace(seed)
        filtered = filter_invalid(CONF, SCHEME, trace)
        ordered = normalize(CONF, SCHEME, trace)
        assert check_equivalent(CONF, SCHEME, trace, filtered) == []
        assert check_equivalent(CONF, SCHEME, trace, ordered) == []
        groups = atomic_groups(ordered)
        deliveries = sum(1 for e in trace if isinstance(e, Deliver))
        kept = sum(1 for e in ordered if isinstance(e, Deliver))
        rounds = sum(
            1 for g in groups if isinstance(g[0], Deliver) and len(g) > 1
        )
        stats.append((seed, len(trace), deliveries, deliveries - kept, rounds))
    return stats


def test_trace_transformations(report):
    stats = refinement_pipeline()
    total_events = sum(s[1] for s in stats)
    total_deliveries = sum(s[2] for s in stats)
    total_dropped = sum(s[3] for s in stats)
    total_rounds = sum(s[4] for s in stats)
    report(
        "",
        "=" * 72,
        "E6 / Appendix C -- Raft -> SRaft trace transformations",
        "=" * 72,
        render_table(
            ["traces", "events", "deliveries", "invalid dropped (C.3)",
             "atomic rounds (C.9)", "R_net preserved"],
            [(len(stats), total_events, total_deliveries, total_dropped,
              total_rounds, "yes (all)")],
        ),
    )
    assert total_dropped > 0  # asynchrony produced some stale messages
    assert total_rounds > 0


def lockstep_simulation(steps: int = 120, seed: int = 7, checker=None):
    rng = random.Random(seed)
    sim = (checker or SimulationChecker)(CONF, SCHEME, extra_nodes=[4])
    nodes = [1, 2, 3, 4]
    counter = 0
    mirrored = 0
    for _ in range(steps):
        op = rng.choice(["elect", "invoke", "commit", "commit", "reconfig"])
        nid = rng.choice(nodes)
        others = [n for n in nodes if n != nid]
        group = rng.sample(others, rng.randint(0, len(others)))
        try:
            if op == "elect":
                sim.elect(nid, group)
            elif op == "invoke":
                counter += 1
                sim.invoke(nid, f"m{counter}")
            elif op == "commit":
                sim.commit(nid, group)
            else:
                conf = frozenset(sim.sraft.servers[nid].config())
                choices = [conf | {n} for n in nodes if n not in conf]
                choices += [conf - {n} for n in conf if len(conf) > 1]
                sim.reconfig(nid, rng.choice(choices))
            mirrored += 1
        except Exception as exc:  # noqa: BLE001
            from repro.core.errors import InvalidOperation

            if isinstance(exc, InvalidOperation):
                continue  # SRaft scheduling refusal, not a relation break
            raise
    return sim, mirrored


def test_sraft_adore_simulation(report):
    sim, mirrored = lockstep_simulation()
    ok_steps = sum(1 for s in sim.steps if s.ok)
    report(
        "",
        "E6 / Lemma C.1 -- SRaft -> Adore lockstep simulation:",
        f"  {mirrored} rounds mirrored, ℝ (logMatch + times + commit "
        f"prefixes) held after {ok_steps}/{len(sim.steps)} steps",
        f"  final tree: {len(sim.adore.tree)} caches, "
        f"{len(sim.adore.tree.ccaches())} commits",
    )
    assert sim.ok
    assert mirrored >= 100


def test_spaxos_adore_simulation(report):
    """The same refinement relation over the multi-Paxos variant --
    the paper: "this relation can be proved for many protocols,
    including various Paxos variants and Raft"."""
    from repro.refinement import PaxosSimulationChecker

    sim, mirrored = lockstep_simulation(
        checker=PaxosSimulationChecker, seed=11
    )
    ok_steps = sum(1 for s in sim.steps if s.ok)
    report(
        "",
        "E6 / multi-Paxos variant -> Adore lockstep simulation:",
        f"  {mirrored} rounds mirrored (promise-based elections adopt "
        f"logs = mostRecent), ℝ held after {ok_steps}/{len(sim.steps)} "
        "steps",
    )
    assert sim.ok
    assert mirrored >= 60
