"""Experiment E5 (Section 4, Theorem 4.5): safety, model-checked.

The paper's central theorem -- replicated state safety for any
reconfigurable protocol satisfying R1⁺/R2/R3 -- is a Coq proof; the
reproduction substitutes bounded exhaustive model checking:

* positive: every reachable state of bounded instances satisfies
  Definition 4.1 plus every Appendix-B invariant (exhaustive within the
  schedule budget);
* negative (ablations): removing any one design rule -- R2, R3, the
  OVERLAP guarantee of R1⁺, or the insertBtw commit placement -- yields
  a concrete counterexample schedule, found automatically.

Every hunt runs uncapped, and the depth of each first violation is
pinned.
"""

import os

from repro.analysis import render_table
from repro.cado import cado_explorer
from repro.mc import (
    Explorer,
    OpBudget,
    ablate_insert_btw,
    ablate_overlap,
    ablate_r2,
    ablate_r3,
    verify_intact,
    verify_intact_explorer,
)
from repro.schemes import RaftSingleNodeScheme


def positive_runs():
    results = []
    results.append((
        "CADO, 3 nodes, (2,2,-,2)",
        cado_explorer(
            frozenset({1, 2, 3}),
            budget=OpBudget(pulls=2, invokes=2, reconfigs=0, pushes=2),
        ).run(),
    ))
    results.append((
        "Adore, 3 nodes, (2,2,1,2)",
        verify_intact(
            budget=OpBudget(pulls=2, invokes=2, reconfigs=1, pushes=2),
            conf0=frozenset({1, 2, 3}),
        ),
    ))
    results.append((
        "Adore, 3 nodes, (2,2,1,2) +symmetry",
        Explorer(
            RaftSingleNodeScheme(),
            frozenset({1, 2, 3}),
            budget=OpBudget(pulls=2, invokes=2, reconfigs=1, pushes=2),
            symmetry=True,
        ).run(),
    ))
    results.append((
        "Adore, 3 nodes, (2,1,2,3)",
        verify_intact(
            budget=OpBudget(pulls=2, invokes=1, reconfigs=2, pushes=3),
            conf0=frozenset({1, 2, 3}),
        ),
    ))
    results.append((
        "Adore, 4 nodes, (2,1,1,2) +symmetry",
        Explorer(
            RaftSingleNodeScheme(),
            frozenset({1, 2, 3, 4}),
            budget=OpBudget(pulls=2, invokes=1, reconfigs=1, pushes=2),
            symmetry=True,
        ).run(),
    ))
    return results


def test_safety_verification(report):
    results = positive_runs()
    rows = [
        (
            name,
            res.states_visited,
            res.transitions,
            res.max_depth,
            "exhaustive" if res.exhausted else "truncated",
            "SAFE" if res.safe else "VIOLATED",
        )
        for name, res in results
    ]
    report(
        "",
        "=" * 72,
        "E5 / Theorem 4.5 -- bounded exhaustive safety verification",
        "(budget = max pulls/invokes/reconfigs/pushes per schedule;",
        " every state checked against Definition 4.1 + all Appendix-B",
        " invariants: descendant order, leader-time uniqueness,",
        " election-commit order, CCache-in-RCache-fork, version reset)",
        "=" * 72,
        render_table(
            ["instance", "states", "transitions", "depth", "coverage",
             "result"],
            rows,
        ),
    )
    for name, res in results:
        assert res.safe, f"{name}: {res.violations[0].describe()}"
        assert res.exhausted, name


def test_ablation_counterexamples(report):
    results = [
        ("insertBtw -> addLeaf", ablate_insert_btw()),
        ("no R3 (pre-fix Raft)", ablate_r3()),
        ("no R2", ablate_r2()),
        ("no OVERLAP", ablate_overlap()),
    ]
    rows = []
    for name, res in results:
        first = res.violations[0] if res.violations else None
        rows.append((
            name,
            res.states_visited,
            len(first.trace) if first else "-",
            f"{res.elapsed_seconds:.2f}s",
            "VIOLATION FOUND" if first else "NOT FOUND",
        ))
    report(
        "",
        "E5 ablations -- each rule removed, counterexample hunted:",
        render_table(
            ["ablation", "states explored", "schedule depth", "time",
             "result"],
            rows,
        ),
    )
    for name, res in results:
        assert not res.safe, f"{name}: expected a violation"

    # The paper's counterexample shapes: each first violation's depth.
    by_name = dict(results)
    assert len(by_name["insertBtw -> addLeaf"].violations[0].trace) == 5
    assert len(by_name["no R3 (pre-fix Raft)"].violations[0].trace) == 8
    assert len(by_name["no R2"].violations[0].trace) == 10
    assert len(by_name["no OVERLAP"].violations[0].trace) == 9


#: The schedule class the engine-comparison benchmark certifies.
PARALLEL_BENCH_BUDGET = OpBudget(pulls=2, invokes=2, reconfigs=1, pushes=2)


def test_parallel_engine_equivalence_and_speedup(report):
    """The parallel work-queue engine vs the sequential explorer.

    Both engines run the same ``expand`` step semantics, so on the same
    instance they must visit the identical state set and reach the
    identical verdict; on a multicore machine the level-partitioned
    engine should visit states at least 2x faster with 4 workers.  The
    speedup assertion is gated on the hardware actually having the
    cores -- on fewer than 4 CPUs the numbers are recorded but only
    equivalence is enforced.
    """
    workers = 4

    def measure():
        seq = verify_intact(budget=PARALLEL_BENCH_BUDGET)
        par = verify_intact(budget=PARALLEL_BENCH_BUDGET, workers=workers)
        return seq, par

    seq, par = measure()
    speedup = (
        seq.elapsed_seconds / par.elapsed_seconds
        if par.elapsed_seconds > 0
        else float("inf")
    )
    cpus = os.cpu_count() or 1
    report(
        "",
        "E5 / parallel model-checking engine (level-synchronized BFS):",
        render_table(
            ["engine", "states", "states/s", "time", "result"],
            [
                ("sequential", seq.states_visited,
                 f"{seq.states_per_second:,.0f}",
                 f"{seq.elapsed_seconds:.2f}s",
                 "SAFE" if seq.safe else "VIOLATED"),
                (f"parallel x{workers}", par.states_visited,
                 f"{par.states_per_second:,.0f}",
                 f"{par.elapsed_seconds:.2f}s",
                 "SAFE" if par.safe else "VIOLATED"),
            ],
        ),
        f"speedup: {speedup:.2f}x on {cpus} CPU(s); "
        f"engine: {par.stats.describe()}",
    )
    assert seq.safe and par.safe
    assert seq.states_visited == par.states_visited
    assert seq.transitions == par.transitions
    assert seq.max_depth == par.max_depth
    assert seq.exhausted and par.exhausted
    if cpus >= workers:
        assert speedup >= 2.0, (
            f"expected >= 2x speedup with {workers} workers on {cpus} "
            f"CPUs, measured {speedup:.2f}x"
        )


def test_parallel_engine_resumes_from_checkpoint(report, tmp_path):
    """A time-sliced run plus its resume certify the same space as one
    uninterrupted run (the CI-time-slice scenario)."""
    path = str(tmp_path / "bench-checkpoint.pkl")
    budget = OpBudget(pulls=1, invokes=2, reconfigs=1, pushes=2)

    def measure():
        from repro.mc import ParallelExplorer

        slice1 = ParallelExplorer(
            verify_intact_explorer(budget),
            workers=2, checkpoint=path, max_levels=3,
        ).run()
        resumed = ParallelExplorer(
            verify_intact_explorer(budget),
            workers=2, checkpoint=path,
        ).run()
        whole = verify_intact_explorer(budget).run()
        return slice1, resumed, whole

    slice1, resumed, whole = measure()
    report(
        "",
        "E5 / checkpoint-resume (interrupted after 3 BFS levels):",
        render_table(
            ["run", "states", "depth", "coverage"],
            [
                ("slice 1 (interrupted)", slice1.states_visited,
                 slice1.max_depth, "resumable"),
                ("slice 2 (resumed)", resumed.states_visited,
                 resumed.max_depth,
                 "exhaustive" if resumed.exhausted else "truncated"),
                ("uninterrupted", whole.states_visited, whole.max_depth,
                 "exhaustive" if whole.exhausted else "truncated"),
            ],
        ),
    )
    assert slice1.interrupted and not slice1.exhausted
    assert resumed.states_visited == whole.states_visited
    assert resumed.transitions == whole.transitions
    assert resumed.safe == whole.safe
    assert resumed.exhausted == whole.exhausted


def test_adore_vs_cado_checking_cost(report):
    """The paper: adding reconfiguration to CADO took 3 more
    person-weeks on top of 2 (and 4.5k vs 1.3k Coq lines).  Analogue:
    the state-space cost reconfiguration adds at identical budgets."""

    def measure():
        budget = OpBudget(pulls=2, invokes=1, reconfigs=1, pushes=2)
        cado = cado_explorer(
            frozenset({1, 2, 3}),
            budget=OpBudget(pulls=2, invokes=1, reconfigs=0, pushes=2),
        ).run()
        adore = Explorer(
            RaftSingleNodeScheme(), frozenset({1, 2, 3}), budget=budget
        ).run()
        return cado, adore

    cado, adore = measure()
    report(
        "",
        "E5 / CADO vs Adore verification cost (same non-reconfig budget):",
        render_table(
            ["model", "states", "transitions", "time"],
            [
                ("CADO", cado.states_visited, cado.transitions,
                 f"{cado.elapsed_seconds:.2f}s"),
                ("Adore (+1 reconfig)", adore.states_visited,
                 adore.transitions, f"{adore.elapsed_seconds:.2f}s"),
            ],
        ),
        f"reconfiguration multiplies the checked space by "
        f"{adore.states_visited / max(1, cado.states_visited):.1f}x "
        f"(paper: 4.5k vs 1.3k Coq lines; 3 extra person-weeks on 2)",
    )
    assert cado.safe and adore.safe
    assert adore.states_visited > cado.states_visited
