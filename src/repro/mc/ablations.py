"""Fault-injection ablations: each design rule of Adore, removed.

The paper argues that R1⁺'s OVERLAP, R2, R3, and the ``insertBtw``
commit placement are each load-bearing.  These functions demonstrate it
mechanically: the same model checker that certifies the intact model
SAFE finds a concrete counterexample schedule the moment one rule is
dropped.

Each ablation returns an :class:`~repro.mc.explorer.ExplorationResult`
whose first violation carries the full schedule and tree.

Every run here is built from a ``*_explorer()`` factory returning the
configured :class:`Explorer`, so callers (tests, the engine's
equivalence suite, CI smoke jobs) can run the *same* instance under any
engine options.  The ``ablate_*``/``verify_intact`` entry points pass
``workers=``, ``checkpoint=`` and the other engine options straight to
:func:`repro.mc.parallel.explore`; the strategy is never changed on the
way.  A guided hunt with a worker pool is deterministic and reaches the
same verdict, but expands a window of best entries between merges, so
its states-explored count differs from the one-at-a-time guided run.
"""

from __future__ import annotations

from typing import Optional

from ..core.cache import CCache
from ..core.oracle import Fail
from ..schemes import OverlapAblation, RaftSingleNodeScheme
from .explorer import ExplorationResult, Explorer, OpBudget
from .parallel import explore

#: The four-node universe the Fig. 4 counterexample needs.
FIG4_NODES = frozenset({1, 2, 3, 4})

#: Schedule class of the historical counterexamples: three elections,
#: one regular command, two reconfigurations, two commits.
FIG4_BUDGET = OpBudget(pulls=3, invokes=1, reconfigs=2, pushes=2)

#: The schedule class each other hunt needs (see its ``ablate_*``):
#: stacked reconfigurations for R2, one jump for OVERLAP, one branch
#: with two commits for the ``insertBtw`` placement.
R2_BUDGET = OpBudget(pulls=2, invokes=2, reconfigs=3, pushes=3)
OVERLAP_BUDGET = OpBudget(pulls=3, invokes=2, reconfigs=1, pushes=3)
LEAF_COMMIT_BUDGET = OpBudget(pulls=1, invokes=2, reconfigs=0, pushes=2)


def _hunt_explorer(**overrides) -> Explorer:
    """The shared counterexample-hunt configuration (Fig. 4 shaped)."""
    params = dict(
        scheme=RaftSingleNodeScheme(),
        conf0=FIG4_NODES,
        callers=[1, 2],
        budget=FIG4_BUDGET,
        quorum_pulls_only=True,
        minimal_quorums_only=True,
        invariants=["safety"],
        strategy="guided",
    )
    params.update(overrides)
    return Explorer(**params)


def verify_intact_explorer(
    budget: Optional[OpBudget] = None,
    conf0: frozenset = frozenset({1, 2, 3}),
    max_states: int = 500_000,
    **overrides,
) -> Explorer:
    """The positive-verification instance behind :func:`verify_intact`."""
    params = dict(
        scheme=RaftSingleNodeScheme(),
        conf0=conf0,
        budget=budget or OpBudget(pulls=2, invokes=2, reconfigs=2, pushes=2),
        max_states=max_states,
        stop_at_first_violation=True,
        strategy="bfs",
    )
    params.update(overrides)
    return Explorer(**params)


def verify_intact(
    budget: Optional[OpBudget] = None,
    conf0: frozenset = frozenset({1, 2, 3}),
    max_states: int = 500_000,
    workers: int = 1,
    checkpoint: Optional[str] = None,
    **engine_options,
) -> ExplorationResult:
    """Exhaustive BFS over the *intact* model: must report SAFE.

    This is the positive half of the reproduction of Theorem 4.5: every
    reachable state of the bounded instance satisfies replicated state
    safety and all Appendix-B invariants.  ``workers`` > 1 expands each
    frontier level across processes; ``checkpoint`` makes the run
    resumable (see :mod:`repro.mc.parallel`); both leave the verdict
    and state count identical to the sequential run.
    """
    explorer = verify_intact_explorer(budget, conf0, max_states)
    return explore(explorer, workers, checkpoint, **engine_options)


def r3_explorer(max_states: int = 300_000, **overrides) -> Explorer:
    """The R3-ablated hunt instance behind :func:`ablate_r3`."""
    return _hunt_explorer(enforce_r3=False, max_states=max_states, **overrides)


def ablate_r3(
    max_states: int = 300_000,
    workers: int = 1,
    checkpoint: Optional[str] = None,
    **engine_options,
) -> ExplorationResult:
    """Drop R3: the model checker rediscovers the Fig. 4 violation.

    Without the committed-entry-at-current-term requirement, two leaders
    reconfigure concurrently, end up with configurations two changes
    apart, and commit with disjoint quorums on divergent branches.
    """
    return explore(
        r3_explorer(max_states), workers, checkpoint, **engine_options
    )


def r2_explorer(max_states: int = 300_000, **overrides) -> Explorer:
    """The R2-ablated hunt instance behind :func:`ablate_r2`.

    Its moves are removals only: the R2 counterexample shrinks the
    configuration, so this halves the branching.
    """
    scheme = overrides.get("scheme", RaftSingleNodeScheme())
    params = dict(
        enforce_r2=False,
        max_states=max_states,
        budget=R2_BUDGET,
        reconfig_candidates=lambda state, nid, conf: scheme.moves(
            state, nid, conf, FIG4_NODES, removals_only=True
        ),
    )
    params.update(overrides)
    return _hunt_explorer(**params)


def ablate_r2(
    max_states: int = 300_000,
    workers: int = 1,
    checkpoint: Optional[str] = None,
    **engine_options,
) -> ExplorationResult:
    """Drop R2 (keep R3): stacked uncommitted reconfigurations.

    R3 alone does not stop a single leader from piling up multiple
    uncommitted RCaches; the configuration can then change twice within
    one commit and consecutive-overlap (R1⁺) no longer protects the
    election quorums.  A slightly larger schedule class is needed than
    for the R3 ablation because the leader must first commit a command
    of its own term: one leader commits at its term, stacks three
    reconfigurations down to a singleton configuration and commits them
    alone; a second leader, elected under the original configuration
    (which it can still see), commits on the main branch.  pulls=2,
    invokes=2, reconfigs=3, pushes=3 is exactly that schedule class.
    """
    return explore(
        r2_explorer(max_states), workers, checkpoint, **engine_options
    )


def overlap_explorer(max_states: int = 300_000, **overrides) -> Explorer:
    """The OVERLAP-ablated hunt instance behind :func:`ablate_overlap`."""
    params = dict(
        scheme=OverlapAblation(RaftSingleNodeScheme()),
        max_states=max_states,
        budget=OVERLAP_BUDGET,
    )
    params.update(overrides)
    return _hunt_explorer(**params)


def ablate_overlap(
    max_states: int = 300_000,
    workers: int = 1,
    checkpoint: Optional[str] = None,
    **engine_options,
) -> ExplorationResult:
    """Break OVERLAP: R1⁺ permits multi-node configuration jumps.

    With :class:`~repro.schemes.OverlapAblation` over Raft single-node
    a single legal reconfiguration can jump to any member set, hence to
    one with a disjoint majority, so even R2 and R3 cannot save safety.
    """
    return explore(
        overlap_explorer(max_states), workers, checkpoint, **engine_options
    )


def _leaf_push(state, nid, outcome, scheme):
    """The ablated push: commit as a leaf (``addLeaf``) instead of
    ``insertBtw``, detaching partial-failure children from the
    committed branch."""
    if isinstance(outcome, Fail):
        return state, None, "oracle-fail"
    target = state.tree.cache(outcome.target)
    state = state.set_times(outcome.group, target.time)
    if not scheme.is_quorum(outcome.group, target.conf):
        return state, None, "no-quorum"
    new_cache = CCache(
        caller=nid,
        time=target.time,
        vrsn=target.vrsn,
        conf=target.conf,
        voters=outcome.group,
    )
    tree, cid = state.tree.add_leaf(outcome.target, new_cache)
    return state.with_tree(tree), cid, "ok"


def insert_btw_explorer(max_states: int = 100_000, **overrides) -> Explorer:
    """The insertBtw-ablated instance behind :func:`ablate_insert_btw`.

    With leaf commits even a single leader on a single branch violates
    the invariants (the second commit's CCache no longer dominates the
    first's successors), so a small budget suffices.
    """
    params = dict(
        budget=LEAF_COMMIT_BUDGET,
        invariants=["safety", "well-formedness"],
        enforce_r3=True,
        max_states=max_states,
        strategy="bfs",
        push_step=_leaf_push,
    )
    params.update(overrides)
    return _hunt_explorer(**params)


def ablate_insert_btw(
    max_states: int = 100_000,
    workers: int = 1,
    checkpoint: Optional[str] = None,
    **engine_options,
) -> ExplorationResult:
    """Replace ``insertBtw`` by ``addLeaf`` for CCaches.

    The paper's append-only trick places a commit *between* the
    committed cache and its children so partial failures stay viable.
    Committing as a leaf instead detaches those children from the
    committed branch: a later push of such a child produces a CCache
    whose branch does not contain the earlier commit -- replicated
    state safety breaks immediately.
    """
    return explore(
        insert_btw_explorer(max_states), workers, checkpoint, **engine_options
    )
