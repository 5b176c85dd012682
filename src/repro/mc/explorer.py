"""Explicit-state bounded model checking of the Adore semantics.

This is the reproduction's substitute for the paper's Coq proof: instead
of proving Theorem 4.5 deductively, we *exhaustively enumerate* every
state reachable through valid oracle outcomes within a bounded schedule
class, and check replicated state safety plus every Appendix-B invariant
at each state.  Because method payloads are irrelevant to safety the
explorer canonicalizes them to a single symbol, and states are
de-duplicated by value, so commuting interleavings collapse.

Schedules are bounded by an :class:`OpBudget` (how many of each
operation a run may contain) and optional depth/state caps.  Within a
budget the exploration is exhaustive: a clean result means *no*
reachable state of that shape violates safety.  With the R2/R3 switches
ablated the same explorer automatically finds the minimal
counterexample schedules (e.g. the Fig. 4 violation).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import (
    Callable,
    FrozenSet,
    Hashable,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from ..core.aux import active_cache, r2_holds, r3_holds
from ..core.cache import Cid, Config, NodeId
from ..core.config import ReconfigScheme
from ..core.oracle import (
    enumerate_pull_outcomes,
    enumerate_push_outcomes,
)
from ..core.safety import (
    SafetyReport,
    check_state,
    validate_invariant_labels,
)
from ..core.semantics import apply_invoke, apply_pull, apply_push, apply_reconfig
from ..core.state import AdoreState, initial_state
from ..core.tree import DEFAULT_TREE_CAP, CacheTree


def _root_path(tree: CacheTree, cid: Cid) -> Iterator[Cid]:
    """The strict ancestors of ``cid``, nearest first (parent pointers
    only: asks the tree for no derived table)."""
    cid = tree.parent(cid)
    while cid is not None:
        yield cid
        cid = tree.parent(cid)


def _build_uncommitted(tree: CacheTree) -> FrozenSet[Cid]:
    committed = set()
    for cid in tree.kind_cids("C"):
        for above in _root_path(tree, cid):
            if above in committed:
                break  # the rest of the path was marked from here up
            committed.add(above)
    return frozenset(tree.kind_cids("R")).difference(committed)


def _extend_uncommitted(
    tree: CacheTree, base: FrozenSet[Cid], op: str, new_cid: Cid, parent_cid: Cid
) -> Optional[FrozenSet[Cid]]:
    kind = tree.cache(new_cid).kind
    if kind == "C":
        # As a leaf or between a cache and its children, the new CCache
        # lies below exactly the caches on its root path.
        return base.difference(_root_path(tree, new_cid))
    if kind != "R":
        return base  # whatever lay below each RCache still does
    if op == "leaf":
        return base | {new_cid}
    return None  # an RCache put above existing caches: look below it


def uncommitted_rcaches(tree: CacheTree) -> FrozenSet[Cid]:
    """The RCaches of ``tree`` with no CCache among their descendants.

    A table derived per (hash-consed) tree from its predecessor's
    (:meth:`CacheTree.derive`): the guided search asks for every state
    it ranks, and walking the subtree of every RCache each time also
    made every tree build a child map and a descendants memo nothing
    else in the hunt reads.
    """
    return tree.derive("uncommitted_r", _extend_uncommitted, _build_uncommitted)


#: A single schedule step, for counterexample traces:
#: ``(op, nid, detail)`` such as ``("pull", 1, "Q={1,2}, t=1")``.
OpDesc = Tuple[str, NodeId, str]

ReconfigCandidates = Callable[[AdoreState, NodeId, Config], Iterable[Config]]


@dataclass(frozen=True)
class OpBudget:
    """How many operations of each kind one schedule may contain.

    The Fig. 4 counterexample needs ``OpBudget(pulls=3, invokes=1,
    reconfigs=2, pushes=2)``; the default is slightly larger so clean
    verification covers a strict superset of that schedule class.
    """

    pulls: int = 3
    invokes: int = 2
    reconfigs: int = 2
    pushes: int = 2

    def spend(self, op: str) -> Optional["OpBudget"]:
        """The remaining budget after one ``op``; ``None`` if exhausted.

        Memoized per ``(budget, op)``: the explorer spends once per
        transition, but only ~(pulls+1)(invokes+1)(reconfigs+1)(pushes+1)
        distinct budgets ever exist in a run.
        """
        key = (self, op)
        hit = _SPEND_MEMO.get(key)
        if hit is not None:
            return hit[0]
        field_name = op + ("es" if op == "push" else "s")
        remaining = getattr(self, field_name)
        if remaining <= 0:
            result = None
        else:
            result = OpBudget(**{
                "pulls": self.pulls,
                "invokes": self.invokes,
                "reconfigs": self.reconfigs,
                "pushes": self.pushes,
                field_name: remaining - 1,
            })
        _SPEND_MEMO[key] = (result,)
        return result

    def total(self) -> int:
        return self.pulls + self.invokes + self.reconfigs + self.pushes


#: Process-wide ``(budget, op) -> (spent budget or None,)`` memo; the
#: 1-tuple wrapper distinguishes a memoized None from a miss.
_SPEND_MEMO: dict = {}


@dataclass
class Violation:
    """A reachable state breaking an invariant, with its schedule."""

    state: AdoreState
    trace: Tuple[OpDesc, ...]
    report: SafetyReport

    def describe(self) -> str:
        lines = ["schedule:"]
        lines.extend(
            f"  {i + 1}. {op}({nid}) {detail}"
            for i, (op, nid, detail) in enumerate(self.trace)
        )
        lines.append("violations:")
        lines.extend(f"  {v}" for v in self.report.all_violations())
        lines.append("tree:")
        lines.append(self.state.tree.render())
        return "\n".join(lines)


@dataclass
class ExplorationResult:
    """The outcome of one bounded exploration."""

    states_visited: int
    transitions: int
    max_depth: int
    exhausted: bool
    violations: List[Violation]
    elapsed_seconds: float
    budget: OpBudget
    #: True when the run stopped at a time-slice / level limit and left
    #: a checkpoint behind; resume by re-running with the same
    #: ``checkpoint=`` path (see :mod:`repro.mc.parallel`).
    interrupted: bool = False
    #: Engine throughput counters of the slice that produced this result
    #: (:class:`repro.mc.parallel.EngineStats`); ``None`` only on results
    #: not built by the search loop (``merge_results``, hand-made ones).
    stats: Optional[object] = None

    @property
    def safe(self) -> bool:
        """True when no reachable state violated any checked invariant."""
        return not self.violations

    @property
    def states_per_second(self) -> float:
        """Visit throughput (0.0 for instantaneous runs)."""
        if self.elapsed_seconds <= 0:
            return 0.0
        return self.states_visited / self.elapsed_seconds

    def summary(self) -> str:
        status = "SAFE" if self.safe else f"{len(self.violations)} VIOLATION(S)"
        if self.exhausted:
            coverage = "exhaustive"
        elif self.interrupted:
            coverage = "interrupted (resumable)"
        else:
            coverage = "truncated"
        return (
            f"{status}: {self.states_visited} states, {self.transitions} "
            f"transitions, depth <= {self.max_depth}, {coverage}, "
            f"{self.elapsed_seconds:.2f}s"
        )


class Explorer:
    """Bounded exhaustive exploration of reachable Adore states."""

    def __init__(
        self,
        scheme: ReconfigScheme,
        conf0: Config,
        callers: Optional[Sequence[NodeId]] = None,
        budget: Optional[OpBudget] = None,
        reconfig_candidates: Optional[ReconfigCandidates] = None,
        quorum_pulls_only: bool = False,
        quorum_pushes_only: bool = True,
        enforce_r2: bool = True,
        enforce_r3: bool = True,
        max_states: int = 500_000,
        lemma_rdist_bound: Optional[int] = 1,
        stop_at_first_violation: bool = True,
        invariants: Optional[Sequence[str]] = None,
        minimal_quorums_only: bool = False,
        strategy: str = "bfs",
        push_step: Optional[Callable] = None,
        symmetry: bool = False,
        fingerprints: bool = True,
        tree_cap: int = DEFAULT_TREE_CAP,
    ) -> None:
        self.scheme = scheme
        self.conf0 = conf0
        self.callers: Tuple[NodeId, ...] = tuple(
            sorted(callers if callers is not None else scheme.members(conf0))
        )
        self.budget = budget or OpBudget()
        #: ``(state, nid, conf) -> configs`` a leader may propose; by
        #: default the scheme's own moves over the members of ``conf0``.
        if reconfig_candidates is None:
            universe = scheme.members(conf0)

            def reconfig_candidates(state, nid, conf):
                return scheme.moves(state, nid, conf, universe)

        self.reconfig_candidates = reconfig_candidates
        self.quorum_pulls_only = quorum_pulls_only
        self.quorum_pushes_only = quorum_pushes_only
        self.enforce_r2 = enforce_r2
        self.enforce_r3 = enforce_r3
        self.max_states = max_states
        self.lemma_rdist_bound = lemma_rdist_bound
        self.stop_at_first_violation = stop_at_first_violation
        #: Restrict which invariants count as violations (labels from
        #: ``SafetyReport.LABELS``); ``None`` checks all of them.
        #: Validated here so a bad label fails in the constructing
        #: process, not inside a pool worker.
        self.invariants = (
            validate_invariant_labels(invariants)
            if invariants is not None
            else None
        )
        #: Counterexample-search heuristic: only consider supporter sets
        #: that are *minimal* quorums.  Larger quorums add observers and
        #: only make divergence harder, so for violation hunting this
        #: loses nothing while cutting the branching factor sharply.
        #: For positive (exhaustive) verification leave it off.
        self.minimal_quorums_only = minimal_quorums_only
        if strategy not in ("bfs", "guided"):
            raise ValueError(f"unknown strategy {strategy!r}")
        #: "bfs" explores breadth-first (finds minimal-depth violations,
        #: exhaustive within budget).  "guided" is best-first, expanding
        #: states that already violate auxiliary lemmas before clean
        #: ones -- a Lemma 4.4/B.8 violation is exactly the precursor of
        #: a replicated-state-safety violation, so this homes in on the
        #: Fig. 4 counterexample without flooding the state space.
        self.strategy = strategy
        #: Override for the push transition (used by the insertBtw
        #: ablation, which swaps in a leaf-commit variant).
        self.push_step = push_step or apply_push
        #: Identify states up to node renaming (see repro.mc.symmetry).
        #: Sound for set-based configurations; the group respects the
        #: restricted caller set when one is given.
        self.symmetry = symmetry
        #: Deduplicate by 128-bit structural fingerprint (compact visited
        #: set, incremental hashing) instead of by full state objects.
        #: ``False`` restores the seed engine's exact-equality dedup --
        #: kept as a collision canary: fingerprint mode must visit the
        #: same states (see tests/mc/test_parity.py).
        self.fingerprints = fingerprints
        #: The bound on live interned trees for the span of a search
        #: (the one memory knob, DESIGN.md §16).  A flush only costs
        #: rebuilding derived tables, so it is not part of
        #: :meth:`config_fingerprint`.
        if tree_cap < 1:
            raise ValueError(f"tree cap must be >= 1, got {tree_cap}")
        self.tree_cap = tree_cap
        self._sym_group = None
        self._sym_reducer = None
        if symmetry:
            fixed = [frozenset(self.callers)] if callers is not None else []
            if fingerprints:
                from .symmetry import SymmetryReducer

                self._sym_reducer = SymmetryReducer(
                    scheme.members(conf0), fixed_sets=fixed
                )
            else:
                from .symmetry import symmetry_group

                self._sym_group = symmetry_group(
                    scheme.members(conf0), fixed_sets=fixed
                )

    # ------------------------------------------------------------------
    # The pure step API.  Everything below is side-effect free, so the
    # search loop (:func:`repro.mc.parallel.search`) can call it in this
    # process or in forked pool workers alike.
    # ------------------------------------------------------------------

    def initial(self) -> AdoreState:
        """The initial state of the configured instance."""
        return initial_state(self.conf0, self.scheme)

    def state_key(self, state: AdoreState) -> Hashable:
        """The deduplication key of ``state``.

        In fingerprint mode this is a 128-bit int (the state's
        structural fingerprint, or the fingerprint of its canonical
        symmetry representative); in exact-equality mode it is the state
        object itself (or its full canonical serialization under
        symmetry).
        """
        if self.fingerprints:
            if self._sym_reducer is not None:
                return self._sym_reducer.canonical_fingerprint(state)
            return state.fingerprint()
        if self._sym_group is None:
            return state
        from .symmetry import canonical_key

        return canonical_key(state, self._sym_group)

    def new_visited_set(self):
        """An empty visited-set of the kind this configuration needs:
        a :class:`repro.mc.fpset.FingerprintSet` in fingerprint mode, a
        plain ``set`` otherwise."""
        if not self.fingerprints:
            return set()
        from .fpset import FingerprintSet

        return FingerprintSet()

    def check(self, state: AdoreState) -> SafetyReport:
        """The safety report for ``state`` under this exploration's
        invariant selection and rdist bound."""
        return check_state(state, self.lemma_rdist_bound, only=self.invariants)

    def config_fingerprint(self) -> str:
        """A stable digest of everything that shapes the explored
        transition system.

        Checkpoints record it so a resume against a differently
        configured exploration is detected instead of silently merging
        incompatible state spaces.  Callable hooks contribute their
        qualified names (the best a fingerprint can do for code).
        """
        try:
            conf0 = tuple(sorted(self.conf0))
        except TypeError:
            conf0 = repr(self.conf0)
        parts = (
            type(self.scheme).__name__,
            conf0,
            self.callers,
            (self.budget.pulls, self.budget.invokes,
             self.budget.reconfigs, self.budget.pushes),
            self.quorum_pulls_only,
            self.quorum_pushes_only,
            self.enforce_r2,
            self.enforce_r3,
            self.max_states,
            self.lemma_rdist_bound,
            self.stop_at_first_violation,
            self.invariants,
            self.minimal_quorums_only,
            self.strategy,
            self.symmetry,
            self.fingerprints,
            getattr(self.reconfig_candidates, "__qualname__",
                    type(self.reconfig_candidates).__name__),
            getattr(self.push_step, "__qualname__",
                    type(self.push_step).__name__),
        )
        return hashlib.sha256(repr(parts).encode()).hexdigest()

    def successors(
        self, state: AdoreState, ops: Optional[frozenset] = None
    ) -> Iterator[Tuple[OpDesc, AdoreState]]:
        """Every distinct state one valid operation away from ``state``.

        ``ops`` optionally restricts which operation kinds are
        *generated* (names as in :class:`OpBudget`: "pull", "invoke",
        "reconfig", "push").  Relative order of the remaining successors
        is unchanged, so budget-gated generation is observationally
        identical to generating everything and filtering afterwards --
        without constructing the successor trees the filter would drop,
        which used to be most of them.
        """
        for nid in self.callers:
            if ops is None or "pull" in ops:
                yield from self._pull_successors(state, nid)
            if ops is None or "invoke" in ops:
                yield from self._invoke_successors(state, nid)
            if ops is None or "reconfig" in ops:
                yield from self._reconfig_successors(state, nid)
            if ops is None or "push" in ops:
                yield from self._push_successors(state, nid)

    def expand(
        self, state: AdoreState, budget: OpBudget
    ) -> Iterator[Tuple[OpDesc, AdoreState, OpBudget, Hashable]]:
        """Budget-respecting expansion of one frontier entry.

        Yields ``(op_desc, next_state, remaining_budget, dedup_key)``
        for every successor the budget still allows, in the same
        deterministic order :meth:`successors` produces.  This is the
        unit of work the search loop's executors run; each yielded tuple
        counts as one transition.
        """
        ops = frozenset(
            op
            for op, left in (
                ("pull", budget.pulls),
                ("invoke", budget.invokes),
                ("reconfig", budget.reconfigs),
                ("push", budget.pushes),
            )
            if left > 0
        )
        for op_desc, next_state in self.successors(state, ops):
            next_budget = budget.spend(op_desc[0])
            if next_budget is None:
                continue
            yield op_desc, next_state, next_budget, self.state_key(next_state)

    def _is_minimal_quorum(self, group, conf, nid) -> bool:
        if not self.scheme.is_quorum(group, conf):
            return True  # non-quorum outcomes are already minimal moves
        return not any(
            self.scheme.is_quorum(group - {member}, conf)
            for member in group
            if member != nid
        )

    def _pull_successors(self, state, nid):
        outcomes = enumerate_pull_outcomes(
            state,
            nid,
            self.scheme,
            include_non_quorum=not self.quorum_pulls_only,
        )
        if self.minimal_quorums_only:
            from ..core.aux import most_recent

            outcomes = [
                o
                for o in outcomes
                if self._is_minimal_quorum(
                    o.group,
                    state.tree.cache(most_recent(state.tree, o.group)).conf,
                    nid,
                )
            ]
        for outcome in outcomes:
            new_state, _, reason = apply_pull(state, nid, outcome, self.scheme)
            if new_state != state:
                detail = f"Q={sorted(outcome.group)}, t={outcome.time} [{reason}]"
                yield ("pull", nid, detail), new_state

    def _invoke_successors(self, state, nid):
        # A single canonical method symbol: payloads are irrelevant to
        # safety, and distinct names would only blow up the state space.
        new_state, cid, reason = apply_invoke(state, nid, "m")
        if cid is not None:
            yield ("invoke", nid, "m"), new_state

    def _reconfig_successors(self, state, nid):
        active = active_cache(state.tree, nid)
        if active is None:
            return
        cache = state.tree.cache(active)
        # The leader / R2 / R3 gates of apply_reconfig depend only on
        # (tree, active), not the candidate: when any fails, *every*
        # candidate is a NoOp, so hoist them out of the loop.
        if not state.is_leader(nid, cache.time):
            return
        if self.enforce_r2 and not r2_holds(state.tree, active):
            return
        if self.enforce_r3 and not r3_holds(state.tree, active):
            return
        conf = cache.conf
        seen = set()
        for candidate in self.reconfig_candidates(state, nid, conf):
            if candidate in seen:
                continue
            seen.add(candidate)
            new_state, cid, reason = apply_reconfig(
                state,
                nid,
                candidate,
                self.scheme,
                enforce_r2=self.enforce_r2,
                enforce_r3=self.enforce_r3,
            )
            if cid is not None:
                detail = self.scheme.describe_config(candidate)
                yield ("reconfig", nid, detail), new_state

    def _push_successors(self, state, nid):
        outcomes = enumerate_push_outcomes(
            state,
            nid,
            self.scheme,
            include_non_quorum=not self.quorum_pushes_only,
        )
        if self.minimal_quorums_only:
            outcomes = [
                o
                for o in outcomes
                if self._is_minimal_quorum(
                    o.group, state.tree.cache(o.target).conf, nid
                )
            ]
        for outcome in outcomes:
            new_state, _, reason = self.push_step(state, nid, outcome, self.scheme)
            if new_state != state:
                detail = f"Q={sorted(outcome.group)}, target={outcome.target} [{reason}]"
                yield ("push", nid, detail), new_state

    # ------------------------------------------------------------------
    # Guided search ranks states by how strongly they smell of a nearby
    # safety violation.
    # ------------------------------------------------------------------

    #: The precursor lemmas (Lemma 4.4/B.8 RCache forks, election-commit
    #: order): a violation of one is exactly what precedes a
    #: replicated-state-safety violation.
    SCENT_LABELS = ("ccache-in-rcache-fork", "election-commit-order")

    def aux_score(self, state: AdoreState) -> int:
        """The scent of ``state``: precursor-lemma violations weigh
        most, and *uncommitted* RCaches -- the speculative configuration
        changes every counterexample is built from -- add to it."""
        full = check_state(
            state, self.lemma_rdist_bound, only=self.SCENT_LABELS
        )
        return 3 * full.violation_count() + len(uncommitted_rcaches(state.tree))

    def guided_priority(self, entry) -> int:
        """The best-first rank of a frontier entry (lower expands first).

        Additive combination: scent and depth trade off, so a deep clean
        state (the tail of a counterexample whose reconfigurations
        already committed) still outranks shallow smelly ones.
        """
        state, _, trace = entry
        if not trace:
            # The initial state is alone in the frontier: any rank
            # does, so do not spend a scoring walk on it.
            return 0
        return -(2 * self.aux_score(state) + len(trace))

    def new_frontier(self):
        """An empty frontier of the kind this configuration needs (see
        :mod:`repro.mc.frontier`): FIFO for ``bfs``, best-first for
        ``guided``."""
        from .frontier import BestFirstFrontier, FifoFrontier

        if self.strategy == "guided":
            return BestFirstFrontier(self.guided_priority)
        return FifoFrontier()

    def run(self) -> ExplorationResult:
        """Explore up to the budget and state cap, in this process.

        With ``strategy="bfs"`` this is exhaustive breadth-first search
        (complete within the budget; finds minimal-depth violations).
        ``strategy="guided"`` is best-first: states with more auxiliary
        invariant violations are expanded first, then deeper states --
        effective for hunting deep counterexamples in ablated models.

        One entry at a time through :func:`repro.mc.parallel.search`,
        the only search loop; :class:`~repro.mc.parallel.ParallelExplorer`
        runs the same loop with a worker pool, checkpoints and time
        slices.
        """
        from .parallel import ParallelExplorer

        return ParallelExplorer(self, workers=1).run()
