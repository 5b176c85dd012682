"""Differential bounded model checking across the seven schemes.

The safety proof is parameterized over an opaque reconfiguration
scheme, so every scheme in :mod:`repro.schemes` runs on the *same*
Adore semantics -- which makes them directly comparable: give each one
an identical exploration budget, ablate each design rule in turn, and
record who survives what.  The result is a comparison the paper itself
does not have: an **ablation-survival matrix** showing which of Adore's
rules (R2, R3, OVERLAP, the ``insertBtw`` commit placement) each design
actually leans on, plus **violation frontiers** (the depth of the first
counterexample the hunt finds when a scheme dies) and reachable-state
counts on the shared budgets.

The interesting separation is the logless scheme
(:class:`~repro.schemes.logless.LoglessReconfigScheme`): because
MongoDB's protocol carries its own analogues of R2/R3 as *enabling
conditions* inside the reconfiguration step (the Q1 config quorum check
and Q2 oplog commitment check, evaluated by its candidate generator),
ablating Adore's R2 or R3 leaves it SAFE while Raft single-node falls
to the Fig. 4 counterexample.  Ablating OVERLAP kills both -- quorum
intersection is the one assumption nobody can carry for themselves.

Determinism: every run has a fixed expansion order ("bfs" FIFO, or the
"guided" best-first heap whose ties break on an insertion counter), so
the same budgets produce the identical report -- state counts, frontier
depths, and survival matrix -- on every invocation.  ``workers > 1``
expands each cell across a pool in the requested strategy (the report
is identical for any worker count > 1; a pooled *guided* cell reaches
the sequential verdict with a different state count, see
:mod:`repro.mc.parallel`), and ``checkpoint_dir`` makes each
per-(scheme, ablation) run resumable without changing its result.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from ..core.cache import Config, NodeId
from ..core.config import ReconfigScheme
from ..core.state import AdoreState
from ..schemes.dynamic_quorum import DynamicQuorumScheme, SizedConfig
from ..schemes.joint import JointConfig, JointConsensusScheme
from ..schemes.logless import (
    LoglessConfig,
    LoglessReconfigScheme,
    logless_jump_candidates,
    logless_reconfig_candidates,
)
from ..schemes.primary_backup import PrimaryBackupConfig, PrimaryBackupScheme
from ..schemes.single_node import RaftSingleNodeScheme
from ..schemes.unanimous import UnanimousScheme
from ..schemes.weighted import WeightedConfig, WeightedMajorityScheme
from .ablations import (
    FIG4_BUDGET,
    FIG4_NODES,
    LEAF_COMMIT_BUDGET,
    OVERLAP_BUDGET,
    R2_BUDGET,
    _leaf_push,
    _removals_only,
)
from .explorer import (
    ExplorationResult,
    Explorer,
    OpBudget,
    jump_reconfig_candidates,
    set_reconfig_candidates,
)
from .parallel import explore

#: The ablation axis of the matrix, in rendering order.
ABLATIONS: Tuple[str, ...] = (
    "intact",
    "no-r2",
    "no-r3",
    "no-overlap",
    "leaf-commit",
)

#: Shared per-ablation budgets (identical across schemes -- that is the
#: point).  Each is the budget the corresponding single-scheme hunt in
#: :mod:`repro.mc.ablations` runs on to exhibit its counterexample:
#: Fig. 4 shaped for ``no-r3``/``intact``, the stacked-reconfiguration
#: class for ``no-r2``, the one-jump class for ``no-overlap``, and the
#: tiny single-branch class for ``leaf-commit``.
DEFAULT_BUDGETS: Dict[str, OpBudget] = {
    "intact": FIG4_BUDGET,
    "no-r2": R2_BUDGET,
    "no-r3": FIG4_BUDGET,
    "no-overlap": OVERLAP_BUDGET,
    "leaf-commit": LEAF_COMMIT_BUDGET,
}

#: Scaled-down budgets for smoke runs (CI artifact, ``--differential``
#: zoo mode, unit tests).  Deaths still show up for the grossest
#: ablations but the Fig. 4-depth separations need
#: :data:`DEFAULT_BUDGETS`.
SMOKE_BUDGETS: Dict[str, OpBudget] = {
    "intact": OpBudget(pulls=2, invokes=1, reconfigs=1, pushes=2),
    "no-r2": OpBudget(pulls=1, invokes=1, reconfigs=2, pushes=2),
    "no-r3": OpBudget(pulls=2, invokes=1, reconfigs=1, pushes=2),
    "no-overlap": OpBudget(pulls=2, invokes=2, reconfigs=1, pushes=3),
    "leaf-commit": OpBudget(pulls=1, invokes=2, reconfigs=0, pushes=2),
}


ReconfigCandidates = Callable[[AdoreState, NodeId, Config], Iterable[Config]]


@dataclass(frozen=True)
class SchemeScenario:
    """One scheme's entry in the differential matrix.

    Besides the scheme and its initial configuration, a scenario
    carries three reconfiguration-move generators: the scheme's normal
    protocol moves (``candidates``), a removal-biased variant for the
    ``no-r2`` hunt (``shrink_candidates`` -- the R2 counterexample
    stacks configuration *shrinks*, and removal-only moves keep the
    branching comparable across schemes), and arbitrary-jump moves for
    the ``no-overlap`` hunt (``jump_candidates``, run under
    :class:`OverlapAblation` so R1⁺ accepts them).
    """

    scheme: ReconfigScheme
    conf0: Config
    candidates: ReconfigCandidates
    shrink_candidates: ReconfigCandidates
    jump_candidates: ReconfigCandidates

    @property
    def name(self) -> str:
        return self.scheme.name


class OverlapAblation(ReconfigScheme):
    """A scheme with OVERLAP ablated: R1⁺ accepts *any* valid config.

    Wraps a base scheme, delegating membership and quorums, but lets a
    single reconfiguration jump to an arbitrary valid configuration --
    the generalization of the existing ``UnsafeMultiNodeScheme`` to
    every config representation.  REFLEXIVE still holds; OVERLAP is the
    assumption under test.
    """

    def __init__(self, base: ReconfigScheme) -> None:
        self.base = base
        self.name = f"{base.name}+no-overlap"

    def members(self, conf: Config) -> FrozenSet[NodeId]:
        return self.base.members(conf)

    def is_quorum(self, group: Iterable[NodeId], conf: Config) -> bool:
        return self.base.is_quorum(group, conf)

    def r1_plus(self, old: Config, new: Config) -> bool:
        return self.base.is_valid_config(new)

    def is_valid_config(self, conf: Config) -> bool:
        return self.base.is_valid_config(conf)

    def describe_config(self, conf: Config) -> str:
        return self.base.describe_config(conf)


# ----------------------------------------------------------------------
# Per-scheme reconfiguration move generators
# ----------------------------------------------------------------------

def _logless_shrinking(inner: ReconfigCandidates) -> ReconfigCandidates:
    def candidates(state: AdoreState, nid: NodeId, conf: Config) -> Iterator[Config]:
        base = len(LoglessReconfigScheme().members(conf))
        for cand in inner(state, nid, conf):
            if len(cand.members) < base:
                yield cand

    return candidates


def joint_reconfig_candidates(
    universe: Iterable[NodeId], removals_only: bool = False
) -> ReconfigCandidates:
    """Joint-consensus moves: enter a joint config one member away, or
    leave the current joint config by promoting its new half."""
    universe_sorted = tuple(sorted(frozenset(universe)))

    def candidates(state: AdoreState, nid: NodeId, conf: Config) -> Iterator[Config]:
        cf = conf if isinstance(conf, JointConfig) else JointConfig.stable(conf)
        if cf.is_joint:
            yield JointConfig.stable(cf.new)
            return
        if len(cf.old) > 1:
            for node in sorted(cf.old):
                yield JointConfig.transition(cf.old, cf.old - {node})
        if not removals_only:
            for node in universe_sorted:
                if node not in cf.old:
                    yield JointConfig.transition(cf.old, cf.old | {node})

    return candidates


def joint_jump_candidates(universe: Iterable[NodeId]) -> ReconfigCandidates:
    """Direct stable-to-stable jumps (no joint phase) for the OVERLAP
    ablation."""
    jumps = jump_reconfig_candidates(universe)

    def candidates(state: AdoreState, nid: NodeId, conf: Config) -> Iterator[Config]:
        cf = conf if isinstance(conf, JointConfig) else JointConfig.stable(conf)
        for members in jumps(state, nid, cf.old):
            yield JointConfig.stable(members)

    return candidates


def pb_reconfig_candidates(
    universe: Iterable[NodeId], removals_only: bool = False
) -> ReconfigCandidates:
    """Primary-backup moves: same primary, backups change by one."""
    universe_set = frozenset(universe)

    def candidates(state: AdoreState, nid: NodeId, conf: Config) -> Iterator[Config]:
        pb = (
            conf
            if isinstance(conf, PrimaryBackupConfig)
            else PrimaryBackupConfig.of(*conf)
        )
        if not removals_only:
            for node in sorted(universe_set - pb.all_members()):
                yield PrimaryBackupConfig.of(pb.primary, pb.backups | {node})
        for node in sorted(pb.backups):
            yield PrimaryBackupConfig.of(pb.primary, pb.backups - {node})

    return candidates


def pb_jump_candidates(universe: Iterable[NodeId]) -> ReconfigCandidates:
    """Primary *changes* -- the jump that breaks primary-backup's
    trivial quorum overlap."""
    universe_sorted = tuple(sorted(frozenset(universe)))

    def candidates(state: AdoreState, nid: NodeId, conf: Config) -> Iterator[Config]:
        pb = (
            conf
            if isinstance(conf, PrimaryBackupConfig)
            else PrimaryBackupConfig.of(*conf)
        )
        for primary in universe_sorted:
            rest = frozenset(universe_sorted) - {primary}
            for backups in (frozenset(), rest):
                cand = PrimaryBackupConfig.of(primary, backups)
                if cand != pb:
                    yield cand

    return candidates


def sized_reconfig_candidates(
    universe: Iterable[NodeId], removals_only: bool = False
) -> ReconfigCandidates:
    """Dynamic-quorum moves: one member in or out, majority-sized
    quorums (every such move satisfies the ``|C| < q + q'`` side
    condition)."""
    universe_set = frozenset(universe)

    def candidates(state: AdoreState, nid: NodeId, conf: Config) -> Iterator[Config]:
        cf = conf if isinstance(conf, SizedConfig) else SizedConfig.of(*conf)
        if not removals_only:
            for node in sorted(universe_set - cf.members):
                yield SizedConfig.majority(cf.members | {node})
        if len(cf.members) > 1:
            for node in sorted(cf.members):
                yield SizedConfig.majority(cf.members - {node})

    return candidates


def sized_jump_candidates(universe: Iterable[NodeId]) -> ReconfigCandidates:
    jumps = jump_reconfig_candidates(universe)

    def candidates(state: AdoreState, nid: NodeId, conf: Config) -> Iterator[Config]:
        cf = conf if isinstance(conf, SizedConfig) else SizedConfig.of(*conf)
        for members in jumps(state, nid, cf.members):
            yield SizedConfig.majority(members)

    return candidates


def weighted_reconfig_candidates(
    universe: Iterable[NodeId], removals_only: bool = False
) -> ReconfigCandidates:
    """Uniform-weight moves: one member in or out (weights stay 1, so
    the pigeonhole side condition of R1⁺ holds for every move)."""
    universe_set = frozenset(universe)

    def candidates(state: AdoreState, nid: NodeId, conf: Config) -> Iterator[Config]:
        cf = (
            conf
            if isinstance(conf, WeightedConfig)
            else WeightedConfig.uniform(conf)
        )
        members = cf.member_set()
        if not removals_only:
            for node in sorted(universe_set - members):
                yield WeightedConfig.uniform(members | {node})
        if len(members) > 1:
            for node in sorted(members):
                yield WeightedConfig.uniform(members - {node})

    return candidates


def weighted_jump_candidates(universe: Iterable[NodeId]) -> ReconfigCandidates:
    jumps = jump_reconfig_candidates(universe)

    def candidates(state: AdoreState, nid: NodeId, conf: Config) -> Iterator[Config]:
        cf = (
            conf
            if isinstance(conf, WeightedConfig)
            else WeightedConfig.uniform(conf)
        )
        for members in jumps(state, nid, cf.member_set()):
            yield WeightedConfig.uniform(members)

    return candidates


def default_scenarios(
    universe: FrozenSet[NodeId] = FIG4_NODES,
) -> List[SchemeScenario]:
    """The seven schemes over a shared node universe.

    Every scenario starts from the full-universe configuration (for
    primary-backup, node ``min(universe)`` is the primary) and moves
    one membership step at a time, so the compared state spaces are the
    same shape wherever the config representations allow it.
    """
    universe = frozenset(universe)
    primary = min(universe)
    backups = universe - {primary}
    return [
        SchemeScenario(
            scheme=RaftSingleNodeScheme(),
            conf0=universe,
            candidates=set_reconfig_candidates(universe),
            shrink_candidates=_removals_only,
            jump_candidates=jump_reconfig_candidates(universe),
        ),
        SchemeScenario(
            scheme=JointConsensusScheme(),
            conf0=JointConfig.stable(universe),
            candidates=joint_reconfig_candidates(universe),
            shrink_candidates=joint_reconfig_candidates(
                universe, removals_only=True
            ),
            jump_candidates=joint_jump_candidates(universe),
        ),
        SchemeScenario(
            scheme=PrimaryBackupScheme(),
            conf0=PrimaryBackupConfig.of(primary, backups),
            candidates=pb_reconfig_candidates(universe),
            shrink_candidates=pb_reconfig_candidates(
                universe, removals_only=True
            ),
            jump_candidates=pb_jump_candidates(universe),
        ),
        SchemeScenario(
            scheme=DynamicQuorumScheme(),
            conf0=SizedConfig.majority(universe),
            candidates=sized_reconfig_candidates(universe),
            shrink_candidates=sized_reconfig_candidates(
                universe, removals_only=True
            ),
            jump_candidates=sized_jump_candidates(universe),
        ),
        SchemeScenario(
            scheme=UnanimousScheme(),
            conf0=universe,
            candidates=set_reconfig_candidates(universe),
            shrink_candidates=_removals_only,
            jump_candidates=jump_reconfig_candidates(universe),
        ),
        SchemeScenario(
            scheme=WeightedMajorityScheme(),
            conf0=WeightedConfig.uniform(universe),
            candidates=weighted_reconfig_candidates(universe),
            shrink_candidates=weighted_reconfig_candidates(
                universe, removals_only=True
            ),
            jump_candidates=weighted_jump_candidates(universe),
        ),
        SchemeScenario(
            scheme=LoglessReconfigScheme(),
            conf0=LoglessConfig.initial(universe),
            candidates=logless_reconfig_candidates(universe),
            shrink_candidates=_logless_shrinking(
                logless_reconfig_candidates(universe)
            ),
            jump_candidates=logless_jump_candidates(universe),
        ),
    ]


# ----------------------------------------------------------------------
# One run of the matrix
# ----------------------------------------------------------------------

def explorer_for(
    scenario: SchemeScenario,
    ablation: str,
    budget: Optional[OpBudget] = None,
    max_states: int = 200_000,
    strategy: str = "guided",
) -> Explorer:
    """The configured :class:`Explorer` for one matrix cell.

    All cells share the hunt configuration of
    :mod:`repro.mc.ablations` (callers {1, 2}, quorum pulls, minimal
    quorums, replicated-state safety -- plus well-formedness for the
    ``leaf-commit`` cell, whose violation is structural).
    """
    if ablation not in ABLATIONS:
        raise ValueError(f"unknown ablation {ablation!r}")
    params = dict(
        scheme=scenario.scheme,
        conf0=scenario.conf0,
        callers=[1, 2],
        budget=budget or DEFAULT_BUDGETS[ablation],
        reconfig_candidates=scenario.candidates,
        quorum_pulls_only=True,
        minimal_quorums_only=True,
        invariants=["safety"],
        strategy=strategy,
        max_states=max_states,
        stop_at_first_violation=True,
    )
    if ablation == "no-r2":
        params["enforce_r2"] = False
        params["reconfig_candidates"] = scenario.shrink_candidates
    elif ablation == "no-r3":
        params["enforce_r3"] = False
    elif ablation == "no-overlap":
        params["scheme"] = OverlapAblation(scenario.scheme)
        params["reconfig_candidates"] = scenario.jump_candidates
    elif ablation == "leaf-commit":
        params["push_step"] = _leaf_push
        params["invariants"] = ["safety", "well-formedness"]
    return Explorer(**params)


@dataclass(frozen=True)
class RunRecord:
    """The outcome of one (scheme, ablation) cell."""

    scheme: str
    ablation: str
    safe: bool
    #: True when the frontier emptied below the state cap: the verdict
    #: covers the whole budgeted schedule class, not a truncation.
    complete: bool
    states: int
    transitions: int
    max_depth: int
    #: Depth of the first violation under the harness's fixed
    #: deterministic search order (``None`` when safe).  With
    #: ``strategy="bfs"`` this is the *minimal* counterexample depth.
    first_violation_depth: Optional[int]
    first_violation_labels: Tuple[str, ...]
    elapsed_seconds: float

    @property
    def survival(self) -> str:
        """The matrix cell: ``dies@d``, ``survives``, or ``survives?``
        (safe but truncated by the state cap)."""
        if not self.safe:
            return f"dies@{self.first_violation_depth}"
        return "survives" if self.complete else "survives?"

    def to_dict(self) -> dict:
        return {
            "scheme": self.scheme,
            "ablation": self.ablation,
            "safe": self.safe,
            "complete": self.complete,
            "states": self.states,
            "transitions": self.transitions,
            "max_depth": self.max_depth,
            "first_violation_depth": self.first_violation_depth,
            "first_violation_labels": list(self.first_violation_labels),
            "survival": self.survival,
            "elapsed_seconds": round(self.elapsed_seconds, 3),
        }


def _record(
    scenario: SchemeScenario,
    ablation: str,
    result: ExplorationResult,
    max_states: int,
) -> RunRecord:
    violation = result.violations[0] if result.violations else None
    labels: Tuple[str, ...] = ()
    if violation is not None:
        labels = tuple(
            sorted({v.split("]")[0].strip("[") for v in
                    violation.report.all_violations()})
        )
    return RunRecord(
        scheme=scenario.name,
        ablation=ablation,
        safe=result.safe,
        # A found violation is a definitive verdict; for safe runs,
        # ``exhausted`` is only set for bfs, but a guided run that
        # emptied its frontier below the cap is complete all the same.
        complete=(not result.safe)
        or result.exhausted
        or result.states_visited < max_states,
        states=result.states_visited,
        transitions=result.transitions,
        max_depth=result.max_depth,
        first_violation_depth=(
            len(violation.trace) if violation is not None else None
        ),
        first_violation_labels=labels,
        elapsed_seconds=result.elapsed_seconds,
    )


@dataclass
class DifferentialReport:
    """The machine-readable comparison across schemes and ablations."""

    universe: Tuple[NodeId, ...]
    strategy: str
    max_states: int
    budgets: Dict[str, OpBudget]
    records: List[RunRecord] = field(default_factory=list)

    def schemes(self) -> List[str]:
        seen: List[str] = []
        for record in self.records:
            if record.scheme not in seen:
                seen.append(record.scheme)
        return seen

    def ablations(self) -> List[str]:
        seen: List[str] = []
        for record in self.records:
            if record.ablation not in seen:
                seen.append(record.ablation)
        return seen

    def record(self, scheme: str, ablation: str) -> Optional[RunRecord]:
        for rec in self.records:
            if rec.scheme == scheme and rec.ablation == ablation:
                return rec
        return None

    def survival_matrix(self) -> List[List[str]]:
        """Rows ``[scheme, cell...]``, one cell per ablation."""
        rows = []
        for scheme in self.schemes():
            row = [scheme]
            for ablation in self.ablations():
                rec = self.record(scheme, ablation)
                row.append(rec.survival if rec is not None else "-")
            rows.append(row)
        return rows

    def frontier(self) -> Dict[str, Dict[str, Optional[int]]]:
        """``scheme -> ablation -> first-violation depth`` (None = safe)."""
        return {
            scheme: {
                ablation: (
                    self.record(scheme, ablation).first_violation_depth
                    if self.record(scheme, ablation) is not None
                    else None
                )
                for ablation in self.ablations()
            }
            for scheme in self.schemes()
        }

    def separations(self, scheme_a: str, scheme_b: str) -> List[str]:
        """Ablations on which the two schemes' fates differ (one dies,
        the other survives, or they die at different depths)."""
        out = []
        for ablation in self.ablations():
            rec_a = self.record(scheme_a, ablation)
            rec_b = self.record(scheme_b, ablation)
            if rec_a is None or rec_b is None:
                continue
            if (rec_a.safe, rec_a.first_violation_depth) != (
                rec_b.safe,
                rec_b.first_violation_depth,
            ):
                out.append(ablation)
        return out

    def determinism_key(self) -> tuple:
        """Everything that must be identical across repeat runs
        (timings excluded)."""
        return tuple(
            (
                rec.scheme,
                rec.ablation,
                rec.safe,
                rec.complete,
                rec.states,
                rec.transitions,
                rec.max_depth,
                rec.first_violation_depth,
                rec.first_violation_labels,
            )
            for rec in self.records
        )

    def to_dict(self) -> dict:
        return {
            "universe": list(self.universe),
            "strategy": self.strategy,
            "max_states": self.max_states,
            "budgets": {
                ablation: {
                    "pulls": budget.pulls,
                    "invokes": budget.invokes,
                    "reconfigs": budget.reconfigs,
                    "pushes": budget.pushes,
                }
                for ablation, budget in self.budgets.items()
            },
            "records": [rec.to_dict() for rec in self.records],
            "survival_matrix": self.survival_matrix(),
            "frontier": self.frontier(),
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def render(self) -> str:
        """The three comparison tables as aligned text."""
        from ..analysis.render import render_table

        ablations = self.ablations()
        sections = []
        budget_line = ", ".join(
            f"{ablation}=({b.pulls}p/{b.invokes}i/{b.reconfigs}r/{b.pushes}c)"
            for ablation, b in self.budgets.items()
            if ablation in ablations
        )
        sections.append(
            f"differential check: universe {list(self.universe)}, "
            f"strategy {self.strategy}, max_states {self.max_states}\n"
            f"budgets: {budget_line}"
        )
        sections.append(
            "ablation survival\n"
            + render_table(["scheme"] + list(ablations), self.survival_matrix())
        )
        frontier_rows = [
            [scheme]
            + [
                "-" if depth is None else str(depth)
                for depth in self.frontier()[scheme].values()
            ]
            for scheme in self.schemes()
        ]
        sections.append(
            "violation frontier (first-violation depth; - = safe)\n"
            + render_table(["scheme"] + list(ablations), frontier_rows)
        )
        state_rows = []
        for scheme in self.schemes():
            row = [scheme]
            for ablation in ablations:
                rec = self.record(scheme, ablation)
                if rec is None:
                    row.append("-")
                else:
                    row.append(
                        f"{rec.states}{'' if rec.complete else '+'}"
                    )
            state_rows.append(row)
        sections.append(
            "reachable states explored (+ = truncated at the cap)\n"
            + render_table(["scheme"] + list(ablations), state_rows)
        )
        return "\n\n".join(sections)


def run_differential(
    scenarios: Optional[Sequence[SchemeScenario]] = None,
    budgets: Optional[Dict[str, OpBudget]] = None,
    ablations: Sequence[str] = ABLATIONS,
    max_states: int = 200_000,
    strategy: str = "guided",
    workers: int = 1,
    checkpoint_dir: Optional[str] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> DifferentialReport:
    """Run every (scheme, ablation) cell on identical budgets.

    ``strategy="guided"`` (the default) is required to reach the
    deep Fig. 4-class counterexamples within a practical state cap;
    pure bfs truncates at 300k+ states before depth 8.  Runs remain
    deterministic either way (see the module docstring).  ``workers``
    > 1 parallelizes each cell through
    :func:`repro.mc.parallel.explore`; ``checkpoint_dir`` stores one
    resumable checkpoint per cell.
    """
    scenario_list = (
        list(scenarios) if scenarios is not None else default_scenarios()
    )
    budget_map = dict(DEFAULT_BUDGETS)
    if budgets:
        budget_map.update(budgets)
    unknown = [a for a in ablations if a not in ABLATIONS]
    if unknown:
        raise ValueError(f"unknown ablations {unknown}")
    universe: FrozenSet[NodeId] = frozenset()
    for scenario in scenario_list:
        universe |= scenario.scheme.members(scenario.conf0)
    report = DifferentialReport(
        universe=tuple(sorted(universe)),
        strategy=strategy,
        max_states=max_states,
        budgets={a: budget_map[a] for a in ablations},
    )
    for scenario in scenario_list:
        for ablation in ablations:
            explorer = explorer_for(
                scenario,
                ablation,
                budget=budget_map[ablation],
                max_states=max_states,
                strategy=strategy,
            )
            checkpoint = None
            if checkpoint_dir:
                checkpoint = os.path.join(
                    checkpoint_dir, f"{scenario.name}--{ablation}.ckpt"
                )
            result = explore(explorer, workers=workers, checkpoint=checkpoint)
            record = _record(scenario, ablation, result, max_states)
            report.records.append(record)
            if progress is not None:
                progress(
                    f"{record.scheme} / {record.ablation}: "
                    f"{record.survival} ({record.states} states, "
                    f"{record.elapsed_seconds:.1f}s)"
                )
    return report
