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
and Q2 oplog commitment check, evaluated by the scheme's own moves),
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
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..core.cache import NodeId
from ..core.config import ReconfigScheme
from ..schemes import SCHEMES, OverlapAblation
from .ablations import (
    FIG4_BUDGET,
    FIG4_NODES,
    LEAF_COMMIT_BUDGET,
    OVERLAP_BUDGET,
    R2_BUDGET,
    _leaf_push,
)
from .explorer import ExplorationResult, Explorer, OpBudget
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


#: The matrix's rows: every bundled scheme but rotating-primary
#: (primary-backup's moves under a looser R1⁺) and static-majority
#: (it has no reconfiguration to ablate).  Every row starts from its
#: scheme's full-universe configuration over :data:`FIG4_NODES` and
#: moves one membership step at a time, so the compared state spaces
#: are the same shape wherever the config representations allow it.
MATRIX: Tuple[ReconfigScheme, ...] = tuple(
    scheme
    for name, scheme in SCHEMES.items()
    if name not in ("rotating-primary", "static-majority")
)


# ----------------------------------------------------------------------
# One run of the matrix
# ----------------------------------------------------------------------

def explorer_for(
    scheme: ReconfigScheme,
    ablation: str,
    budget: Optional[OpBudget] = None,
    max_states: int = 200_000,
    strategy: str = "guided",
) -> Explorer:
    """The configured :class:`Explorer` for one matrix cell.

    All cells share the hunt configuration of
    :mod:`repro.mc.ablations` (callers {1, 2}, quorum pulls, minimal
    quorums, replicated-state safety -- plus well-formedness for the
    ``leaf-commit`` cell, whose violation is structural).  The moves are
    the scheme's own; ``no-r2`` keeps only the removals (the R2
    counterexample stacks configuration *shrinks*, and removal-only
    moves keep the branching comparable across schemes), and
    ``no-overlap`` runs under :class:`OverlapAblation`, whose moves are
    the scheme's jumps.
    """
    if ablation not in ABLATIONS:
        raise ValueError(f"unknown ablation {ablation!r}")
    params = dict(
        scheme=scheme,
        conf0=scheme.initial(FIG4_NODES),
        callers=[1, 2],
        budget=budget or DEFAULT_BUDGETS[ablation],
        quorum_pulls_only=True,
        minimal_quorums_only=True,
        invariants=["safety"],
        strategy=strategy,
        max_states=max_states,
        stop_at_first_violation=True,
    )
    if ablation == "no-r2":
        params["enforce_r2"] = False
        params["reconfig_candidates"] = lambda state, nid, conf: scheme.moves(
            state, nid, conf, FIG4_NODES, removals_only=True
        )
    elif ablation == "no-r3":
        params["enforce_r3"] = False
    elif ablation == "no-overlap":
        params["scheme"] = OverlapAblation(scheme)
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
    scheme: ReconfigScheme,
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
        scheme=scheme.name,
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
    schemes: Sequence[ReconfigScheme] = MATRIX,
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
    budget_map = dict(DEFAULT_BUDGETS)
    if budgets:
        budget_map.update(budgets)
    unknown = [a for a in ablations if a not in ABLATIONS]
    if unknown:
        raise ValueError(f"unknown ablations {unknown}")
    report = DifferentialReport(
        universe=tuple(sorted(FIG4_NODES)),
        strategy=strategy,
        max_states=max_states,
        budgets={a: budget_map[a] for a in ablations},
    )
    for scheme in schemes:
        for ablation in ablations:
            explorer = explorer_for(
                scheme,
                ablation,
                budget=budget_map[ablation],
                max_states=max_states,
                strategy=strategy,
            )
            checkpoint = None
            if checkpoint_dir:
                checkpoint = os.path.join(
                    checkpoint_dir, f"{scheme.name}--{ablation}.ckpt"
                )
            result = explore(explorer, workers=workers, checkpoint=checkpoint)
            record = _record(scheme, ablation, result, max_states)
            report.records.append(record)
            if progress is not None:
                progress(
                    f"{record.scheme} / {record.ablation}: "
                    f"{record.survival} ({record.states} states, "
                    f"{record.elapsed_seconds:.1f}s)"
                )
    return report
