"""Explicit-state bounded model checking of Adore (the proof substitute).

:class:`Explorer` exhaustively enumerates reachable states within a
bounded schedule class and checks replicated state safety plus every
Appendix-B invariant at each state; :mod:`repro.mc.ablations` re-runs it
with each design rule (R2, R3, OVERLAP, ``insertBtw``) disabled and
exhibits concrete counterexample schedules.

There is one search loop, :func:`repro.mc.parallel.search`, over a
frontier (FIFO or best-first), a visited set
and an executor (this process, or a ``multiprocessing`` fork pool).
``Explorer.run()`` enters it with the defaults; :class:`ParallelExplorer`
(and the :func:`explore` shorthand) add workers, periodic checkpoints and
time slices -- for either strategy -- so large schedule classes can be
certified on all cores and interrupted runs resume instead of restarting.
"""

from .ablations import (
    FIG4_BUDGET,
    FIG4_NODES,
    ablate_insert_btw,
    ablate_overlap,
    ablate_r2,
    ablate_r3,
    insert_btw_explorer,
    overlap_explorer,
    r2_explorer,
    r3_explorer,
    verify_intact,
    verify_intact_explorer,
)
from .checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from .differential import (
    ABLATIONS,
    DEFAULT_BUDGETS,
    SMOKE_BUDGETS,
    MATRIX,
    DifferentialReport,
    RunRecord,
    explorer_for,
    run_differential,
)
from .fpset import FingerprintSet
from .explorer import (
    ExplorationResult,
    Explorer,
    OpBudget,
    Violation,
)
from .parallel import (
    EngineStats,
    ParallelExplorer,
    ProgressSnapshot,
    explore,
    merge_results,
    print_progress,
)
from .frontier import BestFirstFrontier, FifoFrontier
from .symmetry import (
    SymmetryReducer,
    apply_renaming,
    canonical_key,
    symmetry_group,
)

__all__ = [
    "ABLATIONS",
    "BestFirstFrontier",
    "DEFAULT_BUDGETS",
    "FIG4_BUDGET",
    "FIG4_NODES",
    "SMOKE_BUDGETS",
    "Checkpoint",
    "DifferentialReport",
    "EngineStats",
    "ExplorationResult",
    "Explorer",
    "FifoFrontier",
    "FingerprintSet",
    "MATRIX",
    "OpBudget",
    "ParallelExplorer",
    "ProgressSnapshot",
    "RunRecord",
    "SymmetryReducer",
    "Violation",
    "ablate_insert_btw",
    "ablate_overlap",
    "ablate_r2",
    "ablate_r3",
    "apply_renaming",
    "canonical_key",
    "explore",
    "explorer_for",
    "insert_btw_explorer",
    "load_checkpoint",
    "merge_results",
    "overlap_explorer",
    "print_progress",
    "r2_explorer",
    "r3_explorer",
    "run_differential",
    "save_checkpoint",
    "symmetry_group",
    "verify_intact",
    "verify_intact_explorer",
]
