#!/usr/bin/env python3
"""Bounded model checking of Adore safety (the Theorem 4.5 substitute).

The paper proves replicated state safety in Coq.  This reproduction
checks the identical invariants over *every* state reachable within a
bounded schedule class -- exhaustively -- and then shows each design
rule is load-bearing by ablating it and exhibiting the counterexample
the checker finds.

Run:  python examples/model_check_safety.py              (quick)
      python examples/model_check_safety.py --full       (all ablations)
      python examples/model_check_safety.py --workers 4  (worker pool)
      python examples/model_check_safety.py --smoke      (CI-sized run)

``--workers N`` expands each BFS frontier level (and each window of a
guided hunt's best entries) across N processes; the positive
verification's verdict and state count are identical to the sequential
run.  ``--checkpoint PATH`` makes the positive verification resumable:
an interrupted run (or one stopped by ``--max-seconds``) continues from
its last completed level on the next invocation.
"""

import argparse

from repro.analysis import render_table
from repro.mc import (
    OpBudget,
    ablate_insert_btw,
    ablate_overlap,
    ablate_r2,
    ablate_r3,
    print_progress,
    verify_intact,
)


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--full", action="store_true",
        help="run the R2/R3/OVERLAP hunts too (a few minutes)",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="CI-sized run: small budget, one ablation hunt",
    )
    parser.add_argument(
        "--workers", type=int, default=1, metavar="N",
        help="worker processes (default: 1, in-process; 0 = all cores)",
    )
    parser.add_argument(
        "--checkpoint", metavar="PATH", default=None,
        help="checkpoint file for the positive verification; an existing "
             "matching checkpoint is resumed",
    )
    parser.add_argument(
        "--max-seconds", type=float, default=None, metavar="S",
        help="stop the positive verification after S seconds, writing a "
             "checkpoint (use with --checkpoint to split across runs)",
    )
    parser.add_argument(
        "--progress", action="store_true",
        help="print per-level throughput counters",
    )
    return parser.parse_args()


def main(
    full: bool = False,
    smoke: bool = False,
    workers: int = 1,
    checkpoint: str = None,
    max_seconds: float = None,
    progress: bool = False,
) -> None:
    args = argparse.Namespace(
        full=full, smoke=smoke, workers=workers,
        checkpoint=checkpoint, max_seconds=max_seconds, progress=progress,
    )
    budget = (
        OpBudget(pulls=1, invokes=2, reconfigs=1, pushes=2)
        if args.smoke
        else OpBudget(pulls=2, invokes=2, reconfigs=1, pushes=2)
    )

    print("== Positive verification: the intact model is safe ==\n")
    result = verify_intact(
        budget=budget,
        conf0=frozenset({1, 2, 3}),
        workers=args.workers,
        checkpoint=args.checkpoint,
        max_seconds=args.max_seconds,
        progress=print_progress if args.progress else None,
    )
    print(
        f"3 nodes, {result.budget} [{args.workers} worker(s)] -> "
        f"{result.summary()}"
    )
    print("engine:", result.stats.describe())
    if result.interrupted:
        print("\ninterrupted by --max-seconds; re-run with the same "
              "--checkpoint to continue")
        return
    assert result.safe and result.exhausted

    print("\n== Ablations: remove one rule, find one counterexample ==\n")
    ablations = [("insertBtw -> addLeaf", ablate_insert_btw)]
    if args.full:
        ablations += [
            ("no R3 (pre-fix Raft)", ablate_r3),
            ("no R2", ablate_r2),
            ("no OVERLAP (multi-node jumps)", ablate_overlap),
        ]
    rows = []
    details = []
    for name, runner in ablations:
        outcome = runner(workers=args.workers)
        first = outcome.violations[0] if outcome.violations else None
        rows.append((
            name,
            outcome.states_visited,
            len(first.trace) if first else "-",
            f"{outcome.elapsed_seconds:.2f}s",
            "VIOLATION FOUND" if first else "none found",
        ))
        if first:
            details.append((name, first))
    print(render_table(
        ["ablation", "states", "depth", "time", "result"], rows
    ))
    for name, violation in details:
        print(f"\n--- counterexample for: {name} ---")
        print(violation.describe())

    if not args.full and not args.smoke:
        print("\n(run with --full for the R2/R3/OVERLAP hunts; "
              "they take a few minutes)")


if __name__ == "__main__":
    main(**vars(parse_args()))
