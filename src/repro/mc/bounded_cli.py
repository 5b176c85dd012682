"""Bounded-memory model-checking harness: ``python -m repro.mc.bounded_cli``.

Runs the Fig. 4 intact verification twice -- once unbounded, once under
an address-space rlimit with a tree-table cap (``Explorer.tree_cap``,
the one memory setting) -- and asserts the two runs agree exactly
(states, transitions, verdict, first violation).  This is the CI gate
proving that the cap changes *resource usage only*, never the answer,
and that the capped run fits under a real ``RLIMIT_AS``.

Exit status 0 means the bounded run completed under the cap with exact
parity; anything else is a failure.  A JSON summary goes to stdout for
the CI log.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from ..core import cachemgr
from .ablations import verify_intact_explorer
from .explorer import OpBudget
from .parallel import explore

#: CI-sized budgets: ``small`` finishes in seconds, ``fig4`` is the
#: full paper budget (minutes).
BUDGETS = {
    "small": OpBudget(pulls=2, invokes=1, reconfigs=1, pushes=2),
    "fig4": None,  # factory default == the Fig. 4 budget
}


def signature(result) -> dict:
    """What two runs must agree on to have explored the same thing.

    Also the row format of ``tests/mc/test_golden.py``, so it stays
    JSON-shaped (lists, not tuples).
    """
    first = None
    if result.violations:
        violation = result.violations[0]
        first = [
            [repr(op) for op in violation.trace],
            list(violation.report.all_violations()),
        ]
    return {
        "states": result.states_visited,
        "transitions": result.transitions,
        "verdict": result.safe,
        "violations": len(result.violations),
        "first_violation": first,
        "max_depth": result.max_depth,
        "exhausted": result.exhausted,
    }


def apply_address_space_cap(limit_mb: int) -> bool:
    """Cap this process's virtual address space (soft limit).

    Returns ``False`` (with a note on stderr) on platforms without
    ``RLIMIT_AS`` instead of failing: the parity check still runs, it
    just is not resource-enforced.

    ``RLIMIT_AS`` charges *reservations*, not residency, so glibc's
    defaults are actively hostile to it: every new thread costs a
    64 MiB malloc arena reservation plus an 8 MiB stack -- the worker
    pool's two handler threads alone would eat ~140 MiB of a cap
    without a byte of data behind it.  Pin the allocator to the main
    arena and shrink stacks for threads created from here on.
    """
    try:
        import resource
    except ImportError:
        print("bounded_cli: no resource module; cap not enforced", file=sys.stderr)
        return False
    limit = limit_mb * 1024 * 1024
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    if hard != resource.RLIM_INFINITY:
        limit = min(limit, hard)
    resource.setrlimit(resource.RLIMIT_AS, (limit, hard))
    try:
        import ctypes

        M_ARENA_MAX = -8  # glibc malloc.h
        ctypes.CDLL(None).mallopt(M_ARENA_MAX, 1)
    except Exception:
        pass  # non-glibc: arenas either don't exist or aren't tunable
    try:
        import threading

        threading.stack_size(1 << 20)
    except (ImportError, ValueError):
        pass
    return True


def _reference_leg(args, overrides) -> dict:
    """The unbounded reference run: returns its signature."""
    reference = signature(verify_intact_explorer(**overrides).run())
    cachemgr.flush()
    return reference


def _bounded_leg(args, overrides) -> tuple:
    """The capped run: returns ``(signature, flushes, rss_kb, capped)``.

    Runs in a fresh forked child when possible (see :func:`main`): the
    address-space cap must be applied before the process grows.
    """
    capped = args.limit_mb > 0 and apply_address_space_cap(args.limit_mb)
    # The counter is process-cumulative: count this run's flushes only.
    before = cachemgr.stats()["tree_interns"]["flushes"]
    explorer = verify_intact_explorer(tree_cap=args.tree_cap, **overrides)
    result = explore(explorer, workers=args.workers)
    flushes = cachemgr.stats()["tree_interns"]["flushes"] - before
    try:
        import resource

        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    except ImportError:
        rss_kb = None
    return signature(result), flushes, rss_kb, capped


def _in_child(leg, args, overrides, what):
    """Run one leg in a forked child and return its payload (or None).

    Forking from the still-slim parent matters twice over: the bounded
    leg's ``RLIMIT_AS`` caps *virtual* size, which CPython never really
    returns to the OS (so a child forked after the reference run would
    inherit a too-big address space), and each leg's ``ru_maxrss`` stays
    a clean per-leg high-water mark.
    """
    import multiprocessing

    context = multiprocessing.get_context("fork")
    parent_conn, child_conn = context.Pipe(duplex=False)

    def runner():
        child_conn.send(leg(args, overrides))
        child_conn.close()

    process = context.Process(target=runner)
    process.start()
    child_conn.close()
    # Join before reading: the payload is small enough to sit in the
    # pipe buffer, and a child that died mid-run may have left pool
    # workers holding the write end open -- blocking on recv() first
    # would then hang forever instead of reporting the death.
    process.join()
    if not parent_conn.poll():
        print(
            f"bounded_cli: {what} run died "
            f"(exit code {process.exitcode})",
            file=sys.stderr,
        )
        return None
    return parent_conn.recv()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.mc.bounded_cli",
        description=__doc__.splitlines()[0],
    )
    parser.add_argument(
        "--budget", choices=sorted(BUDGETS), default="small",
        help="workload size (default: small; fig4 = full paper budget)",
    )
    parser.add_argument(
        "--limit-mb", type=int, default=256,
        help="RLIMIT_AS cap for the bounded run, in MiB (default: 256; "
        "0 disables the cap, e.g. when embedding in a larger process)",
    )
    parser.add_argument(
        "--tree-cap", type=int, default=4096,
        help="interned-tree cache cap for the bounded run (default: 4096)",
    )
    parser.add_argument(
        "--workers", type=int, default=1,
        help="worker processes for the bounded run (default: 1, in-process)",
    )
    args = parser.parse_args(argv)
    budget = BUDGETS[args.budget]
    overrides = {} if budget is None else {"budget": budget}

    # Each leg runs in its own forked child (see _in_child) when a cap
    # is requested; without fork, or with --limit-mb 0 (no cap), both
    # legs run in this process.
    use_fork = args.limit_mb > 0 and hasattr(os, "fork")
    if use_fork:
        reference = _in_child(_reference_leg, args, overrides, "reference")
        if reference is None:
            return 1
        payload = _in_child(_bounded_leg, args, overrides,
                            f"bounded ({args.limit_mb} MiB cap)")
        if payload is None:
            return 1
    else:
        reference = _reference_leg(args, overrides)
        payload = _bounded_leg(args, overrides)
    bounded, cache_flushes, peak_rss_kb, capped = payload
    summary = {
        "budget": args.budget,
        "tree_cap": args.tree_cap,
        "workers": args.workers,
        "limit_mb": args.limit_mb if capped else None,
        "peak_rss_kb": peak_rss_kb,
        "cache_flushes": cache_flushes,
        "reference": reference,
        "bounded": bounded,
        "parity": bounded == reference,
    }
    print(json.dumps(summary, indent=2))
    if not summary["parity"]:
        print("bounded_cli: PARITY FAILURE", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
