"""The model checker's one search loop, in-process or across a pool.

:func:`search` is the only loop in the checker.  ``Explorer.run()``,
``ParallelExplorer(...).run()`` and :func:`explore` all enter it; what
differs between a sequential breadth-first proof, a guided hunt, a
tree-capped run and a four-worker resumable one is only which three
parts it was handed, each chosen once, before the loop starts:

* a **frontier** (:mod:`repro.mc.frontier`) -- FIFO or best-first --
  which decides the order entries are expanded in;
* the **visited set** ``Explorer.new_visited_set`` builds -- a plain
  ``set`` or a :class:`~repro.mc.fpset.FingerprintSet`;
* an **executor** -- inline, one entry at a time in this process, or a
  ``fork`` pool expanding contiguous batches of a window.

The loop pops a *window* of entries, has the executor expand it, and
merges the successors **in frontier order** (state cap, dedup, invariant
check, then first violation or enqueue).  A window is a contiguous run
of the frontier's own order and the merge is strictly in that order, so
for the FIFO frontier the search visits exactly the states the
one-entry-at-a-time search visits, for any worker count or batch size,
and finds the identical first violation.  A best-first frontier hands a
pool at most :data:`~repro.mc.frontier.GUIDED_WINDOW` entries at a time:
a pooled guided hunt is deterministic and independent of the worker
count, but it is not the sequential guided hunt (which re-ranks after
every single expansion), so its state count differs while its verdict
does not.

A *round* is as many entries as the frontier held when the round
began -- for the FIFO frontier exactly one BFS level.  Between rounds
the loop reports progress, tests ``max_seconds``/``max_levels`` and may
write a :class:`~repro.mc.checkpoint.Checkpoint`, so an interrupted run
-- a killed process, or a CI job that deliberately stops at
``max_seconds`` -- resumes from the last completed round instead of
restarting.

Worker processes are created with the ``fork`` start method so that
explorer configurations containing closures (reconfiguration candidate
generators, the insertBtw ablation's push override) are inherited
rather than pickled.  On platforms without ``fork`` the engine degrades
to the inline executor with a warning; results are identical, only the
speedup is lost.
"""

from __future__ import annotations

import gc
import multiprocessing
import os
import sys
import time as _time
import warnings
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from ..core.cachemgr import gc_paused
from ..core.tree import set_tree_cap
from ..obs.metrics import NULL_METRICS, MetricsRegistry
from .checkpoint import discard_checkpoint, load_checkpoint, write_checkpoint
from .explorer import ExplorationResult, Explorer, OpBudget, Violation
from .fpset import FingerprintSet
from .frontier import Entry

#: Refuse to place the shared visited table in a SharedMemory segment
#: larger than this; bigger runs fall back to a master-private table.
_SHARED_VISITED_MAX_BYTES = 256 * 1024 * 1024

#: Set in pool workers only, by the pool initializer (inherited through
#: ``fork``, never pickled): the explorer to expand with, and a read-only
#: view of the master's shared visited table (``None`` when the run has
#: none).  The master writes that table between windows, when no worker
#: is running.
_WORKER_EXPLORER: Optional[Explorer] = None
_WORKER_VISITED: Optional[FingerprintSet] = None


def _init_worker(
    explorer: Explorer, shared_visited: Optional[FingerprintSet]
) -> None:
    global _WORKER_EXPLORER, _WORKER_VISITED
    _WORKER_EXPLORER = explorer
    _WORKER_VISITED = shared_visited
    # A worker builds the same acyclic heap as the master, for its whole
    # life.  It is forked inside ``search``, so it would inherit the
    # pause anyway; stated here so that it does not depend on where the
    # pool is created.
    gc.disable()


def _expand_batch(items):
    """Expand one contiguous slice of a window (runs in a pool worker).

    ``items`` is ``[(state, budget), ...]``.  Returns ``(worker_name,
    produced, [succs, ...])`` with one ``succs`` list per item, each
    preserving expansion order and holding either

    * ``None`` -- a successor whose dedup key is a guaranteed global
      duplicate: it already appeared earlier in this batch, or it is in
      the fork-shared visited table.  It still counts as a transition
      but needs no state shipping or safety check, and in the
      shared-table case does not even travel back to the master as a
      key; or
    * ``(op_desc, next_state, next_budget, key, report)`` with
      ``report`` being ``None`` for a clean state and the full
      :class:`~repro.core.safety.SafetyReport` otherwise.

    The batch-local dedup is sound because batches are contiguous
    window slices merged in order: the first occurrence inside the
    batch is also the first occurrence the one-at-a-time search would
    see within this segment.  The shared-table probe is sound because
    the window barrier (``pool.map``) means the master only inserts
    fingerprints while no worker runs: a worker always observes a
    consistent snapshot holding exactly the states visited before this
    window, and a hit is exactly the master's own ``key in visited``
    verdict.
    """
    explorer = _WORKER_EXPLORER
    shared = _WORKER_VISITED
    batch_seen = set()
    produced = 0
    results = []
    for state, budget in items:
        succs: List[Optional[Tuple]] = []
        for op_desc, next_state, next_budget, key in explorer.expand(
            state, budget
        ):
            produced += 1
            if (shared is not None and key in shared) or key in batch_seen:
                succs.append(None)
                continue
            batch_seen.add(key)
            report = explorer.check(next_state)
            succs.append((
                op_desc,
                next_state,
                next_budget,
                key,
                None if report.ok else report,
            ))
        results.append(succs)
    return multiprocessing.current_process().name, produced, results


@dataclass
class EngineStats:
    """Aggregate throughput counters for one engine run (one slice)."""

    workers: int
    levels: int = 0
    #: Pool tasks dispatched (0 for an in-process run: nothing is batched).
    batches: int = 0
    #: Successors merged (== transitions this slice).
    produced: int = 0
    #: Successors dropped as duplicates (batch-local or in the shared
    #: seen-set).
    dedup_hits: int = 0
    checkpoints_written: int = 0
    #: Successors produced per pool worker, by process name.
    per_worker: Dict[str, int] = field(default_factory=dict)

    @property
    def dedup_hit_rate(self) -> float:
        """Fraction of produced successors that were duplicates."""
        if self.produced == 0:
            return 0.0
        return self.dedup_hits / self.produced

    def describe(self) -> str:
        workers = ", ".join(
            f"{name}={count}" for name, count in sorted(self.per_worker.items())
        )
        return (
            f"{self.workers} worker(s), {self.levels} level(s), "
            f"{self.batches} batch(es), dedup hit-rate "
            f"{self.dedup_hit_rate:.0%}, {self.checkpoints_written} "
            f"checkpoint(s) [{workers}]"
        )


@dataclass(frozen=True)
class ProgressSnapshot:
    """Observability record emitted after every completed round (for a
    breadth-first run: every BFS level)."""

    level: int
    #: Entries expanded in this round (the queue depth going in).
    frontier: int
    #: Entries queued for the next round (the queue depth going out).
    next_frontier: int
    states_visited: int
    transitions: int
    dedup_hits: int
    elapsed_seconds: float
    states_per_second: float
    per_worker: Tuple[Tuple[str, int], ...]

    def describe(self) -> str:
        return (
            f"level {self.level}: frontier {self.frontier} -> "
            f"{self.next_frontier}, {self.states_visited} states, "
            f"{self.transitions} transitions, "
            f"{self.states_per_second:,.0f} states/s, "
            f"dedup {self.dedup_hits}"
        )


def print_progress(snapshot: ProgressSnapshot) -> None:
    """A ready-made ``progress=`` callback that prints to stdout."""
    print("  " + snapshot.describe(), flush=True)


# ----------------------------------------------------------------------
# Executors: how one window of frontier entries gets expanded.  Both
# yield ``(entry, successors)`` in window order; a successor is ``None``
# (a known duplicate) or a tuple starting ``(op_desc, next_state,
# next_budget, key)``, and ``report(successor)`` is its violation report
# (``None`` when clean).
# ----------------------------------------------------------------------


class _InlineExecutor:
    """Expand in this process, one entry at a time.

    Successors are generated lazily and the invariant check is deferred
    to :meth:`report`, which the loop calls only after dedup -- so a
    duplicate is never checked and nothing past a first violation is
    ever generated.  Streaming is also what keeps memory flat: batching
    a whole level through the pool's code path instead holds every
    successor of the level with its report at once (388 vs 354 MiB peak
    on the exhaustive Fig. 4 intact run).
    """

    #: Entries per window.
    window = 1

    def __init__(self, explorer: Explorer, visited) -> None:
        self._explorer = explorer
        self.visited = visited

    def expand(self, window: Sequence[Entry]):
        expand = self._explorer.expand
        for entry in window:
            yield entry, expand(entry[0], entry[1])

    def report(self, successor: Tuple):
        report = self._explorer.check(successor[1])
        return None if report.ok else report

    def close(self) -> None:
        pass


class _PoolExecutor:
    """Expand each window across a ``fork`` pool (see :func:`_expand_batch`).

    The visited table moves into a SharedMemory segment so workers can
    probe it directly, pre-filtering duplicates without shipping states
    back to the master; ``visited`` is the table the loop must use from
    then on.  A table too big for the segment cap, or exact-equality
    full-state keys, stay master-private and just lose the pre-filter.
    """

    #: Entries per window: as many as the frontier hands out.
    window = sys.maxsize

    def __init__(
        self, context, explorer: Explorer, workers: int, batch_size: int,
        visited, stats: EngineStats,
    ) -> None:
        self._workers = workers
        self._batch_size = batch_size
        self._stats = stats
        self._shm = None
        self.visited = visited
        shared = None
        if explorer.fingerprints:
            shared = self._move_to_shared_memory(explorer.max_states)
        self._pool = context.Pool(
            processes=workers,
            initializer=_init_worker,
            initargs=(explorer, shared),
        )

    def _move_to_shared_memory(self, max_states: int):
        nbytes = FingerprintSet.buffer_bytes(max_states)
        if nbytes > _SHARED_VISITED_MAX_BYTES:
            return None
        try:
            from multiprocessing import shared_memory

            self._shm = shared_memory.SharedMemory(create=True, size=nbytes)
        except (ImportError, OSError):
            return None
        shared = FingerprintSet.attach(self._shm.buf, clear=True)
        for fp in self.visited:
            shared.add(fp)
        self.visited = shared
        return shared

    def _batches(self, window: Sequence[Entry]) -> List[List[Tuple]]:
        """Contiguous ``[(state, budget), ...]`` slices of ``window``.

        The slice size balances scheduling overhead against pool
        utilization; correctness does not depend on it.
        """
        per_worker = -(-len(window) // (self._workers * 4)) or 1
        size = max(1, min(self._batch_size, per_worker))
        return [
            [(state, budget) for state, budget, _ in window[start:start + size]]
            for start in range(0, len(window), size)
        ]

    def expand(self, window: Sequence[Entry]):
        batches = self._batches(window)
        stats = self._stats
        stats.batches += len(batches)
        successors: List[List] = []
        # ``map`` returns in batch order and batches are contiguous, so
        # concatenating the results lines them up with ``window``.
        for worker_name, produced, results in self._pool.map(
            _expand_batch, batches, chunksize=1
        ):
            stats.per_worker[worker_name] = (
                stats.per_worker.get(worker_name, 0) + produced
            )
            successors.extend(results)
        return zip(window, successors)

    def report(self, successor: Tuple):
        return successor[4]

    def close(self) -> None:
        # terminate, not close: after an interrupt or an error a map
        # call may be abandoned, and close()+join() would block on it.
        # On a normal exit the workers are idle and it is the same.
        self._pool.terminate()
        self._pool.join()
        if self._shm is not None:
            # The pool is gone, so no process maps the segment but this
            # one; release our view, then free the segment.
            self.visited.release()
            self._shm.close()
            self._shm.unlink()


def _executor(options: "ParallelExplorer", visited, stats: EngineStats):
    if options.workers > 1:
        try:
            context = multiprocessing.get_context("fork")
        except ValueError:
            warnings.warn(
                "the 'fork' start method is unavailable on this platform; "
                "running the search in-process (results are identical, "
                "the speedup is lost)",
                stacklevel=2,
            )
        else:
            return _PoolExecutor(
                context, options.explorer, options.workers,
                options.batch_size, visited, stats,
            )
    return _InlineExecutor(options.explorer, visited)


class ParallelExplorer:
    """The engine options for running an :class:`Explorer` through
    :func:`search`.

    Parameters
    ----------
    explorer:
        A configured explorer, either strategy.  Its ``expand``/``check``
        step API defines the semantics; the engine only schedules it.
    workers:
        Pool size; ``None`` or ``0`` means ``os.cpu_count()``.
        ``workers=1`` runs in-process (no pool) with every other engine
        feature -- checkpointing, time slicing, progress counters.
    checkpoint:
        Path for the resumable snapshot.  When the file already exists
        and matches the explorer's configuration fingerprint, the run
        resumes from it; on successful completion the file is removed.
    checkpoint_interval:
        Minimum seconds between checkpoint writes (checked at round
        boundaries).  ``0`` checkpoints after every round.
    batch_size:
        Upper bound on frontier entries per worker task.  Batches are
        contiguous slices of a window, so the merged result is
        independent of this value.
    max_seconds / max_levels:
        Stop cleanly (checkpointing first) once the slice has run this
        long / processed this many rounds (BFS levels).  The returned
        result has ``interrupted=True``; re-running with the same
        ``checkpoint=`` path continues the search.
    progress:
        Optional callback receiving a :class:`ProgressSnapshot` after
        each round (see :func:`print_progress`).
    metrics:
        Optional :class:`~repro.obs.metrics.MetricsRegistry`.  After
        every round the engine updates ``mc.levels`` / ``mc.states`` /
        ``mc.transitions`` / ``mc.frontier`` / ``mc.dedup_hit_rate``
        and the per-round throughput histogram
        ``mc.level_states_per_second`` -- the structured version of
        what ``print_progress`` prints.
    """

    def __init__(
        self,
        explorer: Explorer,
        workers: Optional[int] = None,
        checkpoint: Optional[str] = None,
        checkpoint_interval: float = 30.0,
        batch_size: int = 32,
        max_seconds: Optional[float] = None,
        max_levels: Optional[int] = None,
        progress: Optional[Callable[[ProgressSnapshot], None]] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if workers is not None and workers < 0:
            raise ValueError("workers must be >= 0 (0 = one per CPU core)")
        self.explorer = explorer
        self.workers = workers if workers else (os.cpu_count() or 1)
        self.checkpoint = checkpoint
        self.checkpoint_interval = checkpoint_interval
        self.batch_size = batch_size
        self.max_seconds = max_seconds
        self.max_levels = max_levels
        self.progress = progress
        self.metrics = metrics if metrics is not None else NULL_METRICS

    def run(self, resume: bool = True) -> ExplorationResult:
        """Explore to completion, a violation, or a slice limit."""
        return search(self, resume)


def _add_if_new(visited) -> Callable[[Any], bool]:
    """``add(key) -> was it new?`` in one probe: FingerprintSet.add
    reports newness; for a plain set one C-level insert plus a length
    comparison does the same."""
    if not isinstance(visited, set):
        return visited.add

    def add_if_new(key, _add=visited.add, _visited=visited):
        before = len(_visited)
        _add(key)
        return len(_visited) != before

    return add_if_new


@gc_paused()
def search(options: ParallelExplorer, resume: bool = True) -> ExplorationResult:
    """The search loop (see the module docstring).

    With the inline executor and the FIFO frontier this is plain
    sequential breadth-first search; every other combination of
    strategy, workers, checkpointing and tree cap is the same code over
    different parts.

    Automatic cycle collection is paused for the whole call
    (:func:`~repro.core.cachemgr.gc_paused`): states, trees and traces
    are immutable and point only at older values.

    The search owns the tree intern table's bound for its span: on
    entry it makes ``explorer.tree_cap`` the bound (flushing a table
    already over it), and on every way out it restores the previous
    one.  The table holds only live trees, and an expanded entry lets
    go of its parent's tree, so a tree dies once no frontier entry
    descends from it (DESIGN.md §16).
    """
    explorer = options.explorer
    checkpoint = options.checkpoint
    metrics = options.metrics
    start = _time.monotonic()
    stats = EngineStats(workers=options.workers)
    violations: List[Violation] = []
    level = transitions = max_depth = 0
    exhausted = True
    base_elapsed = 0.0

    def elapsed() -> float:
        return base_elapsed + (_time.monotonic() - start)

    def counters(**overrides) -> dict:
        values = dict(
            transitions=transitions,
            max_depth=max_depth,
            exhausted=exhausted,
            violations=list(violations),
            elapsed_seconds=elapsed(),
        )
        values.update(overrides)
        return values

    def result(**overrides) -> ExplorationResult:
        stats.produced = transitions - base_transitions
        return ExplorationResult(
            states_visited=len(visited),
            budget=explorer.budget,
            stats=stats,
            **counters(**overrides),
        )

    def save() -> None:
        write_checkpoint(
            checkpoint, frontier, visited,
            fingerprint=explorer.config_fingerprint(), level=level,
            **counters(),
        )
        stats.checkpoints_written += 1

    frontier = explorer.new_frontier()
    visited = executor = None
    previous_cap = set_tree_cap(explorer.tree_cap)
    try:
        loaded = None
        if checkpoint and resume:
            loaded = load_checkpoint(checkpoint, explorer.config_fingerprint())
        if loaded is None:
            init = explorer.initial()
            visited = explorer.new_visited_set()
            visited.add(explorer.state_key(init))
            frontier.put((init, explorer.budget, ()))
            report = explorer.check(init)
            if not report.ok:
                violations.append(Violation(init, (), report))
        else:
            frontier.restore(loaded.frontier)
            visited = loaded.restore_visited()
            level = loaded.level
            transitions = loaded.transitions
            max_depth = loaded.max_depth
            exhausted = loaded.exhausted
            violations = list(loaded.violations)
            base_elapsed = loaded.elapsed_seconds
        base_transitions = transitions
        executor = _executor(options, visited, stats)
        visited = executor.visited
        add_if_new = _add_if_new(visited)
        report_for = executor.report
        put = frontier.put
        last_checkpoint = _time.monotonic()
        rounds = 0

        while frontier:
            round_started = _time.monotonic()
            round_entries = remaining = len(frontier)
            while remaining:
                window = frontier.take(min(remaining, executor.window))
                remaining -= len(window)
                for entry, successors in executor.expand(window):
                    trace = entry[2]
                    if len(trace) > max_depth:
                        max_depth = len(trace)
                    for successor in successors:
                        transitions += 1
                        if successor is None:
                            stats.dedup_hits += 1
                            continue
                        key = successor[3]
                        if len(visited) >= explorer.max_states:
                            if key in visited:
                                stats.dedup_hits += 1
                            else:
                                exhausted = False
                            continue
                        if not add_if_new(key):
                            stats.dedup_hits += 1
                            continue
                        next_trace = trace + (successor[0],)
                        report = report_for(successor)
                        if report is not None:
                            violations.append(
                                Violation(successor[1], next_trace, report)
                            )
                            if explorer.stop_at_first_violation:
                                if checkpoint:
                                    discard_checkpoint(checkpoint)
                                return result(
                                    max_depth=len(next_trace), exhausted=False
                                )
                            continue
                        put((successor[1], successor[2], next_trace))
                    # Its successors have extended their tables from its
                    # memo; it derives nothing more, so its parent may die.
                    entry[0].tree.release_predecessor()
            level += 1
            rounds += 1
            stats.levels = rounds
            stats.produced = transitions - base_transitions
            if metrics.enabled:
                metrics.counter("mc.levels").inc()
                metrics.gauge("mc.frontier").set(len(frontier))
                metrics.gauge("mc.states").set(len(visited))
                metrics.gauge("mc.transitions").set(transitions)
                metrics.gauge("mc.dedup_hit_rate").set(stats.dedup_hit_rate)
                round_seconds = _time.monotonic() - round_started
                if round_seconds > 0:
                    metrics.histogram("mc.level_states_per_second").observe(
                        round_entries / round_seconds
                    )
            if options.progress is not None:
                now_elapsed = elapsed()
                options.progress(ProgressSnapshot(
                    level=level,
                    frontier=round_entries,
                    next_frontier=len(frontier),
                    states_visited=len(visited),
                    transitions=transitions,
                    dedup_hits=stats.dedup_hits,
                    elapsed_seconds=now_elapsed,
                    states_per_second=(
                        len(visited) / now_elapsed if now_elapsed > 0 else 0.0
                    ),
                    per_worker=tuple(sorted(stats.per_worker.items())),
                ))
            if not frontier:
                break
            now = _time.monotonic()
            if (
                options.max_seconds is not None
                and now - start >= options.max_seconds
            ) or (
                options.max_levels is not None
                and rounds >= options.max_levels
            ):
                if checkpoint:
                    save()
                return result(interrupted=True, exhausted=False)
            if checkpoint and (
                options.checkpoint_interval <= 0
                or now - last_checkpoint >= options.checkpoint_interval
            ):
                save()
                last_checkpoint = _time.monotonic()

        if checkpoint:
            discard_checkpoint(checkpoint)
        return result(exhausted=exhausted and frontier.exhaustive)
    finally:
        set_tree_cap(previous_cap)
        if executor is not None:
            executor.close()


def explore(
    explorer: Explorer,
    workers: int = 1,
    checkpoint: Optional[str] = None,
    **engine_options: Any,
) -> ExplorationResult:
    """Run ``explorer`` through :func:`search` with these engine options
    (see :class:`ParallelExplorer`); with none it is ``explorer.run()``.

    This is the single entry point
    :func:`~repro.mc.ablations.verify_intact`, the ablations, the
    differential harness, the examples and the benchmarks all share.
    """
    return ParallelExplorer(
        explorer, workers=workers, checkpoint=checkpoint, **engine_options
    ).run()


def merge_results(
    results: Iterable[ExplorationResult],
    budget: Optional[OpBudget] = None,
) -> ExplorationResult:
    """Combine :class:`ExplorationResult`s from disjoint partitions.

    Counters add up (callers guarantee the partitions share no states),
    coverage degrades pessimistically (``exhausted`` only if every part
    was), and the first violation is chosen deterministically: minimal
    schedule depth, ties broken by the lexicographically least trace --
    the same violation the sequential search would report first,
    independent of partition order.
    """
    results = list(results)
    if not results:
        raise ValueError("merge_results needs at least one result")
    violations = [v for res in results for v in res.violations]
    violations.sort(key=lambda v: (len(v.trace), v.trace))
    return ExplorationResult(
        states_visited=sum(r.states_visited for r in results),
        transitions=sum(r.transitions for r in results),
        max_depth=max(r.max_depth for r in results),
        exhausted=all(r.exhausted for r in results),
        violations=violations,
        elapsed_seconds=max(r.elapsed_seconds for r in results),
        budget=budget or results[0].budget,
        interrupted=any(r.interrupted for r in results),
    )
