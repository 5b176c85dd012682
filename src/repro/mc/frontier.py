"""The model checker's frontiers.

The search loop (:func:`repro.mc.parallel.search`) is written against
one small interface and never asks which frontier it got:

``put(entry)``
    queue one ``(state, remaining_budget, trace)`` entry;
``take(limit)``
    remove and return the next (at most ``limit``) entries, in the
    order the search must expand them;
``__iter__`` / ``restore(records)``
    every pending record in a form ``restore`` takes back, for
    checkpoints;
``len()``, truthiness, ``exhaustive``.

Two orders implement it:

* :class:`FifoFrontier` -- breadth-first.  ``len()`` entries taken
  from it are exactly one BFS level.
* :class:`BestFirstFrontier` -- guided search: lowest ``priority(entry)``
  first, ties in insertion order, at most :data:`GUIDED_WINDOW` entries
  per ``take``.

Both live in RAM: the one memory setting is the tree table's cap
(``Explorer.tree_cap``, DESIGN.md section 16).
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Callable, Iterable, Iterator, List, Tuple

__all__ = ["GUIDED_WINDOW", "BestFirstFrontier", "Entry", "FifoFrontier"]

#: One frontier entry: ``(state, remaining_budget, trace)``.
Entry = Tuple[Any, Any, Tuple]

#: How many best entries one ``take`` of a :class:`BestFirstFrontier`
#: hands out at most.  A pooled guided search expands that many entries
#: between two merges, so its result depends on this number -- which is
#: why it is a constant and not derived from the worker count.
GUIDED_WINDOW = 64


class FifoFrontier:
    """A FIFO of frontier entries (breadth-first order)."""

    #: Draining this frontier under no cap visits the whole schedule class.
    exhaustive = True

    def __init__(self) -> None:
        self._queue: deque = deque()

    def put(self, entry: Entry) -> None:
        self._queue.append(entry)

    def take(self, limit: int) -> List[Entry]:
        """Up to ``limit`` entries off the front, in order."""
        popleft = self._queue.popleft
        return [popleft() for _ in range(min(limit, len(self._queue)))]

    def __len__(self) -> int:
        return len(self._queue)

    def __bool__(self) -> bool:
        return bool(self._queue)

    def __iter__(self) -> Iterator[Entry]:
        """All pending entries in order, non-destructively."""
        return iter(self._queue)

    def restore(self, records: Iterable[Entry]) -> None:
        self._queue.extend(records)


class BestFirstFrontier:
    """A min-heap of frontier entries (guided search order).

    Entries come back lowest ``priority(entry)`` first, ties in
    insertion order.
    """

    #: A best-first run is a hunt: draining the heap is not reported
    #: as exhaustive coverage.
    exhaustive = False

    def __init__(self, priority: Callable[[Entry], Any]) -> None:
        self._priority = priority
        #: ``(priority, sequence number, state, budget, trace)``; the
        #: unique sequence number keeps records totally ordered without
        #: ever comparing states.
        self._heap: List[Tuple] = []
        self._seq = 0

    def put(self, entry: Entry) -> None:
        self._seq += 1
        heapq.heappush(self._heap, (self._priority(entry), self._seq, *entry))

    def take(self, limit: int) -> List[Entry]:
        """The (at most ``limit``, at most :data:`GUIDED_WINDOW`) best
        entries, best first."""
        heap = self._heap
        return [
            heapq.heappop(heap)[2:]
            for _ in range(min(limit, len(heap), GUIDED_WINDOW))
        ]

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)

    def __iter__(self) -> Iterator[Tuple]:
        """All pending records (unordered), non-destructively."""
        return iter(self._heap)

    def restore(self, records: Iterable[Tuple]) -> None:
        """Take back the records of an earlier frontier (priorities are
        kept, not recomputed) and continue its sequence numbers."""
        heap = self._heap
        for record in records:
            self._seq = max(self._seq, record[1])
            heap.append(record)
        heapq.heapify(heap)
