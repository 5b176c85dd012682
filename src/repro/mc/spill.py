"""The model checker's frontiers, in RAM or spilled to disk.

The search loop (:func:`repro.mc.parallel.search`) is written against
one small interface and never asks which frontier it got:

``put(entry)``
    queue one ``(state, remaining_budget, trace)`` entry;
``take(limit)``
    remove and return the next (at most ``limit``) entries, in the
    order the search must expand them -- fewer when the frontier only
    hands out one window at a time;
``ram_states()``
    the states of the entries currently held in RAM (what a cache
    flush has to keep; a spilled tail is deliberately left out --
    walking it would unpickle, and re-intern, the very trees a flush
    is shedding);
``__iter__`` / ``restore(records)`` / ``snapshot_to(path)``
    every pending record in a form ``restore`` takes back, for
    checkpoints (embedded, or as a packed sidecar file);
``len()``, truthiness, ``spill_path``, ``exhaustive``, ``close()``.

Two orders implement it, each with or without a spill file:

* :class:`FifoFrontier` -- breadth-first.  ``len()`` entries taken
  from it are exactly one BFS level.
* :class:`BestFirstFrontier` -- guided search: lowest ``priority(entry)``
  first, ties in insertion order, at most :data:`GUIDED_WINDOW` entries
  per ``take``.

A deep BFS level (or a wide guided-search heap) can dwarf the visited
set: every entry pins a full ``(state, budget, trace)`` triple.  Given a
spill ``path``, a frontier keeps only a bounded *working window* of
entries in RAM and streams the overflow to an append-only file of
packed records, so its size is bounded by disk, not RAM -- without
changing the order entries come back in.

Record format: ``<u32 little-endian length><pickle bytes>``, one record
per entry, appended in order.  The same format serves the checkpoint-v3
frontier snapshot (``snapshot_to``), which is referenced from the
checkpoint by content digest instead of being re-pickled into it.

Entries round-trip through pickle: trees re-intern on load (see
``CacheTree.__reduce__``), so a reloaded entry usually rebinds to the
already-interned tree -- memo scratch included -- and only pays the
re-intern when cache eviction has dropped it.
"""

from __future__ import annotations

import hashlib
import heapq
import os
import pickle
import struct
import sys
from collections import deque
from typing import Any, Callable, Iterable, Iterator, List, Optional, Tuple

__all__ = [
    "GUIDED_WINDOW",
    "BestFirstFrontier",
    "FifoFrontier",
    "file_sha256",
    "iter_packed_records",
    "write_packed_records",
]

#: One frontier entry: ``(state, remaining_budget, trace)``.
Entry = Tuple[Any, Any, Tuple]

#: How many best entries one ``take`` of a :class:`BestFirstFrontier`
#: hands out at most.  A pooled guided search expands that many entries
#: between two merges, so its result depends on this number -- which is
#: why it is a constant and not derived from the worker count.
GUIDED_WINDOW = 64

_LEN = struct.Struct("<I")


def write_packed_records(path: str, records: Iterator[Any]) -> str:
    """Write ``records`` to ``path`` in spill format; return its sha256.

    Written to a temp sibling and atomically renamed, like checkpoints.
    """
    tmp = path + ".tmp"
    digest = hashlib.sha256()
    with open(tmp, "wb") as handle:
        for record in records:
            data = pickle.dumps(record, protocol=pickle.HIGHEST_PROTOCOL)
            chunk = _LEN.pack(len(data)) + data
            handle.write(chunk)
            digest.update(chunk)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)
    return digest.hexdigest()


def file_sha256(path: str) -> str:
    """The sha256 of ``path``'s contents (streamed)."""
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def iter_packed_records(path: str) -> Iterator[Any]:
    """Yield the records of a spill-format file in order."""
    with open(path, "rb") as handle:
        while True:
            header = handle.read(_LEN.size)
            if not header:
                return
            if len(header) != _LEN.size:
                raise ValueError(f"truncated record header in {path}")
            (length,) = _LEN.unpack(header)
            data = handle.read(length)
            if len(data) != length:
                raise ValueError(f"truncated record body in {path}")
            yield pickle.loads(data)


class _SpillFile:
    """An append-only packed-record file with an independent read cursor.

    One buffered handle; reads and appends each seek to their own
    position.  When every appended record has been read the file is
    truncated and both cursors reset, so a frontier that repeatedly
    drains reuses the same disk space.
    """

    def __init__(self, path: str) -> None:
        self._path = path
        self._handle = open(path, "w+b")
        self._read_pos = 0
        self._write_pos = 0

    @property
    def path(self) -> str:
        return self._path

    def append(self, record: Any) -> None:
        data = pickle.dumps(record, protocol=pickle.HIGHEST_PROTOCOL)
        handle = self._handle
        handle.seek(self._write_pos)
        handle.write(_LEN.pack(len(data)))
        handle.write(data)
        self._write_pos = handle.tell()

    def read(self) -> Any:
        handle = self._handle
        handle.seek(self._read_pos)
        (length,) = _LEN.unpack(handle.read(_LEN.size))
        record = pickle.loads(handle.read(length))
        self._read_pos = handle.tell()
        return record

    def iter_unread(self) -> Iterator[Any]:
        """Yield every unread record without advancing the read cursor."""
        handle = self._handle
        pos = self._read_pos
        while pos < self._write_pos:
            handle.seek(pos)
            (length,) = _LEN.unpack(handle.read(_LEN.size))
            yield pickle.loads(handle.read(length))
            pos = handle.tell()

    def reset(self) -> None:
        self._handle.seek(0)
        self._handle.truncate()
        self._read_pos = 0
        self._write_pos = 0

    def close(self) -> None:
        """Close and delete the file: it is scratch, never a snapshot."""
        self._handle.close()
        try:
            os.unlink(self._path)
        except OSError:
            pass


class _Frontier:
    """What both frontier orders share: the optional spill file (a RAM
    window that is unbounded without one) and the checkpoint snapshot."""

    def __init__(self, path: Optional[str], window: int, smallest: int) -> None:
        self._file = _SpillFile(path) if path is not None else None
        self._window = (
            max(int(window), smallest) if path is not None else sys.maxsize
        )

    @property
    def spill_path(self) -> Optional[str]:
        """The working spill file (``None`` for a RAM-only frontier)."""
        return self._file.path if self._file is not None else None

    def snapshot_to(self, path: str) -> str:
        """Write all pending records to ``path``; return the sha256."""
        return write_packed_records(path, iter(self))

    def close(self) -> None:
        """Delete the working spill file."""
        if self._file is not None:
            self._file.close()


class FifoFrontier(_Frontier):
    """A FIFO of frontier entries (breadth-first order).

    With a spill ``path`` only ``window`` entries stay in RAM.  Order
    invariant: every RAM entry precedes every disk entry, so ``take``
    order is exactly queue order.
    """

    #: Draining this frontier under no cap visits the whole schedule class.
    exhaustive = True

    def __init__(self, path: Optional[str] = None, window: int = 0) -> None:
        super().__init__(path, window, smallest=1)
        self._head: deque = deque()
        self._disk_len = 0

    def put(self, entry: Entry) -> None:
        # Once anything has spilled, later entries must follow it to
        # disk regardless of RAM headroom, or FIFO order would break.
        if self._disk_len or len(self._head) >= self._window:
            self._file.append(entry)
            self._disk_len += 1
        else:
            self._head.append(entry)

    def take(self, limit: int) -> List[Entry]:
        """Up to ``limit`` entries off the front, in order -- at most
        one RAM window of them."""
        head = self._head
        out: List[Entry] = []
        for _ in range(min(limit, len(self), self._window)):
            if not head:
                self._refill()
            out.append(head.popleft())
        return out

    def _refill(self) -> None:
        take = min(self._disk_len, self._window)
        head = self._head
        for _ in range(take):
            head.append(self._file.read())
        self._disk_len -= take
        if not self._disk_len:
            self._file.reset()

    def ram_states(self) -> Iterator[Any]:
        return (entry[0] for entry in self._head)

    def __len__(self) -> int:
        return len(self._head) + self._disk_len

    def __bool__(self) -> bool:
        return bool(self._head) or bool(self._disk_len)

    def __iter__(self) -> Iterator[Entry]:
        """All pending entries in order, non-destructively."""
        yield from self._head
        if self._disk_len:
            yield from self._file.iter_unread()

    def restore(self, records: Iterable[Entry]) -> None:
        for record in records:
            self.put(record)


class BestFirstFrontier(_Frontier):
    """A min-heap of frontier entries (guided search order).

    Entries come back lowest ``priority(entry)`` first, ties in
    insertion order.  With a spill ``path`` only ``window`` records stay
    in RAM: when a ``put`` overflows the window, the *largest* half of
    the heap is shed to the spill file and the minimum shed record is
    remembered; a pop reloads the spilled records only when the disk
    could hold the global minimum.  Pop order is therefore exactly
    ``heapq`` order either way.
    """

    #: A best-first run is a hunt: draining the heap is not reported
    #: as exhaustive coverage.
    exhaustive = False

    def __init__(
        self,
        priority: Callable[[Entry], Any],
        path: Optional[str] = None,
        window: int = 0,
    ) -> None:
        super().__init__(path, window, smallest=2)
        self._priority = priority
        #: ``(priority, sequence number, state, budget, trace)``; the
        #: unique sequence number keeps records totally ordered without
        #: ever comparing states.
        self._heap: List[Tuple] = []
        self._seq = 0
        self._spilled = 0
        self._spill_min: Optional[Tuple] = None

    def put(self, entry: Entry) -> None:
        self._seq += 1
        self._push((self._priority(entry), self._seq, *entry))

    def _push(self, record: Tuple) -> None:
        heapq.heappush(self._heap, record)
        if len(self._heap) > self._window:
            self._shed()

    def _shed(self) -> None:
        keep = max(self._window // 2, 1)
        heap = self._heap
        # Popping in order leaves `best` ascending -- itself a valid heap.
        best = [heapq.heappop(heap) for _ in range(keep)]
        spill_min = self._spill_min
        for record in heap:
            self._file.append(record)
            if spill_min is None or record < spill_min:
                spill_min = record
        self._spilled += len(heap)
        self._spill_min = spill_min
        self._heap = best

    def _reload(self) -> None:
        records = [self._file.read() for _ in range(self._spilled)]
        self._spilled = 0
        self._spill_min = None
        self._file.reset()
        heap = self._heap
        heap.extend(records)
        heapq.heapify(heap)

    def _pop(self) -> Tuple:
        if self._spilled and (
            not self._heap or self._spill_min < self._heap[0]
        ):
            self._reload()
        return heapq.heappop(self._heap)

    def take(self, limit: int) -> List[Entry]:
        """The (at most ``limit``, at most :data:`GUIDED_WINDOW`) best
        entries, best first."""
        return [
            self._pop()[2:]
            for _ in range(min(limit, len(self), GUIDED_WINDOW))
        ]

    def ram_states(self) -> Iterator[Any]:
        return (record[2] for record in self._heap)

    def __len__(self) -> int:
        return len(self._heap) + self._spilled

    def __bool__(self) -> bool:
        return bool(self._heap) or bool(self._spilled)

    def __iter__(self) -> Iterator[Tuple]:
        """All pending records (unordered), non-destructively."""
        yield from self._heap
        if self._spilled:
            yield from self._file.iter_unread()

    def restore(self, records: Iterable[Tuple]) -> None:
        """Take back the records of an earlier frontier (priorities are
        kept, not recomputed) and continue its sequence numbers."""
        for record in records:
            self._seq = max(self._seq, record[1])
            self._push(record)
