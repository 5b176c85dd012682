"""Compact visited set for 128-bit state fingerprints.

The explorer's visited set used to be a Python ``set`` of full state
objects (or of canonicalized serialization tuples under symmetry).  For
a run that touches a few hundred thousand states that is hundreds of
bytes per entry plus pointer overhead, and it is the dominant term in
checkpoint size.

:class:`FingerprintSet` stores each state as its 128-bit structural
fingerprint in a flat open-addressing hash table: 16 bytes per slot,
power-of-two capacity, linear probing.  The zero fingerprint is reserved
as the empty-slot sentinel -- :func:`repro.core.fingerprint.fp128` never
returns 0 (it remaps 0 to 1), so every real fingerprint is storable.

The table lives in one of two kinds of backing:

* a private ``bytearray`` (the default), which grows by doubling when
  the load factor exceeds 2/3; or
* a caller-provided writable buffer (e.g. ``SharedMemory.buf``), whose
  capacity is fixed.  Inserting beyond the 2/3 load bound then raises
  ``OverflowError`` instead of growing, because the set cannot relocate
  memory it does not own.  Size such buffers with
  :meth:`FingerprintSet.buffer_bytes`.

The shared-memory form is what lets :mod:`repro.mc.parallel` workers
probe the master's visited set directly: the master writes new
fingerprints only between BFS levels (``pool.map`` is a barrier), so
workers always observe a consistent snapshot of the previous levels.
"""

from __future__ import annotations

from typing import Iterator, Optional

__all__ = ["FingerprintSet"]

_SLOT_BYTES = 16
_WORD_MASK = (1 << 64) - 1

# Grow (or, for fixed buffers, refuse) above this load factor.
_MAX_LOAD_NUM = 2
_MAX_LOAD_DEN = 3

_MIN_CAPACITY = 64


def _next_pow2(n: int) -> int:
    p = 1
    while p < n:
        p <<= 1
    return p


class FingerprintSet:
    """Open-addressing set of non-zero 128-bit integers."""

    __slots__ = ("_buf", "_words", "_capacity", "_mask", "_len", "_fixed")

    def __init__(self, capacity: int = _MIN_CAPACITY) -> None:
        capacity = _next_pow2(max(int(capacity), _MIN_CAPACITY))
        self._init_backing(bytearray(capacity * _SLOT_BYTES), capacity, fixed=False)
        self._len = 0

    def _init_backing(self, buf, capacity: int, *, fixed: bool) -> None:
        self._buf = buf
        self._words = memoryview(buf).cast("Q")
        self._capacity = capacity
        self._mask = capacity - 1
        self._fixed = fixed

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def attach(cls, buf, *, clear: bool = False) -> "FingerprintSet":
        """Wrap a fixed-size writable buffer (e.g. ``SharedMemory.buf``).

        The buffer length must be a power-of-two multiple of 16 bytes.
        With ``clear=True`` the buffer is zeroed (fresh empty set);
        otherwise existing slots are counted, so a second attachment to
        an already-populated region sees its contents.
        """
        nbytes = len(memoryview(buf))
        if nbytes % _SLOT_BYTES:
            raise ValueError(f"buffer length {nbytes} is not a multiple of {_SLOT_BYTES}")
        capacity = nbytes // _SLOT_BYTES
        if capacity < 1 or capacity & (capacity - 1):
            raise ValueError(f"slot count {capacity} is not a power of two")
        self = cls.__new__(cls)
        self._init_backing(buf, capacity, fixed=True)
        if clear:
            memoryview(buf)[:] = bytes(nbytes)
            self._len = 0
        else:
            self._len = self._count_occupied()
        return self

    def _count_occupied(self) -> int:
        words = self._words
        return sum(
            1
            for i in range(self._capacity)
            if words[2 * i] or words[2 * i + 1]
        )

    @classmethod
    def from_packed(cls, data: bytes) -> "FingerprintSet":
        """Rebuild from :meth:`to_bytes` output."""
        if len(data) % _SLOT_BYTES:
            raise ValueError(
                f"packed fingerprint data has length {len(data)}, "
                f"not a multiple of {_SLOT_BYTES}"
            )
        count = len(data) // _SLOT_BYTES
        self = cls(capacity=_next_pow2(
            max(_MIN_CAPACITY, count * _MAX_LOAD_DEN // _MAX_LOAD_NUM + 1)
        ))
        for i in range(count):
            fp = int.from_bytes(data[i * _SLOT_BYTES : (i + 1) * _SLOT_BYTES], "little")
            self.add(fp)
        return self

    @staticmethod
    def buffer_bytes(expected: int) -> int:
        """Bytes of backing needed to hold ``expected`` fingerprints
        without exceeding the load bound (power-of-two slot count)."""
        capacity = _next_pow2(
            max(_MIN_CAPACITY, expected * _MAX_LOAD_DEN // _MAX_LOAD_NUM + 1)
        )
        return capacity * _SLOT_BYTES

    # ------------------------------------------------------------------
    # Core operations
    # ------------------------------------------------------------------

    def __contains__(self, fp: int) -> bool:
        # Probe with a word-unit index (slot i lives at words[2i:2i+2]);
        # stepping by 2 mod 2*capacity is the linear probe without a
        # multiply per iteration.
        lo = fp & _WORD_MASK
        hi = (fp >> 64) & _WORD_MASK
        words = self._words
        wmask = 2 * self._capacity - 1
        j = (fp & self._mask) << 1
        while True:
            w0 = words[j]
            if w0 == lo and words[j + 1] == hi:
                return True
            if not (w0 or words[j + 1]):
                return False
            j = (j + 2) & wmask

    def add(self, fp: int) -> bool:
        """Insert ``fp``; return True if it was new."""
        if not 0 < fp < (1 << 128):
            raise ValueError(f"fingerprint out of range: {fp!r}")
        lo = fp & _WORD_MASK
        hi = (fp >> 64) & _WORD_MASK
        words = self._words
        wmask = 2 * self._capacity - 1
        j = (fp & self._mask) << 1
        while True:
            w0 = words[j]
            w1 = words[j + 1]
            if w0 == lo and w1 == hi:
                return False
            if not (w0 or w1):
                break
            j = (j + 2) & wmask
        if (self._len + 1) * _MAX_LOAD_DEN > self._capacity * _MAX_LOAD_NUM:
            if self._fixed:
                raise OverflowError(
                    f"fixed-capacity fingerprint set is full "
                    f"({self._len} of {self._capacity} slots)"
                )
            self._grow()
            return self.add(fp)
        words[j] = lo
        words[j + 1] = hi
        self._len += 1
        return True

    def _grow(self) -> None:
        old_words = self._words
        old_capacity = self._capacity
        new_capacity = old_capacity * 2
        self._init_backing(
            bytearray(new_capacity * _SLOT_BYTES), new_capacity, fixed=False
        )
        words = self._words
        mask = self._mask
        for j in range(old_capacity):
            lo = old_words[2 * j]
            hi = old_words[2 * j + 1]
            if not (lo or hi):
                continue
            i = ((hi << 64) | lo) & mask
            while words[2 * i] or words[2 * i + 1]:
                i = (i + 1) & mask
            words[2 * i] = lo
            words[2 * i + 1] = hi
        old_words.release()

    def __len__(self) -> int:
        return self._len

    def __iter__(self) -> Iterator[int]:
        words = self._words
        for i in range(self._capacity):
            lo = words[2 * i]
            hi = words[2 * i + 1]
            if lo or hi:
                yield (hi << 64) | lo

    def __bool__(self) -> bool:
        return self._len > 0

    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def fixed(self) -> bool:
        return self._fixed

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------

    def to_bytes(self) -> bytes:
        """Sorted little-endian 16-byte records -- the form a checkpoint
        embeds.  Sorting makes the output canonical (independent of
        insertion order and table capacity)."""
        return b"".join(
            fp.to_bytes(_SLOT_BYTES, "little") for fp in sorted(self)
        )

    def release(self) -> None:
        """Release the memoryview over the backing buffer.  Required
        before closing a ``SharedMemory`` segment this set is attached
        to; the set is unusable afterwards."""
        words: Optional[memoryview] = getattr(self, "_words", None)
        if words is not None:
            words.release()
            self._words = None  # type: ignore[assignment]
