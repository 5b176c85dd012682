"""A deterministic hash ring with a versioned routing table.

Keys hash to a 64-bit space via BLAKE2b
(:func:`repro.net.wire.hash_key`, re-exported here -- nodes check
ownership with the very same function).  The space is
partitioned into half-open ranges ``[lo, hi)``, each owned by exactly
one group; a :class:`RoutingTable` is an immutable snapshot of that
partition stamped with a **version**.

Versions are what make stale routing safe rather than merely unlikely:
every reassignment produces a *new* table with ``version + 1``, the
old owner learns it lost the range *before* the new table is
published, and nodes refuse keyed commands they do not own (wire error
``"wrong-shard"``).  A client holding any stale table therefore either
routes correctly or gets refused -- it can never read or write a key
at a group that no longer owns it.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple

from ..net.wire import hash_key  # re-exported: the ring's public name

#: The key hash space is [0, HASH_SPACE), 64 bits.
HASH_SPACE = 1 << 64


@dataclass(frozen=True)
class KeyRange:
    """A half-open slice ``[lo, hi)`` of the hash space."""

    lo: int
    hi: int

    def __post_init__(self) -> None:
        if not 0 <= self.lo < self.hi <= HASH_SPACE:
            raise ValueError(f"bad range [{self.lo}, {self.hi})")

    def contains(self, position: int) -> bool:
        return self.lo <= position < self.hi

    @property
    def width(self) -> int:
        return self.hi - self.lo

    def halves(self) -> Tuple["KeyRange", "KeyRange"]:
        """Split at the midpoint (the canonical split geometry)."""
        if self.width < 2:
            raise ValueError(f"range [{self.lo}, {self.hi}) cannot split")
        mid = self.lo + self.width // 2
        return KeyRange(self.lo, mid), KeyRange(mid, self.hi)

    def covers(self, other: "KeyRange") -> bool:
        return self.lo <= other.lo and other.hi <= self.hi

    def overlaps(self, other: "KeyRange") -> bool:
        return self.lo < other.hi and other.lo < self.hi

    def describe(self) -> str:
        return f"[{self.lo:#x}, {self.hi:#x})"


def _coalesce(
    entries: Iterable[Tuple[KeyRange, int]]
) -> Tuple[Tuple[KeyRange, int], ...]:
    """Merge adjacent ranges with the same owner (canonical form, so
    two tables describing the same ownership compare equal)."""
    out: List[Tuple[KeyRange, int]] = []
    for rng, gid in sorted(entries, key=lambda e: e[0].lo):
        if out and out[-1][1] == gid and out[-1][0].hi == rng.lo:
            out[-1] = (KeyRange(out[-1][0].lo, rng.hi), gid)
        else:
            out.append((rng, gid))
    return tuple(out)


@dataclass(frozen=True)
class RoutingTable:
    """An immutable, versioned partition of the hash space into
    group-owned ranges.  All mutation is functional: :meth:`move`
    returns a new table with ``version + 1``."""

    version: int
    entries: Tuple[Tuple[KeyRange, int], ...]

    def __post_init__(self) -> None:
        if self.version < 1:
            raise ValueError(f"table version {self.version} must be >= 1")
        if not self.entries:
            raise ValueError("a routing table needs at least one range")
        object.__setattr__(self, "entries", _coalesce(self.entries))
        cursor = 0
        for rng, _ in self.entries:
            if rng.lo != cursor:
                raise ValueError(
                    f"ranges must partition the space: gap/overlap at "
                    f"{cursor:#x} (next range starts at {rng.lo:#x})"
                )
            cursor = rng.hi
        if cursor != HASH_SPACE:
            raise ValueError(
                f"ranges must cover the space: they end at {cursor:#x}"
            )
        object.__setattr__(
            self, "_starts", tuple(rng.lo for rng, _ in self.entries)
        )

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def initial(cls, group_ids: Sequence[int]) -> "RoutingTable":
        """Version 1: the space cut into equal contiguous slices, one
        per group, in group-id order (deterministic for any input
        order)."""
        gids = sorted(set(group_ids))
        if not gids:
            raise ValueError("need at least one group")
        n = len(gids)
        bounds = [HASH_SPACE * i // n for i in range(n)] + [HASH_SPACE]
        return cls(
            version=1,
            entries=tuple(
                (KeyRange(bounds[i], bounds[i + 1]), gid)
                for i, gid in enumerate(gids)
            ),
        )

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------

    def owner_of_hash(self, position: int) -> int:
        if not 0 <= position < HASH_SPACE:
            raise ValueError(f"position {position} outside the hash space")
        index = bisect_right(self._starts, position) - 1
        return self.entries[index][1]

    def owner(self, key: str) -> int:
        """The group id owning ``key``."""
        return self.owner_of_hash(hash_key(key))

    def ranges_of(self, gid: int) -> Tuple[KeyRange, ...]:
        return tuple(rng for rng, owner in self.entries if owner == gid)

    def groups(self) -> Tuple[int, ...]:
        return tuple(sorted({gid for _, gid in self.entries}))

    def widest_range_of(self, gid: int) -> KeyRange:
        ranges = self.ranges_of(gid)
        if not ranges:
            raise ValueError(f"group {gid} owns nothing")
        return max(ranges, key=lambda rng: (rng.width, -rng.lo))

    # ------------------------------------------------------------------
    # Reassignment (functional)
    # ------------------------------------------------------------------

    def move(self, rng: KeyRange, dst: int) -> "RoutingTable":
        """Reassign exactly ``rng`` to group ``dst``; every overlapped
        entry is carved, everything outside ``rng`` keeps its owner.
        Returns a new table with ``version + 1``."""
        out: List[Tuple[KeyRange, int]] = []
        for entry_rng, gid in self.entries:
            if not entry_rng.overlaps(rng):
                out.append((entry_rng, gid))
                continue
            if entry_rng.lo < rng.lo:
                out.append((KeyRange(entry_rng.lo, rng.lo), gid))
            if rng.hi < entry_rng.hi:
                out.append((KeyRange(max(rng.lo, entry_rng.lo), rng.hi), dst))
                out.append((KeyRange(rng.hi, entry_rng.hi), gid))
            else:
                out.append(
                    (KeyRange(max(rng.lo, entry_rng.lo), entry_rng.hi), dst)
                )
        return RoutingTable(version=self.version + 1, entries=tuple(out))

    def split_candidate(self, gid: int) -> KeyRange:
        """The range a split of ``gid`` would hand off: the upper half
        of its widest range (deterministic, so a split/merge round trip
        is reproducible per seed)."""
        return self.widest_range_of(gid).halves()[1]

    # ------------------------------------------------------------------
    # Serialization (debug / CLI / a future networked authority)
    # ------------------------------------------------------------------

    def to_dict(self) -> Dict:
        return {
            "version": self.version,
            "entries": [[rng.lo, rng.hi, gid] for rng, gid in self.entries],
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "RoutingTable":
        return cls(
            version=data["version"],
            entries=tuple(
                (KeyRange(lo, hi), gid) for lo, hi, gid in data["entries"]
            ),
        )

    def describe(self) -> str:
        parts = ", ".join(
            f"{rng.describe()}->g{gid}" for rng, gid in self.entries
        )
        return f"v{self.version}: {parts}"
