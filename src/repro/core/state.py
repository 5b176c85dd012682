"""The Adore abstract state ``Σ_Adore = CacheTree × TimeMap`` (Fig. 6/24).

``TimeMap ≜ N_nid → N_time`` records the largest logical timestamp each
replica has observed.  The state is immutable; every operation returns a
new state.  Hashability is what lets the explicit-state model checker
de-duplicate visited states.

The initial state (:func:`initial_state`) follows the paper's convention
that "the root cache is initialized with some conf₀".  We realize the
root as a CCache at time 0 supported by every member of conf₀.  Making
the root a commit cache gives the right base behaviour for every
auxiliary definition: ``mostRecent`` and ``lastCommit`` fall back to the
root, and R3 correctly blocks reconfiguration until the first commit of
the current term.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Mapping, Tuple

from .cache import CCache, Config, NodeId, Time
from .config import ReconfigScheme
from .fingerprint import FP_MASK, combine, fp128
from .tree import ROOT_CID, CacheTree


@dataclass(frozen=True)
class AdoreState:
    """The pair ``(tree, times)`` of Fig. 6, as an immutable value."""

    tree: CacheTree
    times: "TimeMap"

    def fingerprint(self) -> int:
        """The 128-bit structural fingerprint of this state.

        Combines the tree and time-map fingerprints (both maintained
        incrementally / per-component); equal states fingerprint equally
        by construction of :func:`repro.core.fingerprint.canonical_encode`.
        """
        fp = self.__dict__.get("_fp")
        if fp is None:
            fp = combine(self.tree.fingerprint(), self.times.fingerprint())
            object.__setattr__(self, "_fp", fp)
        return fp

    def time_of(self, nid: NodeId) -> Time:
        """``times(st)[nid]``: the largest timestamp ``nid`` has observed."""
        return self.times.get(nid, 0)

    def set_times(self, group: Iterable[NodeId], time: Time) -> "AdoreState":
        """``setTimes(st, Q, t)``: record timestamp ``t`` for every node in ``Q``."""
        return AdoreState(self.tree, self.times.update_many(group, time))

    def with_tree(self, tree: CacheTree) -> "AdoreState":
        """Replace the cache tree, keeping the time map."""
        return AdoreState(tree, self.times)

    def is_leader(self, nid: NodeId, time: Time) -> bool:
        """``isLeader(st, nid, t) ≜ times(st)[nid] = t`` (Fig. 9)."""
        return self.time_of(nid) == time

    def max_time(self) -> Time:
        """The largest timestamp observed by any replica (0 if none)."""
        return self.times.max_time()


class TimeMap:
    """An immutable map from node id to the largest observed timestamp.

    Nodes never seen default to timestamp 0.
    """

    __slots__ = ("_times", "_hash", "_fp")

    def __init__(self, times: Mapping[NodeId, Time] = ()) -> None:
        self._times: Dict[NodeId, Time] = {
            nid: t for nid, t in dict(times).items() if t != 0
        }
        self._hash = None
        self._fp = None

    def fingerprint(self) -> int:
        """Multiset fingerprint of the ``(nid, time)`` pairs.

        Insertion-order independent by construction (terms combine by
        addition mod 2**128); per-pair terms are memoized process-wide
        since the pair domain in any run is tiny.
        """
        fp = self._fp
        if fp is None:
            fp = 0
            terms = _TIME_TERM_FPS
            for pair in self._times.items():
                term = terms.get(pair)
                if term is None:
                    term = terms[pair] = fp128(b"t%d|%d" % pair)
                fp = (fp + term) & FP_MASK
            self._fp = fp
        return fp

    def __reduce__(self):
        return (TimeMap, (self._times,))

    def get(self, nid: NodeId, default: Time = 0) -> Time:
        return self._times.get(nid, default)

    def update_many(self, group: Iterable[NodeId], time: Time) -> "TimeMap":
        updated = dict(self._times)
        if time != 0:
            for nid in group:
                updated[nid] = time
        else:
            for nid in group:
                updated.pop(nid, None)
        # The updated dict is already zero-free, so skip __init__'s
        # defensive refilter.
        fresh = TimeMap.__new__(TimeMap)
        fresh._times = updated
        fresh._hash = None
        fresh._fp = None
        return fresh

    def max_time(self) -> Time:
        return max(self._times.values(), default=0)

    def items(self) -> Iterable[Tuple[NodeId, Time]]:
        return sorted(self._times.items())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TimeMap):
            return NotImplemented
        return self._times == other._times

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(frozenset(self._times.items()))
        return self._hash

    def __repr__(self) -> str:
        inner = ", ".join(f"n{nid}: {t}" for nid, t in self.items())
        return f"TimeMap({{{inner}}})"


#: Process-wide memo of per-``(nid, time)`` fingerprint terms.
_TIME_TERM_FPS: Dict[Tuple[NodeId, Time], int] = {}


def root_cache(conf0: Config, scheme: ReconfigScheme) -> CCache:
    """The root CCache at time 0 supported by every member of ``conf0``."""
    return CCache(caller=0, time=0, vrsn=0, conf=conf0, voters=scheme.members(conf0))


def initial_state(conf0: Config, scheme: ReconfigScheme) -> AdoreState:
    """The initial Adore state: a one-cache tree rooted at ``conf0``."""
    tree = CacheTree.initial(root_cache(conf0, scheme))
    return AdoreState(tree, TimeMap())


def initial_supporters(state: AdoreState) -> FrozenSet[NodeId]:
    """The supporters of the root cache (the members of conf₀)."""
    return state.tree.cache(ROOT_CID).supporters
