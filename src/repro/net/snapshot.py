"""Raft snapshotting for the real-network runtime: two folds, one ``follow``.

The specification keeps the whole log forever -- being a spec, its
messages carry full logs and its handlers index into them freely -- and
everything a replica knows besides ``(log, time)`` is a function of the
log, re-derived by walking it.  Neither survives the ROADMAP's
"millions of requests": memory grows without bound, a rejoining node
replays every entry it missed, and every request pays for the walk.
This module is the production answer, layered so the *spec semantics
stay intact* while the *representation* becomes compact and what the
log means is folded once:

* :class:`Snapshot` -- the committed prefix of a log, folded down to
  what the rest of the system can still ask about it: the materialized
  key-value state, the latest configuration (plus the positions of
  every folded config entry, for courtesy replication to removed
  peers), the ``(client_id, seq)`` dedup sessions, and the final
  folded :class:`~repro.raft.messages.LogEntry` verbatim (so Raft's
  up-to-dateness comparison still sees the true last coordinates).

* :class:`CompactLog` -- a log value whose first ``base_len`` entries
  are elided behind a :class:`Snapshot`.  It answers exactly the
  queries the unmodified spec handlers perform on logs -- absolute
  ``len``, last-entry access, suffix slicing and indexing at or beyond
  the snapshot point, append -- and **raises loudly**
  (:class:`SnapshotElided`) on any access to the folded prefix, so a
  code path that silently needed the full history fails a test instead
  of corrupting state.

* :class:`CompactServer` -- the spec replica a node hosts.  Every
  message handler, the commit rule and the election logic are the
  inherited spec code; what it adds is two lazily-followed
  :class:`~repro.runtime.cluster.LogFold`\\ s, the same classes the
  simulator uses, through the same ``follow``:

  - the **whole log** (:meth:`~repro.runtime.cluster.IndexedServer.index`,
    a :class:`~repro.runtime.cluster.RequestIndex`): request id -> first
    position, and every configuration entry with its absolute index,
    hence the hot configuration.  ``config()``, the at-most-once lookup
    and the node's removal-entry search read it.
  - the **committed prefix** (:meth:`CompactServer.applied`, a
    :class:`~repro.runtime.kvstore.KVView`): key-value store, sessions,
    configuration history -- exactly a :class:`Snapshot`'s content.
    Every read a node serves comes from it, and
    :meth:`CompactServer.compact` *freezes* it into the next snapshot
    instead of folding the entries a second time.

  ``follow`` checks that what it folded is a prefix of the log it is
  given and absorbs only the new entries; a log whose snapshot reaches
  past what was folded (InstallSnapshot on a follower) seeds the state
  from the digest, a diverging one refolds, and a snapshot of entries
  already folded (the leader's own compaction) costs nothing.  The
  snapshot itself answers for the elided prefix: its ``sessions`` for
  requests, its ``config_history`` for configurations.

Compaction is leader-driven: once the committed prefix has grown
``snapshot_threshold`` entries past the current base, the leader folds
it (:meth:`CompactServer.compact`).  Followers never compact on their
own -- they adopt the leader's compact representation wholesale through
the spec's own ``CommitReq`` log replacement, which is exactly how
*InstallSnapshot* works here: the wire layer
(:mod:`repro.net.wire`) ships the snapshot once per connection as
chunked frames, and every subsequent delta frame references it by id.
A late-joining follower therefore catches up by receiving the folded
state plus the live tail instead of replaying the full history.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Dict, Optional, Tuple

from ..raft.messages import Log, LogEntry
from ..runtime.cluster import IndexedServer
from ..runtime.kvstore import KVView


class SnapshotElided(RuntimeError):
    """An access reached into a log prefix that has been folded into a
    snapshot.  This is a programming error, not a protocol condition:
    every spec query the runtime performs is answerable from the
    snapshot digest, so raising (rather than silently answering from
    the tail only) is what keeps compaction honest."""


@dataclass(frozen=True)
class Snapshot:
    """The folded committed prefix of a log.

    ``last_entry`` is the final folded entry kept verbatim: Raft's
    up-to-dateness key needs its ``(time, vrsn)``, and times are
    nondecreasing along a log, so it also answers "does the prefix
    contain an entry of term t" for every t >= its own time -- the only
    terms the R3 check ever asks about.
    """

    #: Number of log entries folded in (an absolute prefix length > 0).
    base_len: int
    #: The final folded entry, verbatim.
    last_entry: LogEntry
    #: The newest configuration in the folded prefix (conf0 if none).
    config: frozenset
    #: Materialized key-value state of the folded prefix.
    store: Dict[str, Any] = field(default_factory=dict)
    #: At-most-once dedup: client_id -> highest folded seq.
    sessions: Dict[str, int] = field(default_factory=dict)
    #: Every folded config entry as (absolute index, members) -- kept
    #: so courtesy replication can still locate a removed peer's
    #: removal entry after it has been compacted away.
    config_history: Tuple[Tuple[int, frozenset], ...] = ()

    @cached_property
    def sid(self) -> str:
        """Stable identity: a snapshot is determined by its log
        position (log matching), so ``(base_len, last time, last
        vrsn)`` identifies the content across the cluster.  Built once:
        every delta encode and every ``==`` / ``hash`` reads it."""
        return f"{self.base_len}.{self.last_entry.time}.{self.last_entry.vrsn}"

    def __eq__(self, other) -> bool:
        if not isinstance(other, Snapshot):
            return NotImplemented
        return self.sid == other.sid

    def __hash__(self) -> int:
        return hash(self.sid)


class CompactLog:
    """A log whose committed prefix is elided behind a snapshot.

    Duck-types the subset of tuple behaviour the spec handlers use on
    logs, with **absolute** indexing: ``len`` counts elided entries,
    ``log[i]`` works for any ``i`` at or beyond the snapshot point (and
    for ``-1``, the up-to-dateness probe), suffix slices return plain
    tuples, and prefix slices down to the snapshot point return another
    :class:`CompactLog`.  Anything that would need a folded entry
    raises :class:`SnapshotElided`.
    """

    __slots__ = ("snap", "tail")

    def __init__(self, snap: Snapshot, tail: Log = ()) -> None:
        self.snap = snap
        self.tail = tuple(tail)

    # -- size / truthiness -------------------------------------------------

    def __len__(self) -> int:
        return self.snap.base_len + len(self.tail)

    def __bool__(self) -> bool:
        return True  # base_len > 0 by construction

    # -- element access ----------------------------------------------------

    def __getitem__(self, index):
        base = self.snap.base_len
        if isinstance(index, slice):
            if index.step not in (None, 1):
                raise SnapshotElided("CompactLog slices must be contiguous")
            start = 0 if index.start is None else index.start
            stop = len(self) if index.stop is None else min(index.stop, len(self))
            if stop <= start:
                return ()
            if start >= base:
                return self.tail[start - base : stop - base]
            if start == 0:
                if stop >= base:
                    return CompactLog(self.snap, self.tail[: stop - base])
                raise SnapshotElided(
                    f"log[:{stop}] reaches into the {base}-entry snapshot"
                )
            raise SnapshotElided(
                f"log[{start}:{stop}] starts inside the {base}-entry snapshot"
            )
        if index < 0:
            index += len(self)
        if index >= base:
            return self.tail[index - base]
        if index == base - 1:
            return self.snap.last_entry
        raise SnapshotElided(
            f"log[{index}] was folded into the {base}-entry snapshot"
        )

    def __iter__(self):
        raise SnapshotElided(
            "cannot iterate a CompactLog from the start; iterate .tail "
            "or answer the query from the snapshot digest"
        )

    # -- append (the spec's only log mutation shape) -----------------------

    def __add__(self, other):
        if isinstance(other, tuple):
            return CompactLog(self.snap, self.tail + other)
        return NotImplemented

    # -- value semantics ---------------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, CompactLog):
            return self.snap == other.snap and self.tail == other.tail
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.snap.sid, self.tail))

    def __repr__(self) -> str:
        return (
            f"CompactLog(<{self.snap.base_len} folded, sid={self.snap.sid}>"
            f" + {len(self.tail)} tail)"
        )


def base_len(log) -> int:
    """The number of elided entries of any log representation."""
    return log.snap.base_len if isinstance(log, CompactLog) else 0


def slice_prefix(log, target: int):
    """``log[:target]`` for replication purposes: when ``target`` falls
    inside the elided prefix, the snapshot itself (which covers
    ``target`` and more) is the shortest shippable prefix."""
    if isinstance(log, CompactLog) and target < log.snap.base_len:
        return CompactLog(log.snap, ())
    return log[:target]


@dataclass
class CompactServer(IndexedServer):
    """A spec replica whose log may carry an elided, snapshotted prefix.

    Only derived-state *queries* are overridden; every handler,
    election step, and the commit rule run the inherited spec code
    against the compact representation (absolute lengths and suffix
    access keep them correct by construction).
    """

    _applied: KVView = field(
        default_factory=KVView, init=False, repr=False, compare=False
    )

    def applied(self) -> KVView:
        """The fold of the committed prefix, brought up to the current
        commit point.  Entries below it never change (Raft's state
        machine safety), so each is applied exactly once; adopting a
        snapshot jumps the state to the snapshot's."""
        self._applied.follow(self.committed_log())
        return self._applied

    def find_request(self, request_id) -> Optional[int]:
        """Snapshot-aware at-most-once lookup.

        Returns the absolute 1-based prefix length that must commit for
        ``request_id``'s entry to be durable -- or, when the request was
        folded into the snapshot (necessarily committed), the snapshot's
        own base length, which the commit length always covers, so the
        caller answers immediately.
        """
        log = self.log
        if request_id is not None and isinstance(log, CompactLog):
            client_id, seq = request_id
            if log.snap.sessions.get(client_id, -1) >= seq:
                return log.snap.base_len
        return super().find_request(request_id)

    def describe(self) -> str:
        log = self.log
        if isinstance(log, CompactLog):
            entries = ", ".join(e.describe() for e in log.tail)
            return (
                f"S{self.nid}[{self.role} t{self.time} "
                f"commit={self.commit_len}] "
                f"log=[<snap:{log.snap.sid}>, {entries}]"
            )
        return super().describe()

    # -- compaction --------------------------------------------------------

    def snapshot_base(self) -> int:
        return base_len(self.log)

    def compact(self) -> bool:
        """Freeze the committed prefix into a (new) snapshot.

        Leader-only by convention (the node gates on role); always
        safe: only committed entries fold, and every query the runtime
        performs on the prefix is preserved in the digest.  Returns
        whether anything was folded.
        """
        log = self.log
        upto = self.commit_len
        if upto <= base_len(log):
            return False
        state = self.applied()
        snap = Snapshot(
            base_len=upto,
            last_entry=log[upto - 1],
            config=state.config(self.conf0),
            store=dict(state.store),
            sessions=dict(state.sessions),
            config_history=tuple(state.configs),
        )
        self.log = CompactLog(snap, log[upto:])
        return True
