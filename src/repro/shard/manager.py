"""Spawn and reconfigure a sharded deployment of ``repro.net`` groups.

:class:`ShardedCluster` owns N independent
:class:`~repro.net.procs.LocalCluster` groups (each its own Raft
group of real node processes, optionally with its own safety monitor)
plus the process-local :class:`~repro.shard.client.TableAuthority`,
and drives shard **migration** -- the split/merge reconfiguration
scenario -- as a five-step protocol over the admin wire surface:

1. **Freeze** (source group): push ``version + 1`` ownership *minus*
   the moving range to every live source node.  From here no stamped
   command on the range enters any source log (``"wrong-shard"`` at
   admission); only retries of *pre-freeze* entries are still served,
   for at-most-once.
2. **Drain** (source group): wait for a leader that has committed an
   entry *of its own term* at or past its post-freeze log length, and
   take its applied in-range dump (the commit barrier -- see
   :meth:`ShardedCluster._barrier_dump` for why that dump is the
   range's provably final state even across leader kills mid-drain).
3. **Grant** (destination group): push ``version + 1`` ownership
   *plus* the range to every live destination node.
4. **Install** (destination group): delete the destination's stale
   in-range keys (a range that bounced src->dst->src would otherwise
   resurrect old values), then put every dump item -- ordinary
   replicated client commands, stamped with the new version.
5. **Publish**: push the new version to every *other* group (so
   clients holding the new table are accepted everywhere), then flip
   the authority.  Only now do clients start routing the range to its
   new owner.

A client is never left without a route: before publish the range's
writes are refused-but-unapplied (bounded retries at the client), and
after publish they land at the new owner.  Timed-out operations stay
pending and are never re-routed, so nothing can apply twice across
groups.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Dict, Optional, Tuple

from ..net.client import NetClient
from ..net.procs import LocalCluster, poll
from ..net.wire import ProtocolError, ShardDumpResponse
from .client import ShardClient, TableAuthority
from .ring import KeyRange, RoutingTable


class ShardedCluster:
    """N independent localhost Raft groups behind one routing table."""

    def __init__(
        self,
        groups: int = 2,
        nodes_per_group: int = 3,
        seed: int = 0,
        log_dir: Optional[str] = None,
        monitor: bool = False,
        **cluster_kwargs,
    ) -> None:
        if groups < 1:
            raise ValueError("need at least one group")
        self.gids: Tuple[int, ...] = tuple(range(1, groups + 1))
        self.authority = TableAuthority(RoutingTable.initial(self.gids))
        self.clusters: Dict[int, LocalCluster] = {}
        for gid in self.gids:
            self.clusters[gid] = LocalCluster(
                nids=tuple(range(1, nodes_per_group + 1)),
                # Distinct per-group seeds: election jitter must not be
                # correlated across groups (or every group's leader
                # lands on the same nid and every kill is a storm).
                seed=seed * 131 + gid,
                log_dir=(
                    os.path.join(log_dir, f"group-{gid}")
                    if log_dir is not None else None
                ),
                monitor=monitor,
                **cluster_kwargs,
            )
        #: What each group was last told: ``gid -> (version, ranges)``.
        #: The respawn path re-pushes this (a fresh process refuses
        #: stamped commands until told its ownership).
        self._pushed: Dict[int, Tuple[int, Tuple[Tuple[int, int], ...]]] = {}
        self._admins: Dict[int, NetClient] = {}
        #: Orders ownership pushes against each other: :meth:`respawn`
        #: runs on a nemesis thread, and its re-push of ``_pushed``
        #: must never interleave with a migration's freeze push (a
        #: stale pre-freeze re-push landing after the freeze would
        #: re-admit the frozen range at the fresh node).
        self._ownership_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> "ShardedCluster":
        for cluster in self.clusters.values():
            cluster.start()
        table = self.authority.table()
        for gid in self.gids:
            self._push_ownership(gid, table.version, self._ranges(table, gid))
        return self

    def shutdown(self) -> None:
        for admin in self._admins.values():
            admin.close()
        self._admins.clear()
        for cluster in self.clusters.values():
            cluster.shutdown()

    def __enter__(self) -> "ShardedCluster":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.shutdown()

    def client(self, client_id: str = "shard-client-0", **kwargs) -> ShardClient:
        return ShardClient(
            self.authority,
            {gid: cluster.addresses
             for gid, cluster in self.clusters.items()},
            client_id=client_id,
            **kwargs,
        )

    def logs(self) -> Dict[int, Dict[int, str]]:
        return {gid: cluster.logs() for gid, cluster in self.clusters.items()}

    def monitor_status(self, gid: int, timeout_s: float = 5.0):
        return self.clusters[gid].monitor_status(timeout_s=timeout_s)

    # ------------------------------------------------------------------
    # Faults (the per-shard nemesis surface)
    # ------------------------------------------------------------------

    def kill(self, gid: int, nid: int) -> None:
        self.clusters[gid].kill(nid)

    def wait_for_leader(self, gid: int, timeout_s: float = 10.0) -> int:
        return self.clusters[gid].wait_for_leader(timeout_s=timeout_s)

    def respawn(self, gid: int, nid: int, timeout_s: float = 10.0) -> None:
        """Restart a killed node and re-push its group's ownership.

        Until the push lands, the fresh process refuses every stamped
        keyed command (it holds no ownership), which is exactly what
        keeps a respawn mid-migration safe.  Safe to call from a
        nemesis thread while a migration runs on another: the re-push
        goes through this call's own client (never the shared admin,
        whose socket a concurrent migration may be mid-request on) and
        takes the ownership lock, so it pushes either the pre-freeze
        fact before the freeze starts or the post-freeze fact after it
        completes -- never a stale fact after the freeze."""
        cluster = self.clusters[gid]
        cluster.spawn(nid)
        with cluster.client(client_id=f"respawn-probe-{gid}") as probe:
            if poll(lambda: probe.status(nid), timeout_s) is None:
                raise RuntimeError(
                    f"group {gid} node {nid} not healthy after respawn"
                )
            with self._ownership_lock:
                if gid in self._pushed:
                    self._push(
                        probe, gid, [nid], *self._pushed[gid], timeout_s
                    )

    # ------------------------------------------------------------------
    # Migration: freeze -> drain -> grant -> install -> publish
    # ------------------------------------------------------------------

    def split(self, src: int, dst: int, **kwargs) -> Tuple[KeyRange, RoutingTable]:
        """Move the upper half of ``src``'s widest range to ``dst``.
        Returns the moved range (so a later :meth:`merge` can return
        it) and the published table."""
        rng = self.authority.table().split_candidate(src)
        return rng, self.migrate(rng, dst, **kwargs)

    def merge(self, rng: KeyRange, dst: int, **kwargs) -> RoutingTable:
        """Return a previously split range to ``dst`` (migration in
        the other direction -- same protocol, same checks)."""
        return self.migrate(rng, dst, **kwargs)

    def migrate(
        self, rng: KeyRange, dst: int, drain_timeout_s: float = 30.0
    ) -> RoutingTable:
        """Move ownership of ``rng`` to group ``dst`` under load.

        Safe to **retry verbatim** after a failure: the publish step is
        last and purely local, so a failed call left the table
        unchanged; every earlier step is idempotent (ownership pushes
        accept re-sends of the same version, install re-writes the same
        final state).  Until a retry succeeds the range is frozen --
        unavailable, never inconsistent."""
        table = self.authority.table()
        owners = {
            gid for entry, gid in table.entries if entry.overlaps(rng)
        }
        if len(owners) != 1:
            raise ValueError(
                f"{rng.describe()} spans groups {sorted(owners)}; migrate "
                f"one owner's range at a time"
            )
        src = owners.pop()
        if src == dst:
            raise ValueError(f"group {dst} already owns {rng.describe()}")
        if dst not in self.clusters:
            raise ValueError(f"unknown destination group {dst}")
        new_table = table.move(rng, dst)
        version = new_table.version

        # 1. Freeze: the source stops admitting the range.
        self._push_ownership(src, version, self._ranges(new_table, src))
        # 2. Drain: the range's final state, provably complete.
        dump = self._barrier_dump(src, rng, timeout_s=drain_timeout_s)
        # 3. Grant: the destination starts admitting the range (clients
        #    cannot route to it yet -- the table is unpublished).
        self._push_ownership(dst, version, self._ranges(new_table, dst))
        # 4. Install: replicated delete-then-put of the final state.
        self._install(dst, rng, dump.items, version)
        # 5. Publish: everyone else learns the version, then clients do.
        for gid in self.gids:
            if gid not in (src, dst):
                self._push_ownership(
                    gid, version, self._ranges(new_table, gid)
                )
        self.authority.publish(new_table)
        return new_table

    # ------------------------------------------------------------------
    # Protocol steps
    # ------------------------------------------------------------------

    @staticmethod
    def _ranges(
        table: RoutingTable, gid: int
    ) -> Tuple[Tuple[int, int], ...]:
        return tuple(
            (entry.lo, entry.hi) for entry in table.ranges_of(gid)
        )

    def _admin(self, gid: int) -> NetClient:
        if gid not in self._admins:
            self._admins[gid] = NetClient(
                self.clusters[gid].addresses,
                client_id=f"shard-admin-{gid}",
            )
        return self._admins[gid]

    def _push_ownership(
        self,
        gid: int,
        version: int,
        ranges: Tuple[Tuple[int, int], ...],
        timeout_s: float = 10.0,
    ) -> None:
        """Push ``(version, ranges)`` to every **live** node of the
        group; raises if any live node cannot be made to ack.

        Dead nodes are skipped deliberately: a SIGKILLed process lost
        its in-memory ownership with everything else, and its respawn
        refuses stamped commands until :meth:`respawn` re-pushes --
        refusal is safe, amnesia would not be.  The whole push (and
        the ``_pushed`` record) sits under the ownership lock so a
        concurrent respawn can never wedge a stale fact in between."""
        with self._ownership_lock:
            self._push(
                self._admin(gid), gid, self.clusters[gid].handles,
                version, ranges, timeout_s,
            )
            self._pushed[gid] = (version, ranges)

    def _push(self, client, gid, nids, version, ranges, timeout_s) -> None:
        """Push ``(version, ranges)`` through ``client`` to the nodes
        ``nids`` of group ``gid`` until each one has acked it or is
        dead.  The caller holds the ownership lock."""
        handles = self.clusters[gid].handles
        pending = {nid for nid in nids if handles[nid].alive}

        def sweep() -> Optional[bool]:
            for nid in sorted(pending):
                if not handles[nid].alive:
                    pending.discard(nid)
                    continue
                try:
                    reply = client.shard_ownership(nid, version, ranges)
                except (OSError, ProtocolError, ConnectionError):
                    continue
                if reply.version >= version:
                    pending.discard(nid)
            return None if pending else True

        if poll(sweep, timeout_s) is None:
            raise RuntimeError(
                f"group {gid}: live nodes {sorted(pending)} did not "
                f"ack ownership v{version}"
            )

    def _barrier_dump(
        self, gid: int, rng: KeyRange, timeout_s: float = 30.0
    ) -> ShardDumpResponse:
        """An in-range dump taken behind a same-term commit barrier:
        from a leader that has committed an entry *of its own term* at
        or past its log length as first observed in that term.

        Soundness (drain): the freeze already completed, so no node
        admits new in-range entries -- a node killed and respawned
        refuses them outright until :meth:`respawn` re-pushes the
        post-freeze ownership.  Leadership within a term is contiguous
        (a node votes for itself and can never be elected twice in one
        term), so two dumps from the same ``(nid, term)`` with
        ``role == "leader"`` bracket one continuous reign: every
        in-range entry in that leader's log sits below ``n0``, its log
        length at the first dump.  When a later dump from the same
        reign shows ``commit_in_term`` and ``commit_len >= n0``, all
        those entries are committed and applied, hence in the dump.
        Any in-range entry on some *other* node's log is absent from
        the leader's log; by the Log Matching property it conflicts
        below the committed term-``T`` entry, and any candidate
        carrying it loses the election up-to-date check against the
        majority holding that entry (its last log term is ``< T``), so
        it can never commit later.  The dump is the range's final
        state.

        This also covers the weaker need of the install step's
        stale-key sweep: a *fresh* leader's commit index may trail
        entries committed under its predecessor until it commits in
        its own term, so only a barrier dump is guaranteed to have
        applied every committed in-range key.

        The wait is not a quiesce: an idle group never commits in a
        new term on its own, so each unsatisfied round nudges the
        leader with a replicated no-op (unkeyed, so never
        shard-refused) to move the barrier.  Leader kills mid-wait
        just re-anchor the barrier at the next reign.
        """
        cluster = self.clusters[gid]
        admin = self._admin(gid)
        deadline = time.monotonic() + timeout_s
        base: Optional[Tuple[int, int, int]] = None  # (nid, term, n0)

        def barrier() -> Optional[ShardDumpResponse]:
            nonlocal base
            try:
                leader = cluster.wait_for_leader(
                    timeout_s=min(5.0, max(0.1,
                                           deadline - time.monotonic()))
                )
                dump = admin.shard_dump(leader, rng.lo, rng.hi)
            except (RuntimeError, OSError, ProtocolError, ConnectionError):
                return None
            if dump.role != "leader":
                return None
            if base is None or (base[0], base[1]) != (dump.nid, dump.term):
                base = (dump.nid, dump.term, dump.log_len)
            if dump.commit_in_term and dump.commit_len >= base[2]:
                return dump
            try:
                admin.request_direct(leader, ("noop",), timeout_s=1.0)
            except (OSError, ProtocolError, ConnectionError):
                pass
            return None

        dump = poll(barrier, timeout_s)
        if dump is None:
            raise RuntimeError(
                f"group {gid}: {rng.describe()} gave no barrier dump within "
                f"{timeout_s:.0f}s (last leader base {base})"
            )
        return dump

    def _install(
        self,
        dst: int,
        rng: KeyRange,
        items: Tuple[Tuple[str, object], ...],
        version: int,
    ) -> None:
        """Write the drained state into the destination as ordinary
        replicated commands: first delete the destination's stale
        in-range keys (a range that bounced away and back would
        otherwise resurrect values the interim owner overwrote or
        deleted), then put every dump item.  Each command rides the
        normal at-most-once retry loop, so leader kills mid-install
        are survived, not special-cased."""
        admin = self._admin(dst)
        incoming = dict(items)
        stale = self._barrier_dump(dst, rng)
        for key, _ in stale.items:
            if key not in incoming:
                admin.request(("delete", key), table_version=version)
        for key, value in sorted(incoming.items()):
            admin.request(("put", key, value), table_version=version)
