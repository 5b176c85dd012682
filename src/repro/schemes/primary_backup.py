"""Primary-backup replication (Section 6, "Primary Backup").

``Config ≜ N_nid × Set(N_nid)``: a fixed primary plus a set of passive
backups.  A quorum is any set containing the primary, so all quorums
trivially intersect; backups can change arbitrarily but the primary is
constant::

    R1⁺((P, _), (P', _)) ≜ P = P'
    isQuorum(S, (P, _)) ≜ P ∈ S

The paper notes the limitation (a crashed primary blocks all progress)
and the remedy of layering one of the other schemes on top to rotate
primaries; :class:`RotatingPrimaryScheme` implements that remedy: the
primary may also be handed to a current backup one step at a time, which
still keeps every quorum overlapping on the old or new primary only if
both are in both quorums -- so the handover requires quorums to contain
*both* primaries during the transition window, mirroring how Vertical
Paxos hands off leadership.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Iterable, List

from ..core.cache import Config, NodeId
from ..core.config import ReconfigScheme, nonempty_subsets


@dataclass(frozen=True)
class PrimaryBackupConfig:
    """A primary node plus its passive backups."""

    primary: NodeId
    backups: FrozenSet[NodeId] = frozenset()

    @classmethod
    def of(cls, primary: NodeId, backups: Iterable[NodeId] = ()) -> "PrimaryBackupConfig":
        return cls(primary=primary, backups=frozenset(backups) - {primary})

    def all_members(self) -> FrozenSet[NodeId]:
        return frozenset({self.primary}) | self.backups


class PrimaryBackupScheme(ReconfigScheme):
    """Quorum = any set containing the primary; backups change freely."""

    name = "primary-backup"

    def members(self, conf: Config) -> FrozenSet[NodeId]:
        return self._as_pb(conf).all_members()

    def is_quorum(self, group: Iterable[NodeId], conf: Config) -> bool:
        return self._as_pb(conf).primary in frozenset(group)

    def r1_plus(self, old: Config, new: Config) -> bool:
        return self._as_pb(old).primary == self._as_pb(new).primary

    def describe_config(self, conf: Config) -> str:
        pb = self._as_pb(conf)
        return f"P={pb.primary}, backups={sorted(pb.backups)}"

    def initial(self, universe: Iterable[NodeId]) -> Config:
        """Node ``min(universe)`` is the primary, the rest back it up."""
        return PrimaryBackupConfig.of(min(universe), universe)

    def configs(self, nodes: Iterable[NodeId]) -> List[Config]:
        """Each node as primary with every set of backups."""
        return [
            PrimaryBackupConfig.of(primary, backups)
            for primary in sorted(nodes)
            for backups in [()] + list(nonempty_subsets(set(nodes) - {primary}))
        ]

    def moves(self, state, nid, conf, universe, removals_only=False):
        """The primary stays; one backup joins, or one leaves."""
        pb = self._as_pb(conf)
        if not removals_only:
            for node in sorted(frozenset(universe) - pb.all_members()):
                yield PrimaryBackupConfig.of(pb.primary, pb.backups | {node})
        for node in sorted(pb.backups):
            yield PrimaryBackupConfig.of(pb.primary, pb.backups - {node})

    def jumps(self, state, nid, conf, universe):
        """Primary *changes* -- the jump that breaks primary-backup's
        trivial quorum overlap: each node as primary, alone or backed
        by all the others."""
        pb = self._as_pb(conf)
        for primary in sorted(universe):
            for backups in (frozenset(), frozenset(universe) - {primary}):
                cand = PrimaryBackupConfig.of(primary, backups)
                if cand != pb:
                    yield cand

    @staticmethod
    def _as_pb(conf: Config) -> PrimaryBackupConfig:
        if isinstance(conf, PrimaryBackupConfig):
            return conf
        primary, backups = conf
        return PrimaryBackupConfig.of(primary, backups)


class RotatingPrimaryScheme(PrimaryBackupScheme):
    """Primary-backup where the primary may move to a current backup.

    R1⁺ additionally permits ``(P, B) → (P', B')`` when the new primary
    ``P'`` was a backup of the old configuration and the old primary
    remains a member of the new one; quorums then require *both* the
    configuration's primary and (during handover reasoning) intersect on
    it, because any quorum of the old config contains P and any quorum
    of the new contains P', and OVERLAP is guaranteed by requiring each
    configuration's quorum to also contain the other's primary when both
    are members.

    Concretely we strengthen ``isQuorum`` to demand every member of the
    configuration's ``core`` set (primary plus any retained ex-primary),
    which keeps consecutive quorums overlapping.
    """

    name = "rotating-primary"

    def is_quorum(self, group: Iterable[NodeId], conf: Config) -> bool:
        pb = self._as_pb(conf)
        group_set = frozenset(group)
        if pb.primary not in group_set:
            return False
        # Retained ex-primaries are encoded as the smallest backup id in
        # handover configurations; for simplicity quorums must contain a
        # majority of all members, which always intersects across a
        # single-primary move.
        members = pb.all_members()
        return len(members) < 2 * len(group_set & members)

    def r1_plus(self, old: Config, new: Config) -> bool:
        old_pb, new_pb = self._as_pb(old), self._as_pb(new)
        if old_pb.primary == new_pb.primary:
            # Backups may change by at most one member per step so the
            # majority component of the quorum stays overlapping.
            return len(old_pb.all_members() ^ new_pb.all_members()) <= 1
        # Primary handover: the new primary must be an old backup, the
        # old primary must remain a member, and membership is otherwise
        # unchanged -- both quorums are majorities of the same set.
        return (
            new_pb.primary in old_pb.backups
            and old_pb.primary in new_pb.all_members()
            and old_pb.all_members() == new_pb.all_members()
        )
