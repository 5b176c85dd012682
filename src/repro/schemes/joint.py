"""Raft joint consensus (Section 6, "Raft Joint Consensus").

``Config ≜ Set(N_nid) × Option(Set(N_nid))``: a stable configuration is
``(old, ⊥)``; during a change the system is in a *joint* configuration
``(old, new)`` whose quorums require majorities of **both** sets::

    R1⁺(C, C') ≜ (∃old. C = (old, ⊥) ∧ C' = (old, _))
               ∨ (∃new. C = (_, new) ∧ C' = (new, ⊥))
    isQuorum(S, (old, new)) ≜ majority(S, old) ∧ (new = ⊥ ∨ majority(S, new))

A transition either *enters* a joint configuration (keeping the old set)
or *leaves* one (promoting the new set).  Arbitrary membership changes
are possible in two hops while every consecutive pair overlaps.

Configurations are :class:`JointConfig` values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Iterable, List, Optional

from ..core.cache import Config, NodeId
from ..core.config import ReconfigScheme, majority


@dataclass(frozen=True)
class JointConfig:
    """A (possibly joint) configuration: the old set plus an optional new set."""

    old: FrozenSet[NodeId]
    new: Optional[FrozenSet[NodeId]] = None

    @classmethod
    def stable(cls, members: Iterable[NodeId]) -> "JointConfig":
        """A non-joint configuration over ``members``."""
        return cls(old=frozenset(members), new=None)

    @classmethod
    def transition(
        cls, old: Iterable[NodeId], new: Iterable[NodeId]
    ) -> "JointConfig":
        """The joint configuration combining ``old`` and ``new``."""
        return cls(old=frozenset(old), new=frozenset(new))

    @property
    def is_joint(self) -> bool:
        return self.new is not None

    def all_members(self) -> FrozenSet[NodeId]:
        return self.old | (self.new or frozenset())


class JointConsensusScheme(ReconfigScheme):
    """Quorums require majorities of both halves of a joint configuration."""

    name = "raft-joint-consensus"

    def members(self, conf: Config) -> FrozenSet[NodeId]:
        return self._as_joint(conf).all_members()

    def is_quorum(self, group: Iterable[NodeId], conf: Config) -> bool:
        joint = self._as_joint(conf)
        group_set = frozenset(group)
        if not majority(group_set, joint.old):
            return False
        return joint.new is None or majority(group_set, joint.new)

    def r1_plus(self, old: Config, new: Config) -> bool:
        old_cf, new_cf = self._as_joint(old), self._as_joint(new)
        if not self.is_valid_config(new_cf):
            return False
        # REFLEXIVE: re-proposing the identical configuration is always
        # safe (both quorums are majorities of the same set(s)).  The
        # paper's literal definition covers this only for stable
        # configurations; joint configurations need it explicitly.
        if old_cf == new_cf:
            return True
        # Enter a joint configuration: (old, ⊥) → (old, anything).
        if old_cf.new is None and new_cf.old == old_cf.old:
            return True
        # Leave a joint configuration: (_, new) → (new, ⊥).
        if (
            old_cf.new is not None
            and new_cf.old == old_cf.new
            and new_cf.new is None
        ):
            return True
        return False

    def is_valid_config(self, conf: Config) -> bool:
        joint = self._as_joint(conf)
        if not joint.old:
            return False
        return joint.new is None or bool(joint.new)

    def describe_config(self, conf: Config) -> str:
        joint = self._as_joint(conf)
        if joint.new is None:
            return f"{sorted(joint.old)}"
        return f"{sorted(joint.old)}+{sorted(joint.new)}"

    def with_members(self, conf: Config, members: FrozenSet[NodeId]) -> Config:
        return JointConfig.stable(members)

    def configs(self, nodes: Iterable[NodeId]) -> List[Config]:
        """Every stable configuration, each followed by the joint
        configurations it can enter."""
        subsets = super().configs(nodes)
        return [
            conf
            for old in subsets
            for conf in [JointConfig.stable(old)]
            + [JointConfig.transition(old, new) for new in subsets]
        ]

    def moves(self, state, nid, conf, universe, removals_only=False):
        """Leave a joint configuration by promoting its new half, or
        enter one a member away: removals first, then additions."""
        cf = self._as_joint(conf)
        if cf.is_joint:
            yield JointConfig.stable(cf.new)
            return
        if len(cf.old) > 1:
            for node in sorted(cf.old):
                yield JointConfig.transition(cf.old, cf.old - {node})
        if not removals_only:
            for node in sorted(frozenset(universe) - cf.old):
                yield JointConfig.transition(cf.old, cf.old | {node})

    def jumps(self, state, nid, conf, universe):
        """Stable-to-stable jumps with no joint phase, away from the old
        half."""
        stable = JointConfig.stable(self._as_joint(conf).old)
        return super().jumps(state, nid, stable, universe)

    @staticmethod
    def _as_joint(conf: Config) -> JointConfig:
        if isinstance(conf, JointConfig):
            return conf
        return JointConfig.stable(conf)
