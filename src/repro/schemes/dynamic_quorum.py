"""Dynamic quorum sizes (Section 6, "Dynamic Quorum Sizes").

``Config ≜ N × Set(N_nid)``: an explicit quorum size ``q`` plus a member
set, as in Vertical Paxos.  Larger quorums permit faster (bigger)
membership changes at the cost of fault tolerance::

    R1⁺((q, C), (q', C')) ≜ (C ⊆ C' ∧ |C'| < q + q')
                          ∨ (C' ⊆ C ∧ |C| < q + q')
    isQuorum(S, (q, C)) ≜ q ≤ |S ∩ C|

OVERLAP is the pigeonhole argument: if the larger of the two member sets
has fewer elements than the sum of the quorum sizes, any two quorums
must share a member.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Iterable, List

from ..core.cache import Config, NodeId
from ..core.config import ReconfigScheme


@dataclass(frozen=True)
class SizedConfig:
    """A member set with an explicit quorum size."""

    quorum_size: int
    members: FrozenSet[NodeId]

    @classmethod
    def of(cls, quorum_size: int, members: Iterable[NodeId]) -> "SizedConfig":
        return cls(quorum_size=quorum_size, members=frozenset(members))

    @classmethod
    def majority(cls, members: Iterable[NodeId]) -> "SizedConfig":
        """The standard majority size ``⌈(n+1)/2⌉`` for ``members``."""
        member_set = frozenset(members)
        return cls(quorum_size=len(member_set) // 2 + 1, members=member_set)


class DynamicQuorumScheme(ReconfigScheme):
    """Explicit quorum sizes; growth/shrink bounded by ``q + q'``."""

    name = "dynamic-quorum"

    def members(self, conf: Config) -> FrozenSet[NodeId]:
        return self._as_sized(conf).members

    def is_quorum(self, group: Iterable[NodeId], conf: Config) -> bool:
        sized = self._as_sized(conf)
        return sized.quorum_size <= len(frozenset(group) & sized.members)

    def r1_plus(self, old: Config, new: Config) -> bool:
        old_cf, new_cf = self._as_sized(old), self._as_sized(new)
        if not self.is_valid_config(old_cf) or not self.is_valid_config(new_cf):
            return False
        bound = old_cf.quorum_size + new_cf.quorum_size
        if old_cf.members <= new_cf.members:
            return len(new_cf.members) < bound
        if new_cf.members <= old_cf.members:
            return len(old_cf.members) < bound
        return False

    def is_valid_config(self, conf: Config) -> bool:
        sized = self._as_sized(conf)
        # A quorum size beyond the membership could never be met.  At
        # the other end, 2q must exceed |members|: otherwise two quorums
        # of the *same* configuration can be disjoint, which breaks the
        # REFLEXIVE+OVERLAP pair (this is also why R1⁺'s ``|C| < q + q'``
        # instantiated at C = C' reads ``|C| < 2q``).
        return (
            sized.quorum_size <= len(sized.members)
            and 2 * sized.quorum_size > len(sized.members)
        )

    def describe_config(self, conf: Config) -> str:
        sized = self._as_sized(conf)
        return f"q={sized.quorum_size}, members={sorted(sized.members)}"

    def with_members(self, conf: Config, members: FrozenSet[NodeId]) -> Config:
        """Majority-sized, so every one-member move satisfies R1⁺'s
        ``|C| < q + q'``."""
        return SizedConfig.majority(members)

    def configs(self, nodes: Iterable[NodeId]) -> List[Config]:
        """Every member set with every valid quorum size."""
        sized = (
            SizedConfig(quorum_size=size, members=members)
            for members in super().configs(nodes)
            for size in range(1, len(members) + 1)
        )
        return [conf for conf in sized if self.is_valid_config(conf)]

    @staticmethod
    def _as_sized(conf: Config) -> SizedConfig:
        if isinstance(conf, SizedConfig):
            return conf
        quorum_size, members = conf
        return SizedConfig.of(quorum_size, members)
