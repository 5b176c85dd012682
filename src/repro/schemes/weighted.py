"""Weighted majority quorums with an integer-pigeonhole R1⁺.

A sixth instantiation in the spirit of the artifact's extra examples:
every member carries a voting weight and a quorum is any set holding a
strict majority of the configuration's total weight::

    Config ≜ N_nid ⇀ N₊ (a weight map)
    isQuorum(S, C) ≜ 2·weight(S ∩ C) > weight(C)
    R1⁺(C, C') ≜ shared members keep their weights
               ∧ q(C) + q(C') > weight(C ∪ C')

where ``q(C) = ⌊weight(C)/2⌋ + 1`` is the minimum weight any quorum of
``C`` must hold.  OVERLAP is the integer pigeonhole: two disjoint
quorums live inside ``C ∪ C'`` and together hold at least
``q(C) + q(C')`` weight, so if that exceeds the union's total weight
they must share a member.  (Weight changes for surviving members are
expressed as a remove-then-re-add pair of transitions.)

Setting every weight to 1 degenerates to majority quorums where
``R1⁺`` permits exactly the membership changes with
``⌊|C|/2⌋ + ⌊|C'|/2⌋ + 2 > |C ∪ C'|`` -- which subsumes Raft's
single-node rule (one addition or removal at a time) and, like the
dynamic-quorum scheme, allows bigger jumps when quorums are larger.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import FrozenSet, Iterable, List, Mapping, Tuple

from ..core.cache import Config, NodeId
from ..core.config import ReconfigScheme


@dataclass(frozen=True)
class WeightedConfig:
    """An immutable node-to-weight map (stored as sorted pairs)."""

    weights: Tuple[Tuple[NodeId, int], ...]

    @classmethod
    def of(cls, weights: Mapping[NodeId, int]) -> "WeightedConfig":
        for nid, weight in weights.items():
            if weight <= 0:
                raise ValueError(f"node {nid} has non-positive weight {weight}")
        return cls(weights=tuple(sorted(weights.items())))

    @classmethod
    def uniform(cls, members: Iterable[NodeId]) -> "WeightedConfig":
        """All members with weight 1 (plain majority quorums)."""
        return cls.of({nid: 1 for nid in members})

    def as_dict(self) -> Mapping[NodeId, int]:
        return dict(self.weights)

    def member_set(self) -> FrozenSet[NodeId]:
        return frozenset(nid for nid, _ in self.weights)

    def total(self) -> int:
        return sum(weight for _, weight in self.weights)

    def weight_of(self, group: Iterable[NodeId]) -> int:
        table = self.as_dict()
        return sum(table.get(nid, 0) for nid in frozenset(group))


class WeightedMajorityScheme(ReconfigScheme):
    """Strict weighted-majority quorums with a pigeonhole transition rule."""

    name = "weighted-majority"

    def members(self, conf: Config) -> FrozenSet[NodeId]:
        return self._as_weighted(conf).member_set()

    def is_quorum(self, group: Iterable[NodeId], conf: Config) -> bool:
        weighted = self._as_weighted(conf)
        return 2 * weighted.weight_of(group) > weighted.total()

    def r1_plus(self, old: Config, new: Config) -> bool:
        old_cf, new_cf = self._as_weighted(old), self._as_weighted(new)
        if not new_cf.weights:
            return False
        old_table, new_table = old_cf.as_dict(), new_cf.as_dict()
        common = old_cf.member_set() & new_cf.member_set()
        if any(old_table[nid] != new_table[nid] for nid in common):
            return False
        union_weight = (
            old_cf.total()
            + new_cf.total()
            - sum(old_table[nid] for nid in common)
        )
        min_quorum_old = old_cf.total() // 2 + 1
        min_quorum_new = new_cf.total() // 2 + 1
        return min_quorum_old + min_quorum_new > union_weight

    def is_valid_config(self, conf: Config) -> bool:
        return bool(self._as_weighted(conf).weights)

    def describe_config(self, conf: Config) -> str:
        weighted = self._as_weighted(conf)
        inner = ", ".join(f"n{nid}:{w}" for nid, w in weighted.weights)
        return f"{{{inner}}}"

    def with_members(self, conf: Config, members: FrozenSet[NodeId]) -> Config:
        """Uniform weights, so every one-member move satisfies R1⁺'s
        pigeonhole side condition."""
        return WeightedConfig.uniform(members)

    def configs(self, nodes: Iterable[NodeId]) -> List[Config]:
        # Weights in {1, 2} keep the universe tractable while exercising
        # the non-uniform pigeonhole argument.
        return [
            WeightedConfig.of(dict(zip(sorted(members), weights)))
            for members in super().configs(nodes)
            for weights in itertools.product((1, 2), repeat=len(members))
        ]

    @staticmethod
    def _as_weighted(conf: Config) -> WeightedConfig:
        if isinstance(conf, WeightedConfig):
            return conf
        if isinstance(conf, Mapping):
            return WeightedConfig.of(conf)
        return WeightedConfig.uniform(conf)
