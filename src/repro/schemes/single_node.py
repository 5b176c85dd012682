"""Raft single-node membership change (Section 6, "Raft Single-Node").

``Config ≜ Set(N_nid)`` with standard majority quorums; R1⁺ permits
configurations differing by at most one server::

    R1⁺(C, C') ≜ C = C' ∨ ∃s. C = C' ∪ {s} ∨ C' = C ∪ {s}
    isQuorum(S, C) ≜ |C| < 2·|S ∩ C|

This is the scheme whose original (R3-less) formulation contained the
safety bug of Fig. 4; with Adore's R2/R3 side conditions it is safe.
Configurations are passed as any iterable of node ids and normalized to
``frozenset``.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable

from ..core.cache import Config, NodeId
from ..core.config import ReconfigScheme, majority


class RaftSingleNodeScheme(ReconfigScheme):
    """Majority quorums; one server may be added or removed at a time."""

    name = "raft-single-node"

    def members(self, conf: Config) -> FrozenSet[NodeId]:
        return frozenset(conf)

    def is_quorum(self, group: Iterable[NodeId], conf: Config) -> bool:
        return majority(group, frozenset(conf))

    def r1_plus(self, old: Config, new: Config) -> bool:
        old_set, new_set = frozenset(old), frozenset(new)
        if not new_set:
            return False
        if old_set == new_set:
            return True
        diff = old_set ^ new_set
        return len(diff) == 1

    def is_valid_config(self, conf: Config) -> bool:
        return len(frozenset(conf)) > 0
