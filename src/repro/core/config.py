"""The configuration/quorum parameters of the Adore model (Fig. 7/25).

Adore is generic over the notion of a configuration.  A
:class:`ReconfigScheme` bundles the three opaque parameters of the paper:

* ``Config`` -- any hashable value (the scheme interprets it),
* ``mbrs : Config → Set(N_nid)`` -- :meth:`ReconfigScheme.members`,
* ``isQuorum : Set(N_nid) → Config → B`` -- :meth:`ReconfigScheme.is_quorum`,
* ``R1⁺ : Config → Config → B`` -- :meth:`ReconfigScheme.r1_plus`.

The safety proof only relies on two assumptions about these parameters:

* REFLEXIVE: ``R1⁺(cf, cf)`` for every valid configuration ``cf``;
* OVERLAP: if ``R1⁺(cf, cf')`` then any quorum of ``cf`` intersects any
  quorum of ``cf'``.

A scheme also states, once, what the checkers need to enumerate it:
its bounded configuration universe (:meth:`ReconfigScheme.configs`),
the protocol's one-step reconfigurations (:meth:`ReconfigScheme.moves`)
and the arbitrary jumps an OVERLAP ablation tries
(:meth:`ReconfigScheme.jumps`).  Concrete schemes live in
:mod:`repro.schemes`; :mod:`repro.schemes.assumptions` checks REFLEXIVE
and OVERLAP exhaustively over bounded universes, the executable
analogue of the paper's per-scheme Coq side conditions.
"""

from __future__ import annotations

import itertools
from abc import ABC, abstractmethod
from typing import Any, FrozenSet, Iterable, Iterator, List

from .cache import Config, NodeId


def nonempty_subsets(nodes: Iterable[NodeId]) -> Iterator[FrozenSet[NodeId]]:
    """Every non-empty subset of ``nodes``: by size, then lexicographically."""
    ordered = sorted(frozenset(nodes))
    for size in range(1, len(ordered) + 1):
        for combo in itertools.combinations(ordered, size):
            yield frozenset(combo)


class ReconfigScheme(ABC):
    """The parameterized quorum/configuration interface of Fig. 7.

    Subclasses define what a configuration *is* (a member set, a pair of
    sets for joint consensus, a primary plus backups, ...), what counts
    as a quorum, and which configuration transitions R1⁺ permits.
    """

    #: Human-readable scheme name, used in reports and benchmarks.
    name: str = "abstract"

    @abstractmethod
    def members(self, conf: Config) -> FrozenSet[NodeId]:
        """``mbrs(conf)``: the replicas participating in ``conf``."""

    @abstractmethod
    def is_quorum(self, group: Iterable[NodeId], conf: Config) -> bool:
        """``isQuorum(group, conf)``: does ``group`` form a quorum of ``conf``?"""

    @abstractmethod
    def r1_plus(self, old: Config, new: Config) -> bool:
        """``R1⁺(old, new)``: may a leader under ``old`` propose ``new``?"""

    def is_valid_config(self, conf: Config) -> bool:
        """Whether ``conf`` is a well-formed configuration for this scheme.

        :meth:`configs` yields only valid configurations, and an
        OVERLAP-ablated scheme's R1⁺ accepts exactly these.
        """
        return True

    def describe_config(self, conf: Config) -> str:
        """Human-readable rendering of a configuration."""
        return repr(conf)

    def with_members(self, conf: Config, members: FrozenSet[NodeId]) -> Config:
        """A configuration of this scheme's kind like ``conf`` (``None``
        when there is none to start from) but over ``members``: a plain
        member set by default."""
        return frozenset(members)

    def initial(self, universe: Iterable[NodeId]) -> Config:
        """The configuration over the whole ``universe``."""
        return self.with_members(None, frozenset(universe))

    def configs(self, nodes: Iterable[NodeId]) -> List[Config]:
        """The bounded universe of valid configurations over ``nodes``
        that the assumption checker enumerates (default: every
        non-empty member set)."""
        return list(nonempty_subsets(nodes))

    def moves(
        self,
        state: Any,
        nid: NodeId,
        conf: Config,
        universe: Iterable[NodeId],
        removals_only: bool = False,
    ) -> Iterator[Config]:
        """The protocol's one-step reconfigurations of ``conf`` proposed
        by ``nid`` in ``state``: by default one member of ``universe``
        in, then one member out (never down to no member).
        ``removals_only`` keeps only the shrinking moves."""
        members = self.members(conf)
        if not removals_only:
            for node in sorted(frozenset(universe) - members):
                yield self.with_members(conf, members | {node})
        if len(members) > 1:
            for node in sorted(members):
                yield self.with_members(conf, members - {node})

    def jumps(
        self, state: Any, nid: NodeId, conf: Config, universe: Iterable[NodeId]
    ) -> Iterator[Config]:
        """Arbitrary membership jumps: every other non-empty member set
        of ``universe`` -- the moves an OVERLAP ablation tries."""
        members = self.members(conf)
        for other in nonempty_subsets(universe):
            if other != members:
                yield self.with_members(conf, other)


class StaticScheme(ReconfigScheme):
    """A majority-quorum scheme that forbids all reconfiguration.

    This instantiates the CADO model (Adore minus the boxed/blue parts):
    ``R1⁺`` holds only reflexively, so ``reconfig`` can never change the
    configuration, and the static majority-overlap argument applies.
    """

    name = "static-majority"

    def members(self, conf: Config) -> FrozenSet[NodeId]:
        return frozenset(conf)

    def is_quorum(self, group: Iterable[NodeId], conf: Config) -> bool:
        conf_set = frozenset(conf)
        return len(conf_set) < 2 * len(frozenset(group) & conf_set)

    def r1_plus(self, old: Config, new: Config) -> bool:
        return frozenset(old) == frozenset(new)

    def is_valid_config(self, conf: Config) -> bool:
        return len(frozenset(conf)) > 0

    def moves(self, state, nid, conf, universe, removals_only=False):
        """None: a static configuration never changes."""
        return iter(())


def majority(group: Iterable[NodeId], conf_members: Iterable[NodeId]) -> bool:
    """``|C| < 2 * |S ∩ C|``: the standard majority-quorum test.

    Shared by several schemes (Raft single-node, joint consensus) and by
    the network-based Raft specification.
    """
    members = frozenset(conf_members)
    return len(members) < 2 * len(frozenset(group) & members)
