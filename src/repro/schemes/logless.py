"""MongoDB's logless dynamic reconfiguration (scheme #7).

Schultz, Dardik & Demirbas describe MongoDB's reconfiguration protocol
(the "logless" design, arXiv 2102.11960) and verify it in TLA+ as
``MongoRaftReconfig`` (arXiv 2109.11987).  It is a genuinely different
design point from the six bundled schemes: configurations are *not*
oplog entries.  Each replica stores a single configuration object

    Config ≜ (version, term, members)

managed outside the log, replicated by gossip, and ordered by the
MongoDB comparison: compare ``term`` first, then ``version``.  A
reconfiguration replaces the leader's configuration with
``(version + 1, leader_term, members')``; an election rewrites the
config term.  Because there is no joint phase and no log entry, safety
rests entirely on the protocol's *enabling conditions*:

* **single-node change** -- ``members'`` differs from ``members`` by at
  most one replica, so any two majorities of adjacent member sets
  intersect (the same pigeonhole as Raft single-node);
* **Q1, the config quorum check** -- the current configuration must be
  *committed*: a quorum of the current member set stores it at the
  current ``(version, term)`` before a newer one may be installed;
* **Q2, the oplog commitment check** -- every oplog entry committed
  under earlier terms must be committed in the proposer's current
  term before the configuration may change.

Mapping onto Adore's opaque parameters: ``mbrs`` projects the member
set, ``isQuorum`` is the plain majority test, and ``R1⁺`` holds exactly
for the transitions the protocol can install -- identical configs
(REFLEXIVE), or a single-node member change whose ``(term, version)``
strictly advances in the MongoDB order.  That R1⁺ satisfies OVERLAP for
the same reason Raft single-node does, so Adore's parameterized safety
proof covers the scheme even though its config state never touches the
log (checked exhaustively by :mod:`repro.schemes.assumptions`).

Q1 and Q2 are *state* predicates, not config-pair predicates, so they
gate the scheme's reconfiguration step
(:meth:`LoglessReconfigScheme.moves`) rather than ``R1⁺``:
:func:`config_quorum_check` and :func:`oplog_commitment_check` evaluate
them against the Adore cache tree.  In Adore vocabulary Q1 coincides
with rule R2 (the newest config entry on the active branch is
committed, hence so is every older one) and Q2 with rule R3 (a commit
at the proposer's current timestamp) -- the correspondence is pinned by
tests.  This is the load-bearing observation the differential harness
(:mod:`repro.mc.differential`) turns into data: because the logless
protocol carries its own R2/R3 analogues as enabling conditions,
ablating Adore's R2 or R3 does not break it, while Raft single-node
falls to the Fig. 4 counterexample.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Iterable, Iterator, List, Optional, Tuple

from ..core.aux import active_cache
from ..core.cache import Cid, Config, NodeId, is_ccache, is_rcache
from ..core.config import ReconfigScheme, majority
from ..core.state import AdoreState
from ..core.tree import CacheTree


@dataclass(frozen=True)
class LoglessConfig:
    """A MongoDB-style configuration: ``(version, term, members)``.

    Ordered by ``(term, version)`` -- term first, as in the MongoDB
    config comparison -- via :meth:`order_key`.  The member set is a
    ``frozenset``; the repr sorts it so the rendering is stable.
    """

    version: int
    term: int
    members: FrozenSet[NodeId]

    @classmethod
    def of(
        cls, version: int, term: int, members: Iterable[NodeId]
    ) -> "LoglessConfig":
        return cls(version=version, term=term, members=frozenset(members))

    @classmethod
    def initial(cls, members: Iterable[NodeId]) -> "LoglessConfig":
        """The bootstrap configuration: version 0 at term 0."""
        return cls.of(0, 0, members)

    @property
    def order_key(self) -> Tuple[int, int]:
        """The MongoDB config order: compare terms, then versions."""
        return (self.term, self.version)

    def newer_than(self, other: "LoglessConfig") -> bool:
        return self.order_key > other.order_key

    def __repr__(self) -> str:
        return (
            f"LoglessConfig(v={self.version}, t={self.term}, "
            f"members={sorted(self.members)})"
        )


def as_logless(conf: Config) -> LoglessConfig:
    """Coerce ``conf`` to a :class:`LoglessConfig`.

    Plain member iterables (e.g. a ``frozenset`` used as ``conf0``)
    become the bootstrap config ``(0, 0, members)``; 3-tuples are read
    as ``(version, term, members)``.
    """
    if isinstance(conf, LoglessConfig):
        return conf
    if isinstance(conf, tuple) and len(conf) == 3:
        version, term, members = conf
        return LoglessConfig.of(version, term, members)
    return LoglessConfig.initial(conf)


class LoglessReconfigScheme(ReconfigScheme):
    """MongoDB logless reconfiguration: majority quorums, single-node
    changes, configs ordered by ``(term, version)``."""

    name = "mongo-logless"

    def members(self, conf: Config) -> FrozenSet[NodeId]:
        return as_logless(conf).members

    def is_quorum(self, group: Iterable[NodeId], conf: Config) -> bool:
        return majority(group, as_logless(conf).members)

    def r1_plus(self, old: Config, new: Config) -> bool:
        old_cf, new_cf = as_logless(old), as_logless(new)
        if old_cf == new_cf:
            return True  # REFLEXIVE
        if not new_cf.members:
            return False
        # Single-node change: at most one replica added or removed.
        if len(old_cf.members ^ new_cf.members) > 1:
            return False
        # The installed config must strictly advance the MongoDB order
        # (a reconfig bumps the version at the leader's term; an
        # election bumps the term) -- stale configs never win.
        return new_cf.newer_than(old_cf)

    def is_valid_config(self, conf: Config) -> bool:
        cf = as_logless(conf)
        return bool(cf.members) and cf.version >= 0 and cf.term >= 0

    def describe_config(self, conf: Config) -> str:
        cf = as_logless(conf)
        return f"v{cf.version}/t{cf.term} {sorted(cf.members)}"

    def initial(self, universe: Iterable[NodeId]) -> Config:
        return LoglessConfig.initial(universe)

    def configs(self, nodes: Iterable[NodeId]) -> List[Config]:
        # Versions and terms in {0, 1, 2} cover same-term version bumps,
        # cross-term bumps, and order-decreasing pairs (which R1⁺ must
        # reject) without blowing up the pair enumeration.
        return [
            LoglessConfig(version=version, term=term, members=members)
            for members in super().configs(nodes)
            for term in range(3)
            for version in range(3)
        ]

    def moves(self, state, nid, conf, universe, removals_only=False):
        """Single-node membership changes under the protocol's own gates:
        ``(version + 1, leader_term, members ± one)``, only while Q1
        (:func:`config_quorum_check`) and Q2
        (:func:`oplog_commitment_check`) hold at the proposer's active
        cache.  The gates are the protocol's own enabling conditions, so
        they apply even when the model checker ablates Adore's R2/R3 --
        which is exactly what the differential harness measures."""
        changes = super().moves(state, nid, conf, universe, removals_only)
        return self._installed(state, nid, conf, changes)

    def jumps(self, state, nid, conf, universe):
        """Arbitrary member jumps, still Q1/Q2-gated and version/term
        ordered (the intact R1⁺ rejects every one of them)."""
        changes = super().jumps(state, nid, conf, universe)
        return self._installed(state, nid, conf, changes)

    @staticmethod
    def _installed(
        state: AdoreState,
        nid: NodeId,
        conf: Config,
        changes: Iterable[FrozenSet[NodeId]],
    ) -> Iterator[Config]:
        """Each member set of ``changes`` as the config the proposer
        installs, or nothing when Q1 or Q2 blocks a reconfiguration."""
        active = active_cache(state.tree, nid)
        if (
            active is None
            or not config_quorum_check(state.tree, active)
            or not oplog_commitment_check(state.tree, active)
        ):
            return
        version = as_logless(conf).version + 1
        term = state.tree.cache(active).time
        for members in changes:
            yield LoglessConfig(version=version, term=term, members=members)


# ----------------------------------------------------------------------
# The protocol's enabling conditions, as Adore cache-tree predicates
# ----------------------------------------------------------------------

def config_quorum_check(tree: CacheTree, cid: Cid) -> bool:
    """Q1: the current configuration is committed.

    The newest config entry (RCache) at-or-above ``cid`` on its branch
    must have a commit (CCache) strictly below it and at-or-above
    ``cid`` -- the Adore image of "a quorum of the current member set
    stores the config at its current (version, term)".  With no config
    entry on the branch the configuration is conf₀, committed by the
    root CCache by definition.

    Because a commit below the newest config entry also sits below
    every older one, Q1 coincides with Adore's rule R2
    (:func:`repro.core.aux.r2_holds`); ``tests/schemes/test_logless.py``
    pins the correspondence.
    """
    branch = tree.branch(cid)
    newest_rcache_index: Optional[int] = None
    for index, anc in enumerate(branch):
        if is_rcache(tree.cache(anc)):
            newest_rcache_index = index
    if newest_rcache_index is None:
        return True
    return any(
        is_ccache(tree.cache(c)) for c in branch[newest_rcache_index + 1 :]
    )


def oplog_commitment_check(tree: CacheTree, cid: Cid) -> bool:
    """Q2: entries committed under earlier terms are committed in the
    proposer's current term.

    In Adore's tree this is witnessed by a CCache on the branch whose
    timestamp equals the active cache's: committing anything at the
    current term finalizes the whole prefix, including every entry
    inherited from earlier terms.  This is the same obligation as
    Adore's rule R3 (:func:`repro.core.aux.r3_holds`).
    """
    target_time = tree.cache(cid).time
    return any(
        is_ccache(tree.cache(anc)) and tree.cache(anc).time == target_time
        for anc in tree.ancestors(cid, include_self=True)
    )
