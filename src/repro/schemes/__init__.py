"""Reconfiguration schemes (Section 6) and their assumption checkers.

Each scheme instantiates the paper's opaque parameters (``Config``,
``mbrs``, ``isQuorum``, ``R1⁺``) and states, as methods of its one
class, what the checkers enumerate: its full-universe configuration
(``initial``), its bounded configuration universe (``configs``), the
protocol's one-step reconfigurations (``moves``) and the arbitrary
jumps an OVERLAP ablation tries (``jumps``).  The safety proof holds
for any scheme satisfying REFLEXIVE and OVERLAP;
:mod:`repro.schemes.assumptions` checks those (and QUORUM-EXISTS)
exhaustively over bounded node universes.

:data:`SCHEMES` names every bundled scheme -- the four from Section 6
plus five more:

* :class:`RaftSingleNodeScheme` -- majority quorums, one node at a time.
* :class:`JointConsensusScheme` -- Raft joint consensus with explicit
  joint configurations.
* :class:`PrimaryBackupScheme` -- chain-replication style; quorum = any
  set containing the primary.
* :class:`RotatingPrimaryScheme` -- the paper's suggested primary-
  rotation remedy.
* :class:`DynamicQuorumScheme` -- Vertical-Paxos style explicit quorum
  sizes.
* :class:`UnanimousScheme` -- full quorums, arbitrary one-step changes.
* :class:`WeightedMajorityScheme` -- weighted majorities with a
  pigeonhole R1⁺.
* :class:`LoglessReconfigScheme` -- MongoDB's logless dynamic
  reconfiguration: config state outside the log, ordered by
  ``(term, version)``, with the protocol's own Q1/Q2 enabling
  conditions as part of its moves.
* :class:`StaticScheme` -- majority quorums and no reconfiguration
  (the CADO model).

Plus :class:`OverlapAblation`, which breaks OVERLAP on purpose for any
of them (the ablation experiments).
"""

from typing import Dict

from ..core.config import ReconfigScheme, StaticScheme, majority
from .assumptions import (
    AssumptionReport,
    OverlapAblation,
    OverlapWitness,
    QuorumWitness,
    ReflexiveWitness,
    check_assumptions,
)
from .dynamic_quorum import DynamicQuorumScheme, SizedConfig
from .joint import JointConfig, JointConsensusScheme
from .logless import (
    LoglessConfig,
    LoglessReconfigScheme,
    as_logless,
    config_quorum_check,
    oplog_commitment_check,
)
from .primary_backup import (
    PrimaryBackupConfig,
    PrimaryBackupScheme,
    RotatingPrimaryScheme,
)
from .single_node import RaftSingleNodeScheme
from .unanimous import UnanimousScheme
from .weighted import WeightedConfig, WeightedMajorityScheme

#: Every bundled scheme by its ``name``, in report order.
SCHEMES: Dict[str, ReconfigScheme] = {
    scheme.name: scheme
    for scheme in (
        RaftSingleNodeScheme(),
        JointConsensusScheme(),
        PrimaryBackupScheme(),
        RotatingPrimaryScheme(),
        DynamicQuorumScheme(),
        UnanimousScheme(),
        WeightedMajorityScheme(),
        LoglessReconfigScheme(),
        StaticScheme(),
    )
}

__all__ = [
    "AssumptionReport",
    "DynamicQuorumScheme",
    "JointConfig",
    "JointConsensusScheme",
    "LoglessConfig",
    "LoglessReconfigScheme",
    "OverlapAblation",
    "OverlapWitness",
    "PrimaryBackupConfig",
    "PrimaryBackupScheme",
    "QuorumWitness",
    "RaftSingleNodeScheme",
    "ReconfigScheme",
    "ReflexiveWitness",
    "RotatingPrimaryScheme",
    "SCHEMES",
    "SizedConfig",
    "StaticScheme",
    "UnanimousScheme",
    "WeightedConfig",
    "WeightedMajorityScheme",
    "as_logless",
    "check_assumptions",
    "config_quorum_check",
    "majority",
    "oplog_commitment_check",
]
