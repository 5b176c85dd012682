"""The network-based Raft-like specification (Section 5, Fig. 13).

* :mod:`repro.raft.spec` -- the asynchronous specification
  (:class:`RaftSystem`): servers, a two-bag network, and the five
  operations ``elect``/``invoke``/``reconfig``/``commit``/``deliver``.
* :mod:`repro.raft.sraft` -- SRaft (:class:`SRaftSystem`): the same
  state under the synchronized scheduler (valid, ordered, atomic
  deliveries).
* :mod:`repro.raft.buggy` -- the historical single-node membership bug
  driven at the network level (Fig. 4), with and without the R3 fix.
"""

from .buggy import BugOutcome, run_buggy, run_fig4_schedule, run_fixed
from .messages import (
    CommitAck,
    CommitReq,
    ElectAck,
    ElectReq,
    Log,
    LogEntry,
    Msg,
    log_order_key,
    msg_vrsn,
)
from .network import Network
from .server import CANDIDATE, FOLLOWER, LEADER, Server, config_of
from .spec import (
    Commit,
    Deliver,
    Elect,
    Invoke,
    RaftEvent,
    RaftSystem,
    Reconfig,
)
from .sraft import CommitRound, ElectRound, SRaftSystem

__all__ = [
    "BugOutcome",
    "CANDIDATE",
    "Commit",
    "CommitAck",
    "CommitReq",
    "CommitRound",
    "Deliver",
    "Elect",
    "ElectAck",
    "ElectReq",
    "ElectRound",
    "FOLLOWER",
    "Invoke",
    "LEADER",
    "Log",
    "LogEntry",
    "Msg",
    "Network",
    "RaftEvent",
    "RaftSystem",
    "Reconfig",
    "Server",
    "SRaftSystem",
    "config_of",
    "log_order_key",
    "msg_vrsn",
    "run_buggy",
    "run_fig4_schedule",
    "run_fixed",
]
