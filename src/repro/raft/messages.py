"""Message types of the network-based Raft-like specification (Fig. 13).

Four kinds, exactly as in the paper: election requests and
acknowledgements, commit requests and acknowledgements.  Messages are
immutable values so traces of ``deliver`` events can be compared,
filtered, and reordered by the refinement machinery (Appendix C).

Being a *specification*, messages carry full logs rather than deltas --
the paper's Coq spec does the same; the executable runtime layers
nothing more on top, it just schedules these messages over a simulated
network.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple, Union

from ..core.cache import Config, Method, NodeId, Time, Vrsn


@dataclass(frozen=True)
class LogEntry:
    """One slot of a replica's local log.

    ``time``/``vrsn`` mirror the Adore cache coordinates (term and
    per-term sequence number).  ``is_config`` marks reconfiguration
    entries, whose ``payload`` is the new configuration; these take
    effect the moment they enter a log (hot reconfiguration).

    ``request_id`` is an optional client-assigned ``(client, seq)``
    identity used for at-most-once retry deduplication: a client that
    times out and retries can recognize its own earlier append in the
    new leader's log instead of appending the command again.  The
    protocol itself never reads it.
    """

    time: Time
    vrsn: Vrsn
    payload: Union[Method, Config]
    is_config: bool = False
    request_id: Optional[Tuple[str, int]] = None

    def describe(self) -> str:
        tag = "cfg" if self.is_config else "m"
        return f"{tag}:{self.payload!r}@t{self.time}v{self.vrsn}"


Log = Tuple[LogEntry, ...]


def log_order_key(log: Log) -> Tuple[Time, int]:
    """Raft's log up-to-dateness: last entry's term, then length."""
    if not log:
        return (0, 0)
    return (log[-1].time, len(log))


@dataclass(frozen=True)
class ElectReq:
    """A candidate's vote request, carrying its log for comparison."""

    frm: NodeId
    to: NodeId
    time: Time
    log: Log


@dataclass(frozen=True)
class ElectAck:
    """A voter's reply; ``granted`` is False for explicit rejections."""

    frm: NodeId
    to: NodeId
    time: Time
    granted: bool


@dataclass(frozen=True)
class CommitReq:
    """A leader's replication request: its full log plus commit length."""

    frm: NodeId
    to: NodeId
    time: Time
    log: Log
    commit_len: int


@dataclass(frozen=True)
class CommitAck:
    """A follower's acknowledgement that its log now matches up to
    ``acked_len``."""

    frm: NodeId
    to: NodeId
    time: Time
    acked_len: int


Msg = Union[ElectReq, ElectAck, CommitReq, CommitAck]


def msg_vrsn(msg: Msg) -> int:
    """A secondary ordering component: the log length a request carries
    (0 for acks), used by the global-ordering lemma (Definition C.4)."""
    if isinstance(msg, (ElectReq, CommitReq)):
        return len(msg.log)
    if isinstance(msg, CommitAck):
        return msg.acked_len
    return 0
