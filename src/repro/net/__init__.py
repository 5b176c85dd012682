"""repro.net -- the real-network runtime (the paper's extraction analog).

The paper's evaluation does not run inside a simulator: the verified
Raft specification is extracted to OCaml and serves real client
traffic on an EC2 cluster while the membership reconfigures (Section
7, Fig. 16).  This package is the reproduction's analog of that step:
the *same unmodified* specification handlers
(:class:`repro.raft.server.Server`) run as live OS processes speaking
a framed wire protocol over asyncio TCP, driven by the *same*
election/heartbeat policy (:class:`repro.runtime.driver.ElectionDriver`)
the simulator uses.

* :mod:`repro.net.wire` -- length-prefixed, versioned codec for every
  spec message plus client RPCs, with a :class:`ProtocolError`
  taxonomy (malformed frames never crash a node), a per-connection
  log-delta layer (the transport ships log suffixes, handlers still
  see full logs), and chunked InstallSnapshot frames for compacted
  logs;
* :mod:`repro.net.snapshot` -- Raft log compaction: the committed
  prefix folds into a :class:`~repro.net.snapshot.Snapshot` behind a
  :class:`~repro.net.snapshot.CompactLog`, which the unmodified spec
  handlers keep operating on (absolute indices, loud failure on any
  elided access);
* :mod:`repro.net.node` -- one asyncio event loop per process hosting
  one ``Server``: ``asyncio.Protocol`` connections that handle each
  frame as it is read and write what a tick queued at its end, per-peer
  outbound links with reconnect, capped exponential backoff and
  bounded outboxes, plus the shared election driver on wall-clock
  timers;
* :mod:`repro.net.client` -- blocking-socket client with leader
  discovery, NotLeader redirects, ``(client_id, seq)`` at-most-once
  request ids, and :class:`repro.runtime.history.History` recording;
* :mod:`repro.net.procs` -- spawn/health-check/tear down a localhost
  cluster of node subprocesses (ephemeral ports, reaped children);
* ``python -m repro.net`` -- node / client / demo subcommands.
"""

from .client import ClientError, NetClient
from .node import NodeConfig, NetNode, run_node
from .procs import LocalCluster, NodeHandle, allocate_ports
from .snapshot import CompactLog, CompactServer, Snapshot, SnapshotElided
from .wire import (
    ClientRequest,
    ClientResponse,
    FrameTooLarge,
    LogRequest,
    LogResponse,
    MalformedFrame,
    PeerHello,
    ProtocolError,
    ReadProbe,
    ReadProbeAck,
    SnapshotChunk,
    StatusRequest,
    StatusResponse,
    TruncatedFrame,
    UnencodableValue,
    UnknownMessageType,
    VersionMismatch,
    decode_frame,
    decode_message,
    encode_frame,
    encode_message,
    pack_snapshot,
    unpack_snapshot,
)

__all__ = [
    "ClientError",
    "ClientRequest",
    "ClientResponse",
    "CompactLog",
    "CompactServer",
    "FrameTooLarge",
    "LocalCluster",
    "LogRequest",
    "LogResponse",
    "MalformedFrame",
    "NetClient",
    "NetNode",
    "NodeConfig",
    "NodeHandle",
    "PeerHello",
    "ProtocolError",
    "ReadProbe",
    "ReadProbeAck",
    "Snapshot",
    "SnapshotChunk",
    "SnapshotElided",
    "StatusRequest",
    "StatusResponse",
    "TruncatedFrame",
    "UnencodableValue",
    "UnknownMessageType",
    "VersionMismatch",
    "allocate_ports",
    "decode_frame",
    "decode_message",
    "encode_frame",
    "encode_message",
    "pack_snapshot",
    "run_node",
    "unpack_snapshot",
]
