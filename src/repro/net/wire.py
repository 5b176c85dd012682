"""The framed wire protocol of the real-network runtime.

Frames are length-prefixed and versioned::

    +----------------+---------+----------------------+
    | length (4B BE) | version | JSON body (UTF-8)    |
    +----------------+---------+----------------------+

``length`` counts everything after the prefix (version byte + body).
The body is JSON with a small *tagged value* extension so the spec's
payload vocabulary -- tuples, frozensets, the ``(client, seq)``
request ids -- round-trips exactly: ``decode_message(encode_message(m))
== m`` for every message type (property-tested with Hypothesis in
``tests/net/test_wire.py``; the bytes themselves are pinned by
``tests/net/test_wire_golden.py``).

**Schema = dataclass, codec = derived.**  A frame is stated once, as a
frozen dataclass.  Its body is its fields, in declaration order, each
encoded by its annotation (:func:`_codec`: ``int``/``str``/``bool``
and ``Optional`` ones, ``Any`` = tagged value, ``Log``,
``Tuple[X, ...]``, ``Tuple[X, Y]``, ``Mapping``), plus ``"kind"``; the per-kind field plan
is derived once at import and one generic pack/unpack pair runs it.
Decoding checks every field's exact type (a JSON ``true`` is not an
int).  **A field with a dataclass default may be absent from the body
and then takes that default** -- that is how a field is added without
bumping :data:`PROTOCOL_VERSION`: old peers' frames still decode; a
field without a default is required.  To add a frame:

1. write the frozen dataclass (annotations from the vocabulary above;
   anything else fails at import);
2. add its ``kind`` row to :data:`FRAME_TYPES`;
3. if a constraint is not a type (a range, an ordering), add a
   validator to ``_VALIDATORS`` -- it runs on the decoded frame.

Then give it a sample in ``tests/net/test_wire_golden.py`` and a
strategy in ``tests/net/test_wire.py`` (a completeness test insists).

Malformed input **never** crashes a node: every decoding failure is a
subclass of :class:`ProtocolError` (truncated, oversized, garbage
bytes, unknown kinds, version skew), which connection handlers catch
and turn into a dropped connection.  Anything else escaping the
decoder is a bug.  The length prefix is read off a socket in exactly
two places, both here -- the :class:`Framer` (fed by the asyncio
protocols of :mod:`repro.net.node`) and :func:`recv_frame` (blocking)
-- and both bound it *before* buffering the body.

**Log-delta layer.**  The specification ships *full logs* in every
``ElectReq``/``CommitReq`` (being a spec, messages carry values, not
deltas), which over a real transport would make steady-state frames
grow with history.  :class:`DeltaEncoder`/:class:`DeltaDecoder` are a
per-connection compression layer: the sender transmits only the suffix
beyond the longest common prefix with the last log it sent on that
connection, and the receiver reconstructs the full log before the
handlers see it -- the spec stays unmodified, the wire stays O(delta).
A freshly (re-)joined node has no shared prefix, so it receives the
whole log in one large frame: exactly the catch-up cost that makes
*growing* the cluster the expensive direction in Fig. 16.  The layer
is stateful per TCP connection (both ends reset on reconnect); TCP's
ordered delivery is what makes the shared state sound.

**InstallSnapshot layer.**  Once a log has been compacted
(:mod:`repro.net.snapshot`), its elided prefix travels as a
*snapshot*: the sender ships the serialized snapshot once per
connection as chunked, length-capped :class:`SnapshotChunk` frames
(identified by the snapshot's ``sid``), and every subsequent delta
frame references it by id (``"b"``) with the shared-prefix length
``"p"`` counted in **absolute** entries.  The receiver reassembles the
chunks, recomputes the sid from the assembled content (an integrity
check -- a mismatch is a :class:`MalformedFrame`), and reconstructs
:class:`~repro.net.snapshot.CompactLog` values transparently.  A
late-joining follower therefore receives ``O(state)`` bytes, not
``O(history)``: that is InstallSnapshot, expressed as a wire-level
representation change the spec handlers never observe.
"""

from __future__ import annotations

import collections.abc
import dataclasses
import hashlib
import json
import struct
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING, Any, Callable, Dict, List, Mapping, NamedTuple, Optional,
    Tuple, Union, get_args, get_origin, get_type_hints,
)

from ..raft.messages import (
    CommitAck,
    CommitReq,
    ElectAck,
    ElectReq,
    Log,
    LogEntry,
)
from .snapshot import CompactLog, Snapshot

if TYPE_CHECKING:  # recv_frame's parameter type, nothing more
    import socket

#: Bumped on any incompatible frame/body change.
PROTOCOL_VERSION = 1

#: Hard cap on a frame's declared length: a malicious or corrupt
#: 4-byte prefix must not make a node try to buffer gigabytes.
MAX_FRAME_BYTES = 16 * 1024 * 1024

#: Serialized-snapshot text per :class:`SnapshotChunk` (well under the
#: frame cap, so a chunk frame never trips :class:`FrameTooLarge`).
SNAPSHOT_CHUNK_CHARS = 1 << 20

#: Hard cap on chunks per snapshot: bounds what a connection can make
#: the receiver buffer during reassembly.
MAX_SNAPSHOT_CHUNKS = 64

_LENGTH = struct.Struct(">I")


# ----------------------------------------------------------------------
# Error taxonomy
# ----------------------------------------------------------------------


class ProtocolError(Exception):
    """Base class: any malformed, oversized, truncated, or otherwise
    undecodable input.  Handlers treat it as "drop this connection"."""


class TruncatedFrame(ProtocolError):
    """The buffer ends before the declared frame does."""


class FrameTooLarge(ProtocolError):
    """The length prefix exceeds :data:`MAX_FRAME_BYTES` (or is zero)."""


class VersionMismatch(ProtocolError):
    """The frame's version byte is not :data:`PROTOCOL_VERSION`."""


class MalformedFrame(ProtocolError):
    """The body is not valid UTF-8 JSON of the expected shape."""


class UnknownMessageType(ProtocolError):
    """The body's ``kind`` names no known message."""


class UnencodableValue(ProtocolError):
    """An outgoing value falls outside the wire vocabulary."""


# ----------------------------------------------------------------------
# Client/admin RPC message types (the spec types live in repro.raft)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class PeerHello:
    """First frame on a peer connection: who is dialing in."""

    nid: int


@dataclass(frozen=True)
class ClientRequest:
    """One client command; ``command`` uses the kvstore vocabulary
    (``("put", k, v)`` / ``("add", k, d)`` / ``("delete", k)`` /
    ``("get", k)`` / ``("noop",)``) or ``("reconfig", members)``.

    ``table_version`` stamps the routing-table version the sender
    routed by (``None`` for unsharded clients).  A node holding shard
    ownership refuses keyed commands it does not own -- or that carry a
    stamp newer than its own ownership -- with ``"wrong-shard"``, so a
    stale route can never silently land on the wrong group."""

    client_id: str
    seq: int
    command: Tuple
    table_version: Optional[int] = None


@dataclass(frozen=True)
class ClientResponse:
    """The reply to a :class:`ClientRequest`.

    ``ok=False`` carries an ``error`` tag; ``"not-leader"`` additionally
    carries the responder's best ``leader_hint`` (or ``None``);
    ``"wrong-shard"`` additionally carries the refusing node's
    ``table_version`` so the client knows how stale its table is.

    ``admitted`` distinguishes the two ways a request can be refused:
    ``False`` means the refusal happened at admission -- the command
    never entered this node's log; ``True`` means the command *had*
    already been appended when the refusal was sent (a leader bounced
    its pending requests on dethrone), so the entry survives in the log
    and may still commit.  Clients must treat an ``admitted`` refusal
    as an ambiguous outcome, exactly like a timeout."""

    client_id: str
    seq: int
    ok: bool
    result: Any = None
    error: Optional[str] = None
    leader_hint: Optional[int] = None
    table_version: Optional[int] = None
    admitted: bool = False


@dataclass(frozen=True)
class StatusRequest:
    """Health/introspection probe (also the client's discovery RPC)."""


@dataclass(frozen=True)
class StatusResponse:
    nid: int
    role: str
    term: int
    commit_len: int
    log_len: int
    members: Tuple[int, ...]
    leader_hint: Optional[int] = None
    #: Entries elided behind this node's snapshot (0 = uncompacted).
    base_len: int = 0
    #: Total replication bytes this node has written to peers.
    bytes_sent: int = 0
    #: Snapshots this node has installed from peers (InstallSnapshot).
    snapshots_installed: int = 0
    #: Linearizable reads served via ReadIndex (no log append).
    reads_fast: int = 0


@dataclass(frozen=True)
class LogRequest:
    """Ask a node for its committed log (cross-node safety checks)."""


@dataclass(frozen=True)
class LogResponse:
    """The committed *tail*: entries from absolute index ``base_len``
    on (``base_len`` is 0 when the node's log is uncompacted)."""

    entries: Log
    base_len: int = 0


@dataclass(frozen=True)
class SnapshotChunk:
    """One piece of a serialized snapshot (InstallSnapshot transport).

    ``sid`` identifies the snapshot; ``seq``/``n`` place this chunk in
    the reassembly; ``data`` is a slice of the serialized text.  The
    receiver recomputes the sid from the assembled snapshot -- a
    mismatch with the declared ``sid`` is an integrity failure."""

    sid: str
    seq: int
    n: int
    data: str


@dataclass(frozen=True)
class ReadProbe:
    """A leader's ReadIndex heartbeat: "are you still following me at
    term ``time``?" -- ``probe`` identifies the read batch."""

    frm: int
    to: int
    probe: int
    time: int


@dataclass(frozen=True)
class ReadProbeAck:
    """A follower's reply, carrying *its own* current term.  An ack
    whose term equals the leader's proves no higher-term leader existed
    when the ack was sent -- the quorum barrier that makes ReadIndex
    reads linearizable without a log append."""

    frm: int
    to: int
    probe: int
    time: int


@dataclass(frozen=True)
class MonitorHello:
    """A node introducing itself to the safety monitor before its first
    :class:`TraceBatch`."""

    nid: int


@dataclass(frozen=True)
class TraceBatch:
    """A batch of :class:`repro.obs.trace.TraceEvent` dicts streamed
    from node ``nid`` to the monitor.

    Events travel as their ``to_dict()`` JSON form (log entries inside
    ``log_advance`` events are already :func:`pack_entry`-encoded by the
    node), so the batch body is plain JSON with no re-tagging.  The
    monitor orders events by arrival and per-node ``lamport`` only --
    ``t_ms`` is each node's *private* monotonic clock and is never
    compared across nodes.
    """

    nid: int
    events: Tuple[Mapping, ...]


@dataclass(frozen=True)
class MonitorStatusRequest:
    """Ask the monitor for its verdict so far."""


@dataclass(frozen=True)
class MonitorStatusResponse:
    """The monitor's verdict: engine counters plus the (possibly empty)
    violation descriptions and the bundle directory if one was written."""

    ok: bool
    events: int
    entries: int
    caches: int
    commits: int
    gaps: int
    nodes: Tuple[int, ...]
    violations: Tuple[str, ...]
    bundle: Optional[str] = None


@dataclass(frozen=True)
class PartitionRequest:
    """Admin fault injection: replace the node's blocked-peer set.

    The node drops raft/probe traffic from and to every nid in
    ``blocked`` until the next request (empty tuple heals).  Client
    connections are never affected.
    """

    blocked: Tuple[int, ...]


@dataclass(frozen=True)
class PartitionResponse:
    """Ack echoing the node id and its now-active blocked set."""

    nid: int
    blocked: Tuple[int, ...]


def hash_key(key: str) -> int:
    """Deterministic 64-bit position of ``key`` in the hash space the
    shard frames' ranges partition.  BLAKE2b, so it is stable across
    processes and Python versions (the built-in ``hash`` is salted per
    process); defined here, once, because routers
    (:mod:`repro.shard.ring` re-exports it) and nodes must agree on it
    exactly as they agree on the frames."""
    digest = hashlib.blake2b(key.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


@dataclass(frozen=True)
class ShardOwnershipRequest:
    """Admin (shard manager): replace this node's owned key ranges.

    ``ranges`` are half-open ``[lo, hi)`` intervals over the 64-bit key
    hash space (:func:`hash_key`); ``version`` is the routing
    table version the ownership belongs to.  A node only moves forward:
    a request older than its current ownership version is ignored (the
    ack carries the version actually in force).  Every node of a group
    gets the same push, so whichever of them is (or becomes) leader
    enforces the same ownership.
    """

    version: int
    ranges: Tuple[Tuple[int, int], ...]


@dataclass(frozen=True)
class ShardOwnershipResponse:
    """Ack echoing the node id and its now-active ownership version."""

    nid: int
    version: int


@dataclass(frozen=True)
class ShardDumpRequest:
    """Ask a leader for its *committed* key-value state within one hash
    range (the drain half of a shard migration): every key ``k`` with
    ``lo <= hash_key(k) < hi``, folded up to the commit index -- the
    same fold the snapshot machinery performs, restricted to the range
    being shipped to the new owner."""

    lo: int
    hi: int


@dataclass(frozen=True)
class ShardDumpResponse:
    """The folded range, plus the coordinates the manager's drain
    barrier keys off: ``role``/``term`` identify *who* answered (two
    dumps from the same node at the same leader term bracket a window
    of continuous leadership -- a leader never regains a term it
    stepped down from), ``log_len``/``commit_len`` place the log, and
    ``commit_in_term`` says whether an entry of the responder's current
    term is already committed (Raft's current-term commit barrier)."""

    nid: int
    role: str
    commit_len: int
    log_len: int
    items: Tuple[Tuple[str, Any], ...]
    version: Optional[int] = None
    term: int = 0
    commit_in_term: bool = False


WireMessage = Any  # one of the raft Msg types or the RPC types above


# ----------------------------------------------------------------------
# Tagged JSON values
# ----------------------------------------------------------------------

_SCALARS = (str, bool, int, float, type(None))


def _pack(value) -> Any:
    """Encode one payload value into tagged JSON."""
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return value
    if isinstance(value, float):
        if value != value or value in (float("inf"), float("-inf")):
            raise UnencodableValue(f"non-finite float {value!r}")
        return value
    if isinstance(value, int):
        return value
    if isinstance(value, tuple):
        return {"__tuple": [_pack(v) for v in value]}
    if isinstance(value, frozenset):
        # Sort for a canonical encoding (members are sortable in every
        # scheme this repo ships; mixed-type sets fall back to repr).
        try:
            items = sorted(value)
        except TypeError:
            items = sorted(value, key=repr)
        return {"__frozenset": [_pack(v) for v in items]}
    if isinstance(value, list):
        return {"__list": [_pack(v) for v in value]}
    if isinstance(value, dict):
        if not all(isinstance(k, str) for k in value):
            raise UnencodableValue("dict payloads must have str keys")
        return {"__dict": {k: _pack(v) for k, v in value.items()}}
    raise UnencodableValue(f"cannot encode {type(value).__name__}: {value!r}")


def _unpack(value) -> Any:
    if isinstance(value, _SCALARS):
        return value
    if isinstance(value, dict):
        if len(value) == 1:
            (tag, inner), = value.items()
            if tag == "__tuple":
                return tuple(_unpack(v) for v in inner)
            if tag == "__frozenset":
                return frozenset(_unpack(v) for v in inner)
            if tag == "__list":
                return [_unpack(v) for v in inner]
            if tag == "__dict":
                return {k: _unpack(v) for k, v in inner.items()}
        raise MalformedFrame(f"untagged object in payload: {value!r}")
    raise MalformedFrame(f"unexpected JSON value {value!r}")


# ----------------------------------------------------------------------
# Log entries
# ----------------------------------------------------------------------


def pack_entry(entry: LogEntry) -> List:
    """One log entry as its JSON list (also how ``log_advance`` trace
    events carry entries to the monitor)."""
    return [
        entry.time,
        entry.vrsn,
        _pack(entry.payload),
        entry.is_config,
        _pack(entry.request_id),
    ]


def unpack_entry(raw) -> LogEntry:
    """Inverse of :func:`pack_entry`, with full shape validation."""
    try:
        time, vrsn, payload, is_config, request_id = raw
    except (TypeError, ValueError) as exc:
        raise MalformedFrame(f"bad log entry {raw!r}") from exc
    if type(time) is not int or type(vrsn) is not int:
        raise MalformedFrame(f"bad entry coordinates {raw!r}")
    if type(is_config) is not bool:
        raise MalformedFrame(f"bad is_config flag {raw!r}")
    return LogEntry(
        time=time,
        vrsn=vrsn,
        payload=_unpack(payload),
        is_config=is_config,
        request_id=_unpack(request_id),
    )


# ----------------------------------------------------------------------
# The derived codec: a frame's dataclass is its schema
# ----------------------------------------------------------------------

#: kind -> frame type: the one registry.  A frame's body is its
#: dataclass fields, in declaration order, each encoded by its
#: annotation (see :func:`_codec`), plus ``"kind"``.
FRAME_TYPES: Dict[str, type] = {
    "elect_req": ElectReq,
    "elect_ack": ElectAck,
    "commit_req": CommitReq,
    "commit_ack": CommitAck,
    "peer_hello": PeerHello,
    "client_request": ClientRequest,
    "client_response": ClientResponse,
    "status_request": StatusRequest,
    "status_response": StatusResponse,
    "log_request": LogRequest,
    "log_response": LogResponse,
    "snap_chunk": SnapshotChunk,
    "read_probe": ReadProbe,
    "read_probe_ack": ReadProbeAck,
    "monitor_hello": MonitorHello,
    "trace_batch": TraceBatch,
    "monitor_status_request": MonitorStatusRequest,
    "monitor_status_response": MonitorStatusResponse,
    "partition_request": PartitionRequest,
    "partition_response": PartitionResponse,
    "shard_ownership_request": ShardOwnershipRequest,
    "shard_ownership_response": ShardOwnershipResponse,
    "shard_dump_request": ShardDumpRequest,
    "shard_dump_response": ShardDumpResponse,
}


def _as_is(value):
    """The pack of a value JSON already carries exactly."""
    return value


def _exactly(*types):
    """Unpack a value shipped as is, checking its type.  ``type(v) in
    types``, not ``isinstance``: a JSON ``true`` is not an int."""
    def unpack(value):
        if type(value) not in types:
            raise MalformedFrame(f"wrong type: {value!r}")
        return value
    return unpack


def _tagged(tp: type):
    """Unpack a tagged value that must come out as a ``tp``."""
    def unpack(value):
        unpacked = _unpack(value)
        if type(unpacked) is not tp:
            raise MalformedFrame(f"must be a {tp.__name__}, got {unpacked!r}")
        return unpacked
    return unpack


def _codec(tp) -> Tuple[Callable, Callable]:
    """``(pack, unpack)`` for one field annotation.

    ``int``/``str``/``bool`` ship as is, and ``Optional`` ones may be
    ``null``; ``Any`` is a tagged value, a bare ``Tuple`` or
    ``frozenset`` a tagged value that must be one; ``Mapping`` is a
    plain JSON object;
    ``Tuple[X, ...]`` is a list of ``X`` and ``Tuple[X, Y]`` a list of
    exactly those (so :data:`Log` is a list of packed entries).  An
    annotation outside this vocabulary fails here, at import."""
    if tp in (int, str, bool):
        return _as_is, _exactly(tp)
    if tp is Any:
        return _pack, _unpack
    if tp is LogEntry:
        return pack_entry, unpack_entry
    if tp is frozenset:
        return _pack, _tagged(frozenset)
    origin, args = get_origin(tp), get_args(tp)
    if origin is collections.abc.Mapping:
        return dict, _exactly(dict)
    if origin is Union and args[0] in (int, str, bool) and args[1:] == (type(None),):
        return _as_is, _exactly(args[0], type(None))
    if origin is tuple and not args:
        return _pack, _tagged(tuple)
    if origin is tuple and args[-1] is Ellipsis:
        pack, unpack = _codec(args[0])

        def unpack_all(raw):
            if type(raw) is not list:
                raise MalformedFrame(f"must be a list, got {raw!r}")
            return tuple([unpack(item) for item in raw])

        return (
            list if pack is _as_is
            else lambda values: [pack(item) for item in values]
        ), unpack_all
    if origin is tuple:
        packs, unpacks = zip(*(_codec(arg) for arg in args))

        def unpack_each(raw):
            if type(raw) is not list or len(raw) != len(unpacks):
                raise MalformedFrame(f"must be a {len(unpacks)}-list, got {raw!r}")
            return tuple([unpack(item) for unpack, item in zip(unpacks, raw)])

        return (
            lambda values: [pack(item) for pack, item in zip(packs, values)]
        ), unpack_each
    raise TypeError(f"no wire encoding for annotation {tp!r}")


# Range checks a type annotation cannot express, run on the decoded
# frame (outgoing frames are built by this repo and not re-checked).

def _check_chunk(chunk: SnapshotChunk) -> None:
    if not 1 <= chunk.n <= MAX_SNAPSHOT_CHUNKS:
        raise MalformedFrame(f"snapshot chunk count {chunk.n} out of range")
    if not 0 <= chunk.seq < chunk.n:
        raise MalformedFrame(f"snapshot chunk seq {chunk.seq}/{chunk.n}")


def _check_ownership(msg: ShardOwnershipRequest) -> None:
    if msg.version < 0:
        raise MalformedFrame(f"ownership version {msg.version} must be >= 0")
    for lo, hi in msg.ranges:
        if not 0 <= lo < hi:
            raise MalformedFrame(f"bad ownership range [{lo}, {hi})")


def _check_dump_range(msg: ShardDumpRequest) -> None:
    if not 0 <= msg.lo < msg.hi:
        raise MalformedFrame(f"bad dump range [{msg.lo}, {msg.hi})")


_VALIDATORS = {
    SnapshotChunk: _check_chunk,
    ShardOwnershipRequest: _check_ownership,
    ShardDumpRequest: _check_dump_range,
}

_REQUIRED = dataclasses.MISSING


class _Plan(NamedTuple):
    """One frame type's codec, derived once at import."""

    kind: str
    cls: type
    #: ``(name, unpack, default)`` per field, in declaration order;
    #: ``default`` is :data:`_REQUIRED` or what an absent field means.
    fields: Tuple[Tuple[str, Callable, Any], ...]
    #: ``(name, pack)`` for the fields not shipped as is.
    packed: Tuple[Tuple[str, Callable], ...]
    validate: Optional[Callable]


def _plan(kind: str, cls: type) -> _Plan:
    hints = get_type_hints(cls)
    codecs = [(f, *_codec(hints[f.name])) for f in dataclasses.fields(cls)]
    return _Plan(
        kind, cls,
        tuple((f.name, unpack, f.default) for f, _, unpack in codecs),
        tuple((f.name, pack) for f, pack, _ in codecs if pack is not _as_is),
        _VALIDATORS.get(cls),
    )


_PLAN_OF_KIND = {kind: _plan(kind, cls) for kind, cls in FRAME_TYPES.items()}
_PLAN_OF_TYPE = {plan.cls: plan for plan in _PLAN_OF_KIND.values()}
_NO_FIELDS: Mapping = {}


def _to_body(msg: WireMessage) -> Dict:
    plan = _PLAN_OF_TYPE.get(type(msg))
    if plan is None:
        raise UnencodableValue(f"not a wire message: {msg!r}")
    # A dataclass instance's __dict__ *is* its fields in declaration
    # order, which is the wire order.
    body = dict(vars(msg))
    for name, pack in plan.packed:
        body[name] = pack(body[name])
    body["kind"] = plan.kind
    return body


def _from_body(plan: _Plan, body: Dict, given: Mapping = _NO_FIELDS) -> WireMessage:
    """Build ``plan.cls`` from a parsed body.  An absent field takes
    the dataclass default (so a frame from a peer predating the field
    still decodes) or, having none, is an error; ``given`` fields are
    taken already decoded (the delta layer's reconstructed log)."""
    values = []
    name = None
    try:
        for name, unpack, default in plan.fields:
            if name in given:
                values.append(given[name])
            elif name in body:
                values.append(unpack(body[name]))
            elif default is _REQUIRED:
                raise MalformedFrame("missing")
            else:
                values.append(default)
    except Exception as exc:  # not only ours: never leak a bare error
        raise MalformedFrame(f"bad {plan.kind} field {name!r}: {exc}") from exc
    msg = plan.cls(*values)
    if plan.validate is not None:
        plan.validate(msg)
    return msg


# ----------------------------------------------------------------------
# Frames: body <-> bytes, the length prefix, and the two readers
# ----------------------------------------------------------------------

_VERSION = bytes([PROTOCOL_VERSION])
_to_json = json.JSONEncoder(separators=(",", ":"), allow_nan=False).encode


def _dump_body(body: Dict) -> bytes:
    """A frame body's bytes: version byte + compact JSON."""
    try:
        return _VERSION + _to_json(body).encode("utf-8")
    except (ValueError, TypeError) as exc:
        raise UnencodableValue(str(exc)) from exc


def _load_body(payload: bytes) -> Dict:
    """Inverse of :func:`_dump_body` -- the one place a received frame
    is parsed: version byte, UTF-8, JSON, an object with a str kind."""
    if not payload:
        raise TruncatedFrame("empty frame body")
    if payload[0] != PROTOCOL_VERSION:
        raise VersionMismatch(
            f"version {payload[0]}, expected {PROTOCOL_VERSION}"
        )
    try:
        body = json.loads(payload[1:].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise MalformedFrame(f"undecodable body: {exc}") from exc
    if not isinstance(body, dict):
        raise MalformedFrame(f"body must be an object, got {body!r}")
    if not isinstance(body.get("kind"), str):
        raise UnknownMessageType(f"unknown kind {body.get('kind')!r}")
    return body


def _decode_body(body: Dict) -> WireMessage:
    plan = _PLAN_OF_KIND.get(body["kind"])
    if plan is None:
        raise UnknownMessageType(f"unknown kind {body['kind']!r}")
    return _from_body(plan, body)


def encode_message(msg: WireMessage) -> bytes:
    """Serialize one message to a frame *body* (version byte + JSON)."""
    return _dump_body(_to_body(msg))


def decode_message(payload: bytes) -> WireMessage:
    """Inverse of :func:`encode_message`; raises :class:`ProtocolError`."""
    return _decode_body(_load_body(payload))


def _checked_length(length: int) -> int:
    """The one bound on a frame length, declared or about to be."""
    if not 0 < length <= MAX_FRAME_BYTES:
        raise FrameTooLarge(
            f"frame length {length} outside 1..{MAX_FRAME_BYTES}"
        )
    return length


def _frame(payload: bytes) -> bytes:
    return _LENGTH.pack(_checked_length(len(payload))) + payload


def encode_frame(msg: WireMessage) -> bytes:
    """A complete frame: length prefix + versioned body."""
    return _frame(encode_message(msg))


def decode_frame(data: bytes, offset: int = 0) -> Tuple[WireMessage, int]:
    """Decode one frame starting at ``offset``; returns ``(message,
    next_offset)``.  Raises :class:`TruncatedFrame` when ``data`` ends
    mid-frame (the caller should read more and retry)."""
    header_end = offset + _LENGTH.size
    if len(data) < header_end:
        raise TruncatedFrame("incomplete length prefix")
    length = _checked_length(_LENGTH.unpack_from(data, offset)[0])
    if len(data) < header_end + length:
        raise TruncatedFrame(
            f"frame declares {length} bytes, {len(data) - header_end} present"
        )
    payload = data[header_end : header_end + length]
    return decode_message(payload), header_end + length


class Framer:
    """Cuts frame bodies out of a byte stream that arrives in pieces of
    any size (an ``asyncio.Protocol``'s ``data_received``).  Each length
    is bounded as soon as its 4 bytes are in: a bad prefix raises
    :class:`FrameTooLarge` before any of the body it declares is
    waited for."""

    __slots__ = ("_held", "_need")

    def __init__(self) -> None:
        self._held = bytearray()
        #: What ``_held`` must reach for the next cut: a length prefix,
        #: or a prefix and the body it declares.
        self._need = _LENGTH.size

    def feed(self, data: bytes) -> List[bytearray]:
        """The bodies of the frames ``data`` completes, in order."""
        held = self._held
        held += data
        need = self._need
        bodies = []
        while len(held) >= need:
            if need == _LENGTH.size:
                need += _checked_length(_LENGTH.unpack_from(held)[0])
            else:
                bodies.append(held[_LENGTH.size:need])
                del held[:need]
                need = _LENGTH.size
        self._need = need
        return bodies


def _recv_exactly(sock: socket.socket, n: int) -> bytes:
    chunks = []
    while n:
        chunk = sock.recv(n)
        if not chunk:
            raise ConnectionError("peer closed mid-frame")
        chunks.append(chunk)
        n -= len(chunk)
    return b"".join(chunks)


def recv_frame(sock: socket.socket) -> bytes:
    """Read one frame body from a blocking socket; raises
    :class:`FrameTooLarge` on a bad prefix (before reading on),
    ``ConnectionError`` when the peer goes away mid-frame."""
    header = _recv_exactly(sock, _LENGTH.size)
    return _recv_exactly(sock, _checked_length(_LENGTH.unpack(header)[0]))


# ----------------------------------------------------------------------
# Snapshot serialization (InstallSnapshot payload)
# ----------------------------------------------------------------------


_unpack_int = _exactly(int)
_pack_history, _unpack_history = _codec(Tuple[Tuple[int, frozenset], ...])


def pack_snapshot(snap: Snapshot) -> str:
    """Serialize a snapshot to the JSON text shipped in chunks."""
    obj = {
        "base_len": snap.base_len,
        "last_entry": pack_entry(snap.last_entry),
        "config": _pack(snap.config),
        "store": _pack(dict(snap.store)),
        "sessions": dict(snap.sessions),
        "config_history": _pack_history(snap.config_history),
    }
    try:
        return _to_json(obj)
    except (ValueError, TypeError) as exc:
        raise UnencodableValue(f"unencodable snapshot: {exc}") from exc


def unpack_snapshot(text: str) -> Snapshot:
    """Inverse of :func:`pack_snapshot`, with full shape validation."""
    try:
        obj = json.loads(text)
        sessions = _exactly(dict)(obj["sessions"])
        if not all(
            type(k) is str and type(v) is int for k, v in sessions.items()
        ):
            raise MalformedFrame("sessions must map str -> int")
        snap = Snapshot(
            base_len=_unpack_int(obj["base_len"]),
            last_entry=unpack_entry(obj["last_entry"]),
            config=_tagged(frozenset)(obj["config"]),
            store=_tagged(dict)(obj["store"]),
            sessions=sessions,
            config_history=_unpack_history(obj["config_history"]),
        )
    except (ValueError, TypeError, KeyError, MalformedFrame) as exc:
        # Not JSON, not an object, a field missing or of the wrong shape.
        raise MalformedFrame(f"bad snapshot: {exc!r}") from exc
    if snap.base_len < 1:
        raise MalformedFrame(f"snapshot base_len {snap.base_len} must be >= 1")
    return snap


def snapshot_chunks(snap: Snapshot) -> List[SnapshotChunk]:
    """Split a snapshot into its wire chunks."""
    text = pack_snapshot(snap)
    parts = [
        text[i : i + SNAPSHOT_CHUNK_CHARS]
        for i in range(0, len(text), SNAPSHOT_CHUNK_CHARS)
    ] or [""]
    if len(parts) > MAX_SNAPSHOT_CHUNKS:
        raise FrameTooLarge(
            f"snapshot needs {len(parts)} chunks > {MAX_SNAPSHOT_CHUNKS}"
        )
    sid = snap.sid
    return [
        SnapshotChunk(sid=sid, seq=i, n=len(parts), data=part)
        for i, part in enumerate(parts)
    ]


# ----------------------------------------------------------------------
# Per-connection log-delta layer
# ----------------------------------------------------------------------


_pack_log, _unpack_log = _codec(Log)
_unpack_optional_str = _exactly(str, type(None))
#: The two log-carrying frames' plans, under their delta kinds.
_DELTA_PLANS = {
    "delta_" + _PLAN_OF_TYPE[cls].kind: _PLAN_OF_TYPE[cls]
    for cls in (ElectReq, CommitReq)
}


#: Snapshots a connection keeps installed.  The decoder's window, and
#: therefore the encoder's memory of what it shipped: an id the decoder
#: has dropped must be shipped again before it is referenced.
_MAX_INSTALLED = 4


def _install(window: Dict[str, Any], sid: str, value: Any) -> None:
    """Add ``sid`` to a connection's snapshot window, oldest out.  Both
    halves of the connection go through here, in the same order, which
    is what keeps the encoder's window equal to the decoder's."""
    while len(window) >= _MAX_INSTALLED:
        del window[next(iter(window))]
    window[sid] = value


def _common_prefix_len(a: Log, b: Log) -> int:
    n = min(len(a), len(b))
    # A log grows by ``log + (entry,)``: shared entries are the same
    # objects, so one C-level tuple comparison (identity first) settles
    # the common case; only a pair that differs is walked in Python.
    if a[:n] == b[:n]:
        return n
    return next(i for i in range(n) if a[i] is not b[i] and a[i] != b[i])


class DeltaEncoder:
    """Sender half of the per-connection log compression.

    For log-carrying messages, substitutes the full log with
    ``{"p": shared_prefix_len, "s": suffix}`` relative to the last log
    sent on this connection.  Everything else passes through
    :func:`encode_message` untouched.

    Compact logs additionally reference their snapshot by id
    (``"b"``); the first frame carrying a given snapshot is preceded by
    its :class:`SnapshotChunk` frames (so ``encode`` may return several
    concatenated frames -- callers write the bytes to the stream as
    one unit).  ``"p"`` stays an *absolute* entry count; for a compact
    log it is at least the snapshot's ``base_len``.
    """

    def __init__(self) -> None:
        self._last: Log = ()
        #: Snapshot ids shipped on this connection that the decoder
        #: still holds: the same first-in, first-out window, in step.
        self._shipped: Dict[str, None] = {}

    def encode(self, msg: WireMessage) -> bytes:
        if not isinstance(msg, (ElectReq, CommitReq)):
            return encode_frame(msg)
        log = msg.log
        preamble = b""
        body = {
            "kind": "delta_" + _PLAN_OF_TYPE[type(msg)].kind,
            "frm": msg.frm,
            "to": msg.to,
            "time": msg.time,
        }
        if isinstance(log, CompactLog):
            snap = log.snap
            sid = snap.sid
            if sid not in self._shipped:
                preamble = b"".join(
                    encode_frame(chunk) for chunk in snapshot_chunks(snap)
                )
                _install(self._shipped, sid, None)
            if (isinstance(self._last, CompactLog)
                    and self._last.snap.sid == sid):
                prefix = snap.base_len + _common_prefix_len(
                    self._last.tail, log.tail
                )
            else:
                # New snapshot on this connection (or the peer last saw
                # a plain log): nothing beyond the snapshot is shared.
                prefix = snap.base_len
            body["b"] = sid
        elif isinstance(self._last, CompactLog):
            # Compact -> plain transition (e.g. a partitioned node that
            # never compacted won an election): full reship.
            prefix = 0
        else:
            prefix = _common_prefix_len(self._last, log)
        self._last = log
        body["p"] = prefix
        body["s"] = _pack_log(log[prefix:])
        if isinstance(msg, CommitReq):
            body["commit_len"] = msg.commit_len
        return preamble + _frame(_dump_body(body))


class DeltaDecoder:
    """Receiver half: reconstructs full logs from delta frames.

    A delta frame whose shared prefix exceeds what this connection has
    seen is a :class:`MalformedFrame` (it can only happen if sender and
    receiver state diverged, which the connection-scoped lifetime and
    TCP ordering rule out short of a bug or corruption).

    :class:`SnapshotChunk` frames are absorbed into per-connection
    reassembly state and yield ``None`` (no message for the handlers);
    a delta frame referencing snapshot ``"b"`` reconstructs a
    :class:`~repro.net.snapshot.CompactLog` over the assembled
    snapshot.  The assembled snapshot's recomputed sid must match the
    declared one -- corruption is caught at the wire, not in the
    handlers.
    """

    #: Reassembly buffers kept per connection.
    _MAX_PENDING = 2

    def __init__(self) -> None:
        self._last: Log = ()
        self._pending: Dict[str, Dict] = {}
        self._snapshots: Dict[str, Snapshot] = {}
        #: Fully assembled snapshots on this connection (observability).
        self.snapshots_installed = 0

    def _absorb_chunk(self, chunk: SnapshotChunk) -> None:
        state = self._pending.get(chunk.sid)
        if state is None:
            while len(self._pending) >= self._MAX_PENDING:
                self._pending.pop(next(iter(self._pending)))
            state = self._pending[chunk.sid] = {"n": chunk.n, "parts": {}}
        if chunk.n != state["n"]:
            self._pending.pop(chunk.sid, None)
            raise MalformedFrame(
                f"inconsistent chunk count for snapshot {chunk.sid}"
            )
        state["parts"][chunk.seq] = chunk.data
        if len(state["parts"]) < state["n"]:
            return
        text = "".join(state["parts"][i] for i in range(state["n"]))
        self._pending.pop(chunk.sid)
        snap = unpack_snapshot(text)
        if snap.sid != chunk.sid:
            raise MalformedFrame(
                f"snapshot integrity failure: assembled {snap.sid}, "
                f"declared {chunk.sid}"
            )
        _install(self._snapshots, chunk.sid, snap)
        self.snapshots_installed += 1

    def decode(self, payload: bytes) -> Optional[WireMessage]:
        body = _load_body(payload)
        plan = _DELTA_PLANS.get(body["kind"])
        if plan is None:
            msg = _decode_body(body)
            if type(msg) is SnapshotChunk:
                self._absorb_chunk(msg)
                return None
            return msg
        try:
            prefix = _unpack_int(body.get("p"))
            suffix = _unpack_log(body.get("s"))
            sid = _unpack_optional_str(body.get("b"))
        except MalformedFrame as exc:
            raise MalformedFrame(f"bad {body['kind']} p/s/b: {exc}") from exc
        if sid is not None:
            snap = self._snapshots.get(sid)
            if snap is None:
                raise MalformedFrame(
                    f"delta references uninstalled snapshot {sid}"
                )
            if (isinstance(self._last, CompactLog)
                    and self._last.snap.sid == sid):
                reusable = self._last.tail
            else:
                reusable = ()
            if not snap.base_len <= prefix <= snap.base_len + len(reusable):
                raise MalformedFrame(
                    f"delta prefix {prefix} incompatible with snapshot "
                    f"{sid} (+{len(reusable)} shared tail entries)"
                )
            log = CompactLog(snap, reusable[: prefix - snap.base_len] + suffix)
        else:
            if prefix < 0 or prefix > len(self._last):
                raise MalformedFrame(
                    f"delta prefix {prefix} exceeds connection state "
                    f"({len(self._last)} entries)"
                )
            if isinstance(self._last, CompactLog):
                if prefix != 0:
                    raise MalformedFrame(
                        f"plain delta prefix {prefix} over snapshotted "
                        f"connection state"
                    )
                log = suffix
            else:
                log = self._last[:prefix] + suffix
        self._last = log
        # The remaining fields are the stateless frame's own.
        return _from_body(plan, body, {"log": log})
