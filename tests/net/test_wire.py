"""Property tests for the wire codec.

The contracts under test (ISSUE 4, satellite 1):

* for every message type, ``decode_message(encode_message(m)) == m``;
* truncated, garbage, and oversized frames raise a
  :class:`~repro.net.wire.ProtocolError` subclass -- never a bare
  exception and never a hang;
* the per-connection delta layer is transparent: a paired
  encoder/decoder reproduces every message exactly, whatever the log
  evolution between messages.
"""

import json
import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.net.snapshot import CompactLog, Snapshot
from repro.net.wire import (
    MAX_FRAME_BYTES,
    MAX_SNAPSHOT_CHUNKS,
    PROTOCOL_VERSION,
    ClientRequest,
    ClientResponse,
    DeltaDecoder,
    DeltaEncoder,
    FrameTooLarge,
    LogRequest,
    LogResponse,
    MalformedFrame,
    MonitorHello,
    MonitorStatusRequest,
    MonitorStatusResponse,
    PartitionRequest,
    PartitionResponse,
    PeerHello,
    ProtocolError,
    ReadProbe,
    ReadProbeAck,
    ShardDumpRequest,
    ShardDumpResponse,
    ShardOwnershipRequest,
    ShardOwnershipResponse,
    SnapshotChunk,
    StatusRequest,
    StatusResponse,
    TraceBatch,
    TruncatedFrame,
    UnencodableValue,
    VersionMismatch,
    decode_frame,
    decode_message,
    encode_frame,
    encode_message,
    pack_snapshot,
    snapshot_chunks,
    unpack_snapshot,
)
from repro.raft.messages import (
    CommitAck,
    CommitReq,
    ElectAck,
    ElectReq,
    LogEntry,
)

# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------

nids = st.integers(min_value=1, max_value=9)
terms = st.integers(min_value=0, max_value=50)
keys = st.text(min_size=1, max_size=8)
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**40), max_value=2**40),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.text(max_size=12),
)
#: Payloads as the runtime produces them: kvstore command tuples,
#: bare strings, and configurations (frozensets of node ids).
commands = st.one_of(
    st.tuples(st.just("put"), keys, scalars),
    st.tuples(st.just("add"), keys, st.integers(-100, 100)),
    st.tuples(st.just("delete"), keys),
    st.tuples(st.just("get"), keys),
    st.tuples(st.just("noop")),
    st.text(min_size=1, max_size=10),
)
configs = st.frozensets(nids, min_size=1, max_size=5)
request_ids = st.one_of(
    st.none(), st.tuples(st.text(min_size=1, max_size=8), st.integers(0, 999))
)


@st.composite
def log_entries(draw):
    is_config = draw(st.booleans())
    payload = draw(configs) if is_config else draw(commands)
    return LogEntry(
        time=draw(terms),
        vrsn=draw(st.integers(1, 20)),
        payload=payload,
        is_config=is_config,
        request_id=draw(request_ids),
    )


logs = st.lists(log_entries(), max_size=6).map(tuple)

elect_reqs = st.builds(ElectReq, frm=nids, to=nids, time=terms, log=logs)
elect_acks = st.builds(
    ElectAck, frm=nids, to=nids, time=terms, granted=st.booleans()
)
commit_reqs = st.builds(
    CommitReq, frm=nids, to=nids, time=terms, log=logs,
    commit_len=st.integers(0, 6),
)
commit_acks = st.builds(
    CommitAck, frm=nids, to=nids, time=terms, acked_len=st.integers(0, 6)
)
client_ids = st.text(min_size=1, max_size=10)
rpc_messages = st.one_of(
    st.builds(PeerHello, nid=nids),
    st.builds(
        ClientRequest, client_id=client_ids, seq=st.integers(0, 10_000),
        command=st.one_of(
            commands.filter(lambda c: isinstance(c, tuple)),
            st.tuples(st.just("reconfig"), configs),
        ),
        table_version=st.one_of(st.none(), st.integers(1, 100)),
    ),
    st.builds(
        ClientResponse, client_id=client_ids, seq=st.integers(0, 10_000),
        ok=st.booleans(), result=scalars,
        error=st.one_of(st.none(), st.sampled_from(
            ["not-leader", "timeout", "denied", "wrong-shard"]
        )),
        leader_hint=st.one_of(st.none(), nids),
        table_version=st.one_of(st.none(), st.integers(1, 100)),
        admitted=st.booleans(),
    ),
    st.builds(StatusRequest),
    st.builds(
        StatusResponse, nid=nids, role=st.sampled_from(
            ["follower", "candidate", "leader"]
        ),
        term=terms, commit_len=st.integers(0, 100),
        log_len=st.integers(0, 100),
        members=st.lists(nids, max_size=5).map(tuple),
        leader_hint=st.one_of(st.none(), nids),
    ),
    st.builds(LogRequest),
    st.builds(LogResponse, entries=logs),
    st.builds(
        ReadProbe, frm=nids, to=nids,
        probe=st.integers(0, 10**6), time=terms,
    ),
    st.builds(
        ReadProbeAck, frm=nids, to=nids,
        probe=st.integers(0, 10**6), time=terms,
    ),
    st.builds(MonitorHello, nid=nids),
    # Trace events travel as plain-JSON dicts (TraceEvent.to_dict()).
    st.builds(
        TraceBatch, nid=nids,
        events=st.lists(
            st.dictionaries(
                st.text(min_size=1, max_size=8),
                st.one_of(
                    st.integers(-5, 10**6), st.text(max_size=8),
                    st.booleans(), st.none(),
                ),
                max_size=4,
            ),
            max_size=3,
        ).map(tuple),
    ),
    st.builds(MonitorStatusRequest),
    st.builds(
        MonitorStatusResponse, ok=st.booleans(),
        events=st.integers(0, 10**6), entries=st.integers(0, 10**6),
        caches=st.integers(0, 10**6), commits=st.integers(0, 10**6),
        gaps=st.integers(0, 100),
        nodes=st.lists(nids, max_size=5).map(tuple),
        violations=st.lists(st.text(max_size=30), max_size=3).map(tuple),
        bundle=st.one_of(st.none(), st.text(max_size=20)),
    ),
    st.builds(
        PartitionRequest, blocked=st.lists(nids, max_size=4).map(tuple)
    ),
    st.builds(
        PartitionResponse, nid=nids,
        blocked=st.lists(nids, max_size=4).map(tuple),
    ),
    st.builds(
        ShardOwnershipRequest, version=st.integers(0, 100),
        ranges=st.lists(
            st.tuples(st.integers(0, 2**63), st.integers(1, 2**63))
            .map(lambda pair: (min(pair), max(pair)))
            .filter(lambda pair: pair[0] < pair[1]),
            max_size=4,
        ).map(tuple),
    ),
    st.builds(
        ShardOwnershipResponse, nid=nids, version=st.integers(0, 100)
    ),
    st.builds(
        ShardDumpRequest,
        lo=st.integers(0, 2**63 - 1), hi=st.integers(2**63, 2**64),
    ),
    st.builds(
        ShardDumpResponse, nid=nids,
        role=st.sampled_from(["follower", "candidate", "leader"]),
        commit_len=st.integers(0, 100), log_len=st.integers(0, 100),
        items=st.lists(
            st.tuples(keys, scalars), max_size=4
        ).map(lambda pairs: tuple(dict(pairs).items())),
        version=st.one_of(st.none(), st.integers(0, 100)),
        term=terms, commit_in_term=st.booleans(),
    ),
)
raft_messages = st.one_of(elect_reqs, elect_acks, commit_reqs, commit_acks)
messages = st.one_of(raft_messages, rpc_messages)

stores = st.dictionaries(keys, scalars, max_size=4)
sessions = st.dictionaries(client_ids, st.integers(0, 999), max_size=4)


@st.composite
def snapshots(draw):
    base = draw(st.integers(min_value=1, max_value=50))
    history = draw(st.lists(
        st.tuples(st.integers(0, 49), configs), max_size=3
    ))
    return Snapshot(
        base_len=base,
        last_entry=draw(log_entries()),
        config=draw(configs),
        store=draw(stores),
        sessions=draw(sessions),
        config_history=tuple(history),
    )


#: Well-formed chunks (the codec's own validation bounds).
chunk_messages = st.integers(min_value=1, max_value=5).flatmap(
    lambda n: st.builds(
        SnapshotChunk,
        sid=st.text(min_size=1, max_size=16),
        seq=st.integers(0, n - 1),
        n=st.just(n),
        data=st.text(max_size=50),
    )
)


# ----------------------------------------------------------------------
# Round trips
# ----------------------------------------------------------------------


@given(messages)
def test_message_round_trip(msg):
    assert decode_message(encode_message(msg)) == msg


@given(messages)
def test_frame_round_trip(msg):
    frame = encode_frame(msg)
    decoded, consumed = decode_frame(frame)
    assert decoded == msg
    assert consumed == len(frame)


@given(st.lists(messages, min_size=2, max_size=5))
def test_concatenated_frames_round_trip(msgs):
    data = b"".join(encode_frame(m) for m in msgs)
    offset, out = 0, []
    while offset < len(data):
        msg, offset = decode_frame(data, offset)
        out.append(msg)
    assert out == msgs


# ----------------------------------------------------------------------
# Malformed input: always ProtocolError, never a bare exception
# ----------------------------------------------------------------------


@given(messages, st.data())
def test_truncated_frames_raise_truncated(msg, data):
    frame = encode_frame(msg)
    cut = data.draw(st.integers(0, len(frame) - 1))
    with pytest.raises(TruncatedFrame):
        decode_frame(frame[:cut])


@given(st.binary(max_size=64))
def test_garbage_never_escapes_the_taxonomy(blob):
    try:
        decode_frame(blob)
    except ProtocolError:
        pass  # the only acceptable failure mode


@given(messages, st.data())
def test_flipped_bytes_never_escape_the_taxonomy(msg, data):
    frame = bytearray(encode_frame(msg))
    index = data.draw(st.integers(0, len(frame) - 1))
    frame[index] ^= data.draw(st.integers(1, 255))
    try:
        decoded, _ = decode_frame(bytes(frame))
    except ProtocolError:
        return
    # A flip that survives decoding must still produce a wire message
    # (e.g. a bit flip inside a string payload).
    assert decoded is not None


def test_oversized_declared_length_rejected_without_buffering():
    header = struct.pack(">I", MAX_FRAME_BYTES + 1)
    with pytest.raises(FrameTooLarge):
        decode_frame(header + b"x" * 10)


def test_zero_length_frame_rejected():
    with pytest.raises(FrameTooLarge):
        decode_frame(struct.pack(">I", 0) + b"rest")


def test_version_skew_rejected():
    body = encode_message(StatusRequest())
    skewed = bytes([PROTOCOL_VERSION + 1]) + body[1:]
    with pytest.raises(VersionMismatch):
        decode_message(skewed)


def test_unknown_kind_and_missing_fields_rejected():
    def frame_for(obj):
        payload = bytes([PROTOCOL_VERSION]) + json.dumps(obj).encode()
        return payload

    for bad in (
        {"kind": "no_such_kind"},
        {"kind": "elect_req", "frm": 1},            # missing fields
        {"kind": "elect_req", "frm": "x", "to": 2,  # wrong types
         "time": 3, "log": []},
        {"kind": "commit_req", "frm": 1, "to": 2, "time": 3,
         "log": [[1]], "commit_len": 0},            # bad entry shape
        ["not", "an", "object"],
        "just a string",
    ):
        with pytest.raises(ProtocolError):
            decode_message(frame_for(bad))


def test_unencodable_values_rejected_symmetrically():
    with pytest.raises(UnencodableValue):
        encode_message(ClientResponse("c", 0, True, result=object()))
    with pytest.raises(UnencodableValue):
        encode_message("not a message")
    with pytest.raises(UnencodableValue):
        encode_message(ClientResponse("c", 0, True, result=float("nan")))


# ----------------------------------------------------------------------
# Delta layer transparency
# ----------------------------------------------------------------------


@given(st.lists(messages, min_size=1, max_size=12))
def test_delta_connection_is_transparent(msgs):
    encoder, decoder = DeltaEncoder(), DeltaDecoder()
    for msg in msgs:
        frame = encoder.encode(msg)
        (length,) = struct.unpack_from(">I", frame)
        assert decoder.decode(frame[4 : 4 + length]) == msg


@given(logs, st.lists(log_entries(), max_size=4))
def test_delta_compresses_appends(base, extra):
    # Steady state: an appended suffix ships only the new entries.
    encoder = DeltaEncoder()
    first = encoder.encode(CommitReq(frm=1, to=2, time=3, log=base,
                                     commit_len=0))
    grown = base + tuple(extra)
    second = encoder.encode(CommitReq(frm=1, to=2, time=3, log=grown,
                                      commit_len=0))
    # The second frame carries at most the suffix (plus fixed overhead):
    # it must not re-ship the shared prefix.
    empty = DeltaEncoder().encode(CommitReq(frm=1, to=2, time=3, log=(),
                                            commit_len=0))
    suffix_only = len(DeltaEncoder().encode(
        CommitReq(frm=1, to=2, time=3, log=tuple(extra), commit_len=0)
    ))
    assert len(second) <= suffix_only + len(empty)
    assert len(first) >= len(empty)


def test_delta_decoder_rejects_prefix_beyond_connection_state():
    encoder, decoder = DeltaEncoder(), DeltaDecoder()
    log = (LogEntry(time=1, vrsn=1, payload="a"),
           LogEntry(time=1, vrsn=2, payload="b"))
    frame = encoder.encode(CommitReq(frm=1, to=2, time=1, log=log,
                                     commit_len=0))
    decoder.decode(frame[4:])
    # Second frame claims a 2-entry shared prefix; feed it to a FRESH
    # decoder (as after a reconnect) that has no such prefix.
    second = encoder.encode(CommitReq(frm=1, to=2, time=1,
                                      log=log + log[:1], commit_len=0))
    with pytest.raises(ProtocolError):
        DeltaDecoder().decode(second[4:])


@settings(max_examples=25)
@given(st.lists(st.binary(min_size=1, max_size=40), min_size=1, max_size=5))
def test_delta_decoder_survives_garbage(blobs):
    decoder = DeltaDecoder()
    for blob in blobs:
        try:
            decoder.decode(blob)
        except ProtocolError:
            pass


# ----------------------------------------------------------------------
# Snapshots on the wire (InstallSnapshot)
# ----------------------------------------------------------------------


def _decode_stream(decoder, blob):
    """Split a (possibly multi-frame) encoder output and feed every
    frame body to the delta decoder, keeping the non-None messages."""
    out, offset = [], 0
    while offset < len(blob):
        (length,) = struct.unpack_from(">I", blob, offset)
        msg = decoder.decode(blob[offset + 4 : offset + 4 + length])
        if msg is not None:
            out.append(msg)
        offset += 4 + length
    return out


@given(chunk_messages)
def test_snapshot_chunk_round_trip(chunk):
    assert decode_message(encode_message(chunk)) == chunk


@given(snapshots())
def test_snapshot_pack_round_trip(snap):
    back = unpack_snapshot(pack_snapshot(snap))
    assert back.sid == snap.sid
    assert back.base_len == snap.base_len
    assert back.last_entry == snap.last_entry
    assert back.config == snap.config
    assert back.store == snap.store
    assert back.sessions == snap.sessions
    assert back.config_history == snap.config_history


@given(snapshots())
def test_snapshot_chunks_reassemble(snap):
    decoder = DeltaDecoder()
    for chunk in snapshot_chunks(snap):
        assert decoder.decode(encode_message(chunk)) is None
    assert decoder.snapshots_installed == 1


@given(snapshots(), st.lists(log_entries(), max_size=4),
       st.lists(log_entries(), max_size=3))
def test_compact_delta_connection_is_transparent(snap, tail, extra):
    # The full lifecycle on one connection: plain log, then the peer
    # compacts (snapshot ships once), then the tail grows (suffix-only
    # frame), then a regression to a plain log (full reship, as when a
    # never-compacted node wins an election).
    encoder, decoder = DeltaEncoder(), DeltaDecoder()
    compact = CompactLog(snap, tuple(tail))
    grown = CompactLog(snap, tuple(tail) + tuple(extra))
    sequence = [
        CommitReq(frm=1, to=2, time=3, log=tuple(extra), commit_len=0),
        CommitReq(frm=1, to=2, time=3, log=compact,
                  commit_len=snap.base_len),
        CommitReq(frm=1, to=2, time=4, log=grown, commit_len=snap.base_len),
        CommitReq(frm=1, to=2, time=5, log=tuple(extra), commit_len=0),
    ]
    for msg in sequence:
        assert _decode_stream(decoder, encoder.encode(msg)) == [msg]
    # The snapshot shipped exactly once despite two frames referencing it.
    assert decoder.snapshots_installed == 1


@given(snapshots(), snapshots())
def test_new_snapshot_on_same_connection_ships_again(snap_a, snap_b):
    encoder, decoder = DeltaEncoder(), DeltaDecoder()
    first = CommitReq(frm=1, to=2, time=3, log=CompactLog(snap_a, ()),
                      commit_len=snap_a.base_len)
    second = CommitReq(frm=1, to=2, time=4, log=CompactLog(snap_b, ()),
                       commit_len=snap_b.base_len)
    assert _decode_stream(decoder, encoder.encode(first)) == [first]
    assert _decode_stream(decoder, encoder.encode(second)) == [second]
    distinct = len({snap_a.sid, snap_b.sid})
    assert decoder.snapshots_installed == distinct


def _chunk_frame_body(chunk):
    return encode_message(chunk)


def test_delta_referencing_uninstalled_snapshot_rejected():
    body = bytes([PROTOCOL_VERSION]) + json.dumps({
        "kind": "delta_commit_req", "frm": 1, "to": 2, "time": 1,
        "b": "9.9.9", "p": 9, "s": [], "commit_len": 0,
    }).encode()
    with pytest.raises(MalformedFrame):
        DeltaDecoder().decode(body)


def test_tampered_snapshot_chunk_fails_integrity_not_handlers():
    snap = Snapshot(
        base_len=3,
        last_entry=LogEntry(time=2, vrsn=3, payload=("put", "k", 1)),
        config=frozenset({1, 2}),
        store={"k": 1},
    )
    (chunk,) = snapshot_chunks(snap)
    # Flip the folded store's value inside the serialized text: the
    # chunk still parses, but the recomputed sid exposes... nothing --
    # the sid covers only the log position.  Corrupt the *position*
    # instead, which the sid does cover.
    tampered = SnapshotChunk(
        sid=chunk.sid, seq=0, n=1,
        data=chunk.data.replace('"base_len": 3', '"base_len": 4')
             .replace('"base_len":3', '"base_len":4'),
    )
    with pytest.raises(ProtocolError):
        DeltaDecoder().decode(_chunk_frame_body(tampered))


def test_inconsistent_chunk_counts_rejected():
    decoder = DeltaDecoder()
    decoder.decode(_chunk_frame_body(
        SnapshotChunk(sid="1.1.1", seq=0, n=3, data="x")
    ))
    with pytest.raises(MalformedFrame):
        decoder.decode(_chunk_frame_body(
            SnapshotChunk(sid="1.1.1", seq=1, n=2, data="y")
        ))


def test_malformed_chunk_shapes_rejected():
    for bad in (
        {"kind": "snap_chunk", "sid": "1.1.1", "seq": 0, "n": 0,
         "data": ""},                                   # n < 1
        {"kind": "snap_chunk", "sid": "1.1.1", "seq": 2, "n": 2,
         "data": ""},                                   # seq >= n
        {"kind": "snap_chunk", "sid": "1.1.1", "seq": 0,
         "n": MAX_SNAPSHOT_CHUNKS + 1, "data": ""},     # too many chunks
        {"kind": "snap_chunk", "sid": 7, "seq": 0, "n": 1, "data": ""},
    ):
        payload = bytes([PROTOCOL_VERSION]) + json.dumps(bad).encode()
        with pytest.raises(ProtocolError):
            decode_message(payload)


def test_plain_delta_over_snapshotted_connection_state_rejected():
    # Once a connection's last log was compact, a plain delta claiming
    # a nonzero shared prefix is state divergence, not a valid rewind.
    snap = Snapshot(
        base_len=2,
        last_entry=LogEntry(time=1, vrsn=2, payload=("put", "k", 1)),
        config=frozenset({1, 2}),
    )
    encoder, decoder = DeltaEncoder(), DeltaDecoder()
    first = CommitReq(frm=1, to=2, time=1, log=CompactLog(snap, ()),
                      commit_len=2)
    assert _decode_stream(decoder, encoder.encode(first)) == [first]
    body = bytes([PROTOCOL_VERSION]) + json.dumps({
        "kind": "delta_commit_req", "frm": 1, "to": 2, "time": 1,
        "p": 1, "s": [], "commit_len": 0,
    }).encode()
    with pytest.raises(MalformedFrame):
        decoder.decode(body)


def _snapshot_at(base_len):
    return Snapshot(
        base_len=base_len,
        last_entry=LogEntry(time=1, vrsn=base_len, payload=("put", "k", 1)),
        config=frozenset({1, 2}),
    )


def test_an_evicted_snapshot_is_shipped_again_before_it_is_referenced():
    """The encoder's memory of what it shipped is the decoder's window.
    With an unbounded ``_shipped`` the seventh frame referenced the
    first snapshot without its chunks, four installs after the decoder
    had dropped it: ``delta references uninstalled snapshot 1.1.1``."""
    encoder, decoder = DeltaEncoder(), DeltaDecoder()
    reqs = [
        CommitReq(frm=1, to=2, time=1, log=CompactLog(_snapshot_at(n), ()),
                  commit_len=n)
        for n in range(1, 7)
    ]
    for req in reqs:
        assert _decode_stream(decoder, encoder.encode(req)) == [req]
    installed = decoder.snapshots_installed
    assert _decode_stream(decoder, encoder.encode(reqs[0])) == [reqs[0]]
    assert decoder.snapshots_installed == installed + 1
    assert len(encoder._shipped) <= 4
    assert list(encoder._shipped) == list(decoder._snapshots)


# ----------------------------------------------------------------------
# Work counts: the shared prefix of two logs
# ----------------------------------------------------------------------


def _entry_comparisons(monkeypatch, fn):
    """``LogEntry.__eq__`` calls while ``fn`` runs."""
    calls = 0
    real_eq = LogEntry.__eq__

    def counting_eq(self, other):
        nonlocal calls
        calls += 1
        return real_eq(self, other)

    with monkeypatch.context() as patch:
        patch.setattr(LogEntry, "__eq__", counting_eq)
        fn()
    return calls


def _tail(n):
    return tuple(
        LogEntry(time=1, vrsn=i + 1, payload=("put", f"k{i % 5}", i),
                 request_id=("c", i))
        for i in range(n)
    )


def test_an_appended_entry_costs_the_same_comparisons_at_any_tail_length(
    monkeypatch,
):
    """A leader's log grows by ``log + (entry,)``, so the entries it
    shares with the connection's last log are the same objects.  At the
    parent commit the encoder compared every one of them field by field
    (64 and 1,024 ``LogEntry.__eq__`` calls here)."""
    counts = []
    for n in (64, 1024):
        log = _tail(n)
        encoder = DeltaEncoder()
        encoder.encode(CommitReq(frm=1, to=2, time=1, log=log, commit_len=n))
        grown = log + (LogEntry(time=1, vrsn=n + 1, payload=("noop",)),)
        req = CommitReq(frm=1, to=2, time=1, log=grown, commit_len=n)
        counts.append(
            _entry_comparisons(monkeypatch, lambda: encoder.encode(req))
        )
    assert counts[0] == counts[1] <= 1


def test_an_equal_log_of_other_objects_shares_the_same_prefix():
    """Identity is a shortcut, not the test: a decoded copy of the last
    log has none of its objects and all of its prefix."""
    log = _tail(8)
    grown = log + (LogEntry(time=1, vrsn=9, payload=("noop",)),)
    decoder = DeltaDecoder()
    copy = decoder.decode(
        DeltaEncoder().encode(
            CommitReq(frm=1, to=2, time=1, log=grown, commit_len=0)
        )[4:]
    ).log
    assert copy == grown and all(a is not b for a, b in zip(copy, grown))

    by_identity, by_equality = DeltaEncoder(), DeltaEncoder()
    for encoder in (by_identity, by_equality):
        encoder.encode(CommitReq(frm=1, to=2, time=1, log=log, commit_len=0))
    assert by_equality.encode(
        CommitReq(frm=1, to=2, time=1, log=copy, commit_len=0)
    ) == by_identity.encode(
        CommitReq(frm=1, to=2, time=1, log=grown, commit_len=0)
    )
    # ... and a copy that differs in its fourth entry shares three.
    forked = copy[:3] + (LogEntry(time=2, vrsn=1, payload=("noop",)),)
    frame = by_equality.encode(
        CommitReq(frm=1, to=2, time=2, log=forked, commit_len=0)
    )
    assert json.loads(frame[5:])["p"] == 3
