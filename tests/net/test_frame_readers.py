"""The two frame readers in ``repro.net.wire`` -- the only places the
served tier reads a length prefix off a socket: the :class:`Framer` the
asyncio protocols feed and the blocking :func:`recv_frame` -- and the
callers that used to carry their own copies."""

import socket
import struct
import threading
import time
import tracemalloc

import pytest

from repro.monitor.service import monitor_status
from repro.net.wire import (
    MAX_FRAME_BYTES,
    FrameTooLarge,
    Framer,
    StatusRequest,
    decode_message,
    encode_frame,
    recv_frame,
)

from .test_wire_golden import _body, _load_golden

BAD_PREFIXES = [
    struct.pack(">I", 0),
    struct.pack(">I", MAX_FRAME_BYTES + 1),
    b"\xff\xff\xff\xff",
]


def test_recv_frame_reassembles_a_dribbled_frame():
    ours, theirs = socket.socketpair()
    frame = encode_frame(StatusRequest())

    def dribble():
        for i in range(len(frame)):
            theirs.sendall(frame[i : i + 1])

    with ours, theirs:
        writer = threading.Thread(target=dribble)
        writer.start()
        assert decode_message(recv_frame(ours)) == StatusRequest()
        writer.join()


@pytest.mark.parametrize("prefix", BAD_PREFIXES)
def test_recv_frame_rejects_a_bad_prefix_before_reading_on(prefix):
    ours, theirs = socket.socketpair()
    with ours, theirs:
        ours.settimeout(5.0)
        theirs.sendall(prefix)  # and nothing more: a read-on would block
        with pytest.raises(FrameTooLarge):
            recv_frame(ours)


def test_recv_frame_reports_a_peer_closing_mid_frame():
    ours, theirs = socket.socketpair()
    with ours:
        theirs.sendall(encode_frame(StatusRequest())[:-2])
        theirs.close()
        with pytest.raises(ConnectionError):
            recv_frame(ours)


@pytest.mark.parametrize("prefix", BAD_PREFIXES)
def test_read_frame_rejects_a_bad_prefix(prefix):
    """The framer raises on the 4 header bytes alone: it never waits
    for, or buffers, the body a bad prefix declares."""
    with pytest.raises(FrameTooLarge):
        Framer().feed(prefix)
    framer = Framer()
    assert framer.feed(prefix[:3]) == []
    with pytest.raises(FrameTooLarge):
        framer.feed(prefix[3:])
    bodies = Framer().feed(encode_frame(StatusRequest()))
    assert [decode_message(body) for body in bodies] == [StatusRequest()]


def test_the_framer_cuts_the_same_frames_however_the_stream_is_split():
    # The recorded delta/snapshot conversation as it crosses a socket.
    bodies = [_body(text) for text in _load_golden()["delta_stream"]]
    stream = b"".join(struct.pack(">I", len(body)) + body for body in bodies)
    assert len(bodies) > 5

    def cut(pieces):
        framer, out = Framer(), []
        for piece in pieces:
            out.extend(framer.feed(piece))
        return out

    assert cut([stream]) == bodies
    assert cut([stream[i : i + 1] for i in range(len(stream))]) == bodies
    for split in range(len(stream) + 1):
        assert cut([stream[:split], stream[split:]]) == bodies, split


def test_monitor_status_survives_a_hostile_length_prefix():
    # A listener that answers the probe with a 4 GiB length claim and
    # then holds the connection open.  The probe must give up at the
    # prefix: promptly (not after its timeout) and without trying to
    # buffer what was declared.
    listener = socket.create_server(("127.0.0.1", 0))
    port = listener.getsockname()[1]
    release = threading.Event()

    def serve():
        conn, _ = listener.accept()
        with conn:
            conn.sendall(b"\xff\xff\xff\xff")
            release.wait(10.0)

    server = threading.Thread(target=serve, daemon=True)
    server.start()
    tracemalloc.start()
    try:
        start = time.monotonic()
        assert monitor_status("127.0.0.1", port, timeout_s=5.0) is None
        elapsed = time.monotonic() - start
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        release.set()
        server.join()
        listener.close()
    assert elapsed < 2.0
    assert peak < 1 << 20
