"""Integration tests: the spec served by real processes over real TCP.

These spawn ``python -m repro.net node`` subprocesses on ephemeral
localhost ports, drive them through the blocking client, and check the
recorded history with the same Wing-Gong linearizability checker the
simulator uses.  The kill-the-leader test is the tentpole payoff: a
SIGKILL to a live OS process, a real failover, and a history that
still linearizes.
"""

import os
import socket
import struct
import subprocess
import sys
import time

import pytest

from repro.net import allocate_ports
from repro.net.client import ClientTimeout, NetClient, merge_histories
from repro.net.procs import LocalCluster
from repro.net.wire import ClientRequest, ClientResponse, encode_frame
from repro.runtime.linearize import check_history


def _committed_prefixes_agree(cluster, probe):
    logs = {}
    for nid in cluster.nids:
        if cluster.handles[nid].alive:
            entries = probe.committed_log(nid)
            if entries is not None:
                logs[nid] = entries
    nids = sorted(logs)
    for i, a in enumerate(nids):
        for b in nids[i + 1:]:
            shared = min(len(logs[a]), len(logs[b]))
            assert logs[a][:shared] == logs[b][:shared], (
                f"S{a}/S{b} disagree on committed prefix"
            )
    return len(nids)


def test_allocate_ports_are_distinct_and_bindable():
    ports = allocate_ports(8)
    assert len(set(ports)) == 8
    for port in ports:
        sock = socket.socket()
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.bind(("127.0.0.1", port))
        sock.close()


def test_three_node_cluster_serves_linearizable_ops():
    with LocalCluster(nids=(1, 2, 3), seed=11) as cluster:
        cluster.wait_for_leader()
        with cluster.client(client_id="c0") as client:
            for i in range(20):
                client.put("x", i)
                assert client.get("x") == i
            client.add("counter", 5)
            client.add("counter", 7)
            assert client.get("counter") == 12
            client.delete("x")
            assert client.get("x") is None
            verdict = check_history(client.history)
            assert verdict.ok, verdict.describe()
            assert not client.history.pending()
            # The gets were ReadIndex reads: answered off the applied
            # store after a quorum probe, never appended to the log.
            statuses = [client.status(nid) for nid in cluster.nids]
            assert sum(s.reads_fast for s in statuses) > 0
        codes = cluster.shutdown()
    # SIGTERM produces a clean exit on every node.
    assert all(code == 0 for code in codes.values()), codes


def test_kill_the_leader_history_still_linearizes():
    with LocalCluster(nids=(1, 2, 3), seed=12) as cluster:
        leader = cluster.wait_for_leader()
        with cluster.client(client_id="c0", total_timeout_s=30.0) as client:
            for i in range(25):
                client.add("k", 1)
            cluster.kill(leader)  # SIGKILL a live OS process
            new_leader = cluster.wait_for_leader(exclude=(leader,))
            assert new_leader != leader
            for i in range(25):
                client.add("k", 1)
            assert client.get("k") == 50
            verdict = check_history(client.history)
            assert verdict.ok, verdict.describe()
            _committed_prefixes_agree(cluster, client)


def test_a_deposed_leader_never_serves_a_stale_read():
    """A leader cut off from its peers keeps believing it leads.  Once
    the others elected a successor and wrote through it, a ``get`` at
    the old leader must not return the old value.  The old leader is
    reconnected to the successor's follower before it is asked, so its
    ReadIndex round *is* answered -- by a newer term, which must not
    count."""
    with LocalCluster(nids=(1, 2, 3), seed=16) as cluster:
        old = cluster.wait_for_leader()
        peers = [nid for nid in cluster.nids if nid != old]
        with cluster.client(client_id="c0") as client:
            client.put("x", "old")
            assert client.get("x") == "old"  # a current-term commit
            client.partition(old, peers)
            for nid in peers:
                client.partition(nid, [old])
            new = cluster.wait_for_leader(exclude=(old,))
            with NetClient(
                {nid: cluster.addresses[nid] for nid in peers},
                client_id="c1",
            ) as writer:
                writer.put("x", "new")
            follower, = set(peers) - {new}
            client.partition(old, [new])
            client.partition(follower, [])
            try:
                reply = client.request_direct(old, ("get", "x"), timeout_s=1.0)
            except OSError:
                pass  # no same-term quorum answered: a timeout is safe
            else:
                assert not reply.ok and reply.error in ("retry", "not-leader")
            for nid in cluster.nids:
                client.partition(nid, [])
            assert client.get("x") == "new"
            verdict = check_history(
                merge_histories([client.history, writer.history])
            )
            assert verdict.ok, verdict.describe()


def test_reconfiguration_trajectory_under_load():
    with LocalCluster(nids=(1, 2, 3, 4, 5), seed=13) as cluster:
        cluster.wait_for_leader()
        with cluster.client(client_id="c0", total_timeout_s=30.0) as client:
            trajectory = [
                (1, 2, 3, 4), (1, 2, 3), (1, 2, 3, 4), (1, 2, 3, 4, 5),
            ]
            total = 0
            for members in trajectory:
                for _ in range(5):
                    client.add("n", 1)
                    total += 1
                assert client.reconfigure(members) is True
                status = client.status(client.find_leader())
                assert sorted(status.members) == sorted(members)
            assert client.get("n") == total
            verdict = check_history(client.history)
            assert verdict.ok, verdict.describe()
            _committed_prefixes_agree(cluster, client)


def test_duplicate_request_applies_at_most_once():
    with LocalCluster(nids=(1, 2, 3), seed=14) as cluster:
        leader = cluster.wait_for_leader()
        with cluster.client(client_id="c0") as client:
            # The same (client_id, seq) delivered twice -- as after a
            # lost response and a retry -- must apply exactly once.
            request = ClientRequest(
                client_id="dup", seq=0, command=("add", "once", 1)
            )
            first = client._rpc(leader, request, timeout_s=5.0)
            assert isinstance(first, ClientResponse) and first.ok
            second = client._rpc(leader, request, timeout_s=5.0)
            assert isinstance(second, ClientResponse) and second.ok
            assert client.get("once") == 1


def test_malformed_frames_never_crash_a_node():
    with LocalCluster(nids=(1, 2, 3), seed=15) as cluster:
        cluster.wait_for_leader()
        nid = cluster.nids[0]
        host, port = cluster.addresses[nid]
        for payload in (
            b"\x00" * 12,                               # zero length + junk
            struct.pack(">I", 5) + b"garba",            # not JSON
            struct.pack(">I", 2**31),                   # absurd length
            encode_frame(ClientRequest("c", 0, ("put", "k", 1)))[:-3],
        ):
            sock = socket.create_connection((host, port), timeout=5)
            sock.sendall(payload)
            sock.close()
        # The node survived every one of them and still serves traffic.
        with cluster.client(client_id="after") as client:
            assert client.status(nid) is not None
            client.put("alive", True)
            assert client.get("alive") is True


def test_follower_redirects_clients_to_the_leader():
    with LocalCluster(nids=(1, 2, 3), seed=16) as cluster:
        leader = cluster.wait_for_leader()
        follower = next(n for n in cluster.nids if n != leader)
        with cluster.client(client_id="c0") as client:
            request = ClientRequest(
                client_id="c0", seq=999, command=("put", "k", 1)
            )
            # A follower learns who leads from the first CommitReq it
            # accepts, and a probe can beat that heartbeat: ask until
            # the hint has converged, not once.
            deadline = time.monotonic() + 5.0
            while True:
                reply = client._rpc(follower, request, timeout_s=5.0)
                assert isinstance(reply, ClientResponse)
                assert not reply.ok and reply.error == "not-leader"
                if reply.leader_hint == leader or time.monotonic() >= deadline:
                    break
                time.sleep(0.02)
            assert reply.leader_hint == leader
        # And the full client loop follows that hint to completion.
        with cluster.client(client_id="c1") as client:
            client._leader_guess = follower  # start aimed at the wrong node
            assert client.put("k", 2) is True


def test_client_gives_up_after_max_attempts():
    # A client aimed at a cluster that is entirely down must fail after
    # its attempt budget, not spin out the whole wall-clock deadline.
    port = allocate_ports(1)[0]  # allocated then released: nobody listens
    client = NetClient(
        {1: ("127.0.0.1", port)},
        client_id="one-shot",
        request_timeout_s=0.2,
        total_timeout_s=60.0,
        retry_delay_s=0.01,
        max_attempts=3,
    )
    started = time.monotonic()
    with pytest.raises(ClientTimeout, match="3 attempts"):
        client.request(("get", "k"))
    assert time.monotonic() - started < 10.0  # nowhere near 60s


def test_one_shot_cli_invocation_exits_nonzero_when_cluster_is_down():
    # Regression: ``python -m repro.net client`` one-shot invocations
    # used to spin until the 20s deadline when no node was reachable;
    # --max-attempts bounds them to a quick, clean non-zero exit.
    from repro.net.procs import _repro_pythonpath

    port = allocate_ports(1)[0]
    env = dict(os.environ, PYTHONPATH=_repro_pythonpath())
    proc = subprocess.run(
        [
            sys.executable, "-m", "repro.net", "client",
            "--peers", f"1=127.0.0.1:{port}",
            "--max-attempts", "3",
            "get", "k",
        ],
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert proc.returncode == 1
    assert "error:" in proc.stderr


def test_attempt_timeouts_clamp_to_the_total_deadline():
    # Regression: a node that accepts connections but never answers
    # must not stretch one operation to ``request_timeout_s`` when
    # ``total_timeout_s`` is shorter -- the last attempt used to
    # overshoot the total deadline by a full per-attempt timeout.
    listener = socket.socket()
    listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    listener.bind(("127.0.0.1", 0))
    listener.listen(4)
    addr = listener.getsockname()
    try:
        client = NetClient(
            {1: addr}, client_id="c0",
            request_timeout_s=5.0, total_timeout_s=0.5,
        )
        started = time.monotonic()
        with pytest.raises(ClientTimeout):
            client.put("k", 1)
        elapsed = time.monotonic() - started
        assert elapsed < 2.0, (
            f"deadline overshot: {elapsed:.2f}s for a 0.5s budget"
        )
        client.close()
    finally:
        listener.close()


def test_timeout_leaves_operation_pending():
    with LocalCluster(nids=(1, 2, 3), seed=17) as cluster:
        cluster.wait_for_leader()
        with cluster.client(client_id="c0") as client:
            client.put("k", 1)
            # Kill a majority: the survivors cannot commit anything.
            cluster.kill(cluster.nids[0])
            cluster.kill(cluster.nids[1])
            client.total_timeout_s = 2.0
            with pytest.raises(ClientTimeout):
                client.put("k", 2)
            # Jepsen semantics: the op's outcome is unknown, so the
            # history keeps it pending rather than marking it failed.
            pending = client.history.pending()
            assert len(pending) == 1
            assert pending[0].op == "put" and pending[0].value == 2
