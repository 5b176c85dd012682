"""Snapshotting: the compact log representation, leader-driven
compaction, and the InstallSnapshot catch-up path over real TCP.

The unit half pins the contract that keeps compaction invisible to the
unmodified spec handlers: absolute indexing, loud :class:`SnapshotElided`
failures on folded access, and the equivalence *"materializing a
compacted log == replaying the full history"* (truncation correctness).
The integration half exercises the payoff: a late-joining follower
catches up from the folded state instead of a full replay, and a
configuration entry that has been folded into a snapshot still supports
further reconfiguration.
"""

import time

import pytest

from repro.net.procs import LocalCluster
from repro.net.snapshot import (
    CompactLog,
    CompactServer,
    SnapshotElided,
    base_len,
    slice_prefix,
)
from repro.raft.messages import LogEntry
from repro.runtime.kvstore import materialize
from repro.runtime.linearize import check_history


def _entry(i, *, time=1, config=None, request_id=None):
    if config is not None:
        return LogEntry(time=time, vrsn=i + 1, payload=frozenset(config),
                        is_config=True)
    return LogEntry(time=time, vrsn=i + 1, payload=("put", f"k{i % 3}", i),
                    request_id=request_id)


def _full_log(n=8):
    """A representative log: commands, a config entry, a dedup id."""
    entries = [_entry(i) for i in range(n)]
    entries[2] = _entry(2, config={1, 2, 3, 4})
    entries[4] = LogEntry(time=1, vrsn=5, payload=("add", "ctr", 2),
                          request_id=("alice", 7))
    return tuple(entries)


# ----------------------------------------------------------------------
# CompactLog semantics
# ----------------------------------------------------------------------


def _compacted(n=8, commit=6):
    server = CompactServer(nid=1, conf0=frozenset({1, 2, 3}),
                           log=_full_log(n), commit_len=commit)
    assert server.compact() is True
    return server


def test_compact_log_keeps_absolute_coordinates():
    full = _full_log()
    server = _compacted(n=8, commit=6)
    log = server.log
    assert isinstance(log, CompactLog)
    assert base_len(log) == 6
    assert len(log) == 8                       # absolute, counts elided
    assert bool(log) is True
    assert log[-1] == full[-1]
    assert log[6] == full[6]
    assert log[5] == full[5]                   # the snapshot's last entry
    assert log[6:] == full[6:]
    assert log[7:100] == full[7:]
    assert log[3:3] == ()                      # empty slices never elide
    assert log[0:0] == ()


def test_compact_log_raises_loudly_on_folded_access():
    log = _compacted().log
    with pytest.raises(SnapshotElided):
        log[2]
    with pytest.raises(SnapshotElided):
        log[1:7]
    with pytest.raises(SnapshotElided):
        log[:3]
    with pytest.raises(SnapshotElided):
        list(log)
    with pytest.raises(SnapshotElided):
        log[::2]


def test_compact_log_prefix_slice_and_append():
    full = _full_log()
    log = _compacted(n=8, commit=6).log
    prefix = log[:7]
    assert isinstance(prefix, CompactLog)
    assert len(prefix) == 7 and prefix[6] == full[6]
    extended = log + (_entry(8),)
    assert len(extended) == 9
    assert extended[8] == _entry(8)
    assert slice_prefix(log, 3) == CompactLog(log.snap, ())
    assert slice_prefix(log, 7) == log[:7]


def test_compaction_preserves_materialization_and_derived_state():
    full = _full_log()
    server = _compacted(n=8, commit=6)
    log = server.log
    # Truncation correctness: every still-answerable prefix folds to the
    # same store a full replay produces.
    for upto in range(6, 9):
        server.commit_len = upto
        assert server.applied().store == materialize(full[:upto])
    server.commit_len = 5
    with pytest.raises(SnapshotElided):
        server.applied()
    # Config, config history, and dedup sessions survive the fold.
    assert server.config() == frozenset({1, 2, 3, 4})
    assert (2, frozenset({1, 2, 3, 4})) in server.index().configs
    assert log.snap.sessions == {"alice": 7}
    assert server.find_request(("alice", 7)) == 6   # folded
    assert server.find_request(("alice", 9)) is None
    assert server.find_request(None) is None


def test_repeated_compaction_folds_incrementally():
    server = _compacted(n=8, commit=5)
    assert base_len(server.log) == 5
    assert server.compact() is False            # nothing new committed
    server.log = server.log + (
        _entry(8, request_id=("bob", 1)), _entry(9, config={1, 2}),
    )
    server.commit_len = 10
    assert server.compact() is True
    log = server.log
    assert base_len(log) == 10 and log.tail == ()
    assert server.config() == frozenset({1, 2})
    assert log.snap.sessions == {"alice": 7, "bob": 1}
    assert server.find_request(("bob", 1)) == 10
    # Both folded config entries remain locatable for courtesy replies.
    positions = dict(server.index().configs)
    assert positions[2] == frozenset({1, 2, 3, 4})
    assert positions[9] == frozenset({1, 2})


def test_find_request_in_uncompacted_tail_is_absolute():
    server = _compacted(n=8, commit=6)
    server.log = server.log + (_entry(8, request_id=("carol", 3)),)
    assert server.find_request(("carol", 3)) == 9


# ----------------------------------------------------------------------
# Integration: InstallSnapshot over real TCP
# ----------------------------------------------------------------------


def _wait_caught_up(client, nid, target_commit, timeout_s=20.0):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        status = client.status(nid)
        if status is not None and status.commit_len >= target_commit:
            return status
        time.sleep(0.05)
    raise AssertionError(f"S{nid} never reached commit_len {target_commit}")


def _tails_agree(client, nids):
    tails = {}
    for nid in nids:
        got = client.committed_tail(nid)
        if got is not None:
            tails[nid] = got
    nids = sorted(tails)
    for i, a in enumerate(nids):
        for b in nids[i + 1:]:
            ents_a, base_a = tails[a]
            ents_b, base_b = tails[b]
            lo = max(base_a, base_b)
            hi = min(base_a + len(ents_a), base_b + len(ents_b))
            assert ents_a[lo - base_a : hi - base_a] == \
                ents_b[lo - base_b : hi - base_b], (
                f"S{a}/S{b} disagree on committed entries [{lo}:{hi})"
            )


def test_late_joiner_catches_up_via_snapshot_not_full_replay():
    # Nodes 1-2 form the cluster; node 3 runs as a standby outside the
    # configuration.  A low snapshot threshold forces compaction before
    # node 3 joins, so its catch-up *must* go through InstallSnapshot.
    ops, payload = 60, "x" * 800
    with LocalCluster(nids=(1, 2, 3), conf0=frozenset({1, 2}), seed=21,
                      snapshot_threshold=16) as cluster:
        cluster.wait_for_leader()
        with cluster.client(client_id="c0", total_timeout_s=30.0) as client:
            for i in range(ops):
                client.put(f"k{i % 4}", payload)
            leader = client.find_leader()
            before = client.status(leader)
            assert before.base_len > 0, "threshold never triggered"
            sent_before = sum(
                client.status(n).bytes_sent for n in (1, 2)
            )
            assert client.reconfigure((1, 2, 3)) is True
            target = client.status(leader).commit_len
            joined = _wait_caught_up(client, 3, target)
            sent_after = sum(
                client.status(n).bytes_sent for n in (1, 2)
            )
        # The follower received a folded state, not the full history.
        assert joined.snapshots_installed >= 1
        assert joined.base_len > 0
        # Bytes shipped during catch-up stay far below a full replay:
        # the log holds `ops` entries of ~len(payload) bytes each, but
        # the snapshot folds them to at most 4 live keys.
        catch_up_bytes = sent_after - sent_before
        full_replay_floor = ops * len(payload)
        assert catch_up_bytes < full_replay_floor // 2, (
            f"catch-up shipped {catch_up_bytes}B, replay floor is "
            f"{full_replay_floor}B"
        )


def test_snapshot_carrying_config_survives_reconfiguration():
    # Fold a configuration entry into a snapshot, then keep
    # reconfiguring: membership answers must come from the snapshot's
    # config digest once the entry itself is elided.
    with LocalCluster(nids=(1, 2, 3), seed=22,
                      snapshot_threshold=8) as cluster:
        cluster.wait_for_leader()
        with cluster.client(client_id="c0", total_timeout_s=30.0) as client:
            assert client.reconfigure((1, 2)) is True
            # Drive the commit point well past the config entry so the
            # next compaction folds it.
            for i in range(24):
                client.add("n", 1)
            leader = client.find_leader()
            status = client.status(leader)
            assert status.base_len >= 2, "config entry was not folded"
            assert sorted(status.members) == [1, 2]
            # Now grow back: the membership baseline for this change is
            # the *snapshotted* config.
            assert client.reconfigure((1, 2, 3)) is True
            for i in range(8):
                client.add("n", 1)
            assert client.get("n") == 32
            status = client.status(client.find_leader())
            assert sorted(status.members) == [1, 2, 3]
            verdict = check_history(client.history)
            assert verdict.ok, verdict.describe()
            _tails_agree(client, cluster.nids)
