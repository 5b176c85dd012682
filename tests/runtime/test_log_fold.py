"""The runtime's per-op work is flat in log length *and* exact.

The simulated cluster used to re-walk whole logs on every client
operation.  It now keeps derived state that follows each log
(:class:`~repro.runtime.cluster.LogFold`): a request index carried by
each server and an applied key-value view.  These tests hold both to
the linear reference implementations, which live here and nowhere in
``src/``, and pin the work done per run by deterministic counts, not by
the clock.
"""

import copy
import dataclasses
import random

import repro.runtime.cluster as cluster_mod
import repro.runtime.kvstore as kvstore_mod
import repro.runtime.nemesis as nemesis_mod
from repro.raft.messages import CommitReq, LogEntry
from repro.runtime import (
    Cluster,
    FailoverDriver,
    NemesisConfig,
    NetworkConditions,
    ReplicatedKV,
    SharedLog,
    fig16_chaos_config,
    materialize,
    run_nemesis,
)
from repro.runtime.cluster import (
    DuplicateCopier,
    IndexedServer,
    independent_copy,
)
from repro.runtime.kvstore import KVView
from repro.schemes import RaftSingleNodeScheme

NODES = frozenset({1, 2, 3})
SCHEME = RaftSingleNodeScheme()


def scan_for_request(server, request_id):
    """Reference: the front-to-back scan the index replaced."""
    if request_id is None:
        return None
    for i, entry in enumerate(server.log):
        if entry.request_id == request_id:
            return i + 1
    return None


def put(term, vrsn, value, rid=None):
    return LogEntry(
        time=term, vrsn=vrsn, payload=("put", "k", value), request_id=rid
    )


def assert_index_matches_scan(server, request_ids):
    for rid in request_ids:
        assert server.find_request(rid) == scan_for_request(server, rid), rid


class TestRequestIndex:
    RIDS = [("c", n) for n in range(6)] + [("other", 0), None]

    def test_first_match_wins(self):
        cluster = Cluster(NODES, SCHEME)
        server = cluster.servers[1]
        server.log = (
            put(1, 1, "a", ("c", 0)),
            put(1, 2, "b", ("c", 1)),
            put(1, 3, "c", ("c", 0)),  # the same request id again
        )
        assert server.find_request(("c", 0)) == 1
        assert server.find_request(("c", 1)) == 2
        assert server.find_request(("c", 2)) is None

    def test_none_is_never_found(self):
        cluster = Cluster(NODES, SCHEME)
        server = cluster.servers[1]
        server.log = (put(1, 1, "a"), put(1, 2, "b", ("c", 0)))
        assert server.find_request(None) is None

    def test_follows_appends_without_losing_earlier_positions(self):
        cluster = Cluster(NODES, SCHEME)
        assert cluster.elect(1)
        for n in range(5):
            cluster.submit(("put", "k", n), 1, request_id=("c", n))
            assert_index_matches_scan(cluster.servers[1], self.RIDS)

    def test_follower_log_replaced_by_a_diverging_one(self):
        cluster = Cluster(NODES, SCHEME)
        follower = cluster.servers[2]
        follower.time = 1
        follower.log = (
            put(1, 1, "a", ("c", 0)),
            put(1, 2, "b", ("c", 1)),
            put(1, 3, "c", ("c", 2)),
        )
        assert follower.find_request(("c", 2)) == 3
        # A term-2 leader overwrites everything after the first entry:
        # ("c", 1) is gone and ("c", 2) moved.
        winner = (
            follower.log[0],
            put(2, 1, "x", ("c", 2)),
            put(2, 2, "y", ("c", 3)),
        )
        follower._on_commit_req(
            CommitReq(frm=3, to=2, time=2, log=winner, commit_len=1)
        )
        assert follower.log == winner
        assert follower.find_request(("c", 1)) is None
        assert follower.find_request(("c", 2)) == 2
        assert_index_matches_scan(follower, self.RIDS)

    def test_shorter_log_is_refolded(self):
        cluster = Cluster(NODES, SCHEME)
        server = cluster.servers[1]
        server.log = (put(1, 1, "a", ("c", 0)), put(1, 2, "b", ("c", 1)))
        assert server.find_request(("c", 1)) == 2
        server.log = server.log[:1]
        assert server.find_request(("c", 1)) is None

    def test_after_restart(self):
        cluster = Cluster(NODES, SCHEME)
        assert cluster.elect(1)
        for n in range(3):
            cluster.submit(("put", "k", n), 1, request_id=("c", n))
        assert_index_matches_scan(cluster.servers[2], self.RIDS)
        cluster.crash(2)
        cluster.submit(("put", "k", 3), 1, request_id=("c", 3))
        cluster.restart(2)
        assert_index_matches_scan(cluster.servers[2], self.RIDS)
        cluster.submit(("put", "k", 4), 1, request_id=("c", 4))
        assert_index_matches_scan(cluster.servers[2], self.RIDS)

    def test_two_clusters_share_nothing(self):
        a, b = Cluster(NODES, SCHEME), Cluster(NODES, SCHEME)
        a.servers[1].log = (put(1, 1, "a", ("c", 0)),)
        b.servers[1].log = (put(1, 1, "z"), put(1, 2, "a", ("c", 0)))
        assert a.servers[1].find_request(("c", 0)) == 1
        assert b.servers[1].find_request(("c", 0)) == 2
        assert a.servers[1].find_request(("c", 0)) == 1

    def test_server_from_outside_the_cluster_is_still_answered_exactly(self):
        # Each server carries its own index, and what it returns is
        # checked against the log it holds now, not the one it held.
        cluster = Cluster(NODES, SCHEME)
        cluster.servers[1].log = (put(1, 1, "a", ("c", 0)),)
        assert cluster.servers[1].find_request(("c", 0)) == 1
        stranger = IndexedServer(nid=1, conf0=NODES, log=(put(1, 1, "z"),))
        assert stranger.find_request(("c", 0)) is None
        stranger.log = cluster.servers[1].log
        assert stranger.find_request(("c", 0)) == 1

    def test_random_log_histories_match_the_scan(self):
        # Tuples, fresh views, and views that extend or fork the one
        # held, mixed: whatever the fold followed last, it answers what
        # a fresh fold of the current log answers.
        rng = random.Random(20220613)
        cluster = Cluster(NODES, SCHEME)
        server = cluster.servers[1]
        applied = KVView()
        rids = [("c", n) for n in range(8)]
        for _ in range(300):
            log = server.log
            if log and rng.random() < 0.3:
                log = log[: rng.randrange(len(log))]  # diverge: cut a suffix
            new = tuple(
                put(1, len(log) + n, rng.randrange(3), rng.choice(rids + [None]))
                for n in range(1, rng.randrange(4) + 1)
            )
            form = rng.random()
            if form < 0.2:
                log = tuple(log) + new
            elif form < 0.4:
                log = SharedLog(tuple(log) + new)
            else:
                log = log + new
            server.log = log
            assert_index_matches_scan(server, rids + [None])
            assert applied.state_of(log) == materialize(log)

    def test_retry_barrier_decision_matches_the_term_scan(self):
        # The retry path lays a no-op barrier iff the log holds no entry
        # of the leader's term; that used to be its own scan.
        cluster = Cluster(NODES, SCHEME)
        assert cluster.elect(1)
        cluster.submit(("put", "k", 1), 1, request_id=("c", 0))
        assert cluster.elect(2)  # term 2, log holds term-1 entries only
        leader = cluster.servers[2]
        assert all(e.time != leader.time for e in leader.log)
        before = len(leader.log)
        cluster.submit(("put", "k", 1), 2, request_id=("c", 0))
        assert [e.payload for e in leader.log[before:]] == [("noop",)]
        # The barrier exists now: a second retry appends nothing.
        cluster.submit(("put", "k", 1), 2, request_id=("c", 0))
        assert len(leader.log) == before + 1

    def test_reconfigure_consults_the_clusters_own_index(self):
        cluster = Cluster(NODES, SCHEME, extra_nodes={4})
        assert cluster.elect(1)
        driver = FailoverDriver(cluster, leader=1)
        driver.reconfigure(frozenset({1, 2, 3, 4}))
        leader = cluster.servers[1]
        config_entries = [e for e in leader.log if e.is_config]
        assert len(config_entries) == 1
        rid = config_entries[0].request_id
        assert leader.find_request(rid) == scan_for_request(
            leader, rid
        )


class TestKVView:
    def test_any_sequence_of_prefixes_matches_materialize(self):
        a = tuple(put(1, n + 1, n) for n in range(6))
        b = a[:3] + tuple(
            LogEntry(time=2, vrsn=n + 1, payload=("add", "k", 10))
            for n in range(4)
        )
        view = KVView()
        for prefix in (a[:2], a[:5], a[:5], b[:6], b[:3], a[:4], (), a, b):
            assert view.state_of(prefix) == materialize(prefix)

    def test_config_entries_are_skipped(self):
        log = (
            put(1, 1, "a"),
            LogEntry(time=1, vrsn=2, payload=frozenset({1, 2}), is_config=True),
            LogEntry(time=1, vrsn=3, payload=("add", "n", 2)),
        )
        assert KVView().state_of(log) == materialize(log) == {"k": "a", "n": 2}

    def test_failover_that_swaps_the_leaders_log(self):
        # The old leader holds an entry nobody else has; the view has
        # applied it.  After the failover the new leader's log differs
        # at that position, so extending would show a value no fresh
        # fold of the new log shows.
        cluster = Cluster(NODES, SCHEME, seed=2)
        assert cluster.elect(1)
        driver = FailoverDriver(cluster, leader=1)
        driver.submit(("put", "k", 1))
        driver.submit(("add", "k", 1))
        view = KVView()
        old = cluster.servers[1]
        assert old.invoke(("put", "k", "lost"))  # never replicated
        assert view.state_of(old.log) == materialize(old.log) == {"k": "lost"}
        cluster.crash(1)
        driver.submit(("add", "k", 5))
        new = cluster.servers[driver.leader]
        assert driver.leader != 1
        assert new.log[: len(old.log)] != old.log
        assert view.state_of(new.log) == materialize(new.log) == {"k": 7}
        assert view.state_of(old.log) == materialize(old.log)

    def test_replicated_kv_snapshots_are_fresh_dicts(self):
        kv = ReplicatedKV(NODES, SCHEME, seed=4)
        kv.put("a", 1)
        kv.add("n", 2)
        snap = kv.snapshot()
        assert snap == materialize(kv.cluster.committed_entries(kv.leader))
        snap["a"] = "scribbled"  # a caller's copy, not the view's state
        kv.put("b", 3)
        kv.sync()
        assert kv.snapshot() == {"a": 1, "n": 2, "b": 3}
        assert kv.get("a") == 1
        for nid in sorted(NODES):
            assert kv.snapshot_at(nid) == materialize(
                kv.cluster.committed_entries(nid)
            )


class TestIndependentCopy:
    def test_hashable_entries_are_shared_and_the_shell_is_new(self):
        log = (put(1, 1, "a", ("c", 0)), put(1, 2, "b"))
        msg = CommitReq(frm=1, to=2, time=1, log=log, commit_len=1)
        dup = independent_copy(msg)
        assert dup == msg and dup is not msg
        assert all(x is y for x, y in zip(dup.log, msg.log))

    def test_only_entries_with_mutable_contents_are_copied(self):
        shared = put(1, 1, "a")
        mutable = LogEntry(time=1, vrsn=2, payload=["v"])
        msg = CommitReq(frm=1, to=2, time=1, log=(shared, mutable), commit_len=0)
        dup = independent_copy(msg)
        assert dup == msg
        assert dup.log[0] is shared
        assert dup.log[1] is not mutable
        assert dup.log[1].payload is not mutable.payload


class Counted:
    """A hashable payload that counts how often it is hashed."""

    hashed = 0

    def __init__(self, value):
        self.value = value

    def __eq__(self, other):
        return isinstance(other, Counted) and other.value == self.value

    def __hash__(self):
        Counted.hashed += 1
        return hash(self.value)


def hashes_during(thunk):
    before = Counted.hashed
    thunk()
    return Counted.hashed - before


def commit_req(log):
    return CommitReq(frm=1, to=2, time=1, log=log, commit_len=0)


class TestDuplicateCopier:
    """What one cluster's duplicates remember between them."""

    LOG = tuple(
        LogEntry(time=1, vrsn=n + 1, payload=Counted(n)) for n in range(40)
    )

    def test_a_log_extending_the_last_one_verified_costs_its_new_entries(self):
        copier = DuplicateCopier()
        log = self.LOG
        assert hashes_during(lambda: copier.copy(commit_req(log[:30]))) == 30
        assert hashes_during(lambda: copier.copy(commit_req(log[:30]))) == 0
        assert hashes_during(lambda: copier.copy(commit_req(log[:37]))) == 7
        # An older, shorter message is covered and takes nothing back.
        assert hashes_during(lambda: copier.copy(commit_req(log[:12]))) == 0
        dup = copier.copy(commit_req(log))
        assert dup.log is log and dup == commit_req(log)
        assert hashes_during(lambda: independent_copy(commit_req(log))) == 40

    def test_a_diverging_log_is_verified_in_full(self):
        copier = DuplicateCopier()
        log = self.LOG
        copier.copy(commit_req(log[:30]))
        # Equal entries are not the verified objects: an equal entry can
        # carry an unhashable payload (a set equals a frozenset).
        twin = log[:10] + (dataclasses.replace(log[10]),) + log[11:30]
        assert twin == log[:30]
        assert hashes_during(lambda: copier.copy(commit_req(twin))) == 30
        forked = log[:10] + (put(2, 11, "other"),) + log[11:20]
        assert hashes_during(lambda: copier.copy(commit_req(forked))) == 19
        assert hashes_during(lambda: copier.copy(commit_req(log[:30]))) == 30

    def test_an_unhashable_entry_after_a_verified_prefix_is_still_copied(self):
        copier = DuplicateCopier()
        log = self.LOG[:5]
        copier.copy(commit_req(log))
        mutable = LogEntry(time=1, vrsn=6, payload=["v"])
        dup = copier.copy(commit_req(log + (mutable,)))
        assert all(x is y for x, y in zip(dup.log, log))
        assert dup.log[5] == mutable and dup.log[5] is not mutable
        # ... and nothing was learnt from the log that held it.
        again = copier.copy(commit_req(log + (mutable,)))
        assert again.log[5] is not mutable and again.log[5] is not dup.log[5]

    def test_views_of_one_buffer_skip_the_identity_pass(self, monkeypatch):
        compared = []
        monkeypatch.setattr(
            cluster_mod, "is_", lambda a, b: compared.append(1) or a is b
        )
        copier = DuplicateCopier()
        log = SharedLog(self.LOG)
        assert hashes_during(lambda: copier.copy(commit_req(log[:30]))) == 30
        assert hashes_during(lambda: copier.copy(commit_req(log[:37]))) == 7
        assert hashes_during(lambda: copier.copy(commit_req(log[:12]))) == 0
        assert copier.copy(commit_req(log)).log is log
        assert compared == []
        # Another buffer holding the same objects is checked by identity.
        fork = log[:20] + (self.LOG[20],)
        assert hashes_during(lambda: copier.copy(commit_req(fork))) == 0
        assert len(compared) == 21

    def test_a_view_with_a_mutable_entry_is_copied_into_a_view(self):
        mutable = LogEntry(time=1, vrsn=2, payload=["v"])
        log = SharedLog((put(1, 1, "a"), mutable))
        dup = DuplicateCopier().copy(commit_req(log))
        assert isinstance(dup.log, SharedLog) and dup.log == log
        assert dup.log[0] is log[0] and dup.log[1] is not mutable

    def test_two_clusters_share_no_memory(self):
        a, b = Cluster(NODES, SCHEME), Cluster(NODES, SCHEME)
        assert a._copier is not b._copier
        log = self.LOG
        assert hashes_during(lambda: a._copier.copy(commit_req(log))) == 40
        assert hashes_during(lambda: b._copier.copy(commit_req(log))) == 40
        assert hashes_during(lambda: a._copier.copy(commit_req(log))) == 0


class TestWorkCounts:
    """Deterministic counts: the same on every machine, every run."""

    def test_reads_apply_each_committed_entry_a_bounded_number_of_times(
        self, monkeypatch
    ):
        applied = []
        real_apply = kvstore_mod.apply_command

        def counting_apply(store, command):
            applied.append(command)
            real_apply(store, command)

        clusters = []

        class RecordedCluster(Cluster):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                clusters.append(self)

        monkeypatch.setattr(kvstore_mod, "apply_command", counting_apply)
        monkeypatch.setattr(nemesis_mod, "Cluster", RecordedCluster)
        result = run_nemesis(fig16_chaos_config(seed=3, ops=400))
        assert result.ok
        reads = sum(1 for op in result.history.operations if op.op == "get")
        assert reads > 50
        (cluster,) = clusters
        committed = max(
            sum(1 for e in server.committed_log() if not e.is_config)
            for server in cluster.servers.values()
        )
        # Refolding per read cost reads x log length (about 25,000 here,
        # 2.48 M at 4,000 ops); following the log costs each entry once,
        # twice if a failover ever forces a refold.
        assert 0 < len(applied) <= 2 * committed

    def test_deepcopy_is_not_reached_when_every_payload_is_hashable(
        self, monkeypatch
    ):
        def refuse(obj, memo=None):
            raise AssertionError(f"deepcopy of {type(obj).__name__}")

        monkeypatch.setattr(copy, "deepcopy", refuse)
        result = run_nemesis(
            NemesisConfig(
                seed=5,
                ops=40,
                conditions=NetworkConditions(duplicate_prob=1.0),
            )
        )
        assert result.ok
        assert result.metrics["counters"]["cluster.messages_duplicated"] > 100
