"""A :class:`SharedLog` reads as the tuple it stands for, whoever holds it.

The simulated tier hands each server's log around as a prefix view of
one append-only buffer per lineage.  ``test_views_read_like_tuples``
runs random programs over a few holders -- append from any holder,
adopt another holder's view, cut to a prefix, take any other slice --
on views and on plain tuples side by side, and after every step each
view must read exactly like its tuple.  The scripted cluster runs below
pin what the sharing is for, in buffers and folded entries, not seconds.
"""

from operator import is_

import pytest
from hypothesis import given, settings, strategies as st

from repro.raft.messages import LogEntry
from repro.runtime import Cluster, SharedLog
from repro.runtime.cluster import RequestIndex
from repro.schemes import RaftSingleNodeScheme

from ..net.test_node_paths import line_events

NODES = frozenset({1, 2, 3})
SCHEME = RaftSingleNodeScheme()
HOLDERS = 4


def entry(k):
    """Few distinct values: appends from two holders often carry equal
    entries that are distinct objects."""
    return LogEntry(time=1, vrsn=k, payload=("put", "k", k))


holder = st.integers(0, HOLDERS - 1)
bound = st.none() | st.integers(-9, 9)
steps = st.lists(
    st.one_of(
        st.tuples(
            st.just("append"), holder, st.lists(st.integers(0, 3), max_size=3)
        ),
        st.tuples(st.just("adopt"), holder, holder),
        st.tuples(st.just("prefix"), holder, st.integers(-9, 9)),
        st.tuples(
            st.just("slice"),
            holder,
            st.tuples(bound, bound, st.sampled_from([None, 1, 2, -1, -3])),
        ),
    ),
    max_size=40,
)


def assert_reads_like(view, model):
    assert isinstance(view, SharedLog)
    n = len(model)
    assert len(view) == n and bool(view) == bool(model)
    for i in {0, 1, n // 2, n - 1, -1, -2, -n}:
        if -n <= i < n:
            assert view[i] is model[i]
    for i in (n, -n - 1):
        with pytest.raises(IndexError):
            view[i]
    assert len(list(view)) == n and all(map(is_, view, model))
    assert len(list(reversed(view))) == n
    assert all(map(is_, reversed(view), reversed(model)))
    assert view == model and model == view
    assert not (view != model) and not (model != view)
    assert hash(view) == hash(model)


@settings(max_examples=200, deadline=None)
@given(steps)
def test_views_read_like_tuples(program):
    views = [SharedLog()] * HOLDERS  # one empty buffer, held by all
    models = [()] * HOLDERS
    for kind, who, arg in program:
        if kind == "append":
            new = tuple(entry(k) for k in arg)
            views[who] = views[who] + new
            models[who] = models[who] + new
        elif kind == "adopt":
            views[who], models[who] = views[arg], models[arg]
        elif kind == "prefix":
            views[who], models[who] = views[who][:arg], models[who][:arg]
        else:
            cut = slice(*arg)
            got, want = views[who][cut], models[who][cut]
            start, _, step = cut.indices(len(models[who]))
            if start == 0 and step == 1:
                assert_reads_like(got, want)
            else:
                assert type(got) is tuple and len(got) == len(want)
                assert all(map(is_, got, want))
        for view, model in zip(views, models):
            assert_reads_like(view, model)
        for a in range(HOLDERS):
            for b in range(HOLDERS):
                same = models[a] == models[b]
                assert (views[a] == views[b]) is same
                assert (views[a] != views[b]) is not same
                assert (views[a] == models[b]) is same
                assert (models[a] == views[b]) is same


class TestOneBufferPerLineage:
    """Who extends a buffer, who adopts it, and who forks."""

    def test_a_leaders_appends_extend_one_buffer(self):
        cluster = Cluster(NODES, SCHEME)
        assert cluster.elect(1)
        leader = cluster.servers[1]
        held = []
        for n in range(5):
            cluster.submit(("put", "k", n), 1)
            held.append(leader.log._buf)
        assert all(buf is held[0] for buf in held)
        assert len(held[0]) == len(leader.log) == 5

    def test_a_follower_that_adopts_a_commit_req_holds_the_leaders_buffer(self):
        cluster = Cluster(NODES, SCHEME)
        assert cluster.elect(1)
        for n in range(3):
            cluster.submit(("put", "k", n), 1)
        cluster.sync_followers(1)
        leader = cluster.servers[1]
        for nid in (2, 3):
            follower = cluster.servers[nid]
            assert follower.log._buf is leader.log._buf
            assert follower.log == leader.log

    def test_a_new_leader_short_of_its_buffers_tip_forks_once(self):
        cluster = Cluster(NODES, SCHEME, seed=2)
        assert cluster.elect(1)
        for n in range(2):
            cluster.submit(("put", "k", n), 1)
        cluster.sync_followers(1)
        old = cluster.servers[1]
        assert old.invoke(("put", "k", "lost"))  # in place, never sent
        shared = old.log._buf
        cluster.crash(1)
        assert cluster.elect(2)
        new = cluster.servers[2]
        assert new.log._buf is shared and len(new.log) == len(shared) - 1
        held = []
        for n in range(4):
            cluster.submit(("put", "k", 10 + n), 2)
            held.append(new.log._buf)
        assert held[0] is not shared
        assert all(buf is held[0] for buf in held)
        # The fork rewrote nothing the old leader reads.
        assert len(shared) == len(old.log) == 3
        assert old.log[-1].payload == ("put", "k", "lost")
        assert new.log[:2] == old.log[:2] and new.log[2] != old.log[2]


def test_following_the_held_buffer_folds_only_the_new_entries(monkeypatch):
    class CountingIndex(RequestIndex):
        def absorb(self, position, entry):
            self.absorbed.append(position)
            super().absorb(position, entry)

    compared = []
    entries_of = SharedLog._entries
    monkeypatch.setattr(
        SharedLog,
        "_entries",
        lambda view: compared.append(len(view)) or entries_of(view),
    )
    log = SharedLog()
    for n in range(4_000):
        log = log + (entry(n),)

    def follow_three_more(held):
        fold = CountingIndex()
        fold.absorbed = []
        fold.follow(log[:held])
        fold.absorbed.clear()
        compared.clear()
        events = line_events(lambda: fold.follow(log[: held + 3]))
        assert fold.absorbed == [held + 1, held + 2, held + 3]
        assert compared == []  # decided by buffer identity and length
        return events

    assert follow_three_more(10) == follow_three_more(3_990)
