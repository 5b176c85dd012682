"""What a served replica derives from its log equals a linear scan.

A :class:`~repro.net.snapshot.CompactServer` answers every question
about its log from two folds that *follow* it (:mod:`repro.net.snapshot`).
Here a model keeps the full, never-compacted history beside the server
while hypothesis interleaves everything that can happen to a served
log -- appends, a diverging uncommitted suffix, commit advances, the
server's own ``compact()``, and adopting a foreign log whose snapshot
is ahead of, inside, or behind what the folds have seen (down to a
plain tuple) -- and after every step each query is held to a reference
scan of that history.  The reference scans live in this file and
nowhere in ``src/``.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.snapshot import CompactLog, CompactServer, Snapshot
from repro.raft.messages import LogEntry
from repro.runtime import materialize

CONF0 = frozenset({1, 2, 3})
CONFIGS = [frozenset({1, 2}), frozenset({1, 2, 3, 4}), frozenset({2, 3})]
COMMANDS = [
    ("put", "x", 1), ("put", "y", 2), ("add", "n", 1), ("add", "x", 5),
    ("delete", "x"), ("get", "y"), ("noop",),
]
#: Vocabulary the store does not know: folds as a no-op.
UNKNOWN = [("explode",), ("put", "x"), (), "m1", ("add", "y", "one")]
REQUEST_IDS = [None, None] + [(c, n) for c in "ab" for n in range(5)]
PROBES = [rid for rid in REQUEST_IDS if rid] + [("a", 7), ("zed", 0)]


# ----------------------------------------------------------------------
# The reference: linear scans of the full history
# ----------------------------------------------------------------------


def ref_store(entries):
    return materialize(
        e for e in entries if e.is_config or e.payload not in UNKNOWN
    )


def ref_sessions(entries):
    sessions = {}
    for entry in entries:
        if entry.request_id is not None:
            client, seq = entry.request_id
            sessions[client] = max(seq, sessions.get(client, seq))
    return sessions


def ref_configs(entries):
    return [(i, e.payload) for i, e in enumerate(entries) if e.is_config]


def ref_config(entries):
    for entry in reversed(entries):
        if entry.is_config:
            return entry.payload
    return CONF0


def ref_find(full, base, rid):
    """First position of ``rid`` past the snapshot point; the snapshot
    point itself for anything its sessions cover."""
    if base and ref_sessions(full[:base]).get(rid[0], -1) >= rid[1]:
        return base
    for i in range(base, len(full)):
        if full[i].request_id == rid:
            return i + 1
    return None


def ref_snapshot(full, base):
    return Snapshot(
        base_len=base,
        last_entry=full[base - 1],
        config=ref_config(full[:base]),
        store=ref_store(full[:base]),
        sessions=ref_sessions(full[:base]),
        config_history=tuple(ref_configs(full[:base])),
    )


def as_log(full, base):
    """``full`` the way a node that compacted at ``base`` holds it."""
    return CompactLog(ref_snapshot(full, base), full[base:]) if base else full


# ----------------------------------------------------------------------
# The model
# ----------------------------------------------------------------------


class Model:
    """A server and, beside it, the history its log stands for."""

    def __init__(self):
        self.server = CompactServer(nid=1, conf0=CONF0, time=1)
        self.full = ()

    @property
    def base(self):
        return self.server.snapshot_base()

    def entries(self, picks):
        """``picks`` turned into entries at the current term."""
        server, out = self.server, []
        vrsn = sum(1 for e in self.full if e.time == server.time)
        for kind, which, rid in picks:
            vrsn += 1
            pool = (COMMANDS, UNKNOWN, CONFIGS)[kind]
            out.append(LogEntry(
                time=server.time, vrsn=vrsn,
                payload=pool[which % len(pool)], is_config=kind == 2,
                request_id=REQUEST_IDS[rid % len(REQUEST_IDS)],
            ))
        return tuple(out)

    def append(self, picks):
        new = self.entries(picks)
        self.full += new
        self.server.log = self.server.log + new

    def diverge(self, cut, picks):
        """A new term's leader overwrites part of the uncommitted suffix."""
        server = self.server
        keep = server.commit_len + cut % (len(self.full) - server.commit_len + 1)
        server.time += 1
        self.full = self.full[:keep] + self.entries(picks)
        server.log = server.log[:keep] + self.full[keep:]

    def commit(self, step):
        server = self.server
        server.commit_len += step % (len(self.full) - server.commit_len + 1)

    def adopt(self, base, picks, commit):
        """Replace the log by a foreign node's view of the same
        history, grown by ``picks`` and compacted at ``base``."""
        server = self.server
        self.full += self.entries(picks)
        base %= len(self.full) + 1
        foreign_commit = max(base, commit % (len(self.full) + 1))
        server.log = as_log(self.full, base)
        server.commit_len = max(server.commit_len, foreign_commit)

    def check(self):
        server, full, base = self.server, self.full, self.base
        log, commit = server.log, server.commit_len
        assert len(log) == len(full)
        assert (log.tail if base else log) == full[base:]
        # The whole-log fold.
        assert server.config() == ref_config(full)
        assert server.index().configs == ref_configs(full)
        assert server.find_request(None) is None
        for rid in PROBES:
            assert server.find_request(rid) == ref_find(full, base, rid), rid
        assert server.has_entry_at_current_time() == any(
            e.time == server.time for e in full
        )
        assert server.has_commit_at_current_time() == any(
            e.time == server.time for e in full[:commit]
        )
        # The committed fold.
        state = server.applied()
        assert state.store == ref_store(full[:commit])
        assert state.sessions == ref_sessions(full[:commit])
        assert state.configs == ref_configs(full[:commit])
        if base:
            snap, expected = log.snap, ref_snapshot(full, base)
            assert snap == expected and snap.last_entry == expected.last_entry
            assert (snap.config, snap.store, snap.sessions,
                    snap.config_history) == (
                expected.config, expected.store, expected.sessions,
                expected.config_history)


picks = st.lists(
    st.tuples(st.sampled_from([0, 0, 0, 1, 2]), st.integers(0, 20),
              st.integers(0, 20)),
    max_size=4,
)
small = st.integers(0, 40)
steps = st.lists(
    st.one_of(
        st.tuples(st.just("append"), picks),
        st.tuples(st.just("diverge"), small, picks),
        st.tuples(st.just("commit"), small),
        st.tuples(st.just("compact")),
        st.tuples(st.just("adopt"), small, picks, small),
    ),
    max_size=25,
)


@settings(max_examples=300, deadline=None)
@given(steps)
def test_every_query_equals_a_linear_scan_of_the_full_history(steps):
    model = Model()
    for name, *args in steps:
        if name == "compact":
            advanced = model.server.commit_len > model.base
            assert model.server.compact() is advanced
        else:
            getattr(model, name)(*args)
        model.check()


def adoption_model(n=12, commit=8):
    model = Model()
    model.append([(0, i, i) for i in range(n)])
    model.commit(commit)
    model.check()  # both folds have seen everything up to here
    return model


def test_adopting_a_snapshot_ahead_of_both_folds_seeds_them_from_it():
    model = adoption_model()
    # 6 more entries, compacted past the end of what this node held.
    model.adopt(16, [(0, i, i + 3) for i in range(6)], 17)
    assert model.base == 16 > 12
    model.check()


def test_adopting_a_snapshot_inside_the_fold_keeps_the_state(monkeypatch):
    model = adoption_model()
    absorbed = []
    for fold in (model.server.index(), model.server.applied()):
        monkeypatch.setattr(
            fold, "absorb", lambda *a: absorbed.append(a), raising=True
        )
    model.adopt(5, [], 8)  # a base the folds are already past
    assert model.base == 5
    model.check()
    assert absorbed == []


def test_adopting_a_snapshot_behind_the_fold_refolds_from_it():
    model = adoption_model()
    assert model.server.compact() and model.base == 8
    model.check()
    model.adopt(3, [(0, 1, 1)], 8)  # a leader that compacted earlier
    assert model.base == 3
    model.check()
    model.adopt(0, [], 8)  # ... and one that never did: a plain tuple
    assert model.base == 0 and isinstance(model.server.log, tuple)
    model.check()
