"""The incremental observed-log checker behind the runtime monitors.

These drive :class:`repro.core.safety.IncrementalTreeChecker` directly
with hand-built log observations -- the same call shape the simulated
cluster's ``check_safety`` and the live monitor's event fold use -- and
assert it stays silent on legal histories while flagging the Appendix-B
violations the Fig. 4 schedule seeds.
"""

from dataclasses import dataclass
from typing import Any

import pytest

from repro.core.safety import DEFAULT_LOG_INVARIANTS, IncrementalTreeChecker


@dataclass(frozen=True)
class E:
    """A duck-typed log entry (the engine must not require LogEntry)."""

    time: int
    vrsn: int
    payload: Any
    is_config: bool = False


CONF0 = frozenset({1, 2, 3})


def checker(**kwargs):
    return IncrementalTreeChecker(CONF0, **kwargs)


class TestCleanHistories:
    def test_identical_replicated_logs_stay_clean(self):
        engine = checker()
        log = [E(1, 1, ("put", "x", 1)), E(1, 2, ("put", "x", 2))]
        for nid in (1, 2, 3):
            assert engine.observe(nid, 0, log, commit_len=2) is None
        assert engine.ok
        stats = engine.stats()
        assert stats["entries"] == 2  # the trie shares agreeing logs
        # One marker: committing through #1 subsumes the prefix.
        assert stats["commits"] == 1
        assert stats["nodes"] == [1, 2, 3]
        assert engine.violations() == []

    def test_incremental_suffixes_extend_below_commit_markers(self):
        engine = checker()
        engine.observe(1, 0, [E(1, 1, "a")], commit_len=1)
        # The next advance shares the committed prefix: base=1.
        engine.observe(1, 1, [E(1, 2, "b")], commit_len=2)
        engine.observe(1, 2, [E(1, 3, "c")], commit_len=2)
        assert engine.ok
        assert engine.stats()["entries"] == 3
        assert engine.stats()["commits"] == 2

    def test_follower_adopting_leader_branch_is_clean(self):
        engine = checker()
        # S2 speculates an uncommitted entry, then adopts the leader's.
        engine.observe(2, 0, [E(1, 1, "stale")], commit_len=0)
        engine.observe(1, 0, [E(2, 1, "fresh")], commit_len=1)
        engine.observe(2, 0, [E(2, 1, "fresh")], commit_len=1)
        assert engine.ok

    def test_barrier_then_reconfig_is_clean(self):
        # The clean half of the Fig. 4 schedule: the old leader's config
        # entry is stranded uncommitted, and the new leader commits a
        # no-op barrier of its own term *before* appending its config
        # entry -- R3's guarantee, which B.8 accepts.
        engine = checker()
        shared = [E(1, 1, ("put", "x", 1))]
        for nid in (1, 2, 3):
            engine.observe(nid, 0, shared, commit_len=1)
        engine.observe(1, 1, [E(1, 2, frozenset({1, 2}), True)], commit_len=1)
        engine.observe(2, 1, [E(2, 1, ("noop",))], commit_len=1)
        engine.observe(2, 1, [E(2, 1, ("noop",))], commit_len=2)
        report = engine.observe(
            2, 2, [E(2, 2, frozenset({2, 3}), True)], commit_len=2
        )
        assert report is None and engine.ok


class TestViolations:
    def test_divergent_commits_violate_safety(self):
        engine = checker()
        engine.observe(1, 0, [E(1, 1, "a")], commit_len=1)
        report = engine.observe(2, 0, [E(2, 1, "b")], commit_len=1)
        assert report is not None
        assert not engine.ok
        assert any("safety" in line for line in engine.violations())
        # The offending event is named for the bundle manifest.
        assert engine.violation_event is not None

    def test_forked_reconfigs_without_barrier_violate_b8(self):
        # The buggy half of the Fig. 4 schedule: two leaders append
        # config entries on divergent branches with no committed entry
        # between the fork and either RCache.
        engine = checker()
        shared = [E(1, 1, ("put", "x", 1))]
        for nid in (1, 2, 3):
            engine.observe(nid, 0, shared, commit_len=1)
        engine.observe(1, 1, [E(1, 2, frozenset({1, 2}), True)], commit_len=1)
        report = engine.observe(
            2, 1, [E(2, 1, frozenset({2, 3}), True)], commit_len=1
        )
        assert report is not None
        assert any(
            "ccache-in-rcache-fork" in line for line in engine.violations()
        )

    def test_a_marker_under_a_forked_reconfig_brings_the_fork_into_reach(self):
        # Two reconfigurations fork right below a third: the RCache at
        # the fork keeps them one apart (rdist 1), outside B.8.  The
        # commit marker then slides in as their fork point and they are
        # zero apart with no CCache between -- a change to an *existing*
        # pair, which the one-node fast path used to wave through.
        engine = checker()
        first = E(1, 1, frozenset({2, 3, 4}), True)
        engine.observe(1, 0, [first, E(1, 2, frozenset({1, 3, 4}), True)], commit_len=0)
        engine.observe(2, 0, [first, E(1, 2, frozenset({2, 3, 4}), True)], commit_len=0)
        assert engine.ok
        report = engine.observe(3, 0, [first], commit_len=1)
        assert report is not None
        assert any(
            "ccache-in-rcache-fork" in line for line in engine.violations()
        )

    def test_checking_freezes_at_first_violation(self):
        engine = checker()
        engine.observe(1, 0, [E(1, 1, "a")], commit_len=1)
        first = engine.observe(2, 0, [E(2, 1, "b")], commit_len=1)
        assert first is not None
        frozen = list(engine.violations())
        # Later advances keep the trie consistent but return None and
        # leave the recorded verdict untouched.
        assert engine.observe(3, 0, [E(3, 1, "c")], commit_len=1) is None
        assert engine.violations() == frozen


class TestGapsAndAnchors:
    def test_unanchored_gap_is_counted_and_skipped(self):
        engine = checker()
        report = engine.observe(1, 5, [E(1, 1, "x")], commit_len=0)
        assert report is None
        assert engine.stats()["gaps"] == 1
        assert engine.ok

    def test_snapshot_gap_reanchors_on_peer_placement(self):
        engine = checker()
        log = [E(1, 1, "a"), E(1, 2, "b")]
        engine.observe(1, 0, log, commit_len=2)
        # S2 installed a snapshot covering both entries it never
        # exported; its advance names the snapshot's last entry.
        report = engine.observe(
            2, 2, [E(1, 3, "c")], commit_len=2, anchor_entry=log[-1]
        )
        assert report is None
        assert engine.stats()["gaps"] == 0
        assert engine.ok
        # The anchored entry lands on S1's branch: extending S1 with the
        # same entry adds nothing new.
        engine.observe(1, 2, [E(1, 3, "c")], commit_len=2)
        assert engine.stats()["entries"] == 3

    def test_ambiguous_anchor_refuses_to_guess(self):
        engine = checker(lemma_rdist_bound=None)
        # The same (position, entry) pair exists on two branches ...
        engine.observe(1, 0, [E(1, 1, "a"), E(3, 1, "c")], commit_len=0)
        engine.observe(2, 0, [E(2, 1, "b"), E(3, 1, "c")], commit_len=0)
        # ... so an advance anchored on it must be skipped, not guessed.
        engine.observe(
            3, 2, [E(3, 2, "d")], commit_len=0, anchor_entry=E(3, 1, "c")
        )
        assert engine.stats()["gaps"] == 1


class TestConfiguration:
    def test_invariant_labels_are_validated(self):
        with pytest.raises(ValueError):
            checker(invariants=("no-such-lemma",))

    def test_default_invariants_cover_the_log_lemmas(self):
        assert "safety" in DEFAULT_LOG_INVARIANTS
        assert "ccache-in-rcache-fork" in DEFAULT_LOG_INVARIANTS

    def test_unhashable_payloads_are_frozen_not_fatal(self):
        # Client commands carry arbitrary JSON: a kvstore put of an
        # object gives the entry a dict-bearing payload.  The engine
        # keys its trie on payloads, so it must freeze them -- and
        # equal dicts must land on the same trie node regardless of
        # insertion order.
        engine = checker()
        a = E(1, 1, ("put", "user:1", {"id": 1, "balance": 101}))
        b = E(1, 1, ("put", "user:1", {"balance": 101, "id": 1}))
        assert engine.observe(1, 0, [a], commit_len=1) is None
        assert engine.observe(2, 0, [b], commit_len=1) is None
        assert engine.ok
        stats = engine.stats()
        assert stats["entries"] == 1  # one shared trie node, no fork
        assert stats["gaps"] == 0
