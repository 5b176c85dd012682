"""Exhaustive REFLEXIVE/QUORUM-EXISTS/OVERLAP checks over bounded
universes -- the executable analogue of the paper's per-scheme Coq side
conditions."""

import pytest

from repro.schemes import (
    SCHEMES,
    DynamicQuorumScheme,
    JointConsensusScheme,
    LoglessReconfigScheme,
    OverlapAblation,
    PrimaryBackupScheme,
    RaftSingleNodeScheme,
    UnanimousScheme,
    check_assumptions,
)

#: OVERLAP ablated over set configurations: R1⁺ is "any non-empty set".
UNSAFE = OverlapAblation(RaftSingleNodeScheme())


@pytest.mark.parametrize("scheme", SCHEMES.values(), ids=lambda s: s.name)
def test_assumptions_hold_over_three_nodes(scheme):
    report = check_assumptions(scheme, [1, 2, 3])
    assert report.ok, report.summary() + "\n" + "\n".join(
        report.reflexive_violations
        + report.quorum_violations
        + report.overlap_violations
    )
    assert report.configs_checked > 0
    assert report.quorum_pairs_checked > 0


@pytest.mark.parametrize(
    "scheme",
    [RaftSingleNodeScheme(), PrimaryBackupScheme(), UnanimousScheme(),
     DynamicQuorumScheme(), LoglessReconfigScheme()],
    ids=lambda s: s.name,
)
def test_assumptions_hold_over_four_nodes(scheme):
    report = check_assumptions(scheme, [1, 2, 3, 4])
    assert report.ok, report.summary()


def test_unsafe_scheme_violates_overlap():
    report = check_assumptions(UNSAFE, [1, 2, 3, 4], stop_at_first=True)
    assert not report.ok
    assert report.overlap_violations


def test_config_universe_sizes():
    assert len(RaftSingleNodeScheme().configs([1, 2, 3])) == 7
    # Joint: 7 stable + 49 joint.
    assert len(JointConsensusScheme().configs([1, 2, 3])) == 56
    # Primary-backup: 3 primaries x 4 backup subsets.
    assert len(PrimaryBackupScheme().configs([1, 2, 3])) == 12


def test_a_set_scheme_needs_no_config_universe_of_its_own():
    """A scheme over plain member sets inherits ``configs``: every
    non-empty subset of the universe."""
    from repro.core import ReconfigScheme

    class Exotic(ReconfigScheme):
        name = "exotic"

        def members(self, conf):
            return frozenset(conf)

        def is_quorum(self, group, conf):
            return True

        def r1_plus(self, old, new):
            return True

    assert Exotic().configs([2, 1]) == [
        frozenset({1}), frozenset({2}), frozenset({1, 2})
    ]


class NoQuorum(RaftSingleNodeScheme):
    """Planted: a three-member configuration has no quorum at all."""

    name = "no-quorum"

    def is_quorum(self, group, conf):
        return len(conf) != 3 and super().is_quorum(group, conf)


def test_a_config_without_a_quorum_is_reported():
    """QUORUM-EXISTS: REFLEXIVE and OVERLAP both hold for the planted
    scheme (vacuously at its quorum-less configs), so only the new check
    catches it, with the configurations as witnesses."""
    report = check_assumptions(NoQuorum(), [1, 2, 3, 4])
    assert not report.ok
    assert not report.reflexive_violations and not report.overlap_violations
    assert [w.config for w in report.quorum_witnesses] == [
        frozenset(c) for c in ({1, 2, 3}, {1, 2, 4}, {1, 3, 4}, {2, 3, 4})
    ]
    assert report.quorum_violations[0] == (
        "no quorum exists in frozenset({1, 2, 3})"
    )
    first = check_assumptions(NoQuorum(), [1, 2, 3], stop_at_first=True)
    assert len(first.quorum_witnesses) == 1
    assert first.transition_pairs == 0  # stopped before the pair loop


def test_report_summary_format():
    report = check_assumptions(RaftSingleNodeScheme(), [1, 2, 3])
    assert "raft-single-node" in report.summary()
    assert "OK" in report.summary()


def test_overlap_witness_carries_configs_and_disjoint_quorums():
    report = check_assumptions(UNSAFE, [1, 2, 3, 4], stop_at_first=True)
    assert report.overlap_witnesses
    witness = report.overlap_witnesses[0]
    scheme = UNSAFE
    # The witness is concrete and re-checkable.
    assert scheme.r1_plus(witness.old_config, witness.new_config)
    assert scheme.is_quorum(frozenset(witness.quorum_old), witness.old_config)
    assert scheme.is_quorum(frozenset(witness.quorum_new), witness.new_config)
    assert not (set(witness.quorum_old) & set(witness.quorum_new))
    assert witness.describe() == report.overlap_violations[0]
    assert "disjoint quorums" in witness.describe()


def test_reflexive_witness_carries_config():
    class NeverReflexive(RaftSingleNodeScheme):
        name = "never-reflexive"

        def r1_plus(self, old, new):
            return False

    report = check_assumptions(NeverReflexive(), [1, 2], stop_at_first=True)
    assert not report.ok
    assert report.reflexive_witnesses
    witness = report.reflexive_witnesses[0]
    assert witness.config in set(NeverReflexive().configs([1, 2]))
    assert witness.describe() == report.reflexive_violations[0]
