"""Unit tests for the reconfiguration schemes (Section 6)."""

import pytest

from repro.schemes import (
    DynamicQuorumScheme,
    JointConfig,
    JointConsensusScheme,
    OverlapAblation,
    PrimaryBackupConfig,
    PrimaryBackupScheme,
    RaftSingleNodeScheme,
    RotatingPrimaryScheme,
    SizedConfig,
    StaticScheme,
    UnanimousScheme,
    WeightedConfig,
    WeightedMajorityScheme,
)


class TestSingleNode:
    scheme = RaftSingleNodeScheme()

    def test_members(self):
        assert self.scheme.members(frozenset({1, 2})) == frozenset({1, 2})

    def test_majority_quorum(self):
        conf = frozenset({1, 2, 3})
        assert self.scheme.is_quorum({1, 2}, conf)
        assert not self.scheme.is_quorum({1}, conf)
        assert self.scheme.is_quorum({1, 2, 3, 9}, conf)  # outsiders ignored

    def test_r1_allows_one_server_change(self):
        a = frozenset({1, 2, 3})
        assert self.scheme.r1_plus(a, a)
        assert self.scheme.r1_plus(a, frozenset({1, 2}))
        assert self.scheme.r1_plus(a, frozenset({1, 2, 3, 4}))
        assert not self.scheme.r1_plus(a, frozenset({1}))
        assert not self.scheme.r1_plus(a, frozenset({1, 2, 4}))  # swap = 2 changes
        assert not self.scheme.r1_plus(a, frozenset())

    def test_validity(self):
        assert self.scheme.is_valid_config(frozenset({1}))
        assert not self.scheme.is_valid_config(frozenset())


class TestUnsafeMultiNode:
    """Raft single-node with OVERLAP ablated: multi-node jumps."""

    scheme = OverlapAblation(RaftSingleNodeScheme())

    def test_allows_arbitrary_jumps(self):
        assert self.scheme.r1_plus(frozenset({1, 2, 3, 4}), frozenset({5, 6, 7}))

    def test_rejects_empty(self):
        assert not self.scheme.r1_plus(frozenset({1}), frozenset())


class TestJointConsensus:
    scheme = JointConsensusScheme()

    def test_joint_quorum_needs_both_majorities(self):
        conf = JointConfig.transition({1, 2, 3}, {3, 4, 5})
        assert self.scheme.is_quorum({1, 2, 3, 4}, conf)
        assert not self.scheme.is_quorum({1, 2}, conf)      # no new majority
        assert not self.scheme.is_quorum({4, 5}, conf)      # no old majority
        assert self.scheme.is_quorum({2, 3, 4}, conf)

    def test_stable_quorum_is_plain_majority(self):
        conf = JointConfig.stable({1, 2, 3})
        assert self.scheme.is_quorum({1, 2}, conf)
        assert not self.scheme.is_quorum({3}, conf)

    def test_r1_enter_and_leave_joint(self):
        stable = JointConfig.stable({1, 2, 3})
        joint = JointConfig.transition({1, 2, 3}, {4, 5, 6})
        landed = JointConfig.stable({4, 5, 6})
        assert self.scheme.r1_plus(stable, joint)
        assert self.scheme.r1_plus(joint, landed)
        assert not self.scheme.r1_plus(stable, landed)   # must go through joint
        assert self.scheme.r1_plus(stable, stable)       # REFLEXIVE

    def test_r1_rejects_wrong_old_set(self):
        stable = JointConfig.stable({1, 2, 3})
        joint = JointConfig.transition({1, 2}, {4, 5})
        assert not self.scheme.r1_plus(stable, joint)

    def test_members_is_union(self):
        conf = JointConfig.transition({1, 2}, {2, 3})
        assert self.scheme.members(conf) == frozenset({1, 2, 3})

    def test_plain_sets_accepted_as_stable(self):
        assert self.scheme.is_quorum({1, 2}, frozenset({1, 2, 3}))

    def test_describe(self):
        assert "+" in self.scheme.describe_config(
            JointConfig.transition({1}, {2})
        )


class TestPrimaryBackup:
    scheme = PrimaryBackupScheme()

    def test_quorum_is_any_set_with_primary(self):
        conf = PrimaryBackupConfig.of(1, {2, 3})
        assert self.scheme.is_quorum({1}, conf)
        assert self.scheme.is_quorum({1, 3}, conf)
        assert not self.scheme.is_quorum({2, 3}, conf)

    def test_backups_change_freely(self):
        a = PrimaryBackupConfig.of(1, {2, 3})
        b = PrimaryBackupConfig.of(1, {4, 5, 6})
        assert self.scheme.r1_plus(a, b)

    def test_primary_change_forbidden(self):
        a = PrimaryBackupConfig.of(1, {2})
        b = PrimaryBackupConfig.of(2, {1})
        assert not self.scheme.r1_plus(a, b)

    def test_primary_excluded_from_backups(self):
        conf = PrimaryBackupConfig.of(1, {1, 2})
        assert conf.backups == frozenset({2})


class TestRotatingPrimary:
    scheme = RotatingPrimaryScheme()

    def test_quorum_needs_primary_and_majority(self):
        conf = PrimaryBackupConfig.of(1, {2, 3})
        assert self.scheme.is_quorum({1, 2}, conf)
        assert not self.scheme.is_quorum({1}, conf)
        assert not self.scheme.is_quorum({2, 3}, conf)

    def test_handover_to_backup(self):
        a = PrimaryBackupConfig.of(1, {2, 3})
        b = PrimaryBackupConfig.of(2, {1, 3})
        assert self.scheme.r1_plus(a, b)

    def test_handover_to_outsider_forbidden(self):
        a = PrimaryBackupConfig.of(1, {2, 3})
        b = PrimaryBackupConfig.of(9, {1, 2, 3})
        assert not self.scheme.r1_plus(a, b)

    def test_backup_changes_bounded(self):
        a = PrimaryBackupConfig.of(1, {2, 3})
        assert self.scheme.r1_plus(a, PrimaryBackupConfig.of(1, {2, 3, 4}))
        assert not self.scheme.r1_plus(a, PrimaryBackupConfig.of(1, {4, 5}))


class TestDynamicQuorum:
    scheme = DynamicQuorumScheme()

    def test_quorum_threshold(self):
        conf = SizedConfig.of(3, {1, 2, 3, 4})
        assert self.scheme.is_quorum({1, 2, 3}, conf)
        assert not self.scheme.is_quorum({1, 2}, conf)

    def test_majority_constructor(self):
        conf = SizedConfig.majority({1, 2, 3, 4, 5})
        assert conf.quorum_size == 3

    def test_growth_bounded_by_quorum_sums(self):
        small = SizedConfig.of(2, {1, 2, 3})
        # Growing to 5 members needs q + q' > 5.
        big_ok = SizedConfig.of(4, {1, 2, 3, 4, 5})
        big_bad = SizedConfig.of(3, {1, 2, 3, 4, 5})
        assert self.scheme.r1_plus(small, big_ok)
        assert not self.scheme.r1_plus(small, big_bad)

    def test_incomparable_members_rejected(self):
        a = SizedConfig.of(2, {1, 2, 3})
        b = SizedConfig.of(2, {1, 2, 4})
        assert not self.scheme.r1_plus(a, b)

    def test_validity(self):
        assert not self.scheme.is_valid_config(SizedConfig(0, frozenset({1})))
        assert not self.scheme.is_valid_config(SizedConfig(3, frozenset({1})))
        assert self.scheme.is_valid_config(SizedConfig(1, frozenset({1})))

    def test_full_quorum_allows_large_change(self):
        # q = n lets n-1 members change at once (paper's observation).
        a = SizedConfig.of(3, {1, 2, 3})
        b = SizedConfig.of(5, {1, 2, 3, 4, 5, 6, 7})
        assert self.scheme.r1_plus(a, b)


class TestUnanimous:
    scheme = UnanimousScheme()

    def test_quorum_is_everyone(self):
        conf = frozenset({1, 2, 3})
        assert self.scheme.is_quorum({1, 2, 3}, conf)
        assert self.scheme.is_quorum({1, 2, 3, 4}, conf)
        assert not self.scheme.is_quorum({1, 2}, conf)

    def test_r1_needs_one_common_member(self):
        assert self.scheme.r1_plus(frozenset({1, 2, 3}), frozenset({3, 4, 5}))
        assert not self.scheme.r1_plus(frozenset({1, 2}), frozenset({3, 4}))


class TestWeighted:
    scheme = WeightedMajorityScheme()

    def test_weighted_quorum(self):
        conf = WeightedConfig.of({1: 3, 2: 1, 3: 1})
        assert self.scheme.is_quorum({1}, conf)        # 3 of 5
        assert not self.scheme.is_quorum({2, 3}, conf)  # 2 of 5

    def test_uniform_degenerates_to_majority(self):
        conf = WeightedConfig.uniform({1, 2, 3})
        assert self.scheme.is_quorum({1, 2}, conf)
        assert not self.scheme.is_quorum({1}, conf)

    def test_r1_single_addition_allowed(self):
        a = WeightedConfig.of({1: 1, 2: 1, 3: 1})
        b = WeightedConfig.of({1: 1, 2: 1, 3: 1, 4: 1})
        # q(a) + q(b) = 2 + 3 = 5 > |union| = 4: allowed.
        assert self.scheme.r1_plus(a, b)
        assert self.scheme.r1_plus(b, a)
        # Identical configs always pass (REFLEXIVE).
        assert self.scheme.r1_plus(a, a)

    def test_r1_two_node_swap_blocked(self):
        a = WeightedConfig.of({1: 1, 2: 1, 3: 1, 4: 1})
        b = WeightedConfig.of({1: 1, 2: 1, 5: 1, 6: 1})
        # q + q = 3 + 3 = 6, union weight 6: rejected.
        assert not self.scheme.r1_plus(a, b)

    def test_r1_weight_change_requires_two_steps(self):
        a = WeightedConfig.of({1: 1, 2: 1, 3: 1})
        b = WeightedConfig.of({1: 5, 2: 1, 3: 1})
        assert not self.scheme.r1_plus(a, b)

    def test_heavy_node_swap_blocked(self):
        # Adding a dominant node must be rejected: it could form a
        # quorum disjoint from the old majority.
        a = WeightedConfig.of({1: 1, 2: 1})
        b = WeightedConfig.of({1: 1, 2: 1, 3: 100})
        assert not self.scheme.r1_plus(a, b)

    def test_positive_weights_required(self):
        with pytest.raises(ValueError):
            WeightedConfig.of({1: 0})

    def test_mapping_and_iterable_coercion(self):
        assert self.scheme.is_quorum({1, 2}, {1: 1, 2: 1, 3: 1})
        assert self.scheme.is_quorum({1, 2}, frozenset({1, 2, 3}))


class TestStatic:
    scheme = StaticScheme()

    def test_reconfig_only_reflexive(self):
        a = frozenset({1, 2, 3})
        assert self.scheme.r1_plus(a, a)
        assert not self.scheme.r1_plus(a, frozenset({1, 2}))
