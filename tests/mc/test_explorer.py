"""Tests for the bounded model checker and its ablations."""

import pytest

from repro.cado import cado_explorer
from repro.mc import (
    Explorer,
    OpBudget,
    ablate_insert_btw,
    verify_intact,
)
from repro.mc.bounded_cli import signature
from repro.schemes import RaftSingleNodeScheme

from .test_golden import ROWS

NODES3 = frozenset({1, 2, 3})
SCHEME = RaftSingleNodeScheme()


class TestOpBudget:
    def test_spend(self):
        budget = OpBudget(pulls=1, invokes=0, reconfigs=2, pushes=1)
        assert budget.spend("invoke") is None
        spent = budget.spend("pull")
        assert spent.pulls == 0
        assert spent.reconfigs == 2
        assert spent.spend("pull") is None

    def test_push_field_name(self):
        budget = OpBudget(pushes=1)
        assert budget.spend("push").pushes == 0

    def test_total(self):
        assert OpBudget(1, 2, 3, 4).total() == 10


class TestReconfigCandidates:
    def test_set_candidates_single_changes(self):
        candidates = set(SCHEME.moves(None, 1, frozenset({1, 2}), {1, 2, 3, 4}))
        assert frozenset({1, 2, 3}) in candidates
        assert frozenset({1, 2, 4}) in candidates
        assert frozenset({1}) in candidates
        assert frozenset({2}) in candidates
        assert frozenset({1, 2, 3, 4}) not in candidates

    def test_set_candidates_never_empty_config(self):
        candidates = set(SCHEME.moves(None, 1, frozenset({1}), {1, 2}))
        assert frozenset() not in candidates

    def test_jump_candidates_cover_all_subsets(self):
        candidates = set(SCHEME.jumps(None, 1, frozenset({1}), {1, 2, 3}))
        assert len(candidates) == 6  # all non-empty subsets minus itself


class TestExhaustiveVerification:
    def test_small_exploration_is_safe_and_exhaustive(self):
        explorer = Explorer(
            SCHEME,
            NODES3,
            budget=OpBudget(pulls=1, invokes=1, reconfigs=0, pushes=1),
        )
        result = explorer.run()
        assert result.safe
        assert result.exhausted
        assert result.states_visited > 10

    def test_verify_intact_small(self):
        result = verify_intact(
            budget=OpBudget(pulls=1, invokes=2, reconfigs=1, pushes=2),
            conf0=NODES3,
        )
        assert result.safe, result.summary()
        assert result.exhausted

    def test_reconfig_moves_appear_when_legal(self):
        result = verify_intact(
            budget=OpBudget(pulls=1, invokes=1, reconfigs=1, pushes=2),
            conf0=NODES3,
        )
        # With R3 satisfiable (invoke + push first), reconfiguration
        # transitions exist and are explored without violations.
        assert result.safe
        assert result.transitions > result.states_visited / 2

    def test_cado_explorer_has_no_reconfig_moves(self):
        explorer = cado_explorer(NODES3, budget=OpBudget(1, 1, 5, 1))
        result = explorer.run()
        assert result.safe
        for violation in result.violations:
            raise AssertionError(violation.describe())
        # No state in a CADO exploration has an RCache.
        explorer2 = cado_explorer(NODES3, budget=OpBudget(1, 1, 5, 1))
        for _, state in explorer2.successors(
            __import__("repro.core", fromlist=["initial_state"]).initial_state(
                NODES3, explorer2.scheme
            )
        ):
            assert state.tree.rcaches() == []


class TestAblations:
    def test_insert_btw_ablation_finds_violation(self):
        result = ablate_insert_btw()
        assert not result.safe
        ops = [op for op, _, _ in result.violations[0].trace]
        assert ops.count("push") == 2

    def test_no_r3_violation_found_quickly(self):
        # A scaled-down inline version of ablate_r3 (the full hunt runs
        # in the benchmark suite): with the exact Fig. 4 budget and the
        # guided strategy the violation is found within a small cap.
        from repro.mc.ablations import FIG4_BUDGET, FIG4_NODES

        explorer = Explorer(
            SCHEME,
            FIG4_NODES,
            callers=[1, 2],
            budget=FIG4_BUDGET,
            quorum_pulls_only=True,
            minimal_quorums_only=True,
            enforce_r3=False,
            invariants=["safety"],
            strategy="guided",
            max_states=30_000,
        )
        result = explorer.run()
        assert not result.safe
        violation = result.violations[0]
        assert len(violation.trace) == 8
        assert "different branches" in violation.report.safety[0]

    def test_intact_model_is_safe_on_the_same_budget(self):
        # The other half of the Fig. 4 claim: with R2+R3 on, the same
        # schedule class has no violation (exhaustive) -- and the search
        # that says so is state for state the seed engine's.
        from repro.mc.ablations import FIG4_BUDGET, FIG4_NODES

        explorer = Explorer(
            SCHEME,
            FIG4_NODES,
            callers=[1, 2],
            budget=FIG4_BUDGET,
            quorum_pulls_only=True,
            minimal_quorums_only=True,
            invariants=["safety"],
            max_states=400_000,
        )
        result = explorer.run()
        assert result.safe, result.violations[0].describe()
        assert signature(result) == ROWS["fig4-hunt"]


class TestViolationReporting:
    def test_describe_contains_schedule_and_tree(self):
        result = ablate_insert_btw()
        text = result.violations[0].describe()
        assert "schedule:" in text
        assert "tree:" in text
        assert "violations:" in text

    def test_summary_format(self):
        result = ablate_insert_btw()
        assert "VIOLATION" in result.summary()

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError):
            Explorer(SCHEME, NODES3, strategy="dfs")

    def test_unknown_invariant_rejected(self):
        # Validation happens at construction so a bad label fails in the
        # submitting process, not inside a pool worker.
        with pytest.raises(ValueError):
            Explorer(SCHEME, NODES3, invariants=["bogus"])
