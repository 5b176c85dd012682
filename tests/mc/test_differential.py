"""Tests for the differential model-checking harness.

The two contractual properties (ISSUE acceptance criteria):

* determinism -- the same budgets produce the identical report (state
  counts, frontiers, survival matrix) on repeat runs;
* separation -- on the Fig. 4 budget the ``no-r3`` ablation kills Raft
  single-node while the MongoDB logless scheme (whose Q1/Q2 enabling
  conditions subsume R2/R3) stays SAFE.
"""

import json

import pytest

from repro.mc import FIG4_BUDGET, OpBudget
from repro.mc.differential import (
    ABLATIONS,
    DEFAULT_BUDGETS,
    MATRIX,
    SMOKE_BUDGETS,
    explorer_for,
    run_differential,
)
from repro.schemes import (
    SCHEMES,
    LoglessConfig,
    OverlapAblation,
    RaftSingleNodeScheme,
)

TINY_BUDGETS = {
    "intact": OpBudget(pulls=1, invokes=1, reconfigs=1, pushes=1),
    "no-r2": OpBudget(pulls=1, invokes=1, reconfigs=1, pushes=1),
    "no-r3": OpBudget(pulls=1, invokes=1, reconfigs=1, pushes=1),
    "no-overlap": OpBudget(pulls=1, invokes=1, reconfigs=1, pushes=1),
    "leaf-commit": OpBudget(pulls=1, invokes=2, reconfigs=0, pushes=2),
}


def _schemes(*names):
    return [SCHEMES[name] for name in names]


def test_matrix_covers_the_seven_schemes():
    names = [s.name for s in MATRIX]
    assert names == [
        "raft-single-node",
        "raft-joint-consensus",
        "primary-backup",
        "dynamic-quorum",
        "unanimous",
        "weighted-majority",
        "mongo-logless",
    ]


def test_budget_tables_cover_every_ablation():
    assert set(DEFAULT_BUDGETS) == set(ABLATIONS)
    assert set(SMOKE_BUDGETS) == set(ABLATIONS)


def test_report_is_deterministic_across_runs():
    schemes = _schemes("raft-single-node", "mongo-logless")
    first = run_differential(
        schemes=schemes, budgets=TINY_BUDGETS, max_states=20_000
    )
    second = run_differential(
        schemes=schemes, budgets=TINY_BUDGETS, max_states=20_000
    )
    assert first.determinism_key() == second.determinism_key()
    # Timings aside, the serialized reports agree too.
    strip = lambda d: json.loads(
        json.dumps(d, sort_keys=True, default=str).replace(" ", "")
    )
    a, b = first.to_dict(), second.to_dict()
    for report in (a, b):
        for record in report["records"]:
            record.pop("elapsed_seconds")
    assert strip(a) == strip(b)


def test_no_r3_separates_logless_from_raft_on_fig4_budget():
    """The acceptance-criterion separation: same budget, same ablation,
    opposite fates -- the logless protocol's own Q2 gate replaces R3."""
    schemes = _schemes("raft-single-node", "mongo-logless")
    report = run_differential(
        schemes=schemes,
        budgets=DEFAULT_BUDGETS,
        ablations=("no-r3",),
        max_states=100_000,
    )
    raft = report.record("raft-single-node", "no-r3")
    logless = report.record("mongo-logless", "no-r3")
    assert not raft.safe
    assert raft.first_violation_depth == 8  # the Fig. 4 counterexample
    assert "safety" in raft.first_violation_labels
    assert logless.safe
    assert logless.complete  # full schedule class, not a truncation
    assert "no-r3" in report.separations("raft-single-node", "mongo-logless")


def test_overlap_ablation_delegates_but_drops_r1():
    base = RaftSingleNodeScheme()
    ablated = OverlapAblation(base)
    assert ablated.name == "raft-single-node+no-overlap"
    old, new = frozenset({1, 2, 3}), frozenset({4, 5, 6})
    assert not base.r1_plus(old, new)
    assert ablated.r1_plus(old, new)  # any valid config is accepted
    assert not ablated.r1_plus(old, frozenset())  # but not an invalid one
    assert ablated.members(old) == base.members(old)
    assert ablated.is_quorum({1, 2}, old) == base.is_quorum({1, 2}, old)
    assert ablated.describe_config(old) == base.describe_config(old)


def test_explorer_for_configures_each_ablation():
    scheme = SCHEMES["mongo-logless"]
    intact = explorer_for(scheme, "intact", max_states=10)
    assert intact.enforce_r2 and intact.enforce_r3
    assert intact.budget == FIG4_BUDGET
    no_r2 = explorer_for(scheme, "no-r2", max_states=10)
    assert not no_r2.enforce_r2 and no_r2.enforce_r3
    no_r3 = explorer_for(scheme, "no-r3", max_states=10)
    assert no_r3.enforce_r2 and not no_r3.enforce_r3
    no_overlap = explorer_for(scheme, "no-overlap", max_states=10)
    assert isinstance(no_overlap.scheme, OverlapAblation)
    leaf = explorer_for(scheme, "leaf-commit", max_states=10)
    assert leaf.push_step is not intact.push_step
    with pytest.raises(ValueError):
        explorer_for(scheme, "no-such-ablation")


def test_report_structure_and_rendering():
    schemes = _schemes("raft-single-node")
    report = run_differential(
        schemes=schemes,
        budgets=TINY_BUDGETS,
        ablations=("intact", "leaf-commit"),
        max_states=20_000,
    )
    assert report.schemes() == ["raft-single-node"]
    assert report.ablations() == ["intact", "leaf-commit"]
    matrix = report.survival_matrix()
    assert matrix[0][0] == "raft-single-node"
    assert matrix[0][1] == "survives"
    assert matrix[0][2].startswith("dies@")
    leaf = report.record("raft-single-node", "leaf-commit")
    assert not leaf.safe and leaf.first_violation_depth is not None
    payload = json.loads(report.to_json())
    assert payload["survival_matrix"] == matrix
    assert payload["budgets"]["intact"]["pulls"] == 1
    rendered = report.render()
    assert "ablation survival" in rendered
    assert "violation frontier" in rendered
    assert "raft-single-node" in rendered
    # Unknown ablation names are rejected up front.
    with pytest.raises(ValueError):
        run_differential(
            schemes=schemes, ablations=("bogus",), max_states=10
        )


def test_logless_intact_verified_on_fig4_budget():
    """Acceptance criterion: the bounded checker certifies the logless
    scheme intact on the Fig. 4 budget (exhaustive bfs, same bound as
    the Raft hunt)."""
    scheme = SCHEMES["mongo-logless"]
    explorer = explorer_for(
        scheme, "intact", max_states=100_000, strategy="bfs"
    )
    result = explorer.run()
    assert result.safe
    assert result.exhausted
    assert result.states_visited == 52_711
    assert isinstance(explorer.conf0, LoglessConfig)
