"""Guided x workers x checkpoint compose (ISSUE 14).

There is one search loop; the strategy picks its frontier, ``workers``
its executor, and ``checkpoint`` what happens between rounds.  Before the loop was merged
these were two engines and guided search could have none of the
parallel engine's features; every test here fails on that commit.
"""

import pytest

from repro.core import tree as core_tree
from repro.core.safety import check_state
from repro.mc import (
    OpBudget,
    ParallelExplorer,
    insert_btw_explorer,
    overlap_explorer,
    r2_explorer,
    r3_explorer,
    verify_intact_explorer,
)
from repro.mc.bounded_cli import signature
from repro.mc.differential import run_differential
from repro.schemes import SCHEMES

SMALL_BUDGET = OpBudget(pulls=1, invokes=2, reconfigs=1, pushes=2)

GUIDED = [
    ("r3", lambda **kw: r3_explorer(**kw)),
    ("r2-capped", lambda **kw: r2_explorer(max_states=3_000, **kw)),
    ("overlap-capped", lambda **kw: overlap_explorer(max_states=3_000, **kw)),
]


def run_in_slices(factory, path, **options):
    """Three rounds per slice, checkpointing each, until a verdict."""
    slices = 0
    while True:
        result = ParallelExplorer(
            factory(), checkpoint=path, max_levels=3, checkpoint_interval=0,
            **options,
        ).run()
        slices += 1
        if not result.interrupted:
            return result, slices


@pytest.mark.parametrize("name,factory", GUIDED, ids=[n for n, _ in GUIDED])
class TestGuidedCheckpoint:
    def test_sliced_run_equals_the_uninterrupted_run(
        self, name, factory, tmp_path
    ):
        whole = factory().run()
        assert factory().strategy == "guided"
        sliced, slices = run_in_slices(
            factory, str(tmp_path / "hunt.ckpt"), workers=1
        )
        assert slices > 3
        assert signature(sliced) == signature(whole)
        assert not list(tmp_path.iterdir())


class TestGuidedWorkers:
    def test_pooled_hunt_is_deterministic_for_any_pool_shape(self):
        runs = [
            ParallelExplorer(
                r3_explorer(), workers=workers, batch_size=batch_size
            ).run()
            for workers, batch_size in [(2, 32), (2, 32), (2, 1), (4, 32), (4, 1)]
        ]
        first = runs[0]
        assert len(first.violations) == 1
        assert not check_state(first.violations[0].state, only=["safety"]).ok
        for other in runs[1:]:
            assert signature(other) == signature(first)
            assert other.violations[0].state == first.violations[0].state

    def test_pooled_hunt_resumes_from_a_checkpoint(self, tmp_path):
        whole = ParallelExplorer(r3_explorer(), workers=2).run()
        sliced, slices = run_in_slices(
            r3_explorer, str(tmp_path / "hunt.ckpt"), workers=2
        )
        assert slices > 1
        assert signature(sliced) == signature(whole)


def test_differential_keeps_its_strategy_with_workers_and_checkpoints(tmp_path):
    options = dict(
        schemes=[SCHEMES["raft-single-node"], SCHEMES["mongo-logless"]],
        budgets={
            "intact": OpBudget(pulls=1, invokes=1, reconfigs=1, pushes=1),
            "leaf-commit": OpBudget(pulls=1, invokes=2, reconfigs=0, pushes=2),
        },
        ablations=("intact", "leaf-commit"),
        max_states=20_000,
    )
    sequential = run_differential(**options)
    pooled = run_differential(
        workers=2, checkpoint_dir=str(tmp_path), **options
    )
    assert sequential.strategy == pooled.strategy == "guided"
    assert pooled.survival_matrix() == sequential.survival_matrix()


class TestTwoEnginesInOneProcess:
    def test_nested_run_leaves_the_outer_run_alone(self):
        outer_cap = core_tree._INTERN_CAP
        plain = verify_intact_explorer(SMALL_BUDGET).run()
        nested = []

        def run_another_engine(snapshot):
            if snapshot.level == 2:
                nested.append(
                    ParallelExplorer(insert_btw_explorer(), workers=1).run()
                )

        outer = ParallelExplorer(
            verify_intact_explorer(SMALL_BUDGET),
            workers=1, progress=run_another_engine,
        ).run()
        assert signature(outer) == signature(plain)
        assert signature(nested[0]) == signature(insert_btw_explorer().run())
        assert core_tree._INTERN_CAP == outer_cap

    @pytest.mark.parametrize("workers", [1, 2])
    def test_the_tree_cap_is_restored_on_every_exit(self, workers, tmp_path):
        outer_cap = core_tree._INTERN_CAP

        def interrupt(snapshot):
            raise KeyboardInterrupt

        exits = [
            # normal completion
            dict(),
            # time-slice return
            dict(max_levels=1, checkpoint=str(tmp_path / "slice.ckpt")),
            # KeyboardInterrupt out of the loop
            dict(progress=interrupt),
        ]
        for options in exits:
            engine = ParallelExplorer(
                verify_intact_explorer(SMALL_BUDGET, tree_cap=64),
                workers=workers, **options,
            )
            try:
                engine.run()
            except KeyboardInterrupt:
                pass
            assert core_tree._INTERN_CAP == outer_cap
        # first-violation early return
        result = ParallelExplorer(
            insert_btw_explorer(tree_cap=64), workers=workers
        ).run()
        assert not result.safe
        assert core_tree._INTERN_CAP == outer_cap


def test_every_run_reports_engine_stats():
    for explorer in (verify_intact_explorer(SMALL_BUDGET), r3_explorer()):
        result = explorer.run()
        assert result.stats.workers == 1
        assert result.stats.produced == result.transitions
        assert result.stats.levels >= 1
