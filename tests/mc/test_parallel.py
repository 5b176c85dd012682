"""Tests for the parallel, resumable model-checking engine.

The contract under test: for any worker count, batch size, or
interruption pattern, the level-synchronized parallel engine visits
exactly the states the sequential breadth-first search visits, reports
the same verdict, and finds the identical first violation.
"""

import os
import pickle
import warnings

import pytest

from repro.mc import (
    FIG4_BUDGET,
    Checkpoint,
    ExplorationResult,
    Explorer,
    OpBudget,
    ParallelExplorer,
    Violation,
    explore,
    insert_btw_explorer,
    load_checkpoint,
    merge_results,
    overlap_explorer,
    r2_explorer,
    r3_explorer,
    save_checkpoint,
    verify_intact,
    verify_intact_explorer,
)
from repro.mc.ablations import _hunt_explorer
from repro.schemes import RaftSingleNodeScheme

NODES3 = frozenset({1, 2, 3})
SCHEME = RaftSingleNodeScheme()

#: A quick exhaustive instance (about 2k states).
SMALL_BUDGET = OpBudget(pulls=1, invokes=2, reconfigs=1, pushes=2)


def assert_equivalent(seq: ExplorationResult, par: ExplorationResult) -> None:
    """The full engine-equivalence contract."""
    assert par.states_visited == seq.states_visited
    assert par.transitions == seq.transitions
    assert par.max_depth == seq.max_depth
    assert par.exhausted == seq.exhausted
    assert par.safe == seq.safe
    assert len(par.violations) == len(seq.violations)
    for mine, theirs in zip(par.violations, seq.violations):
        assert mine.trace == theirs.trace
        assert mine.state == theirs.state


# ----------------------------------------------------------------------
# Sequential-vs-parallel equivalence on the Fig. 4 schedule class
# ----------------------------------------------------------------------

#: Each FIG4_BUDGET instance the acceptance contract names: the intact
#: model and all four rule ablations, run as truncated BFS so the
#: comparison stays fast.  Truncation is part of the contract: both
#: engines must clip the state space at ``max_states`` identically.
FIG4_CAP = 1_200

FIG4_INSTANCES = [
    ("intact", lambda: _hunt_explorer(
        strategy="bfs", max_states=FIG4_CAP)),
    ("no-R3", lambda: r3_explorer(
        max_states=FIG4_CAP, strategy="bfs")),
    ("no-R2", lambda: r2_explorer(
        max_states=FIG4_CAP, strategy="bfs", budget=FIG4_BUDGET)),
    ("no-OVERLAP", lambda: overlap_explorer(
        max_states=FIG4_CAP, strategy="bfs", budget=FIG4_BUDGET)),
    ("insertBtw->addLeaf", lambda: insert_btw_explorer(
        max_states=FIG4_CAP, budget=FIG4_BUDGET)),
]


class TestFig4Equivalence:
    @pytest.mark.parametrize(
        "name,factory", FIG4_INSTANCES, ids=[n for n, _ in FIG4_INSTANCES]
    )
    def test_parallel_matches_sequential(self, name, factory):
        seq = factory().run()
        par = ParallelExplorer(factory(), workers=2).run()
        assert_equivalent(seq, par)

    def test_symmetry_reduction_keys_cross_process(self):
        # canonical_key dedup works when keys travel through the pool.
        def factory():
            return Explorer(
                SCHEME, NODES3, budget=SMALL_BUDGET, symmetry=True
            )

        seq = factory().run()
        par = ParallelExplorer(factory(), workers=2).run()
        assert_equivalent(seq, par)

    def test_batch_size_does_not_change_the_result(self):
        seq = verify_intact_explorer(SMALL_BUDGET).run()
        for batch_size in (1, 7, 64):
            par = ParallelExplorer(
                verify_intact_explorer(SMALL_BUDGET),
                workers=2, batch_size=batch_size,
            ).run()
            assert_equivalent(seq, par)


class TestViolationDeterminism:
    def test_first_violation_identical_across_worker_counts(self):
        # The insertBtw ablation is a BFS hunt with a violation at
        # depth 5: every engine configuration must report the same
        # minimal counterexample schedule.
        seq = insert_btw_explorer().run()
        assert not seq.safe
        for workers in (1, 2, 3):
            par = ParallelExplorer(insert_btw_explorer(), workers=workers).run()
            assert_equivalent(seq, par)
            assert par.violations[0].trace == seq.violations[0].trace


# ----------------------------------------------------------------------
# Checkpoint / resume
# ----------------------------------------------------------------------

class TestCheckpointResume:
    def test_interrupt_and_resume_round_trip(self, tmp_path):
        path = str(tmp_path / "run.ckpt")
        whole = verify_intact_explorer(SMALL_BUDGET).run()

        slice1 = ParallelExplorer(
            verify_intact_explorer(SMALL_BUDGET),
            workers=2, checkpoint=path, max_levels=2,
        ).run()
        assert slice1.interrupted
        assert not slice1.exhausted
        assert slice1.states_visited < whole.states_visited
        assert os.path.exists(path)

        resumed = ParallelExplorer(
            verify_intact_explorer(SMALL_BUDGET),
            workers=2, checkpoint=path,
        ).run()
        assert not resumed.interrupted
        assert_equivalent(whole, resumed)
        # A run that reached its verdict discards the checkpoint.
        assert not os.path.exists(path)

    def test_elapsed_accumulates_across_slices(self, tmp_path):
        path = str(tmp_path / "run.ckpt")
        slice1 = ParallelExplorer(
            verify_intact_explorer(SMALL_BUDGET),
            workers=1, checkpoint=path, max_levels=3,
        ).run()
        resumed = ParallelExplorer(
            verify_intact_explorer(SMALL_BUDGET),
            workers=1, checkpoint=path,
        ).run()
        assert resumed.elapsed_seconds >= slice1.elapsed_seconds

    def test_mismatched_fingerprint_starts_fresh_with_warning(self, tmp_path):
        path = str(tmp_path / "run.ckpt")
        ParallelExplorer(
            verify_intact_explorer(SMALL_BUDGET),
            workers=1, checkpoint=path, max_levels=1,
        ).run()
        other = verify_intact_explorer(OpBudget(2, 2, 2, 2))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            loaded = load_checkpoint(path, other.config_fingerprint())
        assert loaded is None
        assert any("fingerprint" in str(w.message) for w in caught)

    def test_corrupt_checkpoint_is_ignored_with_warning(self, tmp_path):
        path = str(tmp_path / "garbage.ckpt")
        with open(path, "wb") as handle:
            handle.write(b"not a pickle")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert load_checkpoint(path) is None
        assert caught

    def test_version_mismatch_is_ignored(self, tmp_path):
        path = str(tmp_path / "old.ckpt")
        stale = Checkpoint(
            fingerprint="x", level=0, frontier=[], visited_keys=set(),
            transitions=0, max_depth=0, exhausted=True, version=-1,
        )
        save_checkpoint(path, stale)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert load_checkpoint(path) is None
        assert any("version" in str(w.message) for w in caught)

    def test_save_is_atomic(self, tmp_path):
        path = str(tmp_path / "atomic.ckpt")
        checkpoint = Checkpoint(
            fingerprint="f", level=1, frontier=[], visited_keys={1, 2},
            transitions=3, max_depth=1, exhausted=True,
        )
        save_checkpoint(path, checkpoint)
        save_checkpoint(path, checkpoint)  # overwrite in place
        assert load_checkpoint(path, "f").states_visited == 2
        leftovers = [
            name for name in os.listdir(tmp_path) if name.endswith(".tmp")
        ]
        assert leftovers == []


# ----------------------------------------------------------------------
# Engine plumbing
# ----------------------------------------------------------------------

class TestEngineOptions:
    def test_bad_batch_size_rejected(self):
        with pytest.raises(ValueError):
            ParallelExplorer(
                verify_intact_explorer(SMALL_BUDGET), batch_size=0
            )

    def test_workers_zero_means_all_cores(self):
        engine = ParallelExplorer(
            verify_intact_explorer(SMALL_BUDGET), workers=0
        )
        assert engine.workers == (os.cpu_count() or 1)

    def test_explore_with_workers_reports_stats(self):
        result = explore(verify_intact_explorer(SMALL_BUDGET), workers=2)
        assert result.stats is not None
        assert result.stats.workers == 2
        assert result.stats.produced == result.transitions
        assert 0.0 <= result.stats.dedup_hit_rate <= 1.0
        assert result.stats.per_worker  # at least one worker reported
        assert "worker" in result.stats.describe()

    def test_progress_snapshots_are_emitted_per_level(self):
        snapshots = []
        result = ParallelExplorer(
            verify_intact_explorer(SMALL_BUDGET),
            workers=1, progress=snapshots.append,
        ).run()
        assert snapshots
        assert [s.level for s in snapshots] == list(
            range(1, len(snapshots) + 1)
        )
        assert snapshots[-1].states_visited == result.states_visited
        assert snapshots[-1].next_frontier == 0
        assert "states/s" in snapshots[-1].describe()

    def test_metrics_registry_tracks_exploration(self):
        from repro.obs import MetricsRegistry

        metrics = MetricsRegistry()
        result = ParallelExplorer(
            verify_intact_explorer(SMALL_BUDGET),
            workers=1, metrics=metrics,
        ).run()
        snap = metrics.snapshot()
        # The structured replacement of print_progress: per-level
        # counters/gauges plus a per-level throughput histogram.
        assert snap["counters"]["mc.levels"] == result.stats.levels
        assert snap["gauges"]["mc.states"] == result.states_visited
        assert snap["gauges"]["mc.transitions"] == result.transitions
        assert snap["gauges"]["mc.frontier"] == 0  # exhausted
        assert 0.0 <= snap["gauges"]["mc.dedup_hit_rate"] <= 1.0
        throughput = snap["histograms"]["mc.level_states_per_second"]
        assert throughput["count"] >= 1
        assert throughput["min"] > 0.0

    def test_metrics_thread_through_explore(self):
        from repro.obs import MetricsRegistry

        metrics = MetricsRegistry()
        result = explore(
            verify_intact_explorer(SMALL_BUDGET), workers=2, metrics=metrics
        )
        assert metrics.counter("mc.levels").value == result.stats.levels

    def test_metrics_default_to_the_null_registry(self):
        from repro.obs import NULL_METRICS

        engine = ParallelExplorer(verify_intact_explorer(SMALL_BUDGET))
        assert engine.metrics is NULL_METRICS

    def test_verify_intact_workers_api(self):
        seq = verify_intact(budget=SMALL_BUDGET)
        par = verify_intact(budget=SMALL_BUDGET, workers=2)
        assert_equivalent(seq, par)

    def test_results_are_picklable(self):
        # CI shards ship results between processes; the whole result
        # object (stats included) must survive a round trip.
        result = explore(verify_intact_explorer(SMALL_BUDGET), workers=2)
        clone = pickle.loads(pickle.dumps(result))
        assert clone.states_visited == result.states_visited
        assert clone.stats.produced == result.stats.produced


# ----------------------------------------------------------------------
# merge_results
# ----------------------------------------------------------------------

def _result(states=1, transitions=1, depth=1, exhausted=True,
            violations=(), elapsed=1.0):
    return ExplorationResult(
        states_visited=states,
        transitions=transitions,
        max_depth=depth,
        exhausted=exhausted,
        violations=list(violations),
        elapsed_seconds=elapsed,
        budget=SMALL_BUDGET,
    )


def _violation(trace):
    return Violation(state=None, trace=trace, report=None)


class TestMergeResults:
    def test_counters_combine(self):
        merged = merge_results([
            _result(states=10, transitions=12, depth=3, elapsed=2.0),
            _result(states=5, transitions=6, depth=5, elapsed=1.0),
        ])
        assert merged.states_visited == 15
        assert merged.transitions == 18
        assert merged.max_depth == 5
        assert merged.exhausted
        assert merged.elapsed_seconds == 2.0
        assert merged.safe

    def test_exhausted_only_if_all_parts_were(self):
        merged = merge_results([
            _result(exhausted=True), _result(exhausted=False),
        ])
        assert not merged.exhausted

    def test_first_violation_wins_deterministically(self):
        shallow = _violation((("push", 1, "a"),))
        deep = _violation((("pull", 1, "x"), ("push", 1, "y")))
        lex_smaller = _violation((("invoke", 1, "m"),))
        # Partition order must not matter; depth first, then lex order.
        for ordering in (
            [_result(violations=[deep]), _result(violations=[shallow, lex_smaller])],
            [_result(violations=[lex_smaller, shallow]), _result(violations=[deep])],
        ):
            merged = merge_results(ordering)
            assert merged.violations[0].trace == lex_smaller.trace
            assert merged.violations[-1].trace == deep.trace

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            merge_results([])
