"""The search runs with automatic cycle collection paused (ISSUE 23).

``repro.mc.parallel.search`` enters ``cachemgr.gc_paused()`` for the
whole loop.  That is sound only because of a property of the heap a
search builds: states, trees, caches and traces are immutable and point
only at older values, so no reference cycle can form and reference
counting frees everything the collector would.  The first half of this
module pins the property -- with the collector off, a run leaves
**nothing** for ``gc.collect()`` to find, at one size and at four times
that size, not even once the intern tables are emptied -- and fails
the day someone adds a cycle per state.  The second half pins the
contract of the pause: ``gc.isenabled()`` is what it was before the
call, on every way out of the loop.
"""

import gc
import multiprocessing

import pytest

from repro.core import cachemgr
from repro.core import tree as core_tree
from repro.core.cachemgr import gc_paused
from repro.mc import (
    OpBudget,
    ParallelExplorer,
    insert_btw_explorer,
    r2_explorer,
    verify_intact_explorer,
)
from repro.mc import parallel
from repro.mc.explorer import Explorer

SMALL_BUDGET = OpBudget(pulls=1, invokes=2, reconfigs=1, pushes=2)

RUNS = [
    ("bfs-intact", lambda cap: verify_intact_explorer(max_states=cap).run()),
    ("guided-r2-off", lambda cap: r2_explorer(max_states=cap).run()),
    ("bfs-intact-workers-2", lambda cap: ParallelExplorer(
        verify_intact_explorer(max_states=cap), workers=2).run()),
]


@pytest.fixture
def collector_off():
    """The test, not the code under test, holds the collector off, and
    starts from a heap with nothing collectable in it."""
    with gc_paused():
        gc.collect()
        yield


def unreachable_after(run, cap):
    """What the collector finds after a run, after its result is
    dropped, and after the intern tables let go of every tree the run
    built -- a knot the tables still hold is a leak the day a bounded
    run flushes it."""
    held = set(core_tree._INTERNED_TREES)  # trees other tests still hold
    result = run(cap)
    assert result.states_visited == cap
    found = gc.collect()
    del result
    found += gc.collect()
    cachemgr.flush()
    assert set(core_tree._INTERNED_TREES) <= held
    return found + gc.collect()


# ----------------------------------------------------------------------
# The property: a search allocates no cycle
# ----------------------------------------------------------------------


@pytest.mark.parametrize("name,run", RUNS, ids=[name for name, _ in RUNS])
def test_a_search_leaves_the_collector_nothing_to_find(
    name, run, collector_off
):
    # Not "little": none, and still none at four times the size.
    assert unreachable_after(run, 2_000) == 0
    assert unreachable_after(run, 8_000) == 0


def test_a_cycle_per_state_would_be_seen(collector_off, monkeypatch):
    """What the zero above is worth: the same measurement, on a checker
    that ties one knot per checked state, counts every knot."""
    real_check = Explorer.check

    def knotted_check(self, state):
        knot = [state]
        knot.append(knot)
        return real_check(self, state)

    monkeypatch.setattr(Explorer, "check", knotted_check)
    run = RUNS[0][1]
    assert unreachable_after(run, 500) >= 500


# ----------------------------------------------------------------------
# The contract: the collector's state is handed back
# ----------------------------------------------------------------------


class Boom(Exception):
    pass


def _raise(snapshot):
    raise Boom


def _assert_paused(snapshot):
    assert not gc.isenabled()


def _ways_out(workers, tmp_path):
    """(name, explorer, engine options) for every exit of ``search``."""
    return [
        ("normal return", verify_intact_explorer(SMALL_BUDGET),
         dict(progress=_assert_paused)),
        ("first violation", insert_btw_explorer(), dict()),
        ("max_levels slice", verify_intact_explorer(SMALL_BUDGET),
         dict(max_levels=1, checkpoint=str(tmp_path / f"w{workers}.ckpt"))),
        ("exception from progress", verify_intact_explorer(SMALL_BUDGET),
         dict(progress=_raise)),
    ]


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("entered_enabled", [True, False])
def test_the_collector_is_what_it_was_on_every_way_out(
    workers, entered_enabled, tmp_path
):
    assert gc.isenabled()
    try:
        if not entered_enabled:
            gc.disable()
        for name, explorer, options in _ways_out(workers, tmp_path):
            engine = ParallelExplorer(explorer, workers=workers, **options)
            try:
                result = engine.run()
            except Boom:
                assert name == "exception from progress"
            else:
                assert result.interrupted == (name == "max_levels slice")
                assert result.safe == (name != "first violation")
            assert gc.isenabled() == entered_enabled, name
    finally:
        gc.enable()


def test_a_nested_search_does_not_end_the_outer_pause():
    seen = []

    def run_another_engine(snapshot):
        if snapshot.level == 2:
            insert_btw_explorer().run()
            seen.append(gc.isenabled())

    assert gc.isenabled()
    ParallelExplorer(
        verify_intact_explorer(SMALL_BUDGET),
        workers=1, progress=run_another_engine,
    ).run()
    assert seen == [False]
    assert gc.isenabled()


def test_a_pool_worker_pauses_its_own_collector():
    """Stated in ``_init_worker``, not inherited: a pool created while
    the parent's collector is on still gets workers with it off."""
    assert gc.isenabled()
    context = multiprocessing.get_context("fork")
    with context.Pool(
        processes=1,
        initializer=parallel._init_worker,
        initargs=(verify_intact_explorer(SMALL_BUDGET), None),
    ) as pool:
        assert pool.apply(gc.isenabled) is False
