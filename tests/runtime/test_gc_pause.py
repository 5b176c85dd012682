"""A nemesis run is made with automatic cycle collection paused (ISSUE 23).

``run_nemesis`` enters ``cachemgr.gc_paused()``.  Logs, messages, the
history and the trace only ever point at older values, and the cluster,
its servers and the simulator's pending events are dropped by reference
counting when the call returns; with the collector off a Fig. 16 chaos
run leaves ``gc.collect()`` nothing to find, at 500 ops and at 2,000.
``tests/mc/test_gc_pause.py`` is the checker's half of the same pin.
"""

import gc

import pytest

from repro.core.cachemgr import gc_paused
from repro.runtime import fig16_chaos_config, nemesis, run_nemesis


def unreachable_after(ops):
    result = run_nemesis(fig16_chaos_config(seed=7, ops=ops))
    assert result.ok and result.stats.failovers >= 2
    found = gc.collect()
    del result
    return found + gc.collect()


def test_a_nemesis_run_leaves_the_collector_nothing_to_find():
    with gc_paused():
        gc.collect()
        assert unreachable_after(500) == 0
        assert unreachable_after(2_000) == 0


@pytest.mark.parametrize("entered_enabled", [True, False])
def test_the_collector_is_what_it_was_after_a_run(
    entered_enabled, monkeypatch
):
    class Boom(Exception):
        pass

    def check(history):
        paused.append(not gc.isenabled())
        if len(history.operations) > 60:
            raise Boom
        return real_check(history)

    paused = []
    real_check = nemesis.check_history
    monkeypatch.setattr(nemesis, "check_history", check)
    assert gc.isenabled()
    try:
        if not entered_enabled:
            gc.disable()
        assert run_nemesis(fig16_chaos_config(seed=3, ops=50)).ok
        assert gc.isenabled() == entered_enabled
        with pytest.raises(Boom):
            run_nemesis(fig16_chaos_config(seed=3, ops=100))
        assert gc.isenabled() == entered_enabled
    finally:
        gc.enable()
    assert paused == [True, True]
