"""Tier-1 is a budget: one slow test phase fails the whole session.

``tests/net/test_wire_golden.py`` once took 41 s of a 208 s suite for a
byte-comparison module and nobody saw it land.  Any setup or call phase
over the ceiling below is listed at the end of the run and turns a
green session red.  A constant, not an option: a test that needs longer
belongs in ``benchmarks/`` or the nightly.

The other process-wide thing a test can leak is the collector's state:
``repro.core.cachemgr.gc_paused`` turns automatic cycle collection off
for the span of a search or a nemesis run, and a pause that is not
handed back would show up only as some later test's memory.  A test
that returns with ``gc.isenabled()`` changed fails here, by name.
"""

import gc

import pytest

#: Seconds.  When this was set the slowest phases were the full Fig. 4
#: golden rows (6-7 s) and the sharded nemesis test (2.5-10 s run to run).
PHASE_CEILING_S = 20.0

_TOO_SLOW = pytest.StashKey[list]()


@pytest.fixture(autouse=True)
def _collector_state_is_handed_back():
    before = gc.isenabled()
    yield
    after = gc.isenabled()
    if after != before:
        # Put it back first, so one offender fails one test.
        (gc.enable if before else gc.disable)()
        pytest.fail(
            f"gc.isenabled() was {before} before this test and {after} "
            f"after it: a collector pause (or resume) leaked"
        )


def pytest_configure(config):
    config.stash[_TOO_SLOW] = []


def pytest_runtest_makereport(item, call):
    if call.when in ("setup", "call") and call.duration > PHASE_CEILING_S:
        item.config.stash[_TOO_SLOW].append(
            (call.duration, call.when, item.nodeid)
        )


def pytest_terminal_summary(terminalreporter, config):
    too_slow = config.stash[_TOO_SLOW]
    if too_slow:
        terminalreporter.section(f"test phases over {PHASE_CEILING_S:.0f} s")
        for duration, when, nodeid in sorted(too_slow, reverse=True):
            terminalreporter.write_line(f"{duration:6.1f}s {when:<5} {nodeid}")


def pytest_sessionfinish(session):
    if session.config.stash[_TOO_SLOW] and session.exitstatus == pytest.ExitCode.OK:
        session.exitstatus = pytest.ExitCode.TESTS_FAILED
