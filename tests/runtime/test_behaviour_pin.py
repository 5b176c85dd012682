"""Golden values for two seeded nemesis runs.

Recorded at commit 7c769c1, before the runtime's per-op cost was made
independent of log length.  A performance change to ``repro.runtime``
must leave the simulator's RNG stream and every client observation
alone; these pins are how it proves that.  When a change *means* to
alter the schedule (a new fault, a different retry discipline), re-record
the values in the same commit and say why.
"""

import hashlib

import pytest

from repro.runtime import (
    NemesisConfig,
    NetworkConditions,
    fig16_chaos_config,
    run_nemesis,
)

PINS = {
    "fig16-seed3-400": (
        lambda: fig16_chaos_config(seed=3, ops=400),
        dict(
            ops_completed=400,
            ops_unknown=0,
            sim_ms=484.43304128149094,
            messages_sent=2580,
            failovers=9,
            results_sha256=(
                "4389fd2733078cc94a014d4e78ae377f"
                "3cb9d4df882f847f7fff492604d3b609"
            ),
        ),
    ),
    # One message in five is delivered twice, and the leader crash makes
    # the client retry a request through the at-most-once path.
    "dup20-seed9-300": (
        lambda: NemesisConfig(
            seed=9,
            ops=300,
            conditions=NetworkConditions(duplicate_prob=0.2),
            crash_leader_at=(100,),
        ),
        dict(
            ops_completed=300,
            ops_unknown=0,
            sim_ms=308.6855062413641,
            messages_sent=1295,
            failovers=1,
            results_sha256=(
                "b1616820c1effaa0eb81a6a1439f543d"
                "3db6c99eb62be86b63899470c3dc8cb5"
            ),
        ),
    ),
}


def observed_values(result) -> dict:
    stats = result.stats
    results = [op.result for op in result.history.operations]
    return dict(
        ops_completed=stats.ops_completed,
        ops_unknown=stats.ops_unknown,
        sim_ms=stats.sim_ms,
        messages_sent=stats.messages_sent,
        failovers=stats.failovers,
        results_sha256=hashlib.sha256(repr(results).encode()).hexdigest(),
    )


@pytest.mark.parametrize("name", sorted(PINS))
def test_seeded_run_matches_its_golden_values(name):
    make_config, golden = PINS[name]
    result = run_nemesis(make_config())
    assert result.safety_violations == []
    assert result.linearizability.ok
    assert observed_values(result) == golden
