"""Behaviour pin: every scheme's move sets and assumption counts.

``moves_pin.json`` holds, for each scheme of ``SCHEMES``, the exact
ordered ``moves`` / removal-only ``moves`` / ``jumps`` sequences from
``initial({1, 2, 3, 4})`` and from one non-initial configuration, plus
the (configs, R1⁺ transitions, quorum pairs) counts of the assumption
check at universe ``[1, 2, 3]``.  The sequences were recorded from the
per-scheme generator functions these methods replaced (for
rotating-primary those of primary-backup; for static-majority no moves,
as the CADO explorer had).  The searches expand moves in this order, so
a changed sequence is a changed state space even where the verdict
stays the same.
"""

import json
import os

import pytest

from repro.core import AdoreMachine, RandomOracle
from repro.schemes import (
    SCHEMES,
    JointConfig,
    LoglessConfig,
    LoglessReconfigScheme,
    PrimaryBackupConfig,
    SizedConfig,
    WeightedConfig,
    check_assumptions,
)

UNIVERSE = frozenset({1, 2, 3, 4})

with open(os.path.join(os.path.dirname(__file__), "moves_pin.json")) as _f:
    PIN = json.load(_f)

#: One non-initial configuration per scheme.
OTHER = {
    "raft-single-node": frozenset({1, 3}),
    "raft-joint-consensus": JointConfig.transition({1, 2, 3}, {1, 2}),
    "primary-backup": PrimaryBackupConfig.of(2, {3}),
    "rotating-primary": PrimaryBackupConfig.of(2, {3}),
    "dynamic-quorum": SizedConfig.of(3, {1, 2, 3}),
    "unanimous": frozenset({2, 4}),
    "weighted-majority": WeightedConfig.of({1: 2, 3: 1}),
    "mongo-logless": LoglessConfig.of(3, 1, {1, 2}),
    "static-majority": frozenset({1, 2}),
}


def _state():
    """Node 1 leads and has committed in its term, so the logless
    scheme's Q1/Q2 gates are open (the other schemes ignore the state)."""
    machine = AdoreMachine.create(
        LoglessConfig.initial(UNIVERSE),
        LoglessReconfigScheme(),
        RandomOracle(seed=1, fail_prob=0.0, quorums_only=True),
    )
    machine.pull(1)
    machine.invoke(1, "m")
    machine.push(1)
    return machine.state


STATE = _state()


def test_the_table_is_the_pinned_set_of_schemes():
    assert list(SCHEMES) == list(PIN)
    assert all(name == scheme.name for name, scheme in SCHEMES.items())


@pytest.mark.parametrize("name", list(PIN))
@pytest.mark.parametrize("start", ["initial", "other"])
def test_move_sequences_are_pinned(name, start):
    scheme = SCHEMES[name]
    conf = scheme.initial(UNIVERSE) if start == "initial" else OTHER[name]
    expected = PIN[name][start]
    assert repr(conf) == expected["conf"]
    show = lambda confs: [repr(c) for c in confs]
    assert show(scheme.moves(STATE, 1, conf, UNIVERSE)) == expected["moves"]
    assert show(
        scheme.moves(STATE, 1, conf, UNIVERSE, removals_only=True)
    ) == expected["removals"]
    assert show(scheme.jumps(STATE, 1, conf, UNIVERSE)) == expected["jumps"]


@pytest.mark.parametrize("name", list(PIN))
def test_assumption_counts_are_pinned(name):
    report = check_assumptions(SCHEMES[name], [1, 2, 3])
    assert report.ok, report.summary()
    counts = [
        report.configs_checked,
        report.transition_pairs,
        report.quorum_pairs_checked,
    ]
    assert counts == PIN[name]["assumptions_123"]
