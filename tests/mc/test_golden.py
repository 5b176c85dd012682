"""Committed golden digests of ``Explorer.run()`` (ISSUE 14).

:mod:`tests.mc.test_parity` holds the engine to the *live* seed engine;
this module holds it to a *fixed point*: values recorded once, on the
commit before the two search loops were merged into one, and not edited
since.  A refactor of the search loop that changes any of them changed
what is explored.

Each row is one medium-capped run of the intact model or an ablation in
one strategy: states, transitions, max depth, exhausted, and the sha256
of the first violation's trace (``None`` for a clean run).
"""

import hashlib

import pytest

from repro.mc.ablations import (
    insert_btw_explorer,
    overlap_explorer,
    r2_explorer,
    r3_explorer,
    verify_intact_explorer,
)
from repro.mc.explorer import OpBudget

INTACT = dict(budget=OpBudget(pulls=2, invokes=1, reconfigs=1, pushes=2))
CAP = dict(max_states=2_500)

FACTORIES = {
    "intact": lambda strategy: verify_intact_explorer(
        strategy=strategy, **INTACT
    ),
    "r3": lambda strategy: r3_explorer(strategy=strategy, **CAP),
    "r2": lambda strategy: r2_explorer(strategy=strategy, **CAP),
    "overlap": lambda strategy: overlap_explorer(strategy=strategy, **CAP),
    "insert_btw": lambda strategy: insert_btw_explorer(strategy=strategy),
}

#: (states, transitions, max_depth, exhausted, sha256 of the trace).
GOLDEN = {
    ("intact", "bfs"): (3385, 3675, 6, True, None),
    ("intact", "guided"): (3112, 3348, 6, False, None),
    ("r3", "bfs"): (2500, 15637, 4, False, None),
    ("r3", "guided"): (
        2491, 2490, 8, False,
        "da5cbf814afebebb262c05a4862cfc75dcc6c36ee2b0dcd14e63a12895fe054c",
    ),
    ("r2", "bfs"): (2500, 12880, 5, False, None),
    ("r2", "guided"): (2500, 2601, 10, False, None),
    ("overlap", "bfs"): (2500, 14249, 5, False, None),
    ("overlap", "guided"): (2500, 2653, 9, False, None),
    ("insert_btw", "bfs"): (
        92, 91, 5, False,
        "4256bedd9225b3dc775b9578246b6862f28f0ba699cd3f22e723de14d35e67b6",
    ),
    ("insert_btw", "guided"): (
        19, 18, 5, False,
        "4256bedd9225b3dc775b9578246b6862f28f0ba699cd3f22e723de14d35e67b6",
    ),
}


def digest(result):
    trace_hash = None
    if result.violations:
        trace_hash = hashlib.sha256(
            repr(result.violations[0].trace).encode()
        ).hexdigest()
    return (
        result.states_visited,
        result.transitions,
        result.max_depth,
        result.exhausted,
        trace_hash,
    )


@pytest.mark.parametrize(
    "name,strategy", sorted(GOLDEN), ids=["-".join(k) for k in sorted(GOLDEN)]
)
def test_run_matches_the_committed_digest(name, strategy):
    result = FACTORIES[name](strategy).run()
    assert digest(result) == GOLDEN[(name, strategy)]
