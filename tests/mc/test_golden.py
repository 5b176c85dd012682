"""The model checker's fixed points: recorded answers, not a second engine.

Two tables, both append-only: a change to the search loop, the tree
core or the semantics that moves any value changed what is explored.

``ROWS`` -- **the seed engine's answers.**  The seed engine was the
explorer as it stood before hash-consed trees, incremental fingerprints
and the compact visited set, kept in-tree (a frozen ``legacy`` package
beside this engine) as a live reference until ISSUE 21.  It was only
ever run on fixed configurations, so its answers are constants; they
were recorded once, at commit ``05ac986`` (the last one holding the
package), over every configuration in ``CONFIGS``.  A row is
:func:`repro.mc.bounded_cli.signature`: states, transitions, verdict,
violation count, the first violation's trace reprs and
``all_violations()`` messages, max depth, exhausted.  DESIGN.md
section 11 has the recording script and how to re-run it from that
commit.  Every engine mode is held to the same row: ``test_parity``
(fingerprint and exact-equality dedup, 1 and 4 workers) and
``test_bounded`` (a tiny tree cap, sequential and through the pool).

``GOLDEN`` -- ten medium-capped digests of ``Explorer.run()`` recorded
from the optimized engine on the commit before the two search loops
were merged into one (ISSUE 14): states, transitions, max depth,
exhausted, and the sha256 of the first violation's trace.  The seed
engine reproduced all ten before it was deleted.
"""

import hashlib

import pytest

from repro.mc.ablations import (
    _hunt_explorer,
    insert_btw_explorer,
    overlap_explorer,
    r2_explorer,
    r3_explorer,
    verify_intact_explorer,
)
from repro.mc.bounded_cli import signature
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


SEED_CAP = dict(max_states=4_000)

#: Row name -> (factory, overrides): what the seed engine was run on.
CONFIGS = {
    # The five configurations of the former seed-vs-optimized matrices
    # (r3 and insert_btw find their violation below 4,000 states, so
    # they are the capped guided / bfs ablation rows as well) ...
    "intact": (verify_intact_explorer, INTACT),
    "r3": (r3_explorer, {}),
    "r2": (r2_explorer, SEED_CAP),
    "overlap": (overlap_explorer, SEED_CAP),
    "insert_btw": (insert_btw_explorer, {}),
    # ... and every ablation in the other strategy.
    "r3-bfs": (r3_explorer, dict(strategy="bfs", **SEED_CAP)),
    "r2-bfs": (r2_explorer, dict(strategy="bfs", **SEED_CAP)),
    "overlap-bfs": (overlap_explorer, dict(strategy="bfs", **SEED_CAP)),
    "insert_btw-guided": (
        insert_btw_explorer, dict(strategy="guided", **SEED_CAP)
    ),
    # The intact model on larger initial configurations.
    "intact-4": (
        verify_intact_explorer, dict(conf0=frozenset({1, 2, 3, 4}), **SEED_CAP)
    ),
    "intact-5": (
        verify_intact_explorer,
        dict(conf0=frozenset({1, 2, 3, 4, 5}), **SEED_CAP),
    ),
    # The full Fig. 4 verification budget, and one invoke deeper at the
    # retired throughput benchmark's 40,000-state cap.
    "fig4": (verify_intact_explorer, {}),
    "fig4+1": (
        verify_intact_explorer,
        dict(
            budget=OpBudget(pulls=2, invokes=3, reconfigs=2, pushes=2),
            max_states=40_000,
        ),
    ),
    # The Fig. 4 counterexample's schedule class with R2 and R3 on,
    # exhaustively (run by test_explorer.TestAblations).
    "fig4-hunt": (_hunt_explorer, dict(strategy="bfs", max_states=400_000)),
}

#: Row name -> the seed engine's signature (the recorder's output, verbatim).
ROWS = {'intact': {'states': 3385,
            'transitions': 3675,
            'verdict': True,
            'violations': 0,
            'first_violation': None,
            'max_depth': 6,
            'exhausted': True},
 'r3': {'states': 2491,
        'transitions': 2490,
        'verdict': False,
        'violations': 1,
        'first_violation': [["('pull', 1, 'Q=[1, 2, 3], t=1 [ok]')",
                             "('reconfig', 1, 'frozenset({1, 3, 4})')",
                             "('pull', 2, 'Q=[2, 3, 4], t=2 [ok]')",
                             "('reconfig', 2, 'frozenset({2, 3, 4})')",
                             "('pull', 1, 'Q=[1, 3], t=3 [ok]')",
                             "('invoke', 1, 'm')",
                             "('push', 1, 'Q=[1, 3], target=6 [ok]')",
                             "('push', 2, 'Q=[2, 4], target=4 [ok]')"],
                            ['[safety] CCaches 7 (C(n1,t3,v1)) and 8 '
                             '(C(n2,t2,v1)) lie on different branches '
                             '(rdist=2)']],
        'max_depth': 8,
        'exhausted': False},
 'r2': {'states': 4000,
        'transitions': 4215,
        'verdict': True,
        'violations': 0,
        'first_violation': None,
        'max_depth': 10,
        'exhausted': False},
 'overlap': {'states': 4000,
             'transitions': 4135,
             'verdict': True,
             'violations': 0,
             'first_violation': None,
             'max_depth': 9,
             'exhausted': False},
 'insert_btw': {'states': 92,
                'transitions': 91,
                'verdict': False,
                'violations': 1,
                'first_violation': [["('pull', 1, 'Q=[1, 2, 3], t=1 [ok]')",
                                     "('invoke', 1, 'm')",
                                     "('invoke', 1, 'm')",
                                     "('push', 1, 'Q=[1, 2, 3], target=2 "
                                     "[ok]')",
                                     "('push', 1, 'Q=[1, 2, 3], target=3 "
                                     "[ok]')"],
                                    ['[safety] CCaches 4 (C(n1,t1,v1)) and 5 '
                                     '(C(n1,t1,v2)) lie on different branches '
                                     '(rdist=0)']],
                'max_depth': 5,
                'exhausted': False},
 'r3-bfs': {'states': 4000,
            'transitions': 24369,
            'verdict': True,
            'violations': 0,
            'first_violation': None,
            'max_depth': 4,
            'exhausted': False},
 'r2-bfs': {'states': 4000,
            'transitions': 20269,
            'verdict': True,
            'violations': 0,
            'first_violation': None,
            'max_depth': 6,
            'exhausted': False},
 'overlap-bfs': {'states': 4000,
                 'transitions': 23001,
                 'verdict': True,
                 'violations': 0,
                 'first_violation': None,
                 'max_depth': 5,
                 'exhausted': False},
 'insert_btw-guided': {'states': 19,
                       'transitions': 18,
                       'verdict': False,
                       'violations': 1,
                       'first_violation': [["('pull', 1, 'Q=[1, 2, 3], t=1 "
                                            "[ok]')",
                                            "('invoke', 1, 'm')",
                                            "('invoke', 1, 'm')",
                                            "('push', 1, 'Q=[1, 2, 3], "
                                            "target=2 [ok]')",
                                            "('push', 1, 'Q=[1, 2, 3], "
                                            "target=3 [ok]')"],
                                           ['[safety] CCaches 4 (C(n1,t1,v1)) '
                                            'and 5 (C(n1,t1,v2)) lie on '
                                            'different branches (rdist=0)']],
                       'max_depth': 5,
                       'exhausted': False},
 'intact-4': {'states': 4000,
              'transitions': 22854,
              'verdict': True,
              'violations': 0,
              'first_violation': None,
              'max_depth': 4,
              'exhausted': False},
 'intact-5': {'states': 4000,
              'transitions': 14891,
              'verdict': True,
              'violations': 0,
              'first_violation': None,
              'max_depth': 2,
              'exhausted': False},
 'fig4': {'states': 75727,
          'transitions': 81297,
          'verdict': True,
          'violations': 0,
          'first_violation': None,
          'max_depth': 8,
          'exhausted': True},
 'fig4+1': {'states': 40000,
            'transitions': 152569,
            'verdict': True,
            'violations': 0,
            'first_violation': None,
            'max_depth': 7,
            'exhausted': False},
 'fig4-hunt': {'states': 52711,
               'transitions': 52710,
               'verdict': True,
               'violations': 0,
               'first_violation': None,
               'max_depth': 8,
               'exhausted': True}}

#: The five rows of the former seed-vs-optimized matrices, which
#: ``test_parity`` / ``test_bounded`` run in every engine mode; their
#: breadth-first counterparts for the worker pool (a pooled *guided* run
#: expands a window of best entries between merges, so only bfs state
#: counts are worker-invariant); and the full-budget rows, which are run
#: in the default mode only.
SEQUENTIAL = ["intact", "r3", "r2", "overlap", "insert_btw"]
BFS = ["intact", "r3-bfs", "insert_btw"]
FULL_BUDGET = ["fig4", "fig4+1", "fig4-hunt"]


def explorer(name, **engine_options):
    """The optimized engine on row ``name``'s configuration."""
    factory, overrides = CONFIGS[name]
    return factory(**engine_options, **overrides)


# The default mode on every row no other module runs under a test id it
# has always had: SEQUENTIAL is test_parity's, fig4-hunt test_explorer's.
@pytest.mark.parametrize(
    "name", sorted(set(CONFIGS) - set(SEQUENTIAL) - {"fig4-hunt"})
)
def test_run_matches_the_seed_row(name):
    assert signature(explorer(name).run()) == ROWS[name]
