"""Unit tests for scheme #7: MongoDB logless dynamic reconfiguration.

Beyond the usual R1⁺/quorum behavior, these pin the load-bearing
correspondence the differential harness relies on: the protocol's own
enabling conditions -- Q1 (config quorum check) and Q2 (oplog
commitment check), evaluated as Adore cache-tree predicates -- coincide
with Adore's rules R2 and R3 on every reachable state.
"""

from collections import deque

from repro.core.aux import active_cache, r2_holds, r3_holds
from repro.mc import Explorer, OpBudget
from repro.schemes import (
    LoglessConfig,
    LoglessReconfigScheme,
    as_logless,
    check_assumptions,
    config_quorum_check,
    oplog_commitment_check,
)

SCHEME = LoglessReconfigScheme()
ABC = frozenset({1, 2, 3})


# ----------------------------------------------------------------------
# LoglessConfig and coercion
# ----------------------------------------------------------------------

def test_order_compares_term_before_version():
    low = LoglessConfig.of(5, 1, ABC)
    high = LoglessConfig.of(0, 2, ABC)
    assert high.newer_than(low)  # term dominates any version lead
    assert not low.newer_than(high)
    assert LoglessConfig.of(3, 1, ABC).newer_than(LoglessConfig.of(2, 1, ABC))


def test_as_logless_coercions():
    assert as_logless(ABC) == LoglessConfig.of(0, 0, ABC)  # bootstrap
    assert as_logless((4, 2, {1, 2})) == LoglessConfig.of(4, 2, {1, 2})
    cf = LoglessConfig.of(1, 1, ABC)
    assert as_logless(cf) is cf


def test_repr_is_stable():
    assert (
        repr(LoglessConfig.of(1, 2, {3, 1, 2}))
        == "LoglessConfig(v=1, t=2, members=[1, 2, 3])"
    )


# ----------------------------------------------------------------------
# The scheme protocol
# ----------------------------------------------------------------------

def test_r1_plus_reflexive_and_single_node_advance():
    cf = LoglessConfig.of(0, 0, ABC)
    assert SCHEME.r1_plus(cf, cf)
    assert SCHEME.r1_plus(cf, LoglessConfig.of(1, 0, {1, 2, 3, 4}))
    assert SCHEME.r1_plus(cf, LoglessConfig.of(0, 1, {1, 2}))


def test_r1_plus_rejects_multi_node_stale_and_empty():
    cf = LoglessConfig.of(1, 1, ABC)
    # Two members change at once.
    assert not SCHEME.r1_plus(cf, LoglessConfig.of(2, 1, {1, 4, 5}))
    # (term, version) does not advance.
    assert not SCHEME.r1_plus(cf, LoglessConfig.of(1, 1, {1, 2}))
    assert not SCHEME.r1_plus(cf, LoglessConfig.of(0, 1, {1, 2}))
    assert not SCHEME.r1_plus(cf, LoglessConfig.of(5, 0, {1, 2}))
    # Empty target.
    assert not SCHEME.r1_plus(
        LoglessConfig.of(0, 0, {1}), LoglessConfig.of(1, 0, frozenset())
    )


def test_quorums_are_majorities_of_members():
    cf = LoglessConfig.of(2, 1, {1, 2, 3, 4})
    assert SCHEME.members(cf) == frozenset({1, 2, 3, 4})
    assert SCHEME.is_quorum({1, 2, 3}, cf)
    assert not SCHEME.is_quorum({1, 2}, cf)
    assert SCHEME.is_quorum({1, 2, 3, 9}, cf)  # outsiders don't count


def test_assumptions_hold_on_four_node_universe():
    report = check_assumptions(SCHEME, [1, 2, 3, 4])
    assert report.ok
    assert report.configs_checked > 100
    assert report.transition_pairs > 1000


# ----------------------------------------------------------------------
# Q1/Q2 <=> R2/R3 on every reachable state
# ----------------------------------------------------------------------

def _reachable_states(explorer, limit=4000):
    seen = {explorer.state_key(explorer.initial())}
    states = [explorer.initial()]
    queue = deque([(explorer.initial(), explorer.budget)])
    while queue and len(states) < limit:
        state, budget = queue.popleft()
        for _, nxt, nxt_budget, key in explorer.expand(state, budget):
            if key in seen:
                continue
            seen.add(key)
            states.append(nxt)
            queue.append((nxt, nxt_budget))
    return states


def test_q1_q2_coincide_with_r2_r3_on_reachable_states():
    # Explore with R2/R3 *off* so states violating either rule are
    # reachable and the equivalence is tested on both sides.
    explorer = Explorer(
        scheme=SCHEME,
        conf0=LoglessConfig.initial(ABC),
        callers=[1, 2],
        budget=OpBudget(pulls=2, invokes=1, reconfigs=2, pushes=2),
        enforce_r2=False,
        enforce_r3=False,
        quorum_pulls_only=True,
        invariants=["safety"],
        stop_at_first_violation=False,
    )
    states = _reachable_states(explorer)
    assert len(states) > 200
    checked = 0
    q1_failures = q2_failures = 0
    for state in states:
        for nid in (1, 2):
            active = active_cache(state.tree, nid)
            if active is None:
                continue
            checked += 1
            q1 = config_quorum_check(state.tree, active)
            q2 = oplog_commitment_check(state.tree, active)
            assert q1 == r2_holds(state.tree, active)
            assert q2 == r3_holds(state.tree, active)
            q1_failures += not q1
            q2_failures += not q2
    assert checked > 200
    # The equivalence was exercised on both truth values.
    assert q1_failures > 0
    assert q2_failures > 0


# ----------------------------------------------------------------------
# The gated moves
# ----------------------------------------------------------------------

def _machine():
    from repro.core import AdoreMachine, RandomOracle

    return AdoreMachine.create(
        LoglessConfig.initial(ABC),
        SCHEME,
        RandomOracle(seed=1, fail_prob=0.0, quorums_only=True),
    )


def test_q2_blocks_reconfig_until_leader_commits_in_its_term():
    machine = _machine()
    machine.pull(1)
    machine.invoke(1, "m")
    # Nothing committed at the new term yet, so Q2 (and R3) block
    # reconfiguration -- exactly MongoDB's oplog commitment check.
    state = machine.state
    active = active_cache(state.tree, 1)
    assert not oplog_commitment_check(state.tree, active)
    conf = state.tree.cache(active).conf
    assert list(SCHEME.moves(state, 1, conf, ABC)) == []
    # Committing an entry of the leader's own term enables it.
    machine.push(1)
    state = machine.state
    active = active_cache(state.tree, 1)
    assert oplog_commitment_check(state.tree, active)
    assert config_quorum_check(state.tree, active)
    current = as_logless(state.tree.cache(active).conf)
    cands = list(SCHEME.moves(state, 1, current, ABC))
    assert cands
    # MongoDB installs (version + 1, leader_term, members +- one node).
    assert all(c.version == current.version + 1 for c in cands)
    assert all(c.term == state.tree.cache(active).time for c in cands)
    assert all(len(c.members ^ current.members) == 1 for c in cands)
    assert all(SCHEME.r1_plus(current, c) for c in cands)


def test_q1_blocks_reconfig_while_config_entry_uncommitted():
    machine = _machine()
    machine.pull(1)
    machine.invoke(1, "m")
    machine.push(1)
    result = machine.reconfig(1, LoglessConfig.of(1, 1, {1, 2, 3, 4}))
    assert result.reason == "ok"
    # The new config entry is an uncommitted RCache: Q1 (and R2) veto a
    # further reconfiguration until it commits.
    state = machine.state
    active = active_cache(state.tree, 1)
    assert not config_quorum_check(state.tree, active)
    conf = state.tree.cache(active).conf
    assert list(SCHEME.moves(state, 1, conf, ABC)) == []
    # Committing the config entry re-enables reconfiguration.
    machine.push(1)
    state = machine.state
    active = active_cache(state.tree, 1)
    assert config_quorum_check(state.tree, active)
    conf = state.tree.cache(active).conf
    assert list(SCHEME.moves(state, 1, conf, ABC))
