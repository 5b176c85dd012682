"""Unit tests for the history recorder and linearizability checker."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.safety import _freeze
from repro.runtime import fig16_chaos_config, run_nemesis
from repro.runtime.history import History, Operation
from repro.runtime.linearize import (
    _INFINITY,
    ABSENT,
    _apply,
    check_history,
    check_key,
)

from ..net.test_node_paths import line_events


def h(*ops):
    """Build a history from (op, key, value, inv, res, result) tuples;
    ``res=None`` leaves the operation's outcome unknown."""
    history = History()
    for op, key, value, inv, res, result in ops:
        operation = history.invoke("c", op, key, value, inv)
        if res is not None:
            history.complete(operation, res, result)
    return history


class TestSequential:
    def test_empty_history(self):
        assert check_history(h()).ok

    def test_simple_put_get(self):
        history = h(
            ("put", "k", 1, 0.0, 1.0, True),
            ("get", "k", None, 2.0, 3.0, 1),
        )
        assert check_history(history).ok

    def test_read_of_absent_key(self):
        assert check_history(h(("get", "k", None, 0.0, 1.0, None))).ok

    def test_stale_read_rejected(self):
        history = h(
            ("put", "k", 1, 0.0, 1.0, True),
            ("put", "k", 2, 2.0, 3.0, True),
            ("get", "k", None, 4.0, 5.0, 1),  # observes the old value
        )
        result = check_history(history)
        assert not result.ok
        assert "k" in result.failures

    def test_delete_then_get(self):
        history = h(
            ("put", "k", 1, 0.0, 1.0, True),
            ("delete", "k", None, 2.0, 3.0, True),
            ("get", "k", None, 4.0, 5.0, None),
        )
        assert check_history(history).ok

    def test_add_accumulates(self):
        history = h(
            ("add", "k", 5, 0.0, 1.0, True),
            ("add", "k", 3, 2.0, 3.0, True),
            ("get", "k", None, 4.0, 5.0, 8),
        )
        assert check_history(history).ok

    def test_duplicate_add_effect_rejected(self):
        # One completed add of 5, but a read observing 10: the visible
        # state implies the increment was applied twice -- exactly what
        # the at-most-once retry bug produces.
        history = h(
            ("add", "k", 5, 0.0, 1.0, True),
            ("get", "k", None, 2.0, 3.0, 10),
        )
        assert not check_history(history).ok


class TestConcurrency:
    def test_concurrent_writes_either_order(self):
        # Two overlapping puts; a later read may see either winner.
        for observed in (1, 2):
            history = h(
                ("put", "k", 1, 0.0, 10.0, True),
                ("put", "k", 2, 1.0, 9.0, True),
                ("get", "k", None, 11.0, 12.0, observed),
            )
            assert check_history(history).ok, observed

    def test_real_time_order_enforced(self):
        # Non-overlapping puts: the second strictly follows the first,
        # so a read after both must not see the first value... unless a
        # third concurrent op could explain it -- here there is none.
        history = h(
            ("put", "k", 1, 0.0, 1.0, True),
            ("put", "k", 2, 5.0, 6.0, True),
            ("get", "k", None, 7.0, 8.0, 1),
        )
        assert not check_history(history).ok

    def test_read_concurrent_with_write_sees_either(self):
        for observed in (None, 7):
            history = h(
                ("put", "k", 7, 0.0, 10.0, True),
                ("get", "k", None, 1.0, 2.0, observed),
            )
            assert check_history(history).ok, observed


class TestUnknownOutcomes:
    def test_pending_write_may_apply(self):
        history = h(
            ("put", "k", 3, 0.0, None, None),  # timed out
            ("get", "k", None, 5.0, 6.0, 3),
        )
        assert check_history(history).ok

    def test_pending_write_may_never_apply(self):
        history = h(
            ("put", "k", 3, 0.0, None, None),
            ("get", "k", None, 5.0, 6.0, None),
        )
        assert check_history(history).ok

    def test_pending_write_cannot_apply_before_invocation(self):
        # The unknown-outcome put was invoked *after* the read
        # completed, so the read cannot have observed it.
        history = h(
            ("get", "k", None, 0.0, 1.0, 3),
            ("put", "k", 3, 2.0, None, None),
        )
        assert not check_history(history).ok

    def test_pending_get_unconstrained(self):
        history = h(
            ("put", "k", 1, 0.0, 1.0, True),
            ("get", "k", None, 2.0, None, None),
        )
        assert check_history(history).ok


class TestDecomposition:
    def test_keys_checked_independently(self):
        history = h(
            ("put", "a", 1, 0.0, 1.0, True),
            ("put", "b", 2, 0.5, 1.5, True),
            ("get", "a", None, 2.0, 3.0, 1),
            ("get", "b", None, 2.0, 3.0, 99),  # only b is broken
        )
        result = check_history(history)
        assert not result.ok
        assert list(result.failures) == ["b"]

    def test_per_key_split(self):
        history = h(
            ("put", "a", 1, 0.0, 1.0, True),
            ("put", "b", 2, 2.0, 3.0, True),
        )
        split = history.per_key()
        assert sorted(split) == ["a", "b"]
        assert len(split["a"]) == len(split["b"]) == 1

    def test_state_bound_raises(self):
        ops = [("put", "k", i, 0.0, 100.0, True) for i in range(12)]
        history = h(*ops)
        with pytest.raises(RuntimeError, match="exceeded"):
            check_key(history.operations, max_states=5)


class TestValues:
    def test_json_values_are_register_states_like_any_other(self):
        # The wire codec and the safety engine admit dict/list payloads;
        # the search memo used to hash the raw value and raise TypeError.
        doc = {"a": [1, 2]}
        history = h(
            ("put", "k", doc, 0.0, 1.0, True),
            ("get", "k", None, 2.0, 3.0, {"a": [1, 2]}),
            ("put", "k", [3], 4.0, 5.0, True),
            ("get", "k", None, 6.0, 7.0, [3]),
        )
        assert check_history(history).ok
        stale = h(
            ("put", "k", doc, 0.0, 1.0, True),
            ("put", "k", {"a": [1]}, 2.0, 3.0, True),
            ("get", "k", None, 4.0, 5.0, doc),
        )
        assert not check_history(stale).ok

    def test_a_hashable_value_is_its_own_frozen_form(self):
        # Only unhashable containers are walked; the rest is returned as
        # it is, equal to and hashing as the rebuild it used to be.
        doc = {"a": [1, {2}]}
        built = (("a", (1, frozenset({2}))),)
        assert _freeze(doc) == _freeze(built) == built
        assert hash(_freeze(doc)) == hash(_freeze(built))
        command = ("put", "k", 3)
        assert _freeze(built) is built and _freeze(command) is command
        unhashable = ("put", "k", [1, {2}])
        assert _freeze(unhashable) == ("put", "k", (1, frozenset({2})))

    def test_values_that_freeze_alike_stay_distinct_states(self):
        # [1] and (1,) have one frozen form but are different values to
        # the read.  Linearizing the tuple's put first ends in a dead
        # end at (both puts, [1]); the state (both puts, (1,)) reached
        # the other way round must not be taken for a revisit of it.
        history = h(
            ("put", "k", [1], 0.0, 10.0, True),
            ("put", "k", (1,), 0.0, 10.0, True),
            ("get", "k", None, 11.0, 12.0, (1,)),
        )
        assert check_history(history).ok

    def test_each_of_the_values_that_freeze_alike_is_explored_once(self):
        # Both puts and six reads nobody waited for all overlap, and the
        # last read saw a value nobody wrote, so the search visits every
        # state.  A memo holding only the first value per frozen form
        # re-explores (mask, (1,)) once per path reaching it: 5,552
        # states where 320 do, and factorially more per pending read.
        def exhausted(second):
            history = h(
                ("put", "k", [1], 0.0, 10.0, True),
                ("put", "k", second, 0.0, 10.0, True),
                *[("get", "k", None, 0.0, None, None)] * 6,
                ("get", "k", None, 11.0, 12.0, 99),
            )
            return check_key(history.operations)

        colliding, distinct = exhausted((1,)), exhausted((2,))
        assert colliding == distinct
        assert not colliding[0] and colliding[1] < 2 * 2 ** 8

    def test_response_before_invocation_is_refused(self):
        history = h(("put", "k", 1, 5.0, 4.0, True))
        with pytest.raises(ValueError, match="before its invocation"):
            check_history(history)


# ----------------------------------------------------------------------
# The candidate walk against the full rescan it replaced
# ----------------------------------------------------------------------

def rescan_check_key(ops):
    """Reference: every state recomputes the earliest outstanding
    response over all operations and scans them all for the minimal
    ones (``check_key`` up to PR 21; hashable values only)."""
    ordered = sorted(ops, key=lambda o: (o.invoked_ms, o.op_id))
    n = len(ordered)
    if n == 0:
        return True, 0
    completed_bits = sum(1 << i for i, op in enumerate(ordered) if op.completed)
    responses = [
        op.completed_ms if op.completed else _INFINITY for op in ordered
    ]
    start = (0, ABSENT)
    seen = {start}
    stack = [start]
    explored = 0
    while stack:
        mask, state = stack.pop()
        explored += 1
        if mask & completed_bits == completed_bits:
            return True, explored
        min_response = min(
            responses[i] for i in range(n) if not mask >> i & 1
        )
        for i in range(n):
            if mask >> i & 1:
                continue
            op = ordered[i]
            if op.invoked_ms > min_response:
                break
            legal, next_state = _apply(state, op)
            if not legal:
                continue
            succ = (mask | 1 << i, next_state)
            if succ not in seen:
                seen.add(succ)
                stack.append(succ)
    return False, explored


@st.composite
def key_histories(draw):
    """Up to 9 operations on one key over a short span, so that many
    overlap; about a quarter never get a response."""
    ops = []
    for op_id in range(draw(st.integers(0, 9))):
        kind = draw(st.sampled_from(["put", "add", "delete", "get"]))
        invoked = draw(st.integers(0, 12))
        took = draw(st.integers(0, 5))
        done = draw(st.integers(0, 3)) > 0
        ops.append(
            Operation(
                op_id=op_id,
                client="c",
                op=kind,
                key="k",
                value=draw(st.integers(0, 2)),
                invoked_ms=float(invoked),
                completed_ms=float(invoked + took) if done else None,
                result=(
                    draw(st.one_of(st.none(), st.integers(0, 4)))
                    if kind == "get" and done
                    else (True if done else None)
                ),
            )
        )
    return ops


@settings(max_examples=400, deadline=None)
@given(key_histories())
def test_candidate_walk_visits_the_states_of_the_full_rescan(ops):
    assert check_key(ops) == rescan_check_key(ops)


def sequential_history(n, pending=()):
    """put 0, get -> 0, put 2, get -> 2, ...: one operation at a time.
    Those at the ``pending`` indices never get a response (a get there
    observes nothing; a put there may or may not have applied -- the
    next get saw the value before it, so it did not)."""
    ops = []
    last_put = None
    for i in range(n):
        is_put = i % 2 == 0
        done = i not in pending
        ops.append(
            Operation(
                op_id=i,
                client="c",
                op="put" if is_put else "get",
                key="k",
                value=i,
                invoked_ms=2.0 * i,
                completed_ms=2.0 * i + 1 if done else None,
                result=(True if is_put else last_put) if done else None,
            )
        )
        if is_put and done:
            last_put = i
    return ops


class TestWorkCounts:
    """Deterministic counts: line events in ``check_key``, not seconds."""

    @pytest.mark.parametrize(
        "pending_at", [None, 0, "middle"], ids=["complete", "first", "middle"]
    )
    def test_a_sequential_key_costs_the_same_per_operation_at_any_length(
        self, pending_at
    ):
        # At the parent commit each of the n search states recomputed a
        # minimum over, and then scanned, all n operations: 2.3 s for
        # 4,000 of them.  Starting at the lowest unset bit alone is not
        # enough -- one operation at index 0 that never completes stays
        # unset for the whole search and pins the scan to the front.
        per_op = []
        for n in (500, 4000):
            pending = {None: (), 0: (0,), "middle": (n // 2,)}[pending_at]
            ops = sequential_history(n, pending)
            verdict = []
            events = line_events(lambda: verdict.extend(check_key(ops)))
            # The empty state, then one per operation that responded.
            assert verdict == [True, n + 1 - len(pending)]
            per_op.append(events / n)
        small, large = per_op
        assert abs(large - small) <= 0.1 * small, per_op
        assert large < 100, per_op

    @pytest.mark.parametrize("seed, states", [(8, 4631), (3, 4655)])
    def test_fig16_chaos_explores_the_states_it_always_did(self, seed, states):
        result = run_nemesis(fig16_chaos_config(seed=seed, ops=4000))
        assert result.ok
        assert result.linearizability.states_explored == states
