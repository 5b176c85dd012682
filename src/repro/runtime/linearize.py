"""A Wing–Gong style linearizability checker for the KV-store model.

Given a :class:`~repro.runtime.history.History` of client operations
against the replicated key-value store, decide whether there exists a
total order of the operations that (a) respects real-time order --
an operation linearizes somewhere between its invocation and its
response -- and (b) is legal for a per-key register with ``put``,
``add`` (counter increment), ``delete``, and ``get``.

Keys are independent, so the check decomposes per key (locality,
Herlihy & Wing Theorem 1) and each sub-history is searched with the
Wing–Gong algorithm as refined by Lowe and used by Porcupine: a DFS
over (set of linearized operations, register state) pairs with
memoization, taking only *minimal* operations -- those invoked before
every outstanding response -- as the next linearization candidate.

Operations whose outcome is unknown (the client timed out: the request
may or may not have been applied) are handled the standard Jepsen way:
they have no response constraint, so they may linearize at any point
after their invocation *or never*.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple

from ..core.safety import _freeze
from .history import History, Operation


class _Absent:
    """Singleton marking an absent key (distinct from a stored None)."""

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "<absent>"


ABSENT = _Absent()

_INFINITY = float("inf")


def _apply(state: Any, op: Operation) -> Tuple[bool, Any]:
    """One register transition; ``(legal, next_state)``."""
    if op.op == "put":
        return True, op.value
    if op.op == "add":
        base = 0 if state is ABSENT else state
        return True, base + op.value
    if op.op == "delete":
        return True, ABSENT
    if op.op == "get":
        if not op.completed:
            # No response to constrain the read: any value is fine.
            return True, state
        expected = None if state is ABSENT else state
        return op.result == expected, state
    raise ValueError(f"unknown operation kind {op.op!r}")


@dataclass
class LinearizabilityResult:
    """Verdict of a whole-history check."""

    ok: bool
    checked_ops: int = 0
    states_explored: int = 0
    #: key -> human-readable reason, for keys that failed.
    failures: Dict[str, str] = field(default_factory=dict)

    def describe(self) -> str:
        if self.ok:
            return (
                f"linearizable ({self.checked_ops} ops, "
                f"{self.states_explored} states explored)"
            )
        details = "; ".join(
            f"{key}: {why}" for key, why in sorted(self.failures.items())
        )
        return f"NOT linearizable: {details}"


def check_key(
    ops: List[Operation], max_states: int = 2_000_000
) -> Tuple[bool, int]:
    """Check one key's sub-history; ``(linearizable, states_explored)``.

    A search state is the set of linearized operations (a bit mask over
    the operations in invocation order) and the register value.  Its
    candidates are the *minimal* operations: not yet linearized and
    invoked no later than the earliest response still outstanding.
    They are found in one walk over the unset bits, lowest first, that
    keeps the earliest response met so far and stops at the first
    operation invoked after it: a response never precedes its own
    invocation, so no operation further on -- all invoked later still --
    can answer earlier than that, and every operation the walk passed
    was invoked no later than the final minimum either.  The walk
    therefore costs the candidates it yields plus one, wherever the
    linearized prefix ends and however many unknown-outcome operations
    (which have no response and stay optional to the end) sit before
    it; it never visits a linearized operation.  DESIGN.md section 8
    (*The candidate window*) has the argument that this visits the
    states of the full rescan in the same order.

    Values may be unhashable (a ``put`` of a JSON object): the memo is
    keyed on their frozen form and holds every distinct value reached
    under it, so two values that freeze alike (``[1]`` and ``(1,)``)
    are both explored, each once.

    Raises :class:`RuntimeError` if the search exceeds ``max_states``
    (never observed on the nemesis workloads; the bound guards against
    pathological hand-built histories), :class:`ValueError` for an
    operation that responded before it was invoked.
    """
    ordered = sorted(ops, key=lambda o: (o.invoked_ms, o.op_id))
    if not ordered:
        return True, 0
    invoked = [op.invoked_ms for op in ordered]
    responses = [
        op.completed_ms if op.completed else _INFINITY for op in ordered
    ]
    completed_bits = 0
    for i, op in enumerate(ordered):
        if op.completed:
            completed_bits |= 1 << i
            if responses[i] < invoked[i]:
                raise ValueError(
                    f"operation responded before its invocation: "
                    f"{op.describe()}"
                )
    every_bit = (1 << len(ordered)) - 1

    # (mask, frozen value) -> the distinct values reached with that key
    # (one, unless two values freeze alike).
    seen: Dict[Tuple[int, Any], Tuple[Any, ...]] = {(0, ABSENT): (ABSENT,)}
    stack = [(0, ABSENT)]
    explored = 0
    while stack:
        mask, state = stack.pop()
        explored += 1
        if explored > max_states:
            raise RuntimeError(
                f"linearizability search exceeded {max_states} states"
            )
        if mask & completed_bits == completed_bits:
            # Every operation that responded is linearized; the
            # remaining unknown-outcome operations may simply never
            # have taken effect.
            return True, explored
        unset = every_bit & ~mask
        min_response = _INFINITY
        while unset:
            bit = unset & -unset
            unset ^= bit
            i = bit.bit_length() - 1
            if invoked[i] > min_response:
                # ops are sorted by invocation: no later op is minimal.
                break
            if responses[i] < min_response:
                min_response = responses[i]
            legal, next_state = _apply(state, ordered[i])
            if not legal:
                continue
            succ_mask = mask | bit
            key = (succ_mask, _freeze(next_state))
            held = seen.get(key, ())
            if next_state in held:
                continue
            seen[key] = held + (next_state,)
            stack.append((succ_mask, next_state))
    return False, explored


def check_history(
    history: History, max_states: int = 2_000_000
) -> LinearizabilityResult:
    """Check a full multi-key history (per-key decomposition)."""
    result = LinearizabilityResult(ok=True, checked_ops=len(history))
    for key, ops in sorted(history.per_key().items()):
        ok, explored = check_key(ops, max_states=max_states)
        result.states_explored += explored
        if not ok:
            result.ok = False
            completed = sum(1 for op in ops if op.completed)
            result.failures[key] = (
                f"no legal linearization of {len(ops)} ops "
                f"({completed} with responses)"
            )
    return result
