"""The two model-checking workloads: one ``Explorer.run()`` per child.

``mc_intact`` is the exhaustive breadth-first check of the intact model
(every Appendix-B invariant on every state, 7 % duplicate successors);
``mc_hunt_r2`` is the guided best-first hunt with R2 off, which uses
the same layers differently (heap frontier, ``invariants=["safety"]``,
minimal quorums, no duplicates).  The seed does not reach them: the
checked instance is fixed by its budget.
"""

from __future__ import annotations

from time import perf_counter
from typing import Dict, Optional

from .calibrate import timed_call
from .trace import Recorder

#: Root span: what ``Explorer.run`` spends outside every wrapped layer
#: (frontier, ``aux_score`` walk, trace tuples).
ROOT = "mc.explorer.loop_self"

#: States the smoke run may visit before it stops.
SMOKE_MAX_STATES = 5_000


def _install(recorder: Recorder) -> None:
    from repro.core.tree import CacheTree
    from repro.mc import explorer
    from repro.mc.fpset import FingerprintSet

    # ``explorer`` binds the layers' functions by name at import, and
    # ``Explorer.__init__`` captures ``apply_push`` as its push step, so
    # the module globals are wrapped before the explorer is constructed.
    wrap = recorder.wrap
    wrap(explorer.Explorer, "successors", "mc.explorer.successors")
    wrap(explorer, "enumerate_pull_outcomes", "core.oracle.enumerate_pull")
    wrap(explorer, "enumerate_push_outcomes", "core.oracle.enumerate_push")
    for name in ("apply_pull", "apply_invoke", "apply_reconfig", "apply_push"):
        wrap(explorer, name, "core.semantics.apply")
    wrap(CacheTree, "add_leaf", "core.tree.build")
    wrap(CacheTree, "insert_btw", "core.tree.build")
    wrap(explorer.Explorer, "state_key", "core.fingerprint.state_key")
    wrap(FingerprintSet, "add", "mc.fpset.add")
    wrap(explorer, "check_state", "core.safety.check")


def _build(workload: str, smoke: bool):
    from repro.mc import ablations

    cap = {"max_states": SMOKE_MAX_STATES} if smoke else {}
    if workload == "mc_intact":
        return ablations.verify_intact_explorer(**cap)
    return ablations.r2_explorer(**cap)


def _problems(workload: str, result, smoke: bool) -> list:
    """Why the run's verdict is not the one this workload must give."""
    from repro.core.safety import check_state

    problems = []
    found = len(result.violations)
    if workload == "mc_intact":
        if found:
            problems.append(f"intact model reported {found} violation(s)")
        if not result.exhausted and not smoke:
            problems.append("intact model was not explored exhaustively")
    elif found == 1:
        if check_state(result.violations[0].state, only=["safety"]).ok:
            problems.append("the reported state passes the safety check")
    elif found or not smoke:  # the capped smoke hunt stops before any
        problems.append(f"hunt found {found} violations, expected exactly 1")
    return problems


def _layers(recorder: Recorder, result, wall_s: float) -> Dict[str, float]:
    from repro.core import cachemgr

    layers: Dict[str, float] = {ROOT + "_s": recorder.self_s(ROOT)}
    for label in (
        "mc.explorer.successors", "core.oracle.enumerate_pull",
        "core.oracle.enumerate_push", "core.semantics.apply",
        "core.tree.build", "core.fingerprint.state_key", "mc.fpset.add",
        "core.safety.check",
    ):
        layers[label + "_s"] = recorder.self_s(label)
        layers[label + "_n"] = recorder.calls(label)
    adds = recorder.calls("mc.fpset.add")
    trees = cachemgr.stats()["tree_interns"]
    layers.update({
        # Every visited state entered the set through one ``add``.
        "mc.fpset.new_ratio": result.states_visited / adds if adds else 0.0,
        "mc.states_per_s": result.states_visited / wall_s,
        "core.cachemgr.tree_occupancy": trees["occupancy"],
        "core.cachemgr.tree_flushes": trees["flushes"],
    })
    return layers


def child(job: dict, t0: float) -> dict:
    """Run one ``mc_*`` job in this process (see :mod:`bench.child`)."""
    recorder: Optional[Recorder] = Recorder() if job["trace"] else None
    try:
        if recorder is not None:
            _install(recorder)
        explorer = _build(job["workload"], job["smoke"])
        setup_s = perf_counter() - t0
        if job["setup_only"]:
            return {"setup_s": setup_s}
        result, timing = timed_call(
            recorder, ROOT, explorer.run, 1 if job["smoke"] else 5
        )
    finally:
        if recorder is not None:
            recorder.unwrap_all()
    found = len(result.violations)
    out = {
        **timing,
        "setup_s": setup_s,
        # One op is one explored state.
        "ops": result.states_visited,
        "attempted": result.states_visited,
        "failed": found if job["workload"] == "mc_intact" else 0,
        "problems": _problems(job["workload"], result, job["smoke"]),
        "exact": {
            "mc.states": result.states_visited,
            "mc.transitions": result.transitions,
            "mc.max_depth": result.max_depth,
            "violations": found,
            "exhausted": result.exhausted,
        },
    }
    if recorder is not None:
        out["layers"] = _layers(recorder, result, timing["wall_s"])
        if job["spans"]:
            recorder.dump(job["spans"])
    return out
