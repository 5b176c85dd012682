"""The simulated chaos workload: one ``run_nemesis()`` per child.

``sim_fig16_chaos`` walks the paper's Fig. 16 membership trajectory on
the simulated clock with message loss, duplication and reordering, two
leader crashes and one partition, and runs both checkers.  The
scheduler is seeded, so every count repeats exactly for one seed.  It
uses ``repro.runtime`` and ``repro.raft`` and neither ``repro.net`` nor
``repro.mc``.
"""

from __future__ import annotations

from time import perf_counter
from typing import Dict, Optional

from .calibrate import timed_call
from .trace import Recorder

#: Root span: the nemesis' own op loop (history, fault schedule, driver).
ROOT = "runtime.nemesis.loop_self"

OPS = 4_000
SMOKE_OPS = 500
#: ``--seed`` picks one of these nemesis seeds.  On each of them every
#: one of the 4,000 ops completes and the run peaks at 119-120 MiB.  Of
#: the 34 tried, 0 and 22 each leave one op unknown, which counts as
#: failed, and on 31 and 33 the linearizability search holds half again
#: as much memory (180 MiB).
SEEDS = (*range(1, 22), *range(23, 31), 32)


def _install(recorder: Recorder) -> None:
    from repro.core.safety import IncrementalTreeChecker
    from repro.obs.trace import Tracer
    from repro.raft.server import Server
    from repro.runtime import nemesis
    from repro.runtime.cluster import Cluster
    from repro.runtime.simnet import LatencyModel, Simulator

    wrap = recorder.wrap
    wrap(Cluster, "submit", "runtime.cluster.submit")
    wrap(Cluster, "submit_reconfig", "runtime.cluster.submit")
    # Self time of ``step`` is event dispatch plus the cluster's
    # send/receive plumbing; the handlers below are its children.
    wrap(Simulator, "step", "runtime.simnet.step")
    wrap(LatencyModel, "sample", "runtime.simnet.latency_sample")
    wrap(Server, "handle", "raft.server.handle")
    wrap(Server, "broadcast_commit", "raft.server.broadcast_commit")
    for name in ("record", "send", "receive"):
        wrap(Tracer, name, "obs.trace.record")
    wrap(Cluster, "check_safety", "runtime.cluster.check_safety")
    wrap(IncrementalTreeChecker, "observe", "core.safety.observe")
    wrap(nemesis, "check_history", "runtime.linearize.check")


def _layers(recorder: Recorder, stats) -> Dict[str, float]:
    layers: Dict[str, float] = {
        ROOT + "_s": recorder.self_s(ROOT),
        "runtime.simnet.step_s": recorder.self_s("runtime.simnet.step"),
        "runtime.simnet.events_n": recorder.calls("runtime.simnet.step"),
        "runtime.simnet.latency_sample_s":
            recorder.self_s("runtime.simnet.latency_sample"),
        "runtime.cluster.check_safety_s":
            recorder.self_s("runtime.cluster.check_safety"),
        "runtime.linearize.check_s":
            recorder.self_s("runtime.linearize.check"),
        "runtime.nemesis.failovers": stats.failovers,
        "runtime.nemesis.ops_unknown": stats.ops_unknown,
    }
    for label in (
        "runtime.cluster.submit", "raft.server.handle",
        "raft.server.broadcast_commit", "obs.trace.record",
        "core.safety.observe",
    ):
        layers[label + "_s"] = recorder.self_s(label)
        layers[label + "_n"] = recorder.calls(label)
    return layers


def child(job: dict, t0: float) -> dict:
    """Run one ``sim_fig16_chaos`` job in this process."""
    recorder: Optional[Recorder] = Recorder() if job["trace"] else None
    try:
        from repro.runtime import fig16_chaos_config, run_nemesis

        if recorder is not None:
            _install(recorder)
        config = fig16_chaos_config(
            seed=SEEDS[job["seed"] % len(SEEDS)],
            ops=SMOKE_OPS if job["smoke"] else OPS,
        )
        setup_s = perf_counter() - t0
        if job["setup_only"]:
            return {"setup_s": setup_s}
        result, timing = timed_call(
            recorder, ROOT, lambda: run_nemesis(config),
            1 if job["smoke"] else 5,
        )
    finally:
        if recorder is not None:
            recorder.unwrap_all()
    stats = result.stats
    problems = list(result.safety_violations)
    if not result.linearizability.ok:
        problems.append(f"not linearizable: {result.linearizability.failures}")
    if not stats.ops_completed:
        problems.append("no op completed")
    done = max(1, stats.ops_completed)
    out = {
        **timing,
        "setup_s": setup_s,
        # One op is one completed client operation.
        "ops": done,
        "attempted": stats.ops_attempted,
        "failed": stats.ops_unknown,
        "problems": problems,
        "exact": {
            "ops_completed": stats.ops_completed,
            "ops_unknown": stats.ops_unknown,
            "runtime.nemesis.sim_ms_per_op": stats.sim_ms / done,
            "runtime.nemesis.msgs_per_op": stats.messages_sent / done,
            "runtime.nemesis.failovers": stats.failovers,
        },
    }
    if recorder is not None:
        out["layers"] = _layers(recorder, stats)
        if job["spans"]:
            recorder.dump(job["spans"])
    return out
