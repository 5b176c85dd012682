"""Always-on runtime verification for the live TCP cluster.

The model checker proves the Appendix-B invariants over every
reachable state of the *spec*; the nemesis checks them post-hoc over
*simulated* runs.  This package closes the remaining gap -- the real
:mod:`repro.net` cluster -- in the style of Derecho's specification
and runtime checking (arXiv 2305.12040): each node streams its
:mod:`repro.obs` trace events to a monitor process over the existing
wire framing, and the monitor folds every ``log_advance`` into the
shared :class:`repro.core.safety.IncrementalTreeChecker` -- the same
engine the model checker and the simulator's ``check_safety`` consume.
A violation is therefore flagged seconds after the offending append or
commit, naming the event that caused it, and a violation bundle
(:mod:`repro.obs.bundle`, the same format a nemesis run writes) is
written so the verdict can be re-derived offline.

Ordering: the monitor never compares ``t_ms`` across nodes (each is a
private monotonic clock); events are folded in arrival order, with
per-node Lamport stamps preserving each node's local order.  The
invariants it maintains are prefix-closed properties of the observed
logs, so any interleaving of per-node-ordered streams reaches the same
verdict.
"""

from .service import Monitor, MonitorConfig, monitor_status, run_monitor

__all__ = [
    "Monitor",
    "MonitorConfig",
    "monitor_status",
    "run_monitor",
]
