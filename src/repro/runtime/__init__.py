"""Executable deployment on a simulated network (the Fig. 16 substrate).

The paper extracts its Coq Raft specification to OCaml and measures it
on EC2; here the Python specification is scheduled over a seeded
discrete-event simulator (:mod:`repro.runtime.simnet`), driven by a
client workload (:mod:`repro.runtime.workload`), with a replicated
key-value store as the demo application
(:mod:`repro.runtime.kvstore`).  Chaos testing lives in
:mod:`repro.runtime.nemesis`: seeded fault plans (drops, duplication,
reordering, partitions, crash/restart schedules) injected into the
transport, with client histories checked for linearizability
(:mod:`repro.runtime.linearize`) after every run.
"""

from .autonomous import AutonomousCluster, LeaderChange
from .cluster import Cluster, RequestRecord, SharedLog
from .driver import ElectionDriver, TimingConfig
from .failover import FailoverDriver, FailoverEvent
from .history import History, Operation
from .kvstore import ReplicatedKV, apply_command, materialize
from .linearize import LinearizabilityResult, check_history, check_key
from .nemesis import (
    FIG16_TRAJECTORY,
    NemesisConfig,
    NemesisResult,
    NemesisStats,
    duplicate_request_audit,
    fig16_chaos_config,
    run_nemesis,
)
from .simnet import (
    CrashEvent,
    FaultPlan,
    LatencyModel,
    NetworkConditions,
    Partition,
    Simulator,
)
from .workload import (
    Fig16Config,
    Fig16Run,
    run_fig16_experiment,
    run_fig16_workload,
)

__all__ = [
    "AutonomousCluster",
    "Cluster",
    "CrashEvent",
    "ElectionDriver",
    "FIG16_TRAJECTORY",
    "FailoverDriver",
    "FailoverEvent",
    "FaultPlan",
    "Fig16Config",
    "Fig16Run",
    "History",
    "LatencyModel",
    "LeaderChange",
    "LinearizabilityResult",
    "NemesisConfig",
    "NemesisResult",
    "NemesisStats",
    "NetworkConditions",
    "Operation",
    "Partition",
    "ReplicatedKV",
    "RequestRecord",
    "SharedLog",
    "Simulator",
    "TimingConfig",
    "apply_command",
    "check_history",
    "check_key",
    "duplicate_request_audit",
    "fig16_chaos_config",
    "materialize",
    "run_fig16_experiment",
    "run_fig16_workload",
    "run_nemesis",
]
