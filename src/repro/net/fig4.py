"""Drive a *live* cluster through the Fig. 4 divergent-reconfig split.

:mod:`repro.raft.buggy` replays the historical single-node-membership
bug inside the in-memory network spec; this module stages the same
interleaving against real ``repro.net`` processes, using only the
admin partition RPC and directed client requests:

1. Let a leader **A** emerge naturally, then partition it from every
   peer (client and monitor connections stay up).
2. Ask A to remove one member.  Both variants append the config entry
   (A committed workload entries in its own term, so R3 is satisfied
   *at A*) -- but isolation means it replicates to nobody and can
   never commit.
3. The remaining nodes elect a new leader **B** that has never
   committed anything in its own fresh term.
4. Ask B to remove A.  This is where the variants diverge.  The clean
   spec refuses (R3: no committed current-term entry), lays a no-op
   barrier, commits it, and only then admits the config entry -- so a
   *committed* entry of B's term sits between the fork point and B's
   new config.  The buggy spec admits the config entry immediately.

After step 4 the buggy run has two RCaches forking with no
intervening CCache -- exactly the state Lemma B.8
(``ccache-in-rcache-fork``) forbids, and the reason R3 exists: each
side now holds a configuration under which it could assemble a
disjoint quorum (Fig. 4's split brain).  The streaming monitor flags
it within an event or two of B's append; the clean control run, under
the same partitions and requests, stays violation-free and finishes
the reconfiguration correctly.

Works with any cluster of >= 3 nodes (full *commit* divergence needs
4+, but the fork itself -- what the monitor checks -- needs only 3).
"""

from __future__ import annotations

import socket
from dataclasses import dataclass, field
from typing import List, Optional

from .client import NetClient
from .procs import LocalCluster, poll
from .wire import ClientResponse


@dataclass
class Fig4Result:
    """What happened at each step, plus the monitor's final verdict."""

    leader_a: int
    leader_b: Optional[int] = None
    #: How B's legal-or-not reconfig ended ("committed", "refused
    #: (...)", "no definitive response").
    reconfig_outcome: Optional[str] = None
    steps: List[str] = field(default_factory=list)
    #: The monitor's violation lines at the end (empty = clean).
    violations: List[str] = field(default_factory=list)
    bundle: Optional[str] = None

    @property
    def detected(self) -> bool:
        return bool(self.violations)

    def describe(self) -> str:
        lines = [f"fig4: S{self.leader_a} led first"] + [
            f"fig4: {step}" for step in self.steps
        ]
        if self.violations:
            lines.append("fig4: MONITOR FLAGGED:")
            lines.extend(f"  {line}" for line in self.violations)
        else:
            lines.append("fig4: monitor reports no violation")
        return "\n".join(lines)


def _directed(
    client: NetClient, nid: int, command, timeout_s: float
) -> Optional[ClientResponse]:
    """One directed attempt; None when it times out / the node is
    unreachable (both expected outcomes mid-partition)."""
    try:
        return client.request_direct(nid, command, timeout_s=timeout_s)
    except (OSError, ConnectionError, socket.timeout):
        return None


def _leader_among(client: NetClient, candidates) -> Optional[int]:
    """The highest-term self-reported leader among ``candidates``."""
    leaders = [
        (reply.term, nid) for nid in candidates
        if (reply := client.status(nid)) is not None
        and reply.role == "leader"
    ]
    return max(leaders)[1] if leaders else None


def run_fig4_live(
    cluster: LocalCluster,
    settle_s: float = 20.0,
    detect_s: float = 15.0,
    expect_violation: bool = True,
) -> Fig4Result:
    """Stage the schedule against a started cluster; returns the result
    (raises ``RuntimeError`` only when the *cluster* fails to make the
    progress both variants must make, e.g. no leader at all).

    ``expect_violation=False`` (the clean control) takes one status
    sample instead of polling ``detect_s`` for a verdict that -- if the
    spec is right -- never comes.
    """
    nids = list(cluster.nids)
    if len(nids) < 3:
        raise ValueError("the fig4 schedule needs at least 3 nodes")
    with cluster.client(
        client_id="fig4-driver", total_timeout_s=settle_s
    ) as client:
        a = cluster.wait_for_leader(timeout_s=settle_s)
        result = Fig4Result(leader_a=a)
        others = [nid for nid in nids if nid != a]

        # -- isolate A from every peer (clients/monitor unaffected) ----
        client.partition(a, others)
        for nid in others:
            client.partition(nid, [a])
        result.steps.append(f"isolated S{a} from {others}")

        # -- reconfig at the isolated leader ---------------------------
        removed = max(nid for nid in nids if nid != a)
        conf_a = frozenset(nids) - {removed}
        reply = _directed(
            client, a, ("reconfig", conf_a), timeout_s=2.0
        )
        if reply is None:
            # No response: the entry entered A's log and can never
            # commit -- the buggy branch of step 2.
            result.steps.append(
                f"S{a} accepted removing S{removed} while isolated "
                f"(uncommittable entry in its log)"
            )
        else:
            result.steps.append(
                f"S{a} answered {reply.error or 'ok'!r} to removing "
                f"S{removed} while isolated"
            )

        # -- the rest elect a fresh-logged leader B --------------------
        b = poll(lambda: _leader_among(client, others), settle_s)
        if b is None:
            raise RuntimeError("no replacement leader emerged")
        result.leader_b = b
        result.steps.append(f"S{b} took over among {others}")

        # -- reconfig at B: remove A -----------------------------------
        conf_b = frozenset(nids) - {a}

        def remove_a() -> Optional[str]:
            reply = _directed(client, b, ("reconfig", conf_b), timeout_s=3.0)
            if reply is None or reply.error == "retry":
                return None  # unreachable, or barrier still committing
            return "committed" if reply.ok else f"refused ({reply.error})"

        outcome = poll(remove_a, settle_s, 0.1) or "no definitive response"
        result.steps.append(f"S{b} removing S{a}: {outcome}")
        result.reconfig_outcome = outcome

        # -- the verdict -----------------------------------------------
        def flagged():
            status = cluster.monitor_status()
            return status if status is not None and not status.ok else None

        status = (
            poll(flagged, detect_s if expect_violation else 0.0, 0.2)
            or cluster.monitor_status()
        )
        if status is not None:
            result.violations = list(status.violations)
            result.bundle = status.bundle

        # A stays fenced: the survivors were never partitioned from
        # each other, so the cluster is already live without it -- and
        # reconnecting A (with or without the bug) would only let its
        # doomed campaigns churn the survivors' terms.
        result.steps.append(f"left S{a} fenced; survivors stay connected")
    return result
