"""Amnesia: a respawned node forgets its vote (ROADMAP item 1, step 1).

``LocalCluster.spawn`` and ``ShardedCluster.respawn`` relaunch a killed
node under the same nid with empty state: no term, no vote, no log.
Raft's safety argument needs the vote to survive -- one vote per term
is what makes two quorums of one term meet.  This is the scripted
reproducer, with no processes and no sockets: three ``NetNode``s wired
like ``tests/net/test_node_paths.make_node``, whose messages the test
carries by hand between an allowed set of nodes and drops otherwise.

* S1 campaigns with S2, wins term 1, and commits ``put k=a`` with S2's
  ack.  Nothing reaches S3.
* S2 is replaced by a fresh ``NetNode(nid=2)`` -- the respawn.
* S3 campaigns with S2.  It is at term 0, so it asks for term 1, and
  the new S2, which voted for S1 in term 1 before it died, votes again.
  S3 commits ``put k=b`` with that S2's ack.

Both clients are told ``ok``, both commits are in term 1, and the live
monitor's engine, fed the three logs, reports two CCaches on different
branches.  The test asserts what a durable node must give -- the
checker stays silent -- and is marked ``xfail(strict=True)`` until the
durable-store PR makes it pass; that PR has to remove the mark.
"""

import pytest

from repro.core.safety import IncrementalTreeChecker
from repro.net.node import NetNode, NodeConfig
from repro.net.wire import ClientRequest
from repro.obs.metrics import MetricsRegistry
from repro.runtime.driver import ElectionDriver

from .test_node_paths import CONF0, _Loop, _Writer


class Wiring:
    """Nodes whose outbound messages land in one list the test drains."""

    def __init__(self):
        self.nodes = {}
        self.in_flight = []

    def spawn(self, nid):
        """A fresh node under ``nid``: what a respawn brings back."""
        config = NodeConfig(nid=nid, port=0, peers={}, conf0=CONF0, seed=7)
        node = NetNode(config, metrics=MetricsRegistry())
        node.loop = _Loop()
        node._send_all = self.in_flight.extend
        node.driver = ElectionDriver(
            server=node.server, scheme=node.scheme, timing=config.timing,
            rng=node.rng, schedule=lambda delay_ms, fn: None,
            send_all=node._send_all, is_active=lambda: True,
        )
        self.nodes[nid] = node

    def carry(self, allowed):
        """Run every tick and deliver until nothing is in flight; a
        message with an end outside ``allowed`` is dropped."""
        while True:
            for node in self.nodes.values():
                node.loop.tick()
            if not self.in_flight:
                return
            msg = self.in_flight.pop(0)
            if msg.frm in allowed and msg.to in allowed:
                self.nodes[msg.to]._deliver(msg)

    def campaign(self, nid, allowed):
        driver = self.nodes[nid].driver
        driver._timer_fired(driver.epoch)  # its election timeout
        self.carry(allowed)

    def put(self, nid, value, allowed):
        writer = _Writer()
        self.nodes[nid]._handle_client_request(
            ClientRequest(client_id=f"c{nid}", seq=0, command=("put", "k", value)),
            writer,
        )
        self.carry(allowed)
        return writer.replies


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 1: a respawned node comes back without its "
    "term, vote and log, and votes twice in term 1",
)
def test_a_respawned_voter_cannot_elect_a_second_leader_in_its_term():
    wiring = Wiring()
    for nid in (1, 2, 3):
        wiring.spawn(nid)
    wiring.campaign(1, allowed={1, 2})
    wiring.put(1, "a", allowed={1, 2})
    wiring.spawn(2)  # killed and respawned: empty state, same nid
    wiring.campaign(3, allowed={2, 3})
    wiring.put(3, "b", allowed={2, 3})

    checker = IncrementalTreeChecker(CONF0)
    for nid, node in sorted(wiring.nodes.items()):
        checker.observe(nid, 0, node.server.log, node.server.commit_len)
    assert checker.violations() == []
