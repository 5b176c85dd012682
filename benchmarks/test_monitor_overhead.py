"""The live node's monitor-export overhead contract.

:class:`~repro.net.node.NetNode` grew two hooks for this subsystem:

* ``_after_progress`` starts with one ``_export_enabled`` test (the
  trace-export gate), and
* ``_send_all`` starts with one ``_blocked`` test (the admin partition
  fault the Fig. 4 schedule drives; the inbound half of that test sits
  in the connection handler, off the path measured here).

The promise mirrors DESIGN.md §9's obs contract: with no monitor
attached, a node's per-message cost stays within 5% of a node without
the hooks at all.  The baseline is a ``NetNode`` subclass whose
``_send_all``/``_after_progress`` are the pre-monitor bodies, measured
on the synchronous delivery path (the part the hooks touched) without
sockets: a follower folding a leader's replication stream.  The export-enabled variant is reported, not asserted -- its
cost is the price of running verified, and the queue drains on a
background task off this path anyway.
"""

import random
import time
from typing import List

from repro.net.node import NetNode, NodeConfig
from repro.net.wire import ClientResponse
from repro.raft.messages import CommitReq, LogEntry
from repro.raft.server import LEADER
from repro.runtime.driver import ElectionDriver

OPS = 300
ROUNDS = 7
#: Same bound as the sim-side obs contract (DESIGN.md §9, §13).
DISABLED_OVERHEAD_BOUND = 1.05

CONF0 = frozenset({1, 2, 3})


class BareNode(NetNode):
    """The pre-monitor hot path: no partition test, no export gate."""

    def _send_all(self, msgs) -> None:
        if self.server.role == LEADER and any(
            isinstance(m, CommitReq) and m.frm == self.config.nid
            for m in msgs
        ):
            msgs = msgs + self._courtesy_heartbeats() + self._read_probes()
        for msg in msgs:
            outbox = self._outboxes.get(msg.to)
            if outbox is None:
                continue
            outbox.put(msg)

    def _after_progress(self) -> None:
        server = self.server
        if server.role != LEADER:
            if self._pending:
                for pending in self._pending:
                    self._write(
                        pending.writer,
                        ClientResponse(
                            client_id=pending.request.client_id,
                            seq=pending.request.seq,
                            ok=False,
                            error="not-leader",
                            leader_hint=self._hint(),
                        ),
                    )
                self._pending = []
            if self._read_batches:
                self._bounce_reads(error="not-leader")


def make_node(cls=NetNode, monitor=None) -> NetNode:
    """A follower node wired for synchronous delivery (no sockets)."""
    config = NodeConfig(
        nid=2, port=0, peers={}, conf0=CONF0, seed=7, monitor=monitor,
    )
    node = cls(config)
    node.driver = ElectionDriver(
        server=node.server,
        scheme=node.scheme,
        timing=config.timing,
        rng=node.rng,
        schedule=lambda delay_ms, fn: None,  # timers never fire here
        send_all=node._send_all,
        is_active=lambda: True,
    )
    return node


def replication_stream(ops: int) -> List[CommitReq]:
    """A leader's growing log, one CommitReq per appended entry."""
    rng = random.Random(3)
    entries = tuple(
        LogEntry(time=1, vrsn=i + 1, payload=("put", "k", rng.randrange(100)))
        for i in range(ops)
    )
    return [
        CommitReq(
            frm=1, to=2, time=1, log=entries[: i + 1], commit_len=i
        )
        for i in range(ops)
    ]


def time_variant(factory, stream) -> float:
    node = factory()
    started = time.perf_counter()
    for msg in stream:
        node._deliver(msg)
    elapsed = time.perf_counter() - started
    assert len(node.server.log) == OPS  # the stream really replicated
    return elapsed


def measure(factories, stream) -> dict:
    best = {name: float("inf") for name in factories}
    for _ in range(ROUNDS):
        for name, factory in factories.items():
            best[name] = min(best[name], time_variant(factory, stream))
    return best


def test_disabled_monitor_overhead(benchmark, report, bench_json):
    stream = replication_stream(OPS)
    factories = {
        "bare": lambda: make_node(cls=BareNode),
        "disabled": lambda: make_node(),
        "enabled": lambda: make_node(monitor=("127.0.0.1", 1)),
    }
    # Parity first: every variant folds the stream to the same state.
    logs = {
        name: tuple(make_and_run(factory, stream))
        for name, factory in factories.items()
    }
    assert len(set(logs.values())) == 1

    best = benchmark.pedantic(
        measure, args=(factories, stream), rounds=1, iterations=1
    )
    disabled_ratio = best["disabled"] / best["bare"]
    enabled_ratio = best["enabled"] / best["bare"]
    bench_json({
        "bare_ms": best["bare"] * 1e3,
        "disabled_ms": best["disabled"] * 1e3,
        "enabled_ms": best["enabled"] * 1e3,
        "disabled_ratio": disabled_ratio,
        "enabled_ratio": enabled_ratio,
        "bound": DISABLED_OVERHEAD_BOUND,
    })
    report(
        "",
        "=" * 72,
        f"monitor-export overhead ({OPS} deliveries, min of {ROUNDS})",
        "=" * 72,
        f"  bare (no hooks):          {best['bare'] * 1e3:8.2f} ms",
        f"  hooks, monitor off:       {best['disabled'] * 1e3:8.2f} ms "
        f"({disabled_ratio:.3f}x)",
        f"  hooks, monitor on:        {best['enabled'] * 1e3:8.2f} ms "
        f"({enabled_ratio:.3f}x)",
        f"  contract: disabled <= {DISABLED_OVERHEAD_BOUND:.2f}x",
    )
    assert disabled_ratio <= DISABLED_OVERHEAD_BOUND, (
        f"disabled-monitor overhead {disabled_ratio:.3f}x exceeds the "
        f"{DISABLED_OVERHEAD_BOUND:.2f}x contract"
    )


def make_and_run(factory, stream):
    node = factory()
    for msg in stream:
        node._deliver(msg)
    return node.server.log
