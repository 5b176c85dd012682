"""Experiment E9 (extension): the observability layer's overhead contract.

The instrumentation in :class:`~repro.runtime.cluster.Cluster` promises
two things (DESIGN.md §9):

* **disabled is (nearly) free** -- with the default null tracer and
  null registry, the per-message cost is one boolean test, so an
  instrumented-but-disabled cluster stays within 5% of a genuinely
  uninstrumented baseline;
* **enabled is bounded** -- full tracing + metrics cost real but
  modest time (reported here, not asserted: the enabled path is a
  debugging tool, not a production path).

The baseline is a ``Cluster`` subclass whose transport methods are the
pre-observability implementations (no ``_obs`` test at all), so the
comparison isolates exactly the cost the obs layer added.  Timing takes
interleaved wall-clock samples of an identical seeded workload with the
cycle collector paused (as ``timeit`` does), and a ratio is the median
of the per-round ratios: each round times every variant back to back,
so drift that spans a round cancels, and the median ignores the rounds
a neighbour disturbed.  Identical seeds also let the benchmark assert
the instrumented runs are *bit-identical* in simulated time -- the
parity contract -- before comparing wall clocks.
"""

import copy
import statistics
import time

from repro.core import cachemgr
from repro.obs import MetricsRegistry, Tracer
from repro.runtime import Cluster, LatencyModel
from repro.schemes import RaftSingleNodeScheme

NODES = frozenset({1, 2, 3})
SCHEME = RaftSingleNodeScheme()
OPS = 120
ROUNDS = 51
#: The DESIGN.md §9 contract: disabled-path slowdown stays under 5%.
DISABLED_OVERHEAD_BOUND = 1.05


class BareCluster(Cluster):
    """The uninstrumented baseline: transport without the ``_obs`` test.

    These overrides are the pre-observability ``_send``/``_receive``
    bodies; everything else (latency sampling, fault injection, crash
    suppression) is inherited unchanged, so any wall-clock difference
    to ``Cluster`` is the cost of the instrumentation hooks alone.
    """

    def _send(self, msg, extra_delay=0.0):
        if msg.to not in self.servers:
            return
        if msg.frm in self._crashed:
            return
        self.messages_sent += 1
        copies = 1
        if self.faults is not None:
            if self.faults.should_drop(msg.frm, msg.to, self.sim.now):
                return
            if self.faults.should_duplicate():
                copies = 2
        for i in range(copies):
            delivery = msg if i == 0 else copy.deepcopy(msg)
            delay = extra_delay + self.latency.sample(
                self.sim.rng, self._payload_size(msg)
            )
            if self.faults is not None:
                delay += self.faults.reorder_delay()
            self.sim.schedule(delay, lambda m=delivery: self._receive(m))

    def _receive(self, msg, sent_lamport=0):
        if msg.to in self._crashed:
            return
        server = self.servers[msg.to]
        responses = server.handle(msg, self.scheme)
        self.sim.schedule(
            self.processing_ms, lambda: self._send_all(responses)
        )


def run_workload(cluster) -> float:
    assert cluster.elect(1)
    for i in range(OPS):
        cluster.submit(f"req-{i}", leader=1)
    return cluster.sim.now


def time_factory(factory) -> float:
    started = time.perf_counter()
    run_workload(factory())
    return time.perf_counter() - started


def measure(factories) -> dict:
    """``ROUNDS`` interleaved samples of every variant, by name."""
    samples = {name: [] for name in factories}
    with cachemgr.gc_paused():
        for _ in range(ROUNDS):
            for name, factory in factories.items():
                samples[name].append(time_factory(factory))
    return samples


def paired_ratio(samples, name) -> float:
    """Median over rounds of ``name``'s time over the bare time."""
    return statistics.median(
        t / bare for t, bare in zip(samples[name], samples["bare"])
    )


def test_disabled_observability_overhead(report):
    latency = LatencyModel(jitter=0.0, spike_prob=0.0)
    factories = {
        "bare": lambda: BareCluster(NODES, SCHEME, seed=11, latency=latency),
        "disabled": lambda: Cluster(NODES, SCHEME, seed=11, latency=latency),
        "enabled": lambda: Cluster(
            NODES, SCHEME, seed=11, latency=latency,
            tracer=Tracer(), metrics=MetricsRegistry(),
        ),
    }
    # Parity first: all three variants replay the identical seeded run.
    sim_times = {
        name: run_workload(factory()) for name, factory in factories.items()
    }
    assert len(set(sim_times.values())) == 1

    samples = measure(factories)
    median = {name: statistics.median(ts) for name, ts in samples.items()}
    disabled_ratio = paired_ratio(samples, "disabled")
    enabled_ratio = paired_ratio(samples, "enabled")
    report(
        "",
        "=" * 72,
        "E9 (extension) -- observability overhead "
        f"({OPS} requests, median of {ROUNDS} rounds)",
        "=" * 72,
        f"  bare (no hooks):          {median['bare'] * 1e3:8.2f} ms",
        f"  instrumented, disabled:   {median['disabled'] * 1e3:8.2f} ms "
        f"({disabled_ratio:.3f}x)",
        f"  instrumented, enabled:    {median['enabled'] * 1e3:8.2f} ms "
        f"({enabled_ratio:.3f}x)",
        f"  contract: disabled <= {DISABLED_OVERHEAD_BOUND:.2f}x",
    )
    assert disabled_ratio <= DISABLED_OVERHEAD_BOUND, (
        f"disabled-path overhead {disabled_ratio:.3f}x exceeds the "
        f"{DISABLED_OVERHEAD_BOUND:.2f}x contract"
    )
