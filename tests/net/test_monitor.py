"""End-to-end runtime verification: live TCP cluster, live monitor.

The positive test runs the pre-fix spec (``repro.raft.buggy``, R3 off)
through the staged Fig. 4 schedule under client load and requires the
streaming monitor to flag the divergent-reconfig fork *while the
cluster is running*, then proves the written bundle replays offline to
the same verdict.  The control test drives the fixed spec through the
identical schedule and requires silence plus a legally completed
reconfiguration -- the pair is what makes the monitor a detector
rather than an alarm that always rings.
"""

from repro.net.fig4 import run_fig4_live
from repro.net.procs import LocalCluster, poll
from repro.obs import load_bundle, verdict_matches


def _drive_load(cluster, ops=10, client_id="load"):
    with cluster.client(client_id=client_id, total_timeout_s=20.0) as client:
        for i in range(ops):
            client.put("k", i)


def test_monitor_flags_live_fig4_violation_and_bundle_replays(tmp_path):
    with LocalCluster(
        nids=(1, 2, 3), seed=21, spec="buggy", monitor=True,
        log_dir=str(tmp_path),
    ) as cluster:
        cluster.wait_for_leader()
        _drive_load(cluster)
        result = run_fig4_live(cluster)

        assert result.detected, result.describe()
        assert any(
            "ccache-in-rcache-fork" in line for line in result.violations
        ), result.violations

        # The monitor's own status carries the same verdict.
        status = cluster.monitor_status()
        assert status is not None and not status.ok
        assert tuple(status.violations) == tuple(result.violations)
        assert status.gaps == 0

        # The bundle names the offending event and replays to the
        # recorded verdict with a fresh engine.
        assert result.bundle is not None
        bundle = load_bundle(result.bundle)
        assert bundle.kind == "monitor"
        assert bundle.events[bundle.verdict["event_index"]].kind == "log_advance"
        assert bundle.verdict["violations"] == list(result.violations)
        assert verdict_matches(bundle)
        cluster.shutdown()


def test_monitor_stays_clean_on_fixed_spec_under_same_schedule(tmp_path):
    with LocalCluster(
        nids=(1, 2, 3), seed=22, monitor=True, log_dir=str(tmp_path),
    ) as cluster:
        cluster.wait_for_leader()
        _drive_load(cluster)
        result = run_fig4_live(cluster, expect_violation=False)

        assert not result.detected, result.describe()
        # R3 makes the same request *safe*, not impossible: the legal
        # reconfiguration completes.
        assert result.reconfig_outcome == "committed"

        status = cluster.monitor_status()
        assert status is not None and status.ok
        assert status.entries > 0 and status.commits > 0
        assert status.gaps == 0
        assert status.bundle is None
        cluster.shutdown()


def test_monitor_counts_a_plain_workload(tmp_path):
    # No schedule at all: the monitor just watches replication and
    # stays clean with every node streaming.
    with LocalCluster(
        nids=(1, 2, 3), seed=23, monitor=True, log_dir=str(tmp_path),
    ) as cluster:
        cluster.wait_for_leader()
        _drive_load(cluster, ops=15)
        status = cluster.monitor_status()
        assert status is not None and status.ok
        assert set(status.nodes) == {1, 2, 3}
        assert status.entries >= 15
        cluster.shutdown()


def test_a_restarted_monitor_is_resynchronized(tmp_path):
    # The nodes export *deltas* against what they already queued.  A
    # monitor that comes back as a fresh process holds none of that, so
    # every reconnect must re-ship the log from its base -- otherwise
    # each later advance lands beyond anything the new engine has, is
    # counted as a gap and skipped, and the monitor reports ``ok`` over
    # a cluster it can no longer see.
    with LocalCluster(
        nids=(1, 2, 3), seed=29, monitor=True, log_dir=str(tmp_path),
    ) as cluster:
        cluster.wait_for_leader()
        _drive_load(cluster, ops=5, client_id="before")
        assert cluster.monitor_status().entries >= 5

        cluster.monitor_handle.process.kill()
        cluster.monitor_handle.process.wait(timeout=5)
        _drive_load(cluster, ops=5, client_id="meanwhile")  # nobody listens
        cluster.spawn_monitor()
        _drive_load(cluster, ops=5, client_id="after")

        def caught_up():
            # Every node found the new monitor (each on its own
            # reconnect backoff) and the whole log is there again.
            status = cluster.monitor_status()
            if (status is not None and status.entries >= 15
                    and set(status.nodes) == {1, 2, 3}):
                return status
            return None

        status = poll(caught_up, 10.0)
        assert status is not None and status.ok, cluster.monitor_status()
        cluster.shutdown()
