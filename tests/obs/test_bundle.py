"""Violation bundles of both kinds: write on failure, load, replay to the
same verdict through the one ``replay`` / ``verdict_matches``."""

import dataclasses
import json
import os

import pytest

from repro.monitor import Monitor, MonitorConfig, service
from repro.monitor.__main__ import main as monitor_main
from repro.net.wire import pack_entry
from repro.obs import (
    Bundle,
    TraceEvent,
    Tracer,
    load_bundle,
    nemesis_config_from_dict,
    nemesis_config_to_dict,
    replay,
    verdict_matches,
    write_bundle,
    write_monitor_bundle,
)
from repro.obs.trace import NULL_TRACER
from repro.raft.messages import LogEntry
from repro.runtime import (
    LatencyModel,
    NemesisConfig,
    NetworkConditions,
    nemesis,
    run_nemesis,
)

CONF0 = frozenset({1, 2, 3})


def violating_config(bundle_dir=None):
    """A chaos schedule that a request-id-less client demonstrably fails
    (same scenario the nemesis regression test uses)."""
    return NemesisConfig(
        seed=2,
        ops=250,
        conditions=NetworkConditions(drop_prob=0.05, reorder_prob=0.2),
        crash_leader_at=(60, 140),
        partition_at=100,
        partition_ms=60.0,
        partition_symmetric=False,
        client_request_ids=False,  # the historical pre-dedup client
        bundle_dir=bundle_dir,
    )


def every_field_set():
    """A config with every field but ``bundle_dir`` off its default,
    nested ones included."""
    return NemesisConfig(
        seed=9,
        ops=77,
        keys=3,
        initial_members=frozenset({1, 2, 4}),
        extra_nodes=frozenset({5, 6}),
        read_fraction=0.2,
        add_fraction=0.1,
        delete_fraction=0.15,
        conditions=NetworkConditions(
            drop_prob=0.01,
            duplicate_prob=0.02,
            reorder_prob=0.03,
            reorder_window_ms=7.5,
            link_drop_prob={(1, 2): 0.5, (4, 1): 0.25},
        ),
        latency=LatencyModel(
            base_ms=0.7,
            jitter=0.2,
            spike_prob=0.05,
            spike_scale=10.0,
            per_entry_ms=0.03,
            tx_per_entry_ms=0.004,
        ),
        crash_leader_at=(10, 40),
        restart_after_ops=12,
        partition_at=20,
        partition_ms=55.0,
        partition_symmetric=False,
        reconfig_trajectory=(frozenset({1, 2, 4, 5}), frozenset({1, 2, 4})),
        request_timeout_ms=25.0,
        election_timeout_ms=150.0,
        client_request_ids=False,
        trace_capacity=1234,
    )


def advance(nid, payload, lamport=1):
    """Node ``nid``'s ``log_advance``: one term-1 entry at index 0,
    committed -- as the node's tracer streams it to the monitor."""
    return TraceEvent(
        "log_advance", float(lamport), nid, lamport,
        {
            "base": 0,
            "entries": [pack_entry(LogEntry(time=1, vrsn=1, payload=payload))],
            "commit": 1,
            "term": 1,
        },
    ).to_dict()


def monitored(bundle_dir, *events):
    """A socket-free monitor that has been handed ``(nid, event)`` pairs."""
    monitor = Monitor(MonitorConfig(port=0, conf0=CONF0, bundle_dir=bundle_dir))
    for nid, event in events:
        monitor.on_event(nid, event)
    return monitor


class TestConfigSerialization:
    def test_round_trip(self):
        config = violating_config()
        raw = nemesis_config_to_dict(config)
        json.dumps(raw)  # JSON-safe
        restored = nemesis_config_from_dict(raw)
        # bundle_dir is deliberately not serialized; everything else is.
        config.bundle_dir = None
        assert restored == config

    def test_default_config_round_trips_too(self):
        config = NemesisConfig()
        assert nemesis_config_from_dict(nemesis_config_to_dict(config)) == config

    def test_every_field_round_trips(self):
        config = every_field_set()
        for obj in (config, config.conditions, config.latency):
            for f in dataclasses.fields(obj):
                if f.name == "bundle_dir":
                    continue
                default = (f.default if f.default is not dataclasses.MISSING
                           else f.default_factory())
                assert getattr(obj, f.name) != default, f"{f.name} not set"
        raw = json.loads(json.dumps(nemesis_config_to_dict(config)))
        assert nemesis_config_from_dict(raw) == config

    def test_bundle_dir_is_never_serialized(self):
        # A replay must not write nested bundles.
        config = violating_config(bundle_dir="somewhere")
        assert nemesis_config_to_dict(config)["bundle_dir"] is None


@pytest.fixture(scope="module")
def violation(tmp_path_factory):
    bundle_dir = str(tmp_path_factory.mktemp("bundles"))
    result = run_nemesis(violating_config(bundle_dir))
    assert not result.ok  # the scenario really violates
    return bundle_dir, result


@pytest.fixture(scope="module")
def monitor_violation(tmp_path_factory):
    """Two nodes commit different entries at index 0 in term 1."""
    monitor = monitored(
        str(tmp_path_factory.mktemp("monitor")),
        (1, advance(1, "a")),
        (2, advance(2, "b")),
    )
    assert monitor.verdict is not None and monitor.verdict.bundle
    return monitor


@pytest.fixture(params=["nemesis", "monitor"])
def written(request):
    """``(kind, path)`` of a bundle one of the two checkers wrote."""
    if request.param == "nemesis":
        path = request.getfixturevalue("violation")[1].bundle_path
    else:
        path = request.getfixturevalue("monitor_violation").verdict.bundle
    return request.param, path


class TestBundleLifecycle:
    def test_failed_run_writes_a_bundle(self, violation):
        bundle_dir, result = violation
        assert result.bundle_path is not None
        assert os.listdir(bundle_dir) == ["nemesis-seed2"]
        for name in ("manifest.json", "trace.jsonl", "history.jsonl"):
            assert os.path.isfile(os.path.join(result.bundle_path, name))

    def test_bundle_contents(self, violation):
        _, result = violation
        bundle = load_bundle(result.bundle_path)
        assert isinstance(bundle, Bundle)
        assert bundle.kind == "nemesis"
        assert bundle.manifest["config"]["seed"] == 2
        assert bundle.verdict["ok"] is False
        assert len(bundle.history.operations) == 250
        assert bundle.events  # the trace is populated
        kinds = {e.kind for e in bundle.events}
        assert "partition_start" in kinds and "crash" in kinds
        # The manifest records the metrics snapshot of the failed run.
        assert bundle.manifest["metrics"]["counters"][
            "nemesis.fault_activations"
        ] > 0

    def test_either_kind_replays_to_its_recorded_verdict(self, written):
        # The acceptance criterion: same seed (or same journal) => same
        # violation, through the one replay both kinds share.
        kind, path = written
        bundle = load_bundle(path)
        assert bundle.kind == kind
        assert verdict_matches(bundle)

    def test_rerun_overwrites_not_accumulates(self, violation):
        bundle_dir, result = violation
        again = run_nemesis(violating_config(bundle_dir))
        assert again.bundle_path == result.bundle_path
        assert os.listdir(bundle_dir) == ["nemesis-seed2"]


@pytest.fixture
def runs(monkeypatch):
    """The tracer each schedule run of ``run_nemesis`` was handed."""
    tracers = []
    real = nemesis._run_schedule

    def counted(config, tracer):
        tracers.append(tracer)
        return real(config, tracer)

    monkeypatch.setattr(nemesis, "_run_schedule", counted)
    return tracers


class TestTracedReplay:
    """A run records no trace; only a failing run that writes a bundle
    is run again, traced, and the bundle is written from that run."""

    def test_a_passing_run_makes_no_tracer(self, tmp_path, monkeypatch, runs):
        made = []

        class Counted(Tracer):
            def __init__(self, *args, **kwargs):
                made.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(nemesis, "Tracer", Counted)
        result = run_nemesis(
            NemesisConfig(seed=1, ops=30, bundle_dir=str(tmp_path))
        )
        assert result.ok and result.bundle_path is None
        assert made == [] and runs == [NULL_TRACER]
        assert not hasattr(result, "tracer")

    def test_the_bundle_holds_a_traced_run_of_its_config(self, tmp_path, runs):
        config = dataclasses.replace(
            violating_config(str(tmp_path)), trace_capacity=500
        )
        result = run_nemesis(config)
        assert not result.ok
        assert len(runs) == 2 and runs[0] is NULL_TRACER
        assert isinstance(runs[1], Tracer) and runs[1].capacity == 500

        reference = Tracer(capacity=500)
        again = nemesis._run_schedule(
            dataclasses.replace(config, bundle_dir=None), reference
        )
        assert again.stats == result.stats
        with open(os.path.join(result.bundle_path, "trace.jsonl")) as handle:
            rows = [json.loads(line) for line in handle]
        assert rows == [
            json.loads(json.dumps(event.to_dict(), sort_keys=True, default=repr))
            for event in reference.events
        ]
        manifest = load_bundle(result.bundle_path).manifest
        assert manifest["trace_recorded"] == reference.recorded
        assert manifest["trace_dropped"] == reference.dropped > 0
        assert reference.recorded - reference.dropped == len(rows) == 500

    def test_a_failing_run_without_bundle_dir_runs_once(self, runs):
        result = run_nemesis(violating_config())
        assert not result.ok and result.bundle_path is None
        assert runs == [NULL_TRACER]

    def test_capacity_zero_writes_an_empty_trace_after_one_run(
        self, tmp_path, runs
    ):
        config = dataclasses.replace(
            violating_config(str(tmp_path)), trace_capacity=0
        )
        result = run_nemesis(config)
        assert runs == [NULL_TRACER]
        bundle = load_bundle(result.bundle_path)
        assert bundle.events == []
        assert bundle.manifest["trace_recorded"] == 0
        assert bundle.manifest["trace_dropped"] == 0
        assert bundle.verdict["ok"] is False
        assert len(bundle.history.operations) == 250

    def test_a_diverging_replay_raises_instead_of_writing(
        self, tmp_path, monkeypatch
    ):
        real = nemesis._run_schedule

        def perturbed(config, tracer):
            result = real(config, tracer)
            if tracer.enabled:
                result.stats.messages_sent += 1
            return result

        monkeypatch.setattr(nemesis, "_run_schedule", perturbed)
        with pytest.raises(RuntimeError, match="perturbed a seeded run"):
            run_nemesis(violating_config(str(tmp_path)))
        assert os.listdir(tmp_path) == []


class TestMonitorBundle:
    def test_verdict_names_the_offending_event(self, monitor_violation):
        verdict = monitor_violation.verdict
        assert verdict.event_index == 1
        bundle = load_bundle(verdict.bundle)
        assert bundle.history is None
        assert bundle.manifest["journal_dropped"] == 0
        offending = bundle.events[bundle.verdict["event_index"]]
        assert offending.kind == "log_advance" and offending.node == 2
        assert any("safety" in line for line in bundle.verdict["violations"])

    def test_check_replays_it(self, monitor_violation, capsys):
        assert monitor_main(["check", monitor_violation.verdict.bundle]) == 0
        assert "recorded verdict" in capsys.readouterr().out

    def test_a_truncated_journal_is_reported_not_misread(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setattr(service, "MAX_JOURNAL_EVENTS", 5)
        elections = [
            (1, {"kind": "election_start", "t_ms": float(i), "node": 1,
                 "lamport": i + 1})
            for i in range(5)
        ]
        monitor = monitored(
            str(tmp_path), *elections,
            (1, advance(1, "a", lamport=6)), (2, advance(2, "b")),
        )
        # The index counts every event received, journaled or not.
        assert monitor.verdict.event_index == 6
        assert len(monitor.journal) == 5 and monitor.journal_dropped == 2
        bundle = load_bundle(monitor.verdict.bundle)
        assert bundle.manifest["journal_dropped"] == 2
        assert bundle.verdict["event_index"] == 6
        with pytest.raises(ValueError, match="truncated"):
            replay(bundle)
        assert monitor_main(["check", monitor.verdict.bundle]) == 1
        assert "truncated" in capsys.readouterr().err


class TestTraceFile:
    @pytest.fixture(scope="class")
    def clean_result(self):
        return run_nemesis(NemesisConfig(seed=2, ops=30))

    def test_jsonl_round_trip(self, tmp_path, clean_result):
        tracer = Tracer()
        tracer.send(1.0, 1, 2, "CommitReq")
        tracer.record("leader_elected", 2.5, 2, term=3)
        path = write_bundle(str(tmp_path), clean_result, tracer)
        loaded = load_bundle(path).events
        assert loaded == tracer.snapshot()
        assert loaded[1].data == {"term": 3}

    def test_manifest_reports_trace_drops(self, tmp_path, clean_result):
        tracer = Tracer(capacity=2)
        for i in range(5):
            tracer.record("commit", float(i), 1)
        path = write_bundle(str(tmp_path), clean_result, tracer)
        bundle = load_bundle(path)
        assert bundle.manifest["trace_recorded"] == 5
        assert bundle.manifest["trace_dropped"] == 3
        assert len(bundle.events) == 2

    def test_trace_file_is_plain_event_rows(self, tmp_path, clean_result):
        # No header line: every row of trace.jsonl is one event's
        # to_dict(), readable without the loader.
        tracer = Tracer()
        tracer.record("commit", 1.0, 1, index=0)
        tracer.record("crash", 2.0, 2)
        path = write_bundle(str(tmp_path), clean_result, tracer)
        with open(os.path.join(path, "trace.jsonl")) as handle:
            rows = [json.loads(line) for line in handle]
        assert rows == [event.to_dict() for event in tracer.snapshot()]


class TestBundleEdges:
    def test_clean_run_writes_no_bundle(self, tmp_path):
        config = NemesisConfig(seed=1, ops=30, bundle_dir=str(tmp_path))
        result = run_nemesis(config)
        assert result.ok
        assert result.bundle_path is None
        assert os.listdir(tmp_path) == []

    def test_version_mismatch_is_rejected(self, tmp_path):
        config = NemesisConfig(seed=2, ops=30)
        result = run_nemesis(config)
        path = write_bundle(str(tmp_path), result)
        manifest_path = os.path.join(path, "manifest.json")
        with open(manifest_path) as handle:
            manifest = json.load(handle)
        manifest["version"] = 999
        with open(manifest_path, "w") as handle:
            json.dump(manifest, handle)
        with pytest.raises(ValueError, match="version"):
            load_bundle(path)

    def test_a_monitor_bundle_is_named_not_crashed_on(self, tmp_path):
        """One loader reads both kinds: a monitor bundle, which has no
        ``history.jsonl``, loads with its kind named."""
        event = {"kind": "log_advance", "t_ms": 1.0, "node": 1, "lamport": 1}
        verdict = {"event_index": 0, "described": "S1", "violations": ["x"]}
        path = write_monitor_bundle(
            str(tmp_path), {1, 2, 3}, {1, 2, 3}, [event], verdict, 0
        )
        assert not os.path.exists(os.path.join(path, "history.jsonl"))
        bundle = load_bundle(path)
        assert bundle.kind == "monitor" and bundle.history is None
        assert bundle.verdict == verdict
        assert bundle.events == [TraceEvent.from_dict(event)]
