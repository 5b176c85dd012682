"""Violation bundles: write on failure, load, replay to the same verdict."""

import json
import os

import pytest

from repro.obs import (
    ViolationBundle,
    find_bundles,
    load_bundle,
    nemesis_config_from_dict,
    nemesis_config_to_dict,
    replay_bundle,
    verdict_matches,
    write_bundle,
)
from repro.runtime import NemesisConfig, NetworkConditions, run_nemesis


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


class TestBundleLifecycle:
    @pytest.fixture(scope="class")
    def violation(self, tmp_path_factory):
        bundle_dir = str(tmp_path_factory.mktemp("bundles"))
        result = run_nemesis(violating_config(bundle_dir))
        assert not result.ok  # the scenario really violates
        return bundle_dir, result

    def test_failed_run_writes_a_bundle(self, violation):
        bundle_dir, result = violation
        assert result.bundle_path is not None
        assert find_bundles(bundle_dir) == [result.bundle_path]
        for name in ("manifest.json", "trace.jsonl", "history.jsonl"):
            assert os.path.isfile(os.path.join(result.bundle_path, name))

    def test_bundle_contents(self, violation):
        _, result = violation
        bundle = load_bundle(result.bundle_path)
        assert isinstance(bundle, ViolationBundle)
        assert bundle.seed == 2
        assert bundle.verdict["ok"] is False
        assert len(bundle.history.operations) == 250
        assert bundle.events  # the trace is populated
        kinds = {e.kind for e in bundle.events}
        assert "partition_start" in kinds and "crash" in kinds
        # The manifest records the metrics snapshot of the failed run.
        assert bundle.manifest["metrics"]["counters"][
            "nemesis.fault_activations"
        ] > 0

    def test_replay_reproduces_the_verdict(self, violation):
        # The acceptance criterion: same seed => same violation.
        _, result = violation
        bundle = load_bundle(result.bundle_path)
        replayed = replay_bundle(bundle)
        assert not replayed.ok
        assert verdict_matches(bundle, replayed)
        assert replayed.bundle_path is None  # replays never nest bundles

    def test_replay_accepts_a_path(self, violation):
        _, result = violation
        replayed = replay_bundle(result.bundle_path)
        assert verdict_matches(load_bundle(result.bundle_path), replayed)

    def test_rerun_overwrites_not_accumulates(self, violation):
        bundle_dir, result = violation
        again = run_nemesis(violating_config(bundle_dir))
        assert again.bundle_path == result.bundle_path
        assert len(find_bundles(bundle_dir)) == 1


class TestBundleEdges:
    def test_clean_run_writes_no_bundle(self, tmp_path):
        config = NemesisConfig(seed=1, ops=30, bundle_dir=str(tmp_path))
        result = run_nemesis(config)
        assert result.ok
        assert result.bundle_path is None
        assert find_bundles(str(tmp_path)) == []

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

    def test_find_bundles_on_missing_directory(self, tmp_path):
        assert find_bundles(str(tmp_path / "nope")) == []

    def test_a_monitor_bundle_is_named_not_crashed_on(self, tmp_path):
        """``find_bundles`` lists monitor bundles too (same manifest,
        same version); loading one used to die on its missing
        ``history.jsonl`` instead of saying what it is."""
        from repro.monitor.bundle import write_monitor_bundle

        event = {"kind": "log_advance", "t_ms": 1.0, "node": 1, "lamport": 1}
        path = write_monitor_bundle(
            str(tmp_path), {1, 2, 3}, {1, 2, 3}, [event], 0, "S1", ["x"]
        )
        assert find_bundles(str(tmp_path)) == [path]
        with pytest.raises(ValueError, match="'monitor'.*repro.monitor check"):
            load_bundle(path)
