"""Replayable violation bundles.

When a nemesis run fails a check -- committed prefixes disagree, the
at-most-once audit flags a double commit, or the recorded client
history is not linearizable -- the seed and an assertion message are
not enough to *explain* the failure.  A violation bundle is the
self-contained artifact that is: a directory holding

* ``manifest.json`` -- bundle version, the full serialized
  :class:`~repro.runtime.nemesis.NemesisConfig` (seed, fault schedule,
  workload mix, client discipline), both checkers' verdicts, the run
  stats, and the metrics snapshot;
* ``trace.jsonl`` -- the full event trace (one JSON object per event);
* ``history.jsonl`` -- the client history the linearizability checker
  consumed.

Everything the run did is derived deterministically from the config,
so :func:`replay_bundle` reproduces the identical run -- same seed ⇒
same violation -- and :func:`verdict_matches` checks that it did.
``examples/trace_view.py`` renders a bundle as a timeline and per-link
message-flow summary.

This module never imports the runtime at module level (the runtime
imports :mod:`repro.obs`); replay imports it lazily.
"""

from __future__ import annotations

import dataclasses
import json
import os
from dataclasses import dataclass
from typing import Dict, List

from .trace import TraceEvent, load_jsonl

#: Bumped when the on-disk layout changes; loaders reject other versions.
BUNDLE_VERSION = 1

MANIFEST_FILE = "manifest.json"
TRACE_FILE = "trace.jsonl"
HISTORY_FILE = "history.jsonl"

#: The manifest ``kind`` of the bundles this module writes; a monitor
#: bundle (:mod:`repro.monitor.bundle`) shares the layout but not the kind.
NEMESIS_BUNDLE_KIND = "nemesis-violation"


# ----------------------------------------------------------------------
# NemesisConfig <-> JSON
# ----------------------------------------------------------------------


def nemesis_config_to_dict(config) -> Dict:
    """Serialize a :class:`~repro.runtime.nemesis.NemesisConfig` to a
    JSON-safe dict (``bundle_dir`` is deliberately dropped: a replay
    must not recursively write bundles)."""
    conditions = config.conditions
    latency = config.latency
    return {
        "seed": config.seed,
        "ops": config.ops,
        "keys": config.keys,
        "initial_members": sorted(config.initial_members),
        "extra_nodes": sorted(config.extra_nodes),
        "read_fraction": config.read_fraction,
        "add_fraction": config.add_fraction,
        "delete_fraction": config.delete_fraction,
        "conditions": {
            "drop_prob": conditions.drop_prob,
            "duplicate_prob": conditions.duplicate_prob,
            "reorder_prob": conditions.reorder_prob,
            "reorder_window_ms": conditions.reorder_window_ms,
            "link_drop_prob": [
                [frm, to, prob]
                for (frm, to), prob in sorted(conditions.link_drop_prob.items())
            ],
        },
        "latency": None if latency is None else {
            "base_ms": latency.base_ms,
            "jitter": latency.jitter,
            "spike_prob": latency.spike_prob,
            "spike_scale": latency.spike_scale,
            "per_entry_ms": latency.per_entry_ms,
            "tx_per_entry_ms": latency.tx_per_entry_ms,
        },
        "crash_leader_at": list(config.crash_leader_at),
        "restart_after_ops": config.restart_after_ops,
        "partition_at": config.partition_at,
        "partition_ms": config.partition_ms,
        "partition_symmetric": config.partition_symmetric,
        "reconfig_trajectory": [
            sorted(members) for members in config.reconfig_trajectory
        ],
        "request_timeout_ms": config.request_timeout_ms,
        "election_timeout_ms": config.election_timeout_ms,
        "client_request_ids": config.client_request_ids,
        "trace_capacity": config.trace_capacity,
    }


def nemesis_config_from_dict(raw: Dict):
    """The inverse of :func:`nemesis_config_to_dict`."""
    from ..runtime.nemesis import NemesisConfig
    from ..runtime.simnet import LatencyModel, NetworkConditions

    conditions_raw = raw["conditions"]
    conditions = NetworkConditions(
        drop_prob=conditions_raw["drop_prob"],
        duplicate_prob=conditions_raw["duplicate_prob"],
        reorder_prob=conditions_raw["reorder_prob"],
        reorder_window_ms=conditions_raw["reorder_window_ms"],
        link_drop_prob={
            (frm, to): prob
            for frm, to, prob in conditions_raw["link_drop_prob"]
        },
    )
    latency_raw = raw["latency"]
    latency = None if latency_raw is None else LatencyModel(**latency_raw)
    return NemesisConfig(
        seed=raw["seed"],
        ops=raw["ops"],
        keys=raw["keys"],
        initial_members=frozenset(raw["initial_members"]),
        extra_nodes=frozenset(raw["extra_nodes"]),
        read_fraction=raw["read_fraction"],
        add_fraction=raw["add_fraction"],
        delete_fraction=raw["delete_fraction"],
        conditions=conditions,
        latency=latency,
        crash_leader_at=tuple(raw["crash_leader_at"]),
        restart_after_ops=raw["restart_after_ops"],
        partition_at=raw["partition_at"],
        partition_ms=raw["partition_ms"],
        partition_symmetric=raw["partition_symmetric"],
        reconfig_trajectory=tuple(
            frozenset(members) for members in raw["reconfig_trajectory"]
        ),
        request_timeout_ms=raw["request_timeout_ms"],
        election_timeout_ms=raw["election_timeout_ms"],
        client_request_ids=raw["client_request_ids"],
        trace_capacity=raw["trace_capacity"],
    )


# ----------------------------------------------------------------------
# History <-> JSONL
# ----------------------------------------------------------------------


def _operation_to_dict(op) -> Dict:
    return {
        "op_id": op.op_id,
        "client": op.client,
        "op": op.op,
        "key": op.key,
        "value": op.value,
        "invoked_ms": op.invoked_ms,
        "completed_ms": op.completed_ms,
        "result": op.result,
    }


def _history_from_dicts(rows: List[Dict]):
    from ..runtime.history import History, Operation

    history = History()
    for row in rows:
        history.operations.append(Operation(**row))
    return history


# ----------------------------------------------------------------------
# Write / load / replay
# ----------------------------------------------------------------------


@dataclass
class ViolationBundle:
    """An on-disk bundle loaded back into memory."""

    path: str
    manifest: Dict
    events: List[TraceEvent]
    history: object  # repro.runtime.history.History

    @property
    def seed(self) -> int:
        return self.manifest["seed"]

    @property
    def verdict(self) -> Dict:
        return self.manifest["verdict"]

    def config(self):
        """The deserialized :class:`NemesisConfig` this bundle records."""
        return nemesis_config_from_dict(self.manifest["config"])


def write_bundle(directory: str, result) -> str:
    """Persist a failed :class:`~repro.runtime.nemesis.NemesisResult`
    (its config, verdicts, stats, metrics, trace, and history) under
    ``directory``; returns the bundle path.

    The bundle name is deterministic per seed, so re-running the same
    failing seed overwrites its bundle instead of accumulating copies.
    """
    tracer = result.tracer
    path = os.path.join(directory, f"nemesis-seed{result.config.seed}")
    os.makedirs(path, exist_ok=True)
    manifest = {
        "version": BUNDLE_VERSION,
        "kind": NEMESIS_BUNDLE_KIND,
        "seed": result.config.seed,
        "config": nemesis_config_to_dict(result.config),
        "verdict": {
            "ok": result.ok,
            "safety_violations": list(result.safety_violations),
            "linearizability_ok": result.linearizability.ok,
            "linearizability": result.linearizability.describe(),
            "linearizability_failures": dict(result.linearizability.failures),
        },
        "stats": dataclasses.asdict(result.stats),
        "metrics": result.metrics or {},
        "trace_recorded": 0 if tracer is None else tracer.recorded,
        "trace_buffered": 0 if tracer is None else len(tracer.events),
    }
    with open(os.path.join(path, MANIFEST_FILE), "w") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True, default=repr)
    if tracer is not None:
        tracer.dump_jsonl(os.path.join(path, TRACE_FILE))
    else:
        open(os.path.join(path, TRACE_FILE), "w").close()
    with open(os.path.join(path, HISTORY_FILE), "w") as handle:
        for op in result.history.operations:
            handle.write(json.dumps(_operation_to_dict(op), default=repr))
            handle.write("\n")
    return path


def load_bundle(path: str) -> ViolationBundle:
    """Load a bundle directory written by :func:`write_bundle`."""
    manifest_path = os.path.join(path, MANIFEST_FILE)
    with open(manifest_path) as handle:
        manifest = json.load(handle)
    version = manifest.get("version")
    if version != BUNDLE_VERSION:
        raise ValueError(
            f"bundle {path!r} has version {version!r}, "
            f"expected {BUNDLE_VERSION}"
        )
    kind = manifest.get("kind")
    if kind != NEMESIS_BUNDLE_KIND:
        raise ValueError(
            f"bundle {path!r} is a {kind!r} bundle, not a nemesis run's; "
            "audit a monitor bundle with `python -m repro.monitor check`"
        )
    events = load_jsonl(os.path.join(path, TRACE_FILE))
    rows: List[Dict] = []
    with open(os.path.join(path, HISTORY_FILE)) as handle:
        for line in handle:
            line = line.strip()
            if line:
                rows.append(json.loads(line))
    history = _history_from_dicts(rows)
    return ViolationBundle(
        path=path, manifest=manifest, events=events, history=history
    )


def replay_bundle(bundle: "ViolationBundle | str"):
    """Re-run the exact configuration a bundle records.

    Every stochastic input is part of the config (simulator seed, fault
    seed, workload seed, client discipline), so the replay is the same
    run: same stats, same verdicts, same violation.  Returns the fresh
    :class:`~repro.runtime.nemesis.NemesisResult`.
    """
    from ..runtime.nemesis import run_nemesis

    if isinstance(bundle, str):
        bundle = load_bundle(bundle)
    config = bundle.config()
    config.bundle_dir = None  # a replay must not write nested bundles
    return run_nemesis(config)


def verdict_matches(bundle: ViolationBundle, result) -> bool:
    """Did a (re-)run reach exactly the verdict the bundle recorded?"""
    recorded = bundle.verdict
    return (
        recorded["ok"] == result.ok
        and recorded["safety_violations"] == list(result.safety_violations)
        and recorded["linearizability_ok"] == result.linearizability.ok
        and recorded["linearizability_failures"]
        == dict(result.linearizability.failures)
    )


def find_bundles(directory: str) -> List[str]:
    """Bundle paths under ``directory`` (things with a manifest.json)."""
    if not os.path.isdir(directory):
        return []
    found: List[str] = []
    for name in sorted(os.listdir(directory)):
        candidate = os.path.join(directory, name)
        if os.path.isfile(os.path.join(candidate, MANIFEST_FILE)):
            found.append(candidate)
    return found
