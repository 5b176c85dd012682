"""Replayable violation bundles: one format, one loader, one replay.

The runtime checkers stand in for a proof where no proof runs: a
nemesis run's safety and linearizability checks
(:mod:`repro.runtime.nemesis`) and the live monitor's Appendix-B engine
(:mod:`repro.monitor`).  When either finds a violation it writes a
*bundle*, the artifact that makes the failure auditable offline -- a
directory holding

* ``manifest.json`` -- ``version``, ``kind`` (``"nemesis"`` or
  ``"monitor"``), the ``verdict``, and what that kind needs to
  re-derive it: a nemesis run's full serialized
  :class:`~repro.runtime.nemesis.NemesisConfig` (with its stats,
  metrics snapshot and trace counters), or a monitor's initial
  configuration, node set and ``journal_dropped``;
* ``trace.jsonl`` -- one :meth:`TraceEvent.to_dict` row per event: the
  trace ring of a nemesis run's traced replay (the run itself records
  no trace; :func:`~repro.runtime.nemesis.run_nemesis` re-runs a
  failing seed with the tracer on to fill it), or every event the
  monitor journaled;
* ``history.jsonl`` -- a nemesis run's client history, the input of its
  linearizability check.

:func:`load_bundle` reads either kind and :func:`replay` re-derives the
verdict in the exact JSON form the manifest stores.  A nemesis bundle
re-runs its config: every stochastic input is part of it, so same seed
⇒ same violation.  A monitor bundle re-folds its ``log_advance`` events
through a fresh :class:`~repro.core.safety.IncrementalTreeChecker`, so
the bundle alone decides whether the monitor cried wolf.
:func:`verdict_matches` is then one comparison for both kinds.
``examples/trace_view.py`` renders a bundle; ``python -m repro.monitor
check`` audits one.

This module never imports the runtime or the monitor at module level
(both import :mod:`repro.obs`); replay imports them lazily.
"""

from __future__ import annotations

import dataclasses
import json
import os
import typing
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

from .trace import TraceEvent

#: Bumped when the on-disk layout changes; the loader rejects other versions.
BUNDLE_VERSION = 2

MANIFEST_FILE = "manifest.json"
TRACE_FILE = "trace.jsonl"
HISTORY_FILE = "history.jsonl"


def _json_form(value):
    """``value`` exactly as a JSON round trip returns it."""
    return json.loads(json.dumps(value, sort_keys=True, default=repr))


def _write_jsonl(path: str, rows: Iterable[Dict]) -> None:
    with open(path, "w") as handle:
        for row in rows:
            handle.write(json.dumps(row, sort_keys=True, default=repr) + "\n")


def _read_jsonl(path: str) -> List[Dict]:
    with open(path) as handle:
        return [json.loads(line) for line in handle if line.strip()]


# ----------------------------------------------------------------------
# NemesisConfig <-> JSON, derived from the dataclass fields
# ----------------------------------------------------------------------


def _to_json(value):
    """A config value as JSON: dataclasses field by field, sets sorted,
    mappings as ``[key, value]`` pairs (their keys may be tuples)."""
    if dataclasses.is_dataclass(value):
        return {f.name: _to_json(getattr(value, f.name))
                for f in dataclasses.fields(value)}
    if isinstance(value, dict):
        return [[_to_json(k), _to_json(v)] for k, v in sorted(value.items())]
    if isinstance(value, frozenset):
        return sorted(value)
    if isinstance(value, tuple):
        return [_to_json(item) for item in value]
    return value


def _from_json(hint, raw):
    """The inverse of :func:`_to_json`, read off the annotation ``hint``."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if raw is None:
        return None
    if origin is typing.Union:  # Optional[X]
        return _from_json(args[0], raw)
    if dataclasses.is_dataclass(hint):
        hints = typing.get_type_hints(hint)
        return hint(**{name: _from_json(hints[name], value)
                       for name, value in raw.items()})
    if hint is frozenset:
        return frozenset(raw)
    if origin is tuple:
        items = (args[0],) * len(raw) if args[-1] is Ellipsis else args
        return tuple(_from_json(item, value) for item, value in zip(items, raw))
    if origin is dict:
        return {_from_json(args[0], k): _from_json(args[1], v) for k, v in raw}
    return raw


def nemesis_config_to_dict(config) -> Dict:
    """A :class:`~repro.runtime.nemesis.NemesisConfig` as JSON, every
    field included; ``bundle_dir`` is written as ``None`` so a replay
    never writes nested bundles."""
    return _to_json(dataclasses.replace(config, bundle_dir=None))


def nemesis_config_from_dict(raw: Dict):
    """The inverse of :func:`nemesis_config_to_dict`."""
    from ..runtime.nemesis import NemesisConfig

    return _from_json(NemesisConfig, raw)


# ----------------------------------------------------------------------
# Write / load / replay
# ----------------------------------------------------------------------


@dataclass
class Bundle:
    """A bundle directory of either kind, loaded back into memory."""

    path: str
    manifest: Dict
    events: List[TraceEvent]
    #: The client history (a :class:`repro.runtime.history.History`) of
    #: a nemesis bundle; ``None`` for a monitor bundle.
    history: Optional[object]

    @property
    def kind(self) -> str:
        return self.manifest["kind"]

    @property
    def verdict(self) -> Dict:
        return self.manifest["verdict"]


def _write(path: str, manifest: Dict, events: Iterable[Dict],
           history: Optional[Iterable[Dict]] = None) -> str:
    os.makedirs(path, exist_ok=True)
    with open(os.path.join(path, MANIFEST_FILE), "w") as handle:
        json.dump({"version": BUNDLE_VERSION, **manifest}, handle,
                  indent=2, sort_keys=True, default=repr)
    _write_jsonl(os.path.join(path, TRACE_FILE), events)
    if history is not None:
        _write_jsonl(os.path.join(path, HISTORY_FILE), history)
    return path


def _nemesis_verdict(result) -> Dict:
    return {
        "ok": result.ok,
        "safety_violations": list(result.safety_violations),
        "linearizability_ok": result.linearizability.ok,
        "linearizability": result.linearizability.describe(),
        "linearizability_failures": dict(result.linearizability.failures),
    }


def write_bundle(directory: str, result, tracer=None) -> str:
    """Persist a failed :class:`~repro.runtime.nemesis.NemesisResult`
    (its config, verdicts, stats, metrics and history) and the
    :class:`~repro.obs.trace.Tracer` that recorded its run (``None``:
    an empty trace) under ``directory``; returns the bundle path.

    The bundle name is deterministic per seed, so re-running the same
    failing seed overwrites its bundle instead of accumulating copies.
    """
    return _write(
        os.path.join(directory, f"nemesis-seed{result.config.seed}"),
        {
            "kind": "nemesis",
            "config": nemesis_config_to_dict(result.config),
            "verdict": _nemesis_verdict(result),
            "stats": dataclasses.asdict(result.stats),
            "metrics": result.metrics or {},
            "trace_recorded": 0 if tracer is None else tracer.recorded,
            "trace_dropped": 0 if tracer is None else tracer.dropped,
        },
        [] if tracer is None else (event.to_dict() for event in tracer.events),
        (vars(op) for op in result.history.operations),
    )


def write_monitor_bundle(directory: str, conf0, nodes, journal: List[Dict],
                         verdict: Dict, journal_dropped: int) -> str:
    """Persist a monitor's journal (event dicts in arrival order) and
    its first verdict (``event_index``, ``described``, ``violations``)
    under ``directory``; returns the bundle path (one per monitor run).
    ``journal_dropped`` > 0 marks a journal that hit its cap, which
    :func:`replay` refuses rather than misreport."""
    return _write(
        os.path.join(directory, "monitor-violation"),
        {
            "kind": "monitor",
            "conf0": sorted(conf0),
            "nodes": sorted(nodes),
            "verdict": verdict,
            "journal_dropped": journal_dropped,
        },
        journal,
    )


def load_bundle(path: str) -> Bundle:
    """Load a bundle directory of either kind."""
    with open(os.path.join(path, MANIFEST_FILE)) as handle:
        manifest = json.load(handle)
    version = manifest.get("version")
    if version != BUNDLE_VERSION:
        raise ValueError(
            f"bundle {path!r} has version {version!r}, "
            f"expected {BUNDLE_VERSION}"
        )
    events = [TraceEvent.from_dict(row)
              for row in _read_jsonl(os.path.join(path, TRACE_FILE))]
    history = None
    if manifest["kind"] == "nemesis":
        from ..runtime.history import History, Operation

        history = History()
        history.operations.extend(
            Operation(**row)
            for row in _read_jsonl(os.path.join(path, HISTORY_FILE))
        )
    return Bundle(path, manifest, events, history)


def _refold(bundle: Bundle) -> Optional[Dict]:
    """A monitor bundle's verdict, re-derived by a fresh engine."""
    from ..core.safety import IncrementalTreeChecker
    from ..monitor.service import _observe  # the live path's event fold

    dropped = bundle.manifest["journal_dropped"]
    if dropped:
        raise ValueError(
            f"bundle {bundle.path!r} is truncated: the monitor's journal "
            f"dropped {dropped} events, so its verdict cannot be replayed"
        )
    engine = IncrementalTreeChecker(
        frozenset(bundle.manifest["conf0"]),
        nodes=frozenset(bundle.manifest["nodes"]),
    )
    for index, event in enumerate(bundle.events):
        if event.kind != "log_advance":
            continue
        report = _observe(engine, event.node, event.data)
        if report is not None:
            return {
                "event_index": index,
                "described": engine.violation_event,
                "violations": report.all_violations(),
            }
    return None


def replay(bundle: Bundle) -> Optional[Dict]:
    """Re-derive a bundle's verdict in the JSON form its manifest stores;
    ``None`` when the replay finds no violation.  Raises ``ValueError``
    for a monitor bundle whose journal was truncated."""
    if bundle.kind != "nemesis":
        return _json_form(_refold(bundle))
    from ..runtime.nemesis import run_nemesis

    result = run_nemesis(nemesis_config_from_dict(bundle.manifest["config"]))
    return None if result.ok else _json_form(_nemesis_verdict(result))


def verdict_matches(bundle: Bundle) -> bool:
    """Does replaying the bundle reach exactly the verdict it records?"""
    return replay(bundle) == bundle.verdict
