"""The monitor process: trace streams in, safety verdicts out.

One asyncio TCP server (the node's own :class:`~repro.net.node.Inbound`
protocol: frames handled as ``data_received`` cuts them) accepts two
kinds of connections on the same port, distinguished by their first
frame:

* **Nodes** send :class:`~repro.net.wire.MonitorHello` and then a
  stream of :class:`~repro.net.wire.TraceBatch` frames (the node side
  is fire-and-forget; nothing is ever written back).
* **Probes** (tests, :class:`~repro.net.procs.LocalCluster`, the demo)
  send :class:`~repro.net.wire.MonitorStatusRequest` and read one
  :class:`~repro.net.wire.MonitorStatusResponse` carrying the engine
  counters and any violation.

Every received event is appended to an in-memory journal (the future
bundle's trace, capped at :data:`MAX_JOURNAL_EVENTS`); ``log_advance``
events additionally feed :meth:`IncrementalTreeChecker.observe`.  On
the first violation the monitor writes a ``"monitor"`` violation
bundle (:func:`repro.obs.bundle.write_monitor_bundle`) naming the
offending event by its index among every event received, and keeps
serving status (checking stops, journaling continues), so a CI job can
poll, assert, and collect the artifact; ``python -m repro.monitor
check`` replays it offline.
"""

from __future__ import annotations

import asyncio
import logging
import socket
from dataclasses import dataclass
from typing import Dict, List, Optional

from ..core.safety import IncrementalTreeChecker
from ..net.node import Inbound, option, serve_until_signalled
from ..net.wire import (
    MonitorHello,
    MonitorStatusRequest,
    MonitorStatusResponse,
    ProtocolError,
    TraceBatch,
    decode_message,
    encode_frame,
    recv_frame,
    unpack_entry,
)
from ..obs.bundle import write_monitor_bundle

log = logging.getLogger("repro.monitor")

#: Journal cap: once this many events are journaled, later ones are not
#: (``journal_dropped`` counts them).  The engine's verdict is
#: unaffected -- it folds events as they arrive, not from the journal --
#: and a verdict reached before the cap has its whole prefix journaled.
#: One reached after it is written with ``journal_dropped`` in its
#: manifest, and replaying it reports the truncation.
MAX_JOURNAL_EVENTS = 500_000


@dataclass
class MonitorConfig:
    """Everything the monitor process can be told; the ``serve``
    sub-command's flags and the launcher's argv are derived from these
    fields (:func:`repro.net.procs.add_config_flags` / ``argv_of``)."""

    port: int = option("listen port")
    conf0: frozenset = option(
        "the cluster's initial configuration, e.g. 1,2,3 (the engine's "
        "root CCache)", flag="conf")
    host: str = option("listen address", "127.0.0.1")
    nodes: Optional[frozenset] = option(
        "all node ids that may stream (default: the initial "
        "configuration)", None)
    bundle_dir: Optional[str] = option(
        "write the violation bundle under this directory (default: no "
        "bundle)", None)


@dataclass
class _Verdict:
    """The first violation, frozen at detection time."""

    #: Counts every event received, journaled or not.
    event_index: int
    described: str
    violations: List[str]
    bundle: Optional[str] = None


class Monitor:
    """The incremental safety monitor behind one listening socket."""

    def __init__(self, config: MonitorConfig) -> None:
        self.config = config
        #: Every node id that may stream.
        self.nodes = frozenset(
            config.nodes if config.nodes is not None else config.conf0
        )
        self.engine = IncrementalTreeChecker(
            frozenset(config.conf0), nodes=self.nodes
        )
        #: Arrival-ordered journal of every received event dict.
        self.journal: List[Dict] = []
        self.journal_dropped = 0
        self.nodes_seen: set = set()
        self.verdict: Optional[_Verdict] = None
        self._tcp_server: Optional[asyncio.base_events.Server] = None
        #: Accepted connections still open.
        self._connections: set = set()
        self._stopping = asyncio.Event()

    # -- event path ----------------------------------------------------

    def on_event(self, nid: int, event: Dict) -> None:
        """Fold one arrived trace event (already a plain JSON dict)."""
        index = len(self.journal) + self.journal_dropped  # every event counts
        if len(self.journal) < MAX_JOURNAL_EVENTS:
            self.journal.append(event)
        else:
            self.journal_dropped += 1
        if event.get("kind") != "log_advance":
            return
        # The event's own "node" stamp is authoritative (and what
        # replay uses); the batch nid is only a fallback.
        report = _observe(self.engine, event.get("node", nid), event)
        if report is not None and self.verdict is None:
            verdict = {
                "event_index": index,
                "described": self.engine.violation_event,
                "violations": report.all_violations(),
            }
            self.verdict = _Verdict(**verdict)
            for line in self.verdict.violations:
                log.error("VIOLATION %s", line)
            log.error(
                "VIOLATION detected at event #%d: %s",
                index, self.verdict.described,
            )
            if self.config.bundle_dir:
                self.verdict.bundle = write_monitor_bundle(
                    self.config.bundle_dir, self.config.conf0, self.nodes,
                    self.journal, verdict, self.journal_dropped,
                )
                log.error("bundle written to %s", self.verdict.bundle)

    def status(self) -> MonitorStatusResponse:
        stats = self.engine.stats()
        verdict = self.verdict
        return MonitorStatusResponse(
            ok=verdict is None,
            events=stats["events"],
            entries=stats["entries"],
            caches=stats["caches"],
            commits=stats["commits"],
            gaps=stats["gaps"],
            nodes=tuple(sorted(self.nodes_seen)),
            violations=tuple(verdict.violations) if verdict else (),
            bundle=verdict.bundle if verdict else None,
        )

    # -- transport -----------------------------------------------------

    async def start(self) -> None:
        self._tcp_server = await asyncio.get_running_loop().create_server(
            self._accept, self.config.host, self.config.port
        )
        log.info(
            "monitor listening on %s:%d (conf0=%s)",
            self.config.host, self.config.port, sorted(self.config.conf0),
        )

    async def serve_forever(self) -> None:
        await self.start()
        await self._stopping.wait()
        await self.close()

    def stop(self) -> None:
        self._stopping.set()

    async def close(self) -> None:
        self._stopping.set()
        if self._tcp_server is not None:
            self._tcp_server.close()
            for transport in list(self._connections):
                transport.close()
            await self._tcp_server.wait_closed()

    def _accept(self) -> Inbound:
        """The protocol of one accepted connection: a node's trace
        stream or a status probe.  A bad length prefix or body, or an
        unexpected frame, drops the connection."""
        nid: Optional[int] = None

        def on_frame(payload: bytes, transport) -> None:
            nonlocal nid
            try:
                msg = decode_message(payload)
            except ProtocolError as exc:
                log.warning("dropping connection: %s", exc)
                raise
            if isinstance(msg, TraceBatch):
                self.nodes_seen.add(msg.nid)
                for event in msg.events:
                    self.on_event(msg.nid, event)
            elif isinstance(msg, MonitorHello):
                nid = msg.nid
                self.nodes_seen.add(nid)
                log.info("S%d connected", nid)
            elif isinstance(msg, MonitorStatusRequest):
                transport.write(encode_frame(self.status()))
            else:
                log.warning("unexpected %s frame", type(msg).__name__)
                raise ProtocolError(f"unexpected {type(msg).__name__}")

        def on_lost() -> None:
            if nid is not None:
                log.info("S%d disconnected", nid)

        return Inbound(self._connections, on_frame, on_lost=on_lost)


def _observe(engine: IncrementalTreeChecker, nid: int, event: Dict):
    """Feed one ``log_advance`` event dict into the engine.

    Shared by the live path and bundle replay so both fold events
    identically.  Malformed entries are a stream bug, not a safety
    violation -- count them as gaps rather than crash the monitor.
    """
    try:
        entries = [unpack_entry(raw) for raw in event.get("entries", [])]
        anchor_raw = event.get("anchor")
        anchor = unpack_entry(anchor_raw) if anchor_raw is not None else None
        base = event["base"]
        commit_len = event["commit"]
    except (ProtocolError, KeyError, TypeError):
        engine.gaps += 1
        return None
    return engine.observe(
        nid, base, entries, commit_len, anchor_entry=anchor
    )


# ----------------------------------------------------------------------
# Blocking status probe (for tests, procs, the demo)
# ----------------------------------------------------------------------


def monitor_status(
    host: str, port: int, timeout_s: float = 5.0
) -> Optional[MonitorStatusResponse]:
    """One blocking status round-trip; None if the monitor is down."""
    try:
        with socket.create_connection((host, port), timeout=timeout_s) as sock:
            sock.settimeout(timeout_s)
            sock.sendall(encode_frame(MonitorStatusRequest()))
            reply = decode_message(recv_frame(sock))
    except (OSError, ProtocolError):
        return None
    return reply if isinstance(reply, MonitorStatusResponse) else None


def run_monitor(config: MonitorConfig) -> Monitor:
    """Run a monitor until SIGTERM/SIGINT; returns it (for its final
    verdict) after shutdown."""
    monitor = Monitor(config)
    asyncio.run(serve_until_signalled(monitor))
    return monitor
