"""Spawn, health-check, and tear down a localhost cluster.

Each node is a real OS process (``python -m repro.net node ...``), so
a "leader kill" here is ``SIGKILL`` delivered to a live process, not a
simulator flag.  Two flakiness sources ISSUE 4 calls out are handled
centrally:

* **No hardcoded ports**: :func:`allocate_ports` binds the requested
  number of sockets to port 0 *simultaneously* (so the OS hands out
  distinct ports) and releases them just before spawning.  A node that
  still loses the race fails to bind, which health-checking surfaces
  within the startup deadline instead of as a hang.
* **No orphaned children**: :class:`LocalCluster` is a context manager
  whose exit path terminates every live child, waits with a deadline,
  and escalates to ``SIGKILL`` -- including when the owning test is
  failing, so no node processes leak across tests.

A child's command line is not written out here.  What a process can be
told is its config dataclass (:class:`~repro.net.node.NodeConfig`,
:class:`~repro.monitor.service.MonitorConfig`); :func:`add_config_flags`
turns its fields into the sub-command's flags, :func:`config_from`
turns the parsed flags back into the dataclass, and :func:`argv_of` is
the inverse the launcher uses -- so an option is stated once, as a
field.  :func:`poll` is the one deadline-aware wait the launchers and
their callers share.
"""

from __future__ import annotations

import dataclasses
import logging
import os
import signal
import socket
import subprocess
import sys
import tempfile
import time
import typing
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Tuple, TypeVar

from .client import NetClient
from .node import NodeConfig

T = TypeVar("T")


def poll(
    probe: Callable[[], Optional[T]], timeout_s: float,
    interval_s: float = 0.05,
) -> Optional[T]:
    """Call ``probe`` every ``interval_s`` until it answers something
    other than ``None``; ``None`` once ``timeout_s`` has run out.  The
    probe always runs at least once, so ``timeout_s=0`` is one sample."""
    deadline = time.monotonic() + timeout_s
    while True:
        result = probe()
        if result is not None or time.monotonic() >= deadline:
            return result
        time.sleep(interval_s)


# ----------------------------------------------------------------------
# A config dataclass is a command line
# ----------------------------------------------------------------------


def parse_conf(text: str) -> frozenset:
    """``"1,2,3"`` -> a set of node ids."""
    return frozenset(int(part) for part in text.split(",") if part.strip())


def _parse_addr(text: str) -> Tuple[str, int]:
    host, _, port = text.rpartition(":")
    return host, int(port)


def parse_peers(text: str) -> Dict[int, Tuple[str, int]]:
    """``"1=127.0.0.1:7001,2=127.0.0.1:7002"`` -> address map."""
    pairs = (part.partition("=") for part in text.split(",") if part.strip())
    return {int(nid): _parse_addr(addr.strip()) for nid, _, addr in pairs}


def _format_addr(addr: Tuple[str, int]) -> str:
    return f"{addr[0]}:{addr[1]}"


def _escape_text(text: str) -> str:
    """``text`` as a flag value argparse hands back unchanged.

    argparse drops a bare ``"--"`` even from ``--flag=--``, so a value
    of backslashes then ``"--"`` gains one more backslash;
    :func:`_unescape_text` takes it off.  Every other value is written
    as is."""
    return "\\" + text if text.lstrip("\\") == "--" else text


def _unescape_text(text: str) -> str:
    if text.startswith("\\") and text.lstrip("\\") == "--":
        return text[1:]
    return text


#: How each field type is written on a command line: annotation ->
#: (parse, format).  ``Optional[X]`` is written like ``X``; ``None`` is
#: the flag's absence.
_TEXT = {
    int: (int, str),
    float: (float, repr),
    str: (_unescape_text, _escape_text),
    frozenset: (parse_conf, lambda v: ",".join(map(str, sorted(v)))),
    Tuple[str, int]: (_parse_addr, _format_addr),
    Dict[int, Tuple[str, int]]: (parse_peers, lambda v: ",".join(
        f"{nid}={_format_addr(addr)}" for nid, addr in sorted(v.items())
    )),
}


def _flags(cls) -> List[Tuple[dataclasses.Field, str, Callable, Callable]]:
    """``(field, flag, parse, format)`` for every field of a config
    dataclass; a field of a type :data:`_TEXT` cannot write raises
    ``KeyError`` here, i.e. when the parser is built."""
    hints = typing.get_type_hints(cls)
    out = []
    for f in dataclasses.fields(cls):
        hint = hints[f.name]
        if typing.get_origin(hint) is typing.Union:  # Optional[X]
            hint, = (a for a in typing.get_args(hint) if a is not type(None))
        flag = "--" + f.metadata.get("flag", f.name).replace("_", "-")
        out.append((f, flag, *_TEXT[hint]))
    return out


def add_config_flags(parser, cls) -> None:
    """One flag per field of the config dataclass ``cls``: spelled like
    the field, typed like it, required iff it has no default, help text
    from the field's metadata."""
    for f, flag, parse, _ in _flags(cls):
        required = f.default is dataclasses.MISSING
        parser.add_argument(
            flag, dest=f.name, type=parse, required=required,
            default=None if required else f.default,
            choices=f.metadata.get("choices"), help=f.metadata.get("help"),
        )


def log_to_stdout(verbose: bool) -> None:
    """Where a served process logs: its stdout, which the launcher
    points at the process's log file."""
    logging.basicConfig(
        level=logging.DEBUG if verbose else logging.INFO,
        format="%(asctime)s %(name)s %(levelname)s %(message)s",
        stream=sys.stdout,
    )


def config_from(cls, args):
    """The ``cls`` instance a parsed command line (built by
    :func:`add_config_flags`) describes: the inverse of :func:`argv_of`."""
    return cls(**{f.name: getattr(args, f.name)
                  for f in dataclasses.fields(cls)})


def argv_of(config) -> List[str]:
    """The flags that make ``config``'s own sub-command rebuild it."""
    return [
        f"{flag}={fmt(getattr(config, f.name))}"
        for f, flag, _, fmt in _flags(type(config))
        if getattr(config, f.name) is not None
    ]


def allocate_ports(n: int, host: str = "127.0.0.1") -> List[int]:
    """Reserve ``n`` distinct ephemeral ports.

    All sockets are held open while the OS assigns, so no two calls
    inside one allocation can collide; the small close-to-bind window
    before the node process binds is the standard localhost trade-off,
    and bind failures surface via the health-check deadline.
    """
    socks = []
    try:
        for _ in range(n):
            sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            sock.bind((host, 0))
            socks.append(sock)
        return [sock.getsockname()[1] for sock in socks]
    finally:
        for sock in socks:
            sock.close()


def _repro_pythonpath() -> str:
    """A PYTHONPATH that lets child processes import ``repro``,
    regardless of how the parent found it."""
    import repro

    package_dir = os.path.dirname(os.path.dirname(os.path.abspath(
        repro.__file__
    )))
    existing = os.environ.get("PYTHONPATH", "")
    if existing:
        return os.pathsep.join([package_dir, existing])
    return package_dir


@dataclass
class NodeHandle:
    """One spawned node process."""

    nid: int
    host: str
    port: int
    log_path: str
    process: Optional[subprocess.Popen] = None

    @property
    def alive(self) -> bool:
        return self.process is not None and self.process.poll() is None

    def log_text(self) -> str:
        try:
            with open(self.log_path) as handle:
                return handle.read()
        except OSError:
            return ""


class LocalCluster:
    """A cluster of localhost node subprocesses.

    ``conf0`` defaults to all of ``nids``; pass a smaller initial
    configuration to spawn standby processes that join later via
    reconfiguration (the Fig. 16 trajectory needs live-but-unconfigured
    nodes).  ``seed`` seeds the whole cluster (each node derives its
    own from it), ``monitor=True`` spawns a ``repro.monitor`` process
    (its bundles go to ``bundle_dir``, default the log dir) and points
    every node at it.

    Everything else a node can be told is not restated here:
    ``**node_options`` are :class:`~repro.net.node.NodeConfig` fields
    by name (``snapshot_threshold=16``, ``heartbeat_ms=10.0``,
    ``spec="buggy"``, ...), checked against it and handed to every
    child through :func:`argv_of`.
    """

    #: The ``NodeConfig`` fields the cluster works out per node.
    _PER_NODE = frozenset(
        ("nid", "host", "port", "peers", "conf0", "seed", "monitor")
    )

    def __init__(
        self,
        nids: Iterable[int] = (1, 2, 3),
        conf0: Optional[Iterable[int]] = None,
        host: str = "127.0.0.1",
        seed: int = 0,
        log_dir: Optional[str] = None,
        startup_timeout_s: float = 10.0,
        monitor: bool = False,
        bundle_dir: Optional[str] = None,
        **node_options,
    ) -> None:
        valid = {f.name for f in dataclasses.fields(NodeConfig)}
        valid -= self._PER_NODE
        if not valid.issuperset(node_options):
            raise TypeError(
                f"unknown node option(s) {sorted(set(node_options) - valid)}; "
                f"a node can be told {sorted(valid)}"
            )
        self.nids = tuple(sorted(nids))
        self.conf0 = frozenset(self.nids if conf0 is None else conf0)
        if not self.conf0 <= set(self.nids):
            raise ValueError("conf0 must be a subset of the spawned nodes")
        self.host = host
        self.seed = seed
        self.startup_timeout_s = startup_timeout_s
        self.node_options = node_options
        self._tempdir: Optional[tempfile.TemporaryDirectory] = None
        if log_dir is None:
            self._tempdir = tempfile.TemporaryDirectory(prefix="repro-net-")
            log_dir = self._tempdir.name
        else:
            os.makedirs(log_dir, exist_ok=True)
        self.log_dir = log_dir
        self.bundle_dir = bundle_dir if bundle_dir is not None else log_dir
        ports = allocate_ports(len(self.nids) + (1 if monitor else 0), host)
        self.handles: Dict[int, NodeHandle] = {
            nid: NodeHandle(
                nid=nid, host=host, port=port,
                log_path=os.path.join(log_dir, f"node-{nid}.log"),
            )
            for nid, port in zip(self.nids, ports)
        }
        self.monitor_handle: Optional[NodeHandle] = None
        if monitor:
            self.monitor_handle = NodeHandle(
                nid=0, host=host, port=ports[-1],
                log_path=os.path.join(log_dir, "monitor.log"),
            )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @property
    def addresses(self) -> Dict[int, Tuple[str, int]]:
        return {
            nid: (handle.host, handle.port)
            for nid, handle in self.handles.items()
        }

    def node_config(self, nid: int) -> NodeConfig:
        """What node ``nid`` of this cluster is told."""
        handle = self.handles[nid]
        monitor = self.monitor_handle
        return NodeConfig(
            nid=nid, host=handle.host, port=handle.port,
            peers=self.addresses, conf0=self.conf0,
            seed=self.seed * 1000 + nid,
            monitor=(monitor.host, monitor.port) if monitor else None,
            **self.node_options,
        )

    @staticmethod
    def _launch(handle: NodeHandle, module: str, command: str, config) -> None:
        """Start ``python -m module command <config's flags>`` as the
        process behind ``handle`` (a no-op while it is alive)."""
        if handle.alive:
            return
        with open(handle.log_path, "ab") as log_file:
            # The child holds its own descriptor to the log.
            handle.process = subprocess.Popen(
                [sys.executable, "-m", module, command, *argv_of(config)],
                stdout=log_file,
                stderr=subprocess.STDOUT,
                env={**os.environ, "PYTHONPATH": _repro_pythonpath()},
                start_new_session=True,  # never die with the parent's tty
            )

    def spawn(self, nid: int) -> NodeHandle:
        handle = self.handles[nid]
        self._launch(handle, "repro.net", "node", self.node_config(nid))
        return handle

    def spawn_monitor(self) -> Optional[NodeHandle]:
        handle = self.monitor_handle
        if handle is not None:
            from ..monitor.service import MonitorConfig

            self._launch(handle, "repro.monitor", "serve", MonitorConfig(
                host=handle.host, port=handle.port, conf0=self.conf0,
                nodes=frozenset(self.nids), bundle_dir=self.bundle_dir,
            ))
        return handle

    def start(self) -> "LocalCluster":
        # The monitor comes up first so no node burns its startup
        # window in export-reconnect backoff.
        self.spawn_monitor()
        for nid in self.nids:
            self.spawn(nid)
        self.wait_healthy()
        return self

    def monitor_status(self, timeout_s: float = 5.0):
        """The monitor's live verdict (a
        :class:`~repro.net.wire.MonitorStatusResponse`), or ``None``
        when no monitor is attached or it is unreachable."""
        if self.monitor_handle is None:
            return None
        from ..monitor.service import monitor_status

        return monitor_status(
            self.monitor_handle.host, self.monitor_handle.port,
            timeout_s=timeout_s,
        )

    def wait_healthy(self, timeout_s: Optional[float] = None) -> None:
        """Block until every spawned node answers a status probe and the
        monitor (if any) has heard from every live one; ``timeout_s``
        defaults to the cluster's ``startup_timeout_s``.  A node that
        came up before the monitor listened sits in its export link's
        reconnect backoff (up to 2 s) before the monitor sees it."""
        if timeout_s is None:
            timeout_s = self.startup_timeout_s
        pending = set(self.nids)

        def sweep() -> Optional[bool]:
            for nid in sorted(pending):
                handle = self.handles[nid]
                if handle.process is not None and not handle.alive:
                    raise RuntimeError(
                        f"node {nid} exited during startup "
                        f"(rc={handle.process.returncode}):\n"
                        f"{handle.log_text()[-2000:]}"
                    )
                if probe.status(nid) is not None:
                    pending.discard(nid)
            return None if pending or not self._monitor_heard_all() else True

        with self.client(client_id="health-check") as probe:
            healthy = poll(sweep, timeout_s)
        if pending:
            raise RuntimeError(
                f"nodes {sorted(pending)} not healthy within deadline"
            )
        if healthy is None:
            raise RuntimeError(
                "the monitor has not heard from every node within deadline"
            )

    def _monitor_heard_all(self) -> bool:
        """No monitor, or one whose status names every live node."""
        if self.monitor_handle is None:
            return True
        status = self.monitor_status(timeout_s=0.5)
        live = {nid for nid, handle in self.handles.items() if handle.alive}
        return status is not None and live <= set(status.nodes)

    def client(self, **kwargs) -> NetClient:
        return NetClient(self.addresses, **kwargs)

    # ------------------------------------------------------------------
    # Faults
    # ------------------------------------------------------------------

    def kill(self, nid: int) -> None:
        """SIGKILL: the real-world analog of the simulator's crash()."""
        handle = self.handles[nid]
        if handle.alive:
            handle.process.kill()
            handle.process.wait(timeout=5)

    def wait_for_leader(
        self, timeout_s: float = 10.0, exclude: Iterable[int] = ()
    ) -> int:
        """Poll until some live node reports itself leader."""
        excluded = set(exclude)

        def leader() -> Optional[int]:
            nid = probe.find_leader()
            return nid if nid not in excluded else None

        with self.client(client_id="leader-probe") as probe:
            found = poll(leader, timeout_s)
        if found is None:
            raise RuntimeError("no leader emerged within deadline")
        return found

    # ------------------------------------------------------------------
    # Teardown (reaps children even on test failure)
    # ------------------------------------------------------------------

    @staticmethod
    def _reap(handles: Iterable[NodeHandle], grace_s: float) -> None:
        """SIGTERM every child behind ``handles``, wait for all of them
        until one shared deadline, then escalate to SIGKILL."""
        handles = [h for h in handles if h.process is not None]
        for handle in handles:
            if handle.alive:
                try:
                    handle.process.terminate()
                except ProcessLookupError:  # pragma: no cover - exit race
                    pass
        deadline = time.monotonic() + grace_s
        for handle in handles:
            remaining = max(0.05, deadline - time.monotonic())
            try:
                handle.process.wait(timeout=remaining)
            except subprocess.TimeoutExpired:
                try:
                    os.killpg(
                        os.getpgid(handle.process.pid), signal.SIGKILL
                    )
                except (ProcessLookupError, PermissionError):
                    handle.process.kill()
                handle.process.wait(timeout=5)

    def shutdown(self, grace_s: float = 5.0) -> Dict[int, Optional[int]]:
        """Terminate every live child; escalate to SIGKILL after
        ``grace_s``.  Returns exit codes.  Idempotent."""
        self._reap(self.handles.values(), grace_s)
        # The monitor goes last so every node's final batches land.
        if self.monitor_handle is not None:
            self._reap([self.monitor_handle], grace_s)
        return {
            nid: (handle.process.returncode if handle.process else None)
            for nid, handle in self.handles.items()
        }

    def logs(self) -> Dict[int, str]:
        out = {
            nid: handle.log_text() for nid, handle in self.handles.items()
        }
        if self.monitor_handle is not None:
            out[0] = self.monitor_handle.log_text()
        return out

    def __enter__(self) -> "LocalCluster":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.shutdown()
        if self._tempdir is not None and exc[0] is None:
            self._tempdir.cleanup()
