"""The transport-agnostic election/heartbeat driver.

The liveness policy of a Raft node -- randomized election timeouts,
epoch-guarded timer re-arming, term-scoped heartbeat chains -- is pure
scheduling logic: it reads and mutates one
:class:`~repro.raft.server.Server`, draws timeouts from an injected
RNG, and emits messages through an injected send callback.  Nothing in
it cares whether "schedule" means a discrete-event simulator heap or an
asyncio event loop, so the policy lives here, factored out of
:class:`~repro.runtime.autonomous.AutonomousCluster`, and is consumed
by exactly two transports:

* the simulator (:mod:`repro.runtime.autonomous`), which passes
  ``Simulator.schedule`` and ``Simulator.rng`` -- seeded runs are
  bit-identical to the pre-extraction implementation (asserted by
  ``tests/runtime/test_driver_equivalence.py``);
* the real asyncio TCP runtime (:mod:`repro.net.node`), which passes
  ``loop.call_later`` and a per-node seeded RNG.

Both runtimes therefore exercise *identical* election logic: a timer
that fires while the node is a non-leader member campaigns via
``Server.start_election`` and re-arms; accepted leader/candidate
traffic pushes the timer out; winning starts a heartbeat chain that
broadcasts ``Server.broadcast_commit`` every ``heartbeat_ms`` until
the node is dethroned or deactivated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from ..core.config import ReconfigScheme
from ..raft.messages import CommitReq, ElectReq, Msg
from ..raft.server import LEADER, Server


@dataclass
class TimingConfig:
    """The partial-synchrony knobs.

    Units are milliseconds of whatever clock the transport schedules
    against: simulated ms on the discrete-event simulator, wall-clock
    ms on the asyncio runtime.
    """

    #: Leader heartbeat period.
    heartbeat_ms: float = 5.0
    #: Election timeout window [min, max); each arming draws uniformly.
    election_timeout_min_ms: float = 15.0
    election_timeout_max_ms: float = 30.0


class ElectionDriver:
    """Election-timeout and heartbeat policy for one server.

    Parameters
    ----------
    server, scheme:
        The spec replica being driven and its reconfiguration scheme.
    timing:
        The :class:`TimingConfig` knobs.
    rng:
        Any object with ``random() -> float in [0, 1)``; timeout draws
        come from here and from nowhere else, so sharing one seeded RNG
        across drivers makes a whole cluster's timing reproducible.
    schedule:
        ``schedule(delay_ms, fn)`` -- run ``fn`` after ``delay_ms``.
    send_all:
        ``send_all(msgs)`` -- hand a batch of emitted messages to the
        transport.
    is_active:
        Optional predicate; a crashed/stopped node's timers fire but do
        nothing (mirroring fail-stop: the policy stays silent without
        the transport having to cancel outstanding timers).
    on_leader:
        Optional ``on_leader(term)`` hook, called once per promotion,
        before the first heartbeat of that term is sent.
    """

    def __init__(
        self,
        server: Server,
        scheme: ReconfigScheme,
        timing: TimingConfig,
        rng,
        schedule: Callable[[float, Callable[[], None]], None],
        send_all: Callable[[List[Msg]], None],
        is_active: Optional[Callable[[], bool]] = None,
        on_leader: Optional[Callable[[int], None]] = None,
    ) -> None:
        self.server = server
        self.scheme = scheme
        self.timing = timing
        self.rng = rng
        self._schedule = schedule
        self._send_all = send_all
        self._is_active = is_active if is_active is not None else lambda: True
        self._on_leader = on_leader if on_leader is not None else lambda term: None
        #: Monotone timer epoch: re-arming bumps it so a stale timer
        #: event becomes a no-op (timers are never cancelled).
        self.epoch = 0

    # ------------------------------------------------------------------
    # Election timer
    # ------------------------------------------------------------------

    def draw_timeout(self) -> float:
        lo = self.timing.election_timeout_min_ms
        hi = self.timing.election_timeout_max_ms
        return lo + self.rng.random() * (hi - lo)

    def arm(self) -> None:
        """(Re-)arm the election timer with a fresh randomized timeout."""
        self.epoch += 1
        epoch = self.epoch
        self._schedule(self.draw_timeout(), lambda: self._timer_fired(epoch))

    def _timer_fired(self, epoch: int) -> None:
        if epoch != self.epoch or not self._is_active():
            return
        server = self.server
        members = self.scheme.members(server.config())
        if server.nid in members and server.role != LEADER:
            self._send_all(server.start_election(self.scheme))
            if server.role == LEADER:
                self.became_leader()
        self.arm()

    # ------------------------------------------------------------------
    # Heartbeats
    # ------------------------------------------------------------------

    def became_leader(self) -> None:
        """Start a heartbeat chain for the server's current term."""
        self._on_leader(self.server.time)
        self._heartbeat(self.server.time)

    def _heartbeat(self, term: int) -> None:
        server = self.server
        if (
            not self._is_active()
            or server.role != LEADER
            or server.time != term
        ):
            return  # dethroned or dead: stop this heartbeat chain
        self._send_all(server.broadcast_commit(self.scheme))
        self._schedule(self.timing.heartbeat_ms, lambda: self._heartbeat(term))

    # ------------------------------------------------------------------
    # Message delivery
    # ------------------------------------------------------------------

    def on_message(self, msg: Msg) -> Tuple[List[Msg], bool]:
        """Deliver one message through the policy.

        Returns ``(responses, accepted)`` where ``accepted`` means the
        message was valid leader/candidate traffic -- the cases that
        count as a heartbeat and push the election timer out.
        """
        server = self.server
        was_leader = server.role == LEADER
        responses = server.handle(msg, self.scheme)
        accepted = isinstance(msg, (CommitReq, ElectReq)) and bool(responses)
        if accepted:
            # Any accepted traffic from a live leader/candidate counts
            # as a heartbeat: push the election timer out.
            self.arm()
        if not was_leader and server.role == LEADER:
            self.became_leader()
        return responses, accepted
