"""UDP hole punching (paper §3).

The :class:`UdpHolePuncher` implements §3.2's procedure: on receiving the
peer's endpoints from S, start sending authenticated ``Punch`` probes to the
peer's **public and private** endpoints simultaneously, answer every valid
probe with a ``PunchAck``, and *lock in* the first endpoint that elicits a
valid response.  The same code handles all three topologies of §3.3-§3.5
without knowing which one applies — that automatic behaviour is the point of
the technique.

The :class:`UdpSession` it produces carries application data, sends
keep-alives to hold the NAT hole open (§3.6), and detects a dead hole so the
application can re-punch on demand.

§4.2 runs the same procedure over TCP, so the parts that do not depend on the
carrier live here once and :mod:`repro.core.tcp_punch` builds on them:
:class:`_HolePunch` (deadline, lock-in and failure accounting — also
the lifecycle of connection reversal and sequential punching) and
:class:`_PeerSession` (the session's flight attempt and the §3.6 keep-alive
ladder).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, List, Optional

from repro.core.auth import message_is_from_peer
from repro.core.protocol import Punch, PunchAck, SessionClose, SessionData, SessionKeepalive
from repro.netsim.addresses import Endpoint
from repro.netsim.clock import Timer
from repro.util.errors import TimeoutError_

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.client import PeerClient


#: Seconds between probe rounds to all candidates.
PROBE_INTERVAL = 0.25


@dataclass(frozen=True)
class PunchConfig:
    """Timing knobs for UDP hole punching and session maintenance.

    Attributes:
        timeout: give up punching after this many seconds.
        keepalive_interval: idle gap after which a session keep-alive is sent
            (§3.6 — must undercut the NAT's UDP idle timeout).
        broken_after_missed: consecutive missed keepalive intervals after
            which the session is declared broken (triggering §3.6's
            "re-run the hole punching procedure on demand").
        predict_ports: §5.1's port-prediction trick for symmetric NATs with
            predictable allocation: additionally probe the peer's public IP
            at ports ``public.port + 1 .. public.port + predict_ports``,
            guessing which port the peer's NAT will assign to the punch
            session.  0 (default) disables it — the paper calls prediction
            "chasing a moving target", useful but not a robust solution.
    """

    timeout: float = 10.0
    keepalive_interval: float = 15.0
    broken_after_missed: int = 3
    predict_ports: int = 0


class _PeerSession:
    """What a punched session is on either carrier (§3.6): UDP or TCP.

    It is its own flight attempt — a child of the requester's connect
    attempt — so a hole that later dies is attributed in the session's window
    (the nat.reboot / fault that killed it), not the long-finished punch's.
    And it runs the keep-alive ladder: probe the peer after an idle
    interval, declare the session broken after ``broken_after_missed``
    silent ones.  A carrier supplies ``_send_keepalive`` and ``_mark_broken``.
    """

    _name = "udp"

    def __init__(self, client: "PeerClient") -> None:
        self.client = client
        self.peer_id: Optional[int] = None
        self.closed = False
        self.broken = False
        self.bytes_sent = 0
        self.bytes_received = 0
        self.keepalives_sent = 0
        #: When the punch locked this session in (session survival clock).
        self.established_at: Optional[float] = None
        self._keepalive_interval: Optional[float] = None
        self._broken_after_missed = 3
        self._keepalive_timer: Optional[Timer] = None
        now = client.scheduler.now
        self._last_inbound = now
        self._last_outbound = now
        self._flight = getattr(client, "flight", None)
        self._attempt = None

    def _begin_session(self, peer_id: int, parent) -> None:
        """The punch locked in: start the session clock and open the session
        attempt as a child of *parent*, the connect attempt the punch carries
        (None for a responder's punch)."""
        self.established_at = self.client.scheduler.now
        if self.peer_id is None:
            self.peer_id = peer_id
        if self._flight is not None and self._attempt is None:
            self._attempt = self._flight.attempt(
                "session." + self._name,
                parent=parent,
                peer=peer_id,
                remote=str(self.remote),
            )

    def _finish_session(self, outcome: str) -> None:
        """The session is over (``closed`` or ``broken``): stop probing and
        close its attempt, recording the break."""
        self.closed = True
        self._stop_keepalives()
        if self._attempt is not None:
            if outcome == "broken":
                self._flight.record(
                    "session.broken", peer=self.peer_id, remote=str(self.remote)
                )
            self._flight.finish(self._attempt, outcome)

    # -- keepalives (§3.6) -----------------------------------------------------------

    def start_keepalives(self, interval: float, broken_after_missed: int = 3) -> None:
        """Probe the peer whenever the session has been idle for *interval*.

        After ``interval * broken_after_missed`` seconds without hearing from
        the peer the session is marked broken and torn down — §3.6's cue to
        re-run hole punching on demand.  Calling it again re-arms the one
        probe chain with the new interval.
        """
        if self.closed:
            return
        self._stop_keepalives()
        self._keepalive_interval = interval
        self._broken_after_missed = broken_after_missed
        self._last_inbound = self.client.scheduler.now
        self._schedule_keepalive()

    def _schedule_keepalive(self) -> None:
        self._keepalive_timer = self.client.scheduler.call_later(
            self._keepalive_interval, self._keepalive_tick
        )

    def _stop_keepalives(self) -> None:
        if self._keepalive_timer is not None:
            self._keepalive_timer.cancel()
            self._keepalive_timer = None
        self._keepalive_interval = None

    def _keepalive_tick(self) -> None:
        if self.closed or self._keepalive_interval is None:
            return
        now = self.client.scheduler.now
        silent_for = now - self._last_inbound
        if silent_for > self._keepalive_interval * self._broken_after_missed:
            self._mark_broken()
            return
        # The tolerance absorbs float drift along the timer chain: a tick
        # landing a hair short of a full idle interval must still probe, or
        # an idle session skips every few intervals.
        if now - self._last_outbound >= self._keepalive_interval - 1e-9:
            self._send_keepalive()
        self._schedule_keepalive()


class UdpSession(_PeerSession):
    """An established peer-to-peer UDP session.

    Attributes:
        remote: the locked-in endpoint for the peer (§3.2 step 3).
        on_data: callback ``(payload: bytes)`` for application data.
        on_broken: callback invoked once if the NAT hole dies (keepalives
            unanswered).  The library never re-punches by itself: §3.6
            leaves it to the application, which re-runs
            :meth:`PeerClient.connect_udp` from here when it wants the peer
            back, with whatever backoff it likes.

    *parent* is the connect attempt its session attempt belongs to.
    """

    def __init__(
        self,
        client: "PeerClient",
        peer_id: int,
        nonce: int,
        remote: Endpoint,
        config: PunchConfig,
        parent,
    ) -> None:
        super().__init__(client)
        self.peer_id = peer_id
        self.nonce = nonce
        self.remote = remote
        self.config = config
        self._scheduler = client.scheduler
        self.on_data: Optional[Callable[[bytes], None]] = None
        self.on_broken: Optional[Callable[[], None]] = None
        self.on_closed_by_peer: Optional[Callable[[], None]] = None
        client.metrics.counter("session.udp.established").inc()
        self._keepalive_counter = client.metrics.counter("session.udp.keepalives")
        self._begin_session(peer_id, parent)
        if config.keepalive_interval > 0:
            self.start_keepalives(config.keepalive_interval, config.broken_after_missed)

    # -- application API ---------------------------------------------------------

    def send(self, payload: bytes) -> None:
        """Send application data over the punched hole."""
        if self.closed:
            raise TimeoutError_("send on closed UDP session")
        self.bytes_sent += len(payload)
        self._last_outbound = self._scheduler.now
        self.client._send_peer(
            SessionData(
                sender=self.client.client_id,
                receiver=self.peer_id,
                nonce=self.nonce,
                payload=payload,
            ),
            self.remote,
        )

    def close(self, notify_peer: bool = False) -> None:
        """Stop keepalives and detach from the client; idempotent.

        With ``notify_peer=True`` a ``SessionClose`` message tells the peer
        to drop its side immediately instead of waiting for keepalive decay.
        """
        if self.closed:
            return
        if notify_peer:
            self.client._send_peer(
                SessionClose(
                    sender=self.client.client_id,
                    receiver=self.peer_id,
                    nonce=self.nonce,
                ),
                self.remote,
            )
        self._finish_session("closed")
        self.client._session_closed(self)

    @property
    def alive(self) -> bool:
        return not self.closed and not self.broken

    # -- keepalives (§3.6) -----------------------------------------------------------

    def _send_keepalive(self) -> None:
        self.keepalives_sent += 1
        self._keepalive_counter.inc()
        self._last_outbound = self._scheduler.now
        self.client._send_peer(
            SessionKeepalive(
                sender=self.client.client_id,
                receiver=self.peer_id,
                nonce=self.nonce,
            ),
            self.remote,
        )

    def _mark_broken(self) -> None:
        """The hole died (e.g. NAT idle timeout outlived our keepalives)."""
        self.broken = True
        self.client.metrics.counter("session.udp.broken").inc()
        callback = self.on_broken
        self._finish_session("broken")
        self.client._session_closed(self)
        if callback is not None:
            callback()

    # -- inbound ------------------------------------------------------------------

    def _handle(self, message, src: Endpoint) -> None:
        self._last_inbound = self._scheduler.now
        if isinstance(message, SessionData):
            self.bytes_received += len(message.payload)
            if self.on_data is not None:
                self.on_data(message.payload)
        elif isinstance(message, SessionClose):
            callback = self.on_closed_by_peer
            self.close()
            if callback is not None:
                callback()
        elif isinstance(message, Punch):
            # Peer re-punching (perhaps it saw the session die): ack so it
            # can re-lock quickly.
            self.client._send_peer(
                PunchAck(
                    sender=self.client.client_id,
                    receiver=self.peer_id,
                    nonce=self.nonce,
                ),
                src,
            )
        elif isinstance(message, SessionKeepalive):
            # Echo a keepalive if we have been quiet: the sender needs an
            # answer to distinguish "peer idle" from "hole dead" (§3.6).
            if self._scheduler.now - self._last_outbound >= self.config.keepalive_interval / 2:
                self._send_keepalive()

    def __repr__(self) -> str:
        return f"UdpSession(peer={self.peer_id}, remote={self.remote}, alive={self.alive})"


class _Connect:
    """One connect (§3.2: a request to S, S's answer, a punch, a session),
    from ``PeerClient._open_connect`` until its punch ends.

    ``callbacks`` holds the ``(on_connected, on_failure)`` of the connect
    that opened it, then of every connect that joined it, in call order;
    ``config`` is the punch's timing.  ``attempt`` is the connect's flight
    attempt, its one per-attempt record: None for a responder's punch, and
    when no recorder is attached.
    """

    __slots__ = ("callbacks", "config", "attempt")

    def __init__(self, callbacks: list, config, attempt=None) -> None:
        self.callbacks = callbacks
        self.config = config
        self.attempt = attempt


class _HolePunch:
    """One hole punch toward one peer, whichever carrier runs it.

    §3.2's lifecycle, which §4.2 repeats over TCP, connection reversal
    (§2.3) and sequential punching (§4.5) repeat with one stream: a
    deadline, and the accounting of the ways a punch ends — the first
    authenticated answer locks in, or it fails (the deadline passes, or the
    carrier gives up).  A carrier supplies ``_punch`` (its probing or
    connecting) and ``_release`` (stop punching), and ``_session`` when what
    won is not itself the session.  ``_name`` keys the client's books and
    names the counters and errors.  The punch carries its :class:`_Connect`
    whole until it ends; ``PeerClient._punch_finished`` then finishes the
    connect's flight attempt.
    """

    _name = "udp"
    #: Lock-in accounting: the counter split by what won (and its label),
    #: and the lock-in latency histogram.
    _kind_counter = "punch.udp.endpoint"
    _kind_label = "kind"
    _latency_histogram = "punch.udp.lock_in_seconds"

    def __init__(self, client: "PeerClient", peer_id: int, nonce: int, connect: _Connect) -> None:
        self.client = client
        self.peer_id = peer_id
        self.nonce = nonce
        self.connect = connect
        self.config = connect.config
        self.started_at = client.scheduler.now
        self.finished = False
        self.elapsed: Optional[float] = None
        self._deadline_timer: Optional[Timer] = None

    def start(self) -> None:
        """Arm the application-defined deadline and start punching."""
        self._deadline_timer = self.client.scheduler.call_later(
            self.config.timeout, self._on_deadline
        )
        self._punch()

    def _succeed(self, keep, kind: str):
        """The first authenticated answer wins (§3.2 step 3, §4.2 step 5):
        account for it, stop punching everywhere but through *keep*, and hand
        the session to the client and then to every waiting caller."""
        self.finished = True
        self.elapsed = self.client.scheduler.now - self.started_at
        if self._deadline_timer is not None:
            self._deadline_timer.cancel()
        metrics = self.client.metrics
        metrics.counter(f"punch.{self._name}.succeeded").inc()
        metrics.counter(self._kind_counter, **{self._kind_label: kind}).inc()
        metrics.histogram(self._latency_histogram).observe(self.elapsed)
        self._release(keep)
        session = self._session(keep)
        self.client._punch_finished(self, "connected", session)
        for on_connected, _ in self.connect.callbacks:
            on_connected(session)
        return session

    def _session(self, keep):
        return keep

    def _on_deadline(self) -> None:
        self._fail(
            "timeout",
            TimeoutError_(
                f"{self._name.upper()} hole punch to peer {self.peer_id} timed out "
                f"after {self.config.timeout:.1f}s"
            ),
        )

    def _fail(self, outcome: str, error: Exception) -> None:
        """The punch ends without a session (*outcome* on the connect
        attempt): stop punching and hand *error* to every caller."""
        if self.finished:
            return
        self.finished = True
        if self._deadline_timer is not None:
            self._deadline_timer.cancel()
        self.client.metrics.counter(f"punch.{self._name}.failed").inc()
        self._release(None)
        self.client._punch_finished(self, outcome)
        for _, on_failure in self.connect.callbacks:
            if on_failure is not None:
                on_failure(error)


class UdpHolePuncher(_HolePunch):
    """One in-flight UDP hole punch toward a single peer (§3.2).

    Created by :class:`~repro.core.client.PeerClient` when the endpoint
    exchange completes; both the requester and the responder run the same
    puncher ("the order and timing of these messages are not critical as
    long as they are asynchronous").
    """

    def __init__(
        self,
        client: "PeerClient",
        peer_id: int,
        nonce: int,
        candidates: List[Endpoint],
        connect: _Connect,
    ) -> None:
        super().__init__(client, peer_id, nonce, connect)
        # Remember where each candidate came from so the lock-in can be
        # classified (public/private/predicted/peer-reflexive).
        self._public_candidate = candidates[0] if candidates else None
        self._private_candidate = candidates[1] if len(candidates) > 1 else None
        self._predicted: set = set()
        if self.config.predict_ports and candidates:
            # §5.1 port prediction: the peer's NAT allocated `public.port`
            # for its session with S; a sequential allocator will hand the
            # punch session the next port(s).
            public = candidates[0]
            predicted = [
                Endpoint(public.ip, public.port + k)
                for k in range(1, self.config.predict_ports + 1)
                if public.port + k <= 0xFFFF
            ]
            self._predicted = set(predicted)
            candidates = list(candidates) + predicted
        # Dedup while preserving order: public first, then private (§3.2).
        seen = set()
        self.candidates = [c for c in candidates if not (c in seen or seen.add(c))]
        metrics = client.metrics
        self._probe_counter = metrics.counter("punch.udp.probes_sent")
        self._ack_counter = metrics.counter("punch.udp.acks_received")
        self._reflexive_counter = metrics.counter("punch.udp.peer_reflexive")
        self.locked_endpoint: Optional[Endpoint] = None
        self._probe_timer: Optional[Timer] = None

    def _punch(self) -> None:
        """§3.2 step 3: probe every candidate endpoint at once."""
        self._probe_round()

    def _probe_round(self) -> None:
        if self.finished:
            return
        for candidate in self.candidates:
            self.client._send_peer(
                Punch(
                    sender=self.client.client_id,
                    receiver=self.peer_id,
                    nonce=self.nonce,
                ),
                candidate,
            )
        self._probe_counter.inc(len(self.candidates))
        self._probe_timer = self.client.scheduler.call_later(
            PROBE_INTERVAL, self._probe_round
        )

    # -- inbound -------------------------------------------------------------------

    def handle(self, message, src: Endpoint) -> None:
        """Process a punch-phase message attributed to this peer."""
        if not message_is_from_peer(message, self.client.client_id, self.peer_id, self.nonce):
            return  # stray or forged (§3.4): ignore robustly
        if isinstance(message, Punch):
            # Always answer valid probes, even after we locked (the peer may
            # lock a different endpoint than we did — each direction is
            # independent once both holes exist).
            self.client._send_peer(
                PunchAck(
                    sender=self.client.client_id,
                    receiver=self.peer_id,
                    nonce=self.nonce,
                ),
                src,
            )
            if src not in self.candidates:
                # Peer-reflexive discovery: a valid probe arriving from an
                # endpoint S never told us about means the peer's NAT
                # allocated a fresh mapping for this punch (it is symmetric,
                # §5.1).  Probing that observed source is the only path that
                # passes the peer NAT's filter — the trick ICE later named
                # "peer-reflexive candidates".
                self.candidates.append(src)
                self._reflexive_counter.inc()
        elif isinstance(message, PunchAck):
            self._ack_counter.inc()
            self._lock_in(src)
        elif isinstance(message, (SessionData, SessionKeepalive)):
            # The peer already locked in and moved on: so can we.
            self._lock_in(src, replay=message)

    def endpoint_kind(self, endpoint: Endpoint) -> str:
        """Classify a candidate by provenance: ``public``/``private`` from
        S's exchange, ``predicted`` from §5.1 port prediction, or
        ``peer-reflexive`` (learned from an unexpected probe source)."""
        if endpoint == self._public_candidate:
            return "public"
        if endpoint == self._private_candidate:
            return "private"
        if endpoint in self._predicted:
            return "predicted"
        return "peer-reflexive"

    def _lock_in(self, endpoint: Endpoint, replay=None) -> None:
        """§3.2 step 3: first endpoint that elicited a valid response wins."""
        if self.finished:
            return
        self.locked_endpoint = endpoint
        kind = self.endpoint_kind(endpoint)
        session = self._succeed(endpoint, kind)
        if replay is not None:
            session._handle(replay, endpoint)

    def _session(self, endpoint: Endpoint) -> UdpSession:
        return UdpSession(
            self.client, self.peer_id, self.nonce, endpoint, self.config, self.connect.attempt
        )

    def _release(self, keep) -> None:
        if self._probe_timer is not None:
            self._probe_timer.cancel()

    def __repr__(self) -> str:
        return (
            f"UdpHolePuncher(peer={self.peer_id}, candidates={self.candidates}, "
            f"locked={self.locked_endpoint})"
        )
