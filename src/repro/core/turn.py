"""A TURN-style relay server and client (paper §2.2).

"The TURN protocol defines a method of implementing relaying in a relatively
secure fashion" — the two properties that make TURN more than naive
forwarding are reproduced here:

* each client gets its own **relayed transport address** (a real UDP port on
  the relay host), so peers address each other, not the relay service; and
* inbound traffic is only forwarded if the client previously sent toward
  that peer through the relay (**permissions**), mirroring the solicited-
  traffic rule of NAT filtering.

Allocations idle out after ``lifetime`` seconds unless refreshed by any
control traffic from the owner — the same lazy-timer scheme NAT mappings
use.

A TURN-to-TURN channel between two clients rides the punch lifecycle
(:class:`TurnPunch`) and the §3.6 session ladder (:class:`TurnPairSession`).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.core import protocol
from repro.core.auth import message_is_from_peer
from repro.core.protocol import TurnAllocate, TurnAllocated, TurnData, TurnSend
from repro.core.udp_punch import PunchConfig, _Connect, _HolePunch, _PeerSession
from repro.netsim.addresses import Endpoint
from repro.netsim.clock import Timer
from repro.netsim.node import Host

DEFAULT_TURN_PORT = 3478
DEFAULT_LIFETIME = 600.0

#: Seconds between the openers a TURN pair sends until the peer answers.
OPENER_INTERVAL = 0.5


class _Allocation:
    """Server-side state for one client's relayed endpoint."""

    def __init__(self, server: "TurnServer", owner: Endpoint, client_id: int) -> None:
        self.server = server
        self.owner = owner  # the client's (NAT-mapped) control source
        self.client_id = client_id
        self.relay_socket = server._stack.udp.socket(0)
        self.relay_socket.on_datagram = self._inbound
        self.permissions: Dict[Endpoint, bool] = {}
        self.last_activity = server.scheduler.now
        self.bytes_relayed_in = 0
        self.bytes_relayed_out = 0
        self._timer: Optional[Timer] = None
        self._arm()

    @property
    def relay_endpoint(self) -> Endpoint:
        return self.relay_socket.local

    def touch(self) -> None:
        self.last_activity = self.server.scheduler.now

    def send(self, dest: Endpoint, payload: bytes) -> None:
        """Emit *payload* from the relayed endpoint (installs permission)."""
        self.touch()
        self.permissions[dest] = True
        self.bytes_relayed_out += len(payload)
        self.relay_socket.sendto(payload, dest)

    def _inbound(self, payload: bytes, src: Endpoint) -> None:
        if src not in self.permissions:
            self.server.rejected_inbound += 1
            return
        self.touch()
        self.bytes_relayed_in += len(payload)
        self.server._control.sendto(
            protocol.encode(TurnData(src=src, payload=payload)), self.owner
        )

    def _arm(self) -> None:
        self._timer = self.server.scheduler.call_at(
            self.last_activity + self.server.lifetime, self._check_expiry
        )

    def _check_expiry(self) -> None:
        idle = self.server.scheduler.now - self.last_activity
        if idle + 1e-9 >= self.server.lifetime:
            self.server._expire(self)
            return
        self._arm()

    def close(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
        self.relay_socket.close()


class TurnServer:
    """The relay server: one control socket, one relay socket per client."""

    def __init__(
        self,
        host: Host,
        port: int = DEFAULT_TURN_PORT,
        lifetime: float = DEFAULT_LIFETIME,
    ) -> None:
        self.host = host
        self.lifetime = lifetime
        self._stack = host.stack  # type: ignore[attr-defined]
        self._control = self._stack.udp.socket(port)
        self._control.on_datagram = self._on_control
        self.endpoint = Endpoint(host.primary_ip, port)
        self.allocations: Dict[Endpoint, _Allocation] = {}
        self.rejected_inbound = 0
        self.allocations_created = 0
        self.allocations_expired = 0

    @property
    def scheduler(self):
        return self.host.scheduler

    def _on_control(self, data: bytes, src: Endpoint) -> None:
        message = protocol.try_decode(data)
        if message is None:
            return
        if isinstance(message, TurnAllocate):
            allocation = self.allocations.get(src)
            if allocation is None:
                allocation = _Allocation(self, src, message.client_id)
                self.allocations[src] = allocation
                self.allocations_created += 1
            allocation.touch()
            self._control.sendto(
                protocol.encode(
                    TurnAllocated(
                        client_id=message.client_id,
                        relay_ep=allocation.relay_endpoint,
                    )
                ),
                src,
            )
        elif isinstance(message, TurnSend):
            allocation = self.allocations.get(src)
            if allocation is not None:
                allocation.send(message.dest, message.payload)

    def _expire(self, allocation: _Allocation) -> None:
        if self.allocations.get(allocation.owner) is allocation:
            del self.allocations[allocation.owner]
            allocation.close()
            self.allocations_expired += 1


class TurnClient:
    """Client-side allocation handle.

    Usage::

        turn = TurnClient(host, server_endpoint, client_id=1)
        turn.allocate(lambda relay_ep: ...)
        turn.on_data = lambda src, payload: ...
        turn.send(peer_relay_ep, b"hello")
    """

    def __init__(self, host: Host, server: Endpoint, client_id: int,
                 refresh_interval: Optional[float] = None) -> None:
        self.host = host
        self.server = server
        self.client_id = client_id
        self._stack = host.stack  # type: ignore[attr-defined]
        self.socket = self._stack.udp.socket(0)
        self.socket.on_datagram = self._on_datagram
        self.relay_endpoint: Optional[Endpoint] = None
        self.on_data: Optional[Callable[[Endpoint, bytes], None]] = None
        #: Everyone waiting on the next TurnAllocated, in request order.
        self._on_allocated: List[Callable[[Endpoint], None]] = []
        self._refresh_interval = refresh_interval
        self._refresh_timer: Optional[Timer] = None
        self.bytes_sent = 0
        self.bytes_received = 0

    @property
    def scheduler(self):
        return self.host.scheduler

    def allocate(self, on_allocated: Optional[Callable[[Endpoint], None]] = None) -> None:
        """Request (or refresh) the relayed endpoint."""
        if on_allocated is not None:
            self._on_allocated.append(on_allocated)
        self.socket.sendto(
            protocol.encode(TurnAllocate(client_id=self.client_id)), self.server
        )
        if self._refresh_interval and self._refresh_timer is None:
            self._schedule_refresh()

    def _schedule_refresh(self) -> None:
        self._refresh_timer = self.scheduler.call_later(
            self._refresh_interval, self._refresh
        )

    def _refresh(self) -> None:
        self.socket.sendto(
            protocol.encode(TurnAllocate(client_id=self.client_id)), self.server
        )
        self._schedule_refresh()

    def send(self, dest: Endpoint, payload: bytes) -> None:
        """Relay *payload* to *dest* (usually a peer's relayed endpoint)."""
        self.bytes_sent += len(payload)
        self.socket.sendto(
            protocol.encode(TurnSend(dest=dest, payload=payload)), self.server
        )

    def close(self) -> None:
        if self._refresh_timer is not None:
            self._refresh_timer.cancel()
        self.socket.close()

    def _on_datagram(self, data: bytes, src: Endpoint) -> None:
        message = protocol.try_decode(data)
        if isinstance(message, TurnAllocated) and message.client_id == self.client_id:
            self.relay_endpoint = message.relay_ep
            callbacks, self._on_allocated = self._on_allocated, []
            for callback in callbacks:
                callback(message.relay_ep)
        elif isinstance(message, TurnData):
            self.bytes_received += len(message.payload)
            if self.on_data is not None:
                self.on_data(message.src, message.payload)


class TurnPairSession(_PeerSession):
    """A peer-to-peer channel where both directions traverse TURN relays.

    Each side allocates its own relayed endpoint and sends toward the
    *peer's* relayed endpoint; neither NAT ever sees unsolicited inbound
    traffic, so the channel works across any NAT pair — including
    double-symmetric, where every punching variant fails.  Messages carry
    the usual (sender, receiver, nonce) authentication.

    A :class:`TurnPunch` opens it; *config*'s timeout bounds the opening.
    The §3.6 keepalive ladder runs only once :meth:`start_keepalives` is
    called.
    """

    _name = "turn"

    def __init__(
        self, client, peer_id: int, nonce: int, peer_relay: Endpoint, config: PunchConfig
    ) -> None:
        super().__init__(client)
        self.turn = client.turn
        self.peer_id = peer_id
        self.nonce = nonce
        self.peer_relay = peer_relay
        self.config = config
        self.established = False
        self.on_data: Optional[Callable[[bytes], None]] = None

    @property
    def remote(self) -> Endpoint:
        return self.peer_relay

    @property
    def alive(self) -> bool:
        return self.established and not self.closed

    def _emit(self, kind, **body) -> None:
        """Send the peer a *kind* message, through our relay to the peer's."""
        self._last_outbound = self.client.scheduler.now
        message = kind(sender=self.client.client_id, receiver=self.peer_id, nonce=self.nonce, **body)
        self.turn.send(self.peer_relay, protocol.encode(message))

    def _ping(self) -> None:
        """A SessionKeepalive: it installs our relay's permission for the
        peer's relay and doubles as the opener."""
        self._emit(protocol.SessionKeepalive)

    def send(self, payload: bytes) -> None:
        """Send application data via both relays."""
        if self.closed:
            raise ValueError("send on closed TURN pair session")
        self.bytes_sent += len(payload)
        self._emit(protocol.SessionData, payload=payload)

    def close(self) -> None:
        if not self.closed:
            self._finish_session("closed")

    # -- the §3.6 ladder's carrier hooks ---------------------------------------------

    def _send_keepalive(self) -> None:
        self.keepalives_sent += 1
        self.client.metrics.counter("session.turn.keepalives").inc()
        self._ping()

    def _mark_broken(self) -> None:
        self.broken = True
        self.client.metrics.counter("session.turn.broken").inc()
        self._finish_session("broken")

    # -- inbound ------------------------------------------------------------------

    def _handle(self, message) -> None:
        """A decoded message arrived at our relay from the peer's relay."""
        if not message_is_from_peer(message, self.client.client_id, self.peer_id, self.nonce):
            return
        now = self.client.scheduler.now
        self._last_inbound = now
        if isinstance(message, protocol.SessionKeepalive):
            # The peer is still opening (it needs an answer to cross with)
            # or probing.  Suppress echoes within half an opener interval of
            # our last send so two established sides do not ping-pong forever.
            if now - self._last_outbound >= OPENER_INTERVAL / 2:
                self._ping()
        elif isinstance(message, protocol.SessionData):
            self.bytes_received += len(message.payload)
            if self.on_data is not None:
                self.on_data(message.payload)

    def __repr__(self) -> str:
        return (
            f"TurnPairSession(peer={self.peer_id}, relay={self.peer_relay}, "
            f"established={self.established})"
        )


class TurnPunch(_HolePunch):
    """The opener handshake that opens a :class:`TurnPairSession`:
    a SessionKeepalive via our relay every :data:`OPENER_INTERVAL` until the
    first authenticated message from the peer's relay wins."""

    _name = "turn"
    _kind_counter = "punch.turn.handshake"
    _kind_label = "kind"
    _latency_histogram = "punch.turn.open_seconds"

    def __init__(self, pair: TurnPairSession, connect: _Connect) -> None:
        super().__init__(pair.client, pair.peer_id, pair.nonce, connect)
        self.pair = pair
        self._opener_timer: Optional[Timer] = None

    def _punch(self) -> None:
        if self.pair.closed:
            return
        self.pair._ping()
        self._opener_timer = self.client.scheduler.call_later(OPENER_INTERVAL, self._punch)

    def handle(self, message) -> None:
        """A message from the peer's relay: the first authenticated one wins,
        and the session then takes it (it may carry the first payload)."""
        if not message_is_from_peer(message, self.client.client_id, self.peer_id, self.nonce):
            return
        self._succeed(self.pair, "open", relay=str(self.pair.peer_relay))
        self.pair._handle(message)

    def _session(self, pair: TurnPairSession) -> TurnPairSession:
        pair.established = True
        pair._begin_session(self.peer_id, self.connect.attempt)
        pair._ping()  # answer once so the peer's openers win too
        return pair

    def _release(self, keep) -> None:
        if self._opener_timer is not None:
            self._opener_timer.cancel()
