"""The rendezvous server S (paper §3.1, §4.2).

S is an ordinary public host.  For every registered client it records two
endpoints: the *private* endpoint the client reports in its registration body
and the *public* endpoint S observes as the packet source (UDP) or connection
remote (TCP).  On a connect request it forwards both endpoints of each peer
to the other, together with a pairing nonce the peers use to authenticate
their punch traffic (§3.4).

The same server also implements the fall-back strategies: relaying (§2.2),
connection reversal (§2.3), and the signalling for sequential TCP hole
punching (§4.5).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Union

from repro.core import protocol
from repro.core.protocol import (
    ConnectRequest,
    Keepalive,
    KeepaliveAck,
    Message,
    PeerEndpoints,
    Register,
    Registered,
    RelayError,
    RelayPayload,
    RendezvousError,
    ReverseConnect,
    ReverseExpect,
    ReverseRequest,
    SeqConnect,
    SeqReady,
    SeqRequest,
    TRANSPORT_TCP,
    TRANSPORT_UDP,
)
from repro.netsim.addresses import Endpoint
from repro.netsim.node import Host
from repro.obs.metrics import MetricsRegistry
from repro.transport.tcp import FrameBuffer, TcpConnection, TcpState
from repro.util.errors import ProtocolError
from repro.util.rng import SeededRng

#: S's well-known port, UDP and TCP alike (the paper's examples, Figure 2).
SERVER_PORT = 1234


@dataclass(slots=True)
class Registration:
    """What S knows about one registered client (§3.1).

    Slotted (``dataclass(slots=True)`` is why the package needs Python
    3.10): S holds one of these per client, and the keepalive path stores
    ``last_seen`` on every refresh.
    """

    client_id: int
    public_ep: Endpoint
    private_ep: Endpoint
    registered_at: float
    last_seen: float
    keepalives: int = 0


class _ControlConnection:
    """Server-side state of one client's TCP control connection."""

    def __init__(self, server: "RendezvousServer", conn: TcpConnection) -> None:
        self.server = server
        self.conn = conn
        self.buffer = FrameBuffer(protocol.decode)
        self.client_id: Optional[int] = None
        conn.on_data = self._on_data
        conn.on_close = self._on_close_event
        conn.on_error = lambda _err: self._on_close_event()

    def send(self, message: Message) -> None:
        self.conn.send(protocol.frame(message, self.server.obfuscate))

    def _on_data(self, data: bytes) -> None:
        try:
            messages = self.buffer.feed(data)
        except ProtocolError:
            self.conn.abort()
            return
        for message in messages:
            self.server._dispatch_tcp(message, self)

    def _on_close_event(self) -> None:
        if self.client_id is not None:
            self.server._tcp_conn_closed(self.client_id, self)
        # Complete the teardown from our side so the 4-tuple frees up and the
        # client can reconnect from the same local port (§4.5 re-registration).
        if self.conn.state is not TcpState.CLOSED:
            self.conn.abort()


#: What a request arrived with, and so where its direct answer goes: the
#: datagram's source endpoint, or the TCP control connection.
_Carrier = Union[Endpoint, _ControlConnection]

#: How long after a pair's last connect request S still answers the next one
#: with the same nonce (see ``_pair_nonces``): every retransmit and nudge of
#: one punch renews it; a reconnect after a longer silence draws a fresh one.
PAIR_NONCE_TTL = 30.0


def _describe(kind, reg: Registration, nonce: int, **extra) -> Message:
    """§3.2 step 2: the *kind* of message that tells a client about its peer
    *reg* — who it is and both endpoints S holds for it."""
    return kind(
        peer_id=reg.client_id,
        public_ep=reg.public_ep,
        private_ep=reg.private_ep,
        nonce=nonce,
        **extra,
    )


class RendezvousServer:
    """The well-known server S, serving UDP and TCP on :data:`SERVER_PORT`.

    Args:
        host: public simulated host to run on (must have a HostStack).
        obfuscate: set to protect endpoint fields against payload-mangling
            NATs (§5.3); clients must use the same setting.

    S keeps one registration dict per transport, client id to
    :class:`Registration`, with no expiry and no size bound: a registration
    lives until S restarts or stops (§4.5 closes control connections
    mid-exchange and still expects S to remember the client).  The lookups
    a request makes go through :meth:`_lookup`, which meters them.
    """

    def __init__(
        self,
        host: Host,
        obfuscate: bool = False,
        rng: Optional[SeededRng] = None,
    ) -> None:
        self.host = host
        self.obfuscate = obfuscate
        self._rng = rng or SeededRng(0, f"rendezvous/{host.name}")
        stack = host.stack  # type: ignore[attr-defined]
        self.endpoint = Endpoint(host.primary_ip, SERVER_PORT)
        #: The owning network's registry (set on the host by Network.add_node);
        #: standalone hosts get a private one so instrumentation never branches.
        self.metrics: MetricsRegistry = getattr(host, "metrics", None) or MetricsRegistry()
        self.udp_clients: Dict[int, Registration] = {}
        self.tcp_clients: Dict[int, Registration] = {}
        self._lookup_hits = self.metrics.counter("rendezvous.lookup.hits")
        self._lookup_misses = self.metrics.counter("rendezvous.lookup.misses")
        #: Virtual seconds since the looked-up registration's ``last_seen``:
        #: how stale the endpoints S hands out are.
        self._lookup_age = self.metrics.histogram("rendezvous.lookup.age")
        self._tcp_conns: Dict[int, _ControlConnection] = {}
        self._udp = stack.udp.socket(SERVER_PORT)
        self._udp.on_datagram = self._on_udp
        self._listener = stack.tcp.listen(SERVER_PORT, on_accept=self._on_accept, reuse=True)
        #: Stable pairing nonce per (pair, transport) so that retransmitted
        #: connect requests (datagram loss, §3.2's asynchronous timing) keep
        #: authenticating the same punch attempt.
        self._pair_nonces: Dict[tuple, tuple] = {}
        # metrics
        self.connect_requests = 0
        self.relayed_messages = 0
        self.relayed_bytes = 0
        self.relay_send_failures = 0
        #: Relayed payloads dropped because they did not come from the client
        #: they name as sender (see :meth:`_handle_relay`).
        self.relay_rejected = 0
        self.errors_sent = 0
        self.restarts = 0
        self.endpoint_moves = 0
        #: True while the server is killed (see :meth:`stop`).
        self.stopped = False

    @property
    def scheduler(self):
        return self.host.scheduler

    def stop(self) -> None:
        """Kill the server: release its sockets and drop all state.

        Unlike :meth:`restart` (amnesia, but still answering), a stopped
        server is *gone*: UDP keepalives fall on an unbound port (no ack, no
        error — exactly what a dead host looks like) and TCP connection
        attempts draw an RST.  After :meth:`start` clients re-register on
        their own: a keepalive draws NOT_REGISTERED, and the keepalive tick
        re-dials a TCP control connection that errored.
        """
        if self.stopped:
            return
        self.stopped = True
        self.udp_clients.clear()
        self.tcp_clients.clear()
        self._pair_nonces.clear()
        conns, self._tcp_conns = self._tcp_conns, {}
        for control in conns.values():
            control.conn.abort()
        self._udp.close()
        self._listener.close()

    def start(self) -> None:
        """Revive a stopped server on the same well-known endpoint.

        State is not restored — a revived server has the same amnesia as a
        restarted one.
        """
        if not self.stopped:
            return
        self.stopped = False
        self.restarts += 1
        stack = self.host.stack  # type: ignore[attr-defined]
        self._udp = stack.udp.socket(SERVER_PORT)
        self._udp.on_datagram = self._on_udp
        self._listener = stack.tcp.listen(SERVER_PORT, on_accept=self._on_accept, reuse=True)

    def restart(self) -> None:
        """Simulate a server crash/restart: all soft state is lost.

        Registrations, control connections, and pair nonces vanish; the
        sockets stay bound (same well-known endpoint).  Clients discover the
        amnesia when their next Keepalive draws a NOT_REGISTERED error and
        re-register (see ``PeerClient.auto_reregister``).
        """
        self.restarts += 1
        self.udp_clients.clear()
        self.tcp_clients.clear()
        self._pair_nonces.clear()
        conns, self._tcp_conns = self._tcp_conns, {}
        for control in conns.values():
            control.conn.abort()

    def registration(self, client_id: int, transport: int = TRANSPORT_UDP) -> Optional[Registration]:
        table = self.udp_clients if transport == TRANSPORT_UDP else self.tcp_clients
        return table.get(client_id)

    # -- UDP side --------------------------------------------------------------

    def _send_udp(self, message: Message, dest: Endpoint) -> None:
        self._udp.sendto(protocol.encode(message, self.obfuscate), dest)

    def _on_udp(self, data: bytes, src: Endpoint) -> None:
        message = protocol.try_decode(data)
        if message is None:
            return  # stray traffic
        if isinstance(message, Register):
            self._register(self.udp_clients, message, src, src)
        elif isinstance(message, Keepalive):
            reg = self.udp_clients.get(message.client_id)
            if reg is None:
                # We don't know this client (e.g. our state was lost across a
                # restart): tell it so it can re-register (§3.1).
                self._error(
                    RendezvousError.NOT_REGISTERED,
                    f"client {message.client_id} not registered",
                    src,
                )
                return
            if reg.public_ep != src:
                # Same client, new observed endpoint: its NAT rebooted or the
                # old mapping expired and the keepalive cut a fresh one.  Track
                # the move so later endpoint exchanges hand out a hole that
                # still exists.
                reg.public_ep = src
                self.endpoint_moves += 1
            reg.last_seen = self.scheduler.now
            reg.keepalives += 1
            self._send_udp(KeepaliveAck(client_id=message.client_id), src)
        elif isinstance(message, ConnectRequest):
            self._handle_connect(message, src)
        elif isinstance(message, RelayPayload):
            self._handle_relay(message, TRANSPORT_UDP, src)
        elif isinstance(message, ReverseRequest):
            self._handle_reverse(message, src)

    # -- TCP side ---------------------------------------------------------------

    def _on_accept(self, conn: TcpConnection) -> None:
        _ControlConnection(self, conn)

    def _dispatch_tcp(self, message: Message, control: _ControlConnection) -> None:
        if isinstance(message, Register):
            control.client_id = message.client_id
            self._tcp_conns[message.client_id] = control
            self._register(self.tcp_clients, message, control.conn.remote, control)
        elif isinstance(message, Keepalive):
            reg = self.tcp_clients.get(message.client_id)
            if reg is not None:
                reg.last_seen = self.scheduler.now
                reg.keepalives += 1
        elif isinstance(message, ConnectRequest):
            self._handle_connect(message, control)
        elif isinstance(message, RelayPayload):
            self._handle_relay(message, TRANSPORT_TCP, control)
        elif isinstance(message, ReverseRequest):
            self._handle_reverse(message, control)
        elif isinstance(message, SeqRequest):
            self._handle_seq_request(message, control)
        elif isinstance(message, SeqReady):
            self._handle_seq_ready(message, control)

    def _tcp_conn_closed(self, client_id: int, control: _ControlConnection) -> None:
        if self._tcp_conns.get(client_id) is control:
            del self._tcp_conns[client_id]
            # Registration data is kept: the paper's sequential procedure
            # deliberately closes control connections mid-exchange (§4.5).

    # -- request handling ------------------------------------------------------------

    def _reply(self, message: Message, reply: _Carrier) -> None:
        """Answer a request on the carrier it arrived with."""
        if isinstance(reply, Endpoint):
            self._send_udp(message, reply)
        else:
            reply.send(message)

    def _register(
        self,
        table: Dict[int, Registration],
        message: Register,
        observed: Endpoint,
        reply: _Carrier,
    ) -> None:
        """§3.1: store what the client reported and what S observed, and
        tell the client both."""
        now = self.scheduler.now
        table[message.client_id] = Registration(
            client_id=message.client_id,
            public_ep=observed,
            private_ep=message.private_ep,
            registered_at=now,
            last_seen=now,
        )
        self._reply(
            Registered(
                client_id=message.client_id,
                public_ep=observed,
                private_ep=message.private_ep,
            ),
            reply,
        )

    def _lookup(self, table: Dict[int, Registration], client_id: int) -> Optional[Registration]:
        """Metered lookup: counts hit / miss and records the entry's staleness."""
        entry = table.get(client_id)
        if entry is None:
            self._lookup_misses.inc()
            return None
        self._lookup_hits.inc()
        self._lookup_age.observe(self.scheduler.now - entry.last_seen)
        return entry

    def _error(self, code: int, detail: str, reply: _Carrier) -> None:
        self.errors_sent += 1
        self._reply(RendezvousError(code=code, detail=detail.encode()), reply)

    def _handle_connect(self, request: ConnectRequest, reply: _Carrier) -> None:
        """§3.2 step 2: forward each peer's endpoints to the other."""
        self.connect_requests += 1
        transport = request.transport
        table = self.udp_clients if transport == TRANSPORT_UDP else self.tcp_clients
        requester = self._lookup(table, request.requester_id)
        if requester is None:
            self._error(
                RendezvousError.NOT_REGISTERED,
                f"client {request.requester_id} not registered",
                reply,
            )
            return
        target = self._lookup(table, request.target_id)
        if target is None:
            self._error(
                RendezvousError.UNKNOWN_PEER,
                f"peer {request.target_id} not registered",
                reply,
            )
            return
        nonce = self._pair_nonce(request.requester_id, request.target_id, transport)
        to_requester = _describe(
            PeerEndpoints, target, nonce, transport=transport, role=PeerEndpoints.ROLE_REQUESTER
        )
        to_target = _describe(
            PeerEndpoints, requester, nonce, transport=transport, role=PeerEndpoints.ROLE_RESPONDER
        )
        self._send_to_client(requester, to_requester, transport, reply)
        self._send_to_client(target, to_target, transport)

    def _pair_nonce(self, id_a: int, id_b: int, transport: int) -> int:
        key = (min(id_a, id_b), max(id_a, id_b), transport)
        now = self.scheduler.now
        cached = self._pair_nonces.get(key)
        if cached is not None and now - cached[1] <= PAIR_NONCE_TTL:
            self._pair_nonces[key] = (cached[0], now)
            return cached[0]
        nonce = self._rng.nonce64()
        self._pair_nonces[key] = (nonce, now)
        return nonce

    def _send_to_client(
        self,
        reg: Registration,
        message: Message,
        transport: int,
        reply: Optional[_Carrier] = None,
    ) -> None:
        """Deliver on the channel *transport* names.  *reply* — the carrier of
        the request being answered, when *reg* is its sender — is used only
        if it is that kind of channel; otherwise (and for the other party)
        the client's own registration on that plane is."""
        if transport == TRANSPORT_UDP:
            self._send_udp(message, reply if isinstance(reply, Endpoint) else reg.public_ep)
            return
        conn = (
            reply
            if isinstance(reply, _ControlConnection)
            else self._tcp_conns.get(reg.client_id)
        )
        if conn is not None:
            conn.send(message)

    def _handle_relay(self, message: RelayPayload, transport: int, reply: _Carrier) -> None:
        """§2.2: forward the payload to the target over its own channel.

        An unknown target (never registered, or lost in a restart) is
        reported back to the sender instead of silently dropped, so the
        sending :class:`~repro.core.relay.RelaySession` can surface the
        failure and the application can react.

        A payload to a live target is forwarded only from the client it
        names as sender — that client's registered public endpoint over UDP,
        its own control connection over TCP — so no host can put words in
        another client's mouth.  A forgery is dropped unanswered: a reply
        would answer an off-path prober.
        """
        table = self.udp_clients if transport == TRANSPORT_UDP else self.tcp_clients
        target = self._lookup(table, message.target)
        if target is None:
            self.relay_send_failures += 1
            self._reply(
                RelayError(
                    sender=message.sender,
                    target=message.target,
                    code=RelayError.TARGET_UNREACHABLE,
                ),
                reply,
            )
            return
        if transport == TRANSPORT_UDP:
            sender = self.udp_clients.get(message.sender)
            genuine = sender is not None and sender.public_ep == reply
        else:
            genuine = reply.client_id == message.sender
        if not genuine:
            self.relay_rejected += 1
            return
        self.relayed_messages += 1
        self.relayed_bytes += len(message.payload)
        self._send_to_client(target, message, transport)

    def _handle_reverse(self, request: ReverseRequest, reply: _Carrier) -> None:
        """§2.3: relay a connection-reversal request to the target."""
        table = self.tcp_clients
        requester = table.get(request.requester_id)
        target = table.get(request.target_id)
        if requester is None or target is None:
            self._error(RendezvousError.UNKNOWN_PEER, "reversal peer not registered", reply)
            return
        nonce = self._rng.nonce64()
        self._send_to_client(
            requester,
            ReverseExpect(peer_id=target.client_id, nonce=nonce),
            TRANSPORT_TCP,
            reply,
        )
        self._send_to_client(target, _describe(ReverseConnect, requester, nonce), TRANSPORT_TCP)

    def _handle_seq_request(self, request: SeqRequest, control: _ControlConnection) -> None:
        """§4.5 step 1: A asks to communicate; S tells B to punch toward A."""
        requester = self.tcp_clients.get(request.requester_id)
        target = self.tcp_clients.get(request.target_id)
        if requester is None or target is None:
            self._error(RendezvousError.UNKNOWN_PEER, "sequential peer not registered", control)
            return
        self._send_to_client(
            target, _describe(SeqConnect, requester, self._rng.nonce64()), TRANSPORT_TCP
        )

    def _handle_seq_ready(self, ready: SeqReady, control: _ControlConnection) -> None:
        """§4.5 step 4: B is listening; signal A to connect to B."""
        target = self.tcp_clients.get(ready.peer_id)  # the original requester A
        sender_id = control.client_id
        sender = self.tcp_clients.get(sender_id) if sender_id is not None else None
        if target is None or sender is None:
            return
        self._send_to_client(target, _describe(SeqReady, sender, ready.nonce), TRANSPORT_TCP)
