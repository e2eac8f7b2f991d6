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
    FrameBuffer,
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
    ShardForward,
    ShardForwardReply,
    ShardRedirect,
    TurnExchange,
    TRANSPORT_TCP,
    TRANSPORT_UDP,
)
from repro.core.registry import RegistrationTable, RegistryConfig, ShardRing
from repro.netsim.addresses import Endpoint
from repro.netsim.node import Host
from repro.obs.metrics import MetricsRegistry
from repro.transport.tcp import TcpConnection, TcpState
from repro.util.errors import ProtocolError
from repro.util.rng import SeededRng


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

    @property
    def behind_nat(self) -> bool:
        """Private and public endpoints differ => a NAT is on the path."""
        return self.public_ep != self.private_ep


class _ControlConnection:
    """Server-side state of one client's TCP control connection."""

    def __init__(self, server: "RendezvousServer", conn: TcpConnection) -> None:
        self.server = server
        self.conn = conn
        self.buffer = FrameBuffer()
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
    """The well-known server S, serving UDP and TCP on one port.

    Args:
        host: public simulated host to run on (must have a HostStack).
        port: the well-known port (paper examples use 1234).
        obfuscate: set to protect endpoint fields against payload-mangling
            NATs (§5.3); clients must use the same setting.
        registry_config: TTL/LRU eviction policy for the UDP registration
            table (see :class:`~repro.core.registry.RegistryConfig`).  The
            default is inert — no expiry, no bound, no sweep timer — so
            small-scale scenarios behave exactly as before.  TCP
            registrations are governed by their control connection's
            lifetime and stay policy-free.
        shard_ring: when this server is one shard of a pool, the shared
            :class:`~repro.core.registry.ShardRing` (see
            :func:`~repro.core.registry.attach_shard_ring`).  Requests for
            peer ids owned elsewhere draw a :class:`ShardRedirect` (client
            requests) or are forwarded shard-to-shard (connect requests).
            Sharding covers the UDP plane; TCP control connections pin a
            client to whichever server it dialled.
        shard_index: this server's position on the ring.
    """

    def __init__(
        self,
        host: Host,
        port: int = 1234,
        obfuscate: bool = False,
        rng: Optional[SeededRng] = None,
        registry_config: Optional[RegistryConfig] = None,
        shard_ring: Optional[ShardRing] = None,
        shard_index: Optional[int] = None,
    ) -> None:
        self.host = host
        self.port = port
        self.obfuscate = obfuscate
        self._rng = rng or SeededRng(0, f"rendezvous/{host.name}")
        stack = host.stack  # type: ignore[attr-defined]
        self.endpoint = Endpoint(host.primary_ip, port)
        #: The owning network's registry (set on the host by Network.add_node);
        #: standalone hosts get a private one so instrumentation never branches.
        self.metrics: MetricsRegistry = getattr(host, "metrics", None) or MetricsRegistry(
            now_fn=lambda: host.scheduler.now
        )
        self.registry_config = registry_config or RegistryConfig()
        cfg = self.registry_config
        now_fn = lambda: self.host.scheduler.now  # noqa: E731 - tiny closure
        self.udp_clients: RegistrationTable = RegistrationTable(
            now_fn,
            ttl=cfg.ttl,
            max_entries=cfg.max_entries,
            sweep_granularity=cfg.sweep_granularity,
            metrics=self.metrics,
        )
        self.tcp_clients: RegistrationTable = RegistrationTable(now_fn, metrics=self.metrics)
        self.shard_ring = shard_ring
        self.shard_index = shard_index
        self._tcp_conns: Dict[int, _ControlConnection] = {}
        self._udp = stack.udp.socket(port)
        self._udp.on_datagram = self._on_udp
        self._listener = stack.tcp.listen(port, on_accept=self._on_accept, reuse=True)
        #: Stable pairing nonce per (pair, transport) so that retransmitted
        #: connect requests (datagram loss, §3.2's asynchronous timing) keep
        #: authenticating the same punch attempt.
        self._pair_nonces: Dict[tuple, tuple] = {}
        # metrics
        self.connect_requests = 0
        self.relayed_messages = 0
        self.relayed_bytes = 0
        self.relay_send_failures = 0
        self.errors_sent = 0
        self.restarts = 0
        self.endpoint_moves = 0
        self.adopted_registrations = 0
        self.shard_redirects = 0
        self.shard_forwards = 0
        self._redirect_counter = self.metrics.bound_counter("rendezvous.shard.redirects")
        self._forward_counter = self.metrics.bound_counter("rendezvous.shard.forwards")
        #: True while the server is killed (see :meth:`stop`).
        self.stopped = False
        if cfg.ttl is not None:
            self.udp_clients.start_sweeps(self.scheduler)

    @property
    def scheduler(self):
        return self.host.scheduler

    def stop(self) -> None:
        """Kill the server: release its sockets and drop all state.

        Unlike :meth:`restart` (amnesia, but still answering), a stopped
        server is *gone*: UDP keepalives fall on an unbound port (no ack, no
        error — exactly what a dead host looks like) and TCP connection
        attempts draw an RST.  Clients with a server list detect the decay
        and fail over; see :mod:`repro.core.failover`.
        """
        if self.stopped:
            return
        self.stopped = True
        self.udp_clients.stop_sweeps()
        self.udp_clients.clear()
        self.tcp_clients.clear()
        self._pair_nonces.clear()
        conns, self._tcp_conns = self._tcp_conns, {}
        for control in conns.values():
            control.conn.abort()
        self._udp.close()
        self._listener.close()
        if self.shard_ring is not None and self.shard_index is not None:
            # Let surviving shards redirect our peers to the ring successor
            # instead of pointing them at a dead server.
            self.shard_ring.mark_down(self.shard_index)

    def start(self) -> None:
        """Revive a stopped server on the same well-known endpoint.

        State is not restored — a revived server has the same amnesia as a
        restarted one (use :meth:`adopt_registrations` for warm handover).
        """
        if not self.stopped:
            return
        self.stopped = False
        self.restarts += 1
        stack = self.host.stack  # type: ignore[attr-defined]
        self._udp = stack.udp.socket(self.port)
        self._udp.on_datagram = self._on_udp
        self._listener = stack.tcp.listen(self.port, on_accept=self._on_accept, reuse=True)
        if self.registry_config.ttl is not None:
            self.udp_clients.start_sweeps(self.scheduler)
        if self.shard_ring is not None and self.shard_index is not None:
            self.shard_ring.mark_up(self.shard_index)

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

    # -- failover hooks (registration handover) ---------------------------------

    def export_registrations(self) -> Dict[int, Registration]:
        """Snapshot the UDP registration table for handover to a successor."""
        return {
            cid: Registration(
                client_id=reg.client_id,
                public_ep=reg.public_ep,
                private_ep=reg.private_ep,
                registered_at=reg.registered_at,
                last_seen=reg.last_seen,
                keepalives=reg.keepalives,
            )
            for cid, reg in self.udp_clients.items()
        }

    def adopt_registrations(self, registrations: Dict[int, Registration]) -> None:
        """Warm-failover import: accept a predecessor's UDP registrations.

        The adopted public endpoints stay valid only while the clients' NAT
        mappings toward the *old* server still exist and the NATs map
        endpoint-independently — exactly the §3 assumption punching relies
        on.  Clients that fail over re-register anyway; adoption just closes
        the window where relayed payloads and connect requests would fail.
        Registrations the successor already holds (the client re-registered
        here first) are *not* overwritten — its own observation is fresher.
        The import is a bulk O(n) insert with zero per-entry timer churn:
        adopted entries join the successor's sweep wheel as plain bucket
        appends (see :meth:`~repro.core.registry.RegistrationTable.adopt`).
        """
        self.adopted_registrations += self.udp_clients.adopt(registrations)

    def handover_to(self, successor: "RendezvousServer") -> None:
        """Push this server's registrations to *successor* (planned failover).

        Pair nonces ride along (without overwriting the successor's own):
        an in-flight punch whose connect-request retransmits land on the
        successor keeps authenticating against the same nonce instead of
        restarting the exchange.
        """
        successor.adopt_registrations(self.export_registrations())
        for key, value in self._pair_nonces.items():
            successor._pair_nonces.setdefault(key, value)

    # -- UDP side --------------------------------------------------------------

    def _send_udp(self, message: Message, dest: Endpoint) -> None:
        self._udp.sendto(protocol.encode(message, self.obfuscate), dest)

    def _on_udp(self, data: bytes, src: Endpoint) -> None:
        message = protocol.try_decode(data)
        if message is None:
            return  # stray traffic
        if isinstance(message, Register):
            if self._misrouted(message.client_id, src):
                return
            self._register(self.udp_clients, message, src, src)
        elif isinstance(message, Keepalive):
            if self._misrouted(message.client_id, src):
                return
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
            self.udp_clients.touch(message.client_id)
            self._send_udp(KeepaliveAck(client_id=message.client_id), src)
        elif isinstance(message, ConnectRequest):
            self._handle_connect(message, src)
        elif isinstance(message, ShardForward):
            self._handle_shard_forward(message, src)
        elif isinstance(message, ShardForwardReply):
            self._handle_shard_forward_reply(message)
        elif isinstance(message, RelayPayload):
            self._handle_relay(message, TRANSPORT_UDP, src)
        elif isinstance(message, TurnExchange):
            target = self.udp_clients.lookup(message.target)
            if target is not None:
                self._send_to_client(target, message, TRANSPORT_UDP)
        elif isinstance(message, ReverseRequest):
            self._handle_reverse(message, src)

    # -- sharding ----------------------------------------------------------------

    def _owns(self, peer_id: int) -> bool:
        """Does the ring place *peer_id* on this shard (true when unsharded)?"""
        if self.shard_ring is None or self.shard_index is None:
            return True
        return self.shard_ring.owner_index(peer_id) == self.shard_index

    def _misrouted(self, peer_id: int, src: Endpoint) -> bool:
        """Redirect a client whose id another shard owns; True when redirected."""
        if self._owns(peer_id):
            return False
        self.shard_redirects += 1
        self._redirect_counter.inc()
        self._send_udp(
            ShardRedirect(peer_id=peer_id, server=self.shard_ring.owner(peer_id)),
            src,
        )
        return True

    def _handle_shard_forward(self, forward: ShardForward, src: Endpoint) -> None:
        """Finish a cross-shard connect request as the target's owner.

        We resolve the target locally, mint the pairing nonce, send the
        *target's* PeerEndpoints copy ourselves (the target keepalives here,
        so its NAT passes our datagrams), and return a
        :class:`ShardForwardReply` to the requesting shard — which delivers
        the requester's copy, for the mirror-image NAT-filter reason.
        """
        target = self.udp_clients.lookup(forward.target_id)
        if target is None:
            self._send_udp(
                ShardForwardReply(
                    requester_id=forward.requester_id,
                    target_id=forward.target_id,
                    target_public=Endpoint("0.0.0.0", 0),
                    target_private=Endpoint("0.0.0.0", 0),
                    nonce=0,
                    transport=forward.transport,
                    status=ShardForwardReply.STATUS_UNKNOWN_PEER,
                ),
                src,
            )
            return
        nonce = self._pair_nonce(forward.requester_id, forward.target_id, forward.transport)
        self._send_to_client(
            target,
            PeerEndpoints(
                peer_id=forward.requester_id,
                public_ep=forward.requester_public,
                private_ep=forward.requester_private,
                nonce=nonce,
                transport=forward.transport,
                role=PeerEndpoints.ROLE_RESPONDER,
            ),
            forward.transport,
        )
        self._send_udp(
            ShardForwardReply(
                requester_id=forward.requester_id,
                target_id=forward.target_id,
                target_public=target.public_ep,
                target_private=target.private_ep,
                nonce=nonce,
                transport=forward.transport,
                status=ShardForwardReply.STATUS_OK,
            ),
            src,
        )

    def _handle_shard_forward_reply(self, reply: ShardForwardReply) -> None:
        """Deliver the requester's half of a cross-shard endpoint exchange.

        The requester registered with (and keepalives toward) *this* shard,
        so our datagrams pass its NAT filter.  A requester we no longer hold
        (re-homed since the forward) is dropped silently — its connect
        retransmit re-routes through the new home.
        """
        requester = self.udp_clients.get(reply.requester_id)
        if requester is None:
            return
        if reply.status != ShardForwardReply.STATUS_OK:
            self._error(
                RendezvousError.UNKNOWN_PEER,
                f"peer {reply.target_id} not registered",
                requester.public_ep,
            )
            return
        self._send_udp(
            PeerEndpoints(
                peer_id=reply.target_id,
                public_ep=reply.target_public,
                private_ep=reply.target_private,
                nonce=reply.nonce,
                transport=reply.transport,
                role=PeerEndpoints.ROLE_REQUESTER,
            ),
            requester.public_ep,
        )

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
        self, table: RegistrationTable, message: Register, observed: Endpoint, reply: _Carrier
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

    def _error(self, code: int, detail: str, reply: _Carrier) -> None:
        self.errors_sent += 1
        self._reply(RendezvousError(code=code, detail=detail.encode()), reply)

    def _handle_connect(self, request: ConnectRequest, reply: _Carrier) -> None:
        """§3.2 step 2: forward each peer's endpoints to the other."""
        self.connect_requests += 1
        transport = request.transport
        # Sharding covers the UDP plane only: a UDP exchange asked for by
        # datagram is the one request another shard may own.
        sharded = transport == TRANSPORT_UDP and isinstance(reply, Endpoint)
        if sharded and self._misrouted(request.requester_id, reply):
            return
        table = self.udp_clients if transport == TRANSPORT_UDP else self.tcp_clients
        requester = table.lookup(request.requester_id)
        if requester is None:
            self._error(
                RendezvousError.NOT_REGISTERED,
                f"client {request.requester_id} not registered",
                reply,
            )
            return
        if sharded and not self._owns(request.target_id):
            # The target's registration lives on another shard: hand the
            # exchange over with everything the owner needs (§3.2 step 2 runs
            # there).  Retransmitted connect requests re-forward; the owner's
            # stable pair nonce keeps them converging on one punch attempt.
            self.shard_forwards += 1
            self._forward_counter.inc()
            self._send_udp(
                ShardForward(
                    requester_id=requester.client_id,
                    requester_public=requester.public_ep,
                    requester_private=requester.private_ep,
                    target_id=request.target_id,
                    transport=transport,
                ),
                self.shard_ring.owner(request.target_id),
            )
            return
        target = table.lookup(request.target_id)
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
        """
        table = self.udp_clients if transport == TRANSPORT_UDP else self.tcp_clients
        target = table.lookup(message.target)
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
