"""PeerClient: the application-facing API of the library.

One :class:`PeerClient` corresponds to the paper's "client A" / "client B":
a host that registers with a rendezvous server S and then establishes direct
peer-to-peer sessions with other clients by UDP hole punching (§3), parallel
TCP hole punching (§4.2), sequential TCP hole punching (§4.5), connection
reversal (§2.3), or relaying through S (§2.2).

Typical use (see ``examples/quickstart.py``)::

    client = PeerClient(host, client_id=1, server=server_endpoint)
    client.register_udp()
    ...run the network until registered...
    client.connect_udp(peer_id=2, on_session=lambda s: s.send(b"hi"))

The client owns one UDP socket (enough for S *and* all peers, §4.2) and —
once :meth:`register_tcp` is called — one TCP listen socket plus a control
connection to S, all sharing one local TCP port via SO_REUSEADDR (§4.1).
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, List, Optional, Tuple

from repro.core import protocol
from repro.core.protocol import (
    ConnectRequest,
    Hello,
    Keepalive,
    Message,
    PeerEndpoints,
    Punch,
    PunchAck,
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
    SessionClose,
    SessionData,
    SessionKeepalive,
    TRANSPORT_TCP,
    TRANSPORT_UDP,
)
from repro.core.relay import RelaySession
from repro.core.reversal import ReversalRequest, ReversalResponder
from repro.core.tcp_punch import TcpHolePuncher, TcpPunchConfig, TcpStream
from repro.core.tcp_sequential import (
    SequentialConfig,
    SequentialRequester,
    SequentialResponder,
)
from repro.core.udp_punch import PunchConfig, UdpHolePuncher, UdpSession, _Connect
from repro.netsim.addresses import Endpoint
from repro.obs.metrics import MetricsRegistry
from repro.netsim.clock import Timer
from repro.netsim.node import Host
from repro.transport.tcp import FrameBuffer
from repro.util.errors import ConnectionError_, ProtocolError, ReproError, TimeoutError_

SessionHandler = Callable[[UdpSession], None]
StreamHandler = Callable[[TcpStream], None]
FailureHandler = Callable[[Exception], None]
_Claimant = Callable[[TcpStream, Hello], None]

#: What peers send each other over UDP (punch probes and session traffic, the
#: per-datagram bulk of an established session); everything else the UDP
#: socket receives is rendezvous control.
_PEER_MESSAGES = frozenset((Punch, PunchAck, SessionData, SessionKeepalive, SessionClose))

#: How long an accepted-but-unclaimed authenticated stream is parked before
#: being dropped (covers Hello racing ahead of the endpoint exchange).
PARK_GRACE = 5.0
#: How long an accepted stream may stay silent before being dropped.
ACCEPT_AUTH_GRACE = 5.0

#: Each connect technique by its name — the key of the client's books and the
#: label of its flight attempt, never sent on the wire — and the carrier on
#: which S may refuse its requests.
_TECHNIQUES = {
    "udp": TRANSPORT_UDP,
    "tcp": TRANSPORT_TCP,
    "reversal": TRANSPORT_TCP,
    "sequential": TRANSPORT_TCP,
}


class PeerClient:
    """A peer application instance on one simulated host.

    Args:
        host: the simulated host (must have a HostStack attached).
        client_id: this client's identity at the rendezvous server.
        server: the server's well-known endpoint (same port for UDP/TCP).
        local_port: the client's local port — the paper's examples use 4321;
            used for the UDP socket and (separately) the TCP port family.
        obfuscate: obfuscate endpoint fields in messages (§3.1 defence
            against payload-mangling NATs; must match the server's setting).

    The timing knobs start at their defaults; a caller that wants others
    assigns :attr:`punch_config`, :attr:`tcp_punch_config` or
    :attr:`sequential_config` before connecting.
    """

    def __init__(
        self,
        host: Host,
        client_id: int,
        server: Endpoint,
        local_port: int = 4321,
        obfuscate: bool = False,
    ) -> None:
        self.host = host
        self.scheduler = host.scheduler
        self.client_id = client_id
        self.server = server
        self.obfuscate = obfuscate
        self.punch_config = PunchConfig()
        self.tcp_punch_config = TcpPunchConfig()
        self.sequential_config = SequentialConfig()
        stack = host.stack  # type: ignore[attr-defined]
        self._stack = stack
        # --- UDP side -------------------------------------------------------
        self.udp_socket = stack.udp.socket(local_port)
        self.udp_socket.on_datagram = self._on_udp
        self.udp_private = self.udp_socket.local
        self.udp_public: Optional[Endpoint] = None
        self.udp_registered = False
        self._udp_register_cb: Optional[Callable[[], None]] = None
        self._udp_register_timer: Optional[Timer] = None
        self._server_keepalive_timer: Optional[Timer] = None
        self.punchers: Dict[int, UdpHolePuncher] = {}
        self.sessions: Dict[int, UdpSession] = {}
        #: Re-register automatically when S answers NOT_REGISTERED (it lost
        #: our registration, e.g. across a restart).
        self.auto_reregister = True
        # --- TCP side -------------------------------------------------------
        self.tcp_local_port = local_port
        self.tcp_private = Endpoint(host.primary_ip, local_port)
        self.tcp_public: Optional[Endpoint] = None
        self.tcp_registered = False
        self._tcp_register_cb: Optional[Callable[[], None]] = None
        self._control = None  # TcpConnection
        #: The control connection errored (S restarted, died or is
        #: unreachable); the server-keepalive tick re-dials while this is set.
        self._control_failed = False
        self._control_buffer = FrameBuffer(protocol.decode)
        self._listener = None
        self.tcp_punchers: Dict[int, TcpHolePuncher] = {}
        self._stream_claimants: Dict[Tuple[int, int], _Claimant] = {}
        self._parked_streams: Dict[Tuple[int, int], Tuple[TcpStream, Hello]] = {}
        self._reversal_punchers: Dict[int, ReversalRequest] = {}
        self._sequential_punchers: Dict[int, SequentialRequester] = {}
        #: The punch under way toward each peer, one book per technique.
        self._punch_books = {
            "udp": self.punchers,
            "tcp": self.tcp_punchers,
            "reversal": self._reversal_punchers,
            "sequential": self._sequential_punchers,
        }
        # --- fallbacks and app handlers ----------------------------------------
        self.relays: Dict[Tuple[int, int], RelaySession] = {}
        self.on_peer_session: Optional[SessionHandler] = None
        self.on_peer_stream: Optional[StreamHandler] = None
        self.on_relay_session: Optional[Callable[[RelaySession], None]] = None
        self.incoming_streams: List[TcpStream] = []
        # --- metrics --------------------------------------------------------------
        self.control_reconnects = 0
        self.reversal_dial_failures = 0
        self.stray_messages = 0
        #: The owning network's registry (set on the host by Network.add_node);
        #: standalone hosts get a private one so instrumentation never branches.
        self.metrics: MetricsRegistry = getattr(host, "metrics", None) or MetricsRegistry()
        #: Connects awaiting S's answer (the peer's endpoints, ReverseExpect /
        #: SeqReady), keyed by (technique, peer_id).  A record leaves when
        #: the answer arrives — and rides the punch it starts — when its
        #: deadline passes, or when S answers with a RendezvousError.
        self._connects: Dict[Tuple[str, int], _Connect] = {}
        #: The owning network's flight recorder (None when none is attached).
        #: Every connect opens one attempt; everything causally downstream
        #: (retransmits, punch probes, the server's replies) inherits its
        #: correlation id through the scheduler context.
        self.flight = getattr(host, "flight", None)

    # -- conveniences ------------------------------------------------------------

    @property
    def tcp_stack(self):
        return self._stack.tcp

    # =====================================================================
    # UDP: registration, punching, sessions
    # =====================================================================

    def register_udp(
        self,
        on_registered: Optional[Callable[[], None]] = None,
        retry_interval: float = 1.0,
        max_tries: int = 5,
    ) -> None:
        """Register with S over UDP (§3.1).  Retries cover datagram loss.

        Calling again re-registers (e.g. after the server lost its state).
        """
        self.udp_registered = False
        self._udp_register_cb = on_registered
        if self._udp_register_timer is not None:
            self._udp_register_timer.cancel()
        self._udp_register_attempt(retry_interval, max_tries)

    def _udp_register_attempt(self, retry_interval: float, tries_left: int) -> None:
        if self.udp_registered:
            return
        if tries_left <= 0:
            return
        self._send_server_udp(
            Register(client_id=self.client_id, private_ep=self.udp_private)
        )
        self._udp_register_timer = self.scheduler.call_later(
            retry_interval, self._udp_register_attempt, retry_interval, tries_left - 1
        )

    def start_server_keepalives(self, interval: float = 15.0) -> None:
        """Periodically refresh the registration's NAT mapping (§3.6).

        Each tick also re-dials a TCP control connection that errored, so a
        TCP registration heals once S answers again.
        """
        self.stop_server_keepalives()

        def tick() -> None:
            self._send_server_udp(Keepalive(client_id=self.client_id))
            if self._control_failed:
                self._reopen_control()
            self._server_keepalive_timer = self.scheduler.call_later(interval, tick)

        self._server_keepalive_timer = self.scheduler.call_later(interval, tick)

    def stop_server_keepalives(self) -> None:
        if self._server_keepalive_timer is not None:
            self._server_keepalive_timer.cancel()
            self._server_keepalive_timer = None

    def connect_udp(
        self,
        peer_id: int,
        on_session: SessionHandler,
        on_failure: Optional[FailureHandler] = None,
        config: Optional[PunchConfig] = None,
    ) -> None:
        """Establish a P2P UDP session with *peer_id* by hole punching (§3.2).

        The outcome arrives via *on_session* (an established
        :class:`UdpSession`) or *on_failure*.  *config* overrides the
        client-wide :attr:`punch_config` for this punch only.
        """
        if not self.udp_registered:
            raise ReproError("connect_udp before UDP registration completed")
        existing = self.sessions.get(peer_id)
        if existing is not None and existing.alive:
            self.scheduler.call_later(0.0, on_session, existing)
            return
        config = config or self.punch_config
        connect = self._open_connect("udp", peer_id, on_session, on_failure, config)
        if connect is None:
            return
        # Retransmit the request while it is pending: the request or the
        # server's forwarded endpoints may be lost in transit, and S keeps a
        # stable pairing nonce across retries.
        self._udp_connect_attempt(peer_id, tries_left=max(1, int(config.timeout)))
        self.scheduler.call_later(config.timeout, self._connect_deadline, ("udp", peer_id), connect)

    def _udp_connect_attempt(self, peer_id: int, tries_left: int) -> None:
        if ("udp", peer_id) not in self._connects or tries_left <= 0:
            return
        self._request_endpoints(peer_id)
        self.scheduler.call_later(
            1.0, self._udp_connect_attempt, peer_id, tries_left - 1
        )

    def _request_endpoints(self, peer_id: int) -> None:
        """§3.2 step 1: ask S to introduce us to *peer_id*."""
        self._send_server_udp(
            ConnectRequest(requester_id=self.client_id, target_id=peer_id, transport=TRANSPORT_UDP)
        )

    # -- the connect book (every technique) -----------------------------------------

    def _open_connect(
        self, technique: str, peer_id: int, on_connected, on_failure, config
    ) -> Optional[_Connect]:
        """Open the record of one connect request, with its flight attempt
        when a recorder is attached; returns the record.

        A connect to a peer already pending or punching by *technique* joins
        that one instead and returns None: its callbacks fire after the
        earlier callers', with the same outcome, and its *config* is ignored.
        """
        key = (technique, peer_id)
        connect = self._connects.get(key)
        puncher = self._punch_books[technique].get(peer_id)
        if connect is None and puncher is not None and not puncher.finished:
            connect = puncher.connect
        if connect is not None:
            connect.callbacks.append((on_connected, on_failure))
            return None
        attempt = None
        if self.flight is not None:
            attempt = self.flight.attempt(
                "connect." + technique, client=self.client_id, peer=peer_id
            )
        connect = _Connect([(on_connected, on_failure)], config, attempt)
        self._connects[key] = connect
        return connect

    def _connect_on_control(
        self, technique: str, peer_id: int, request: Message, on_connected, on_failure, config
    ) -> None:
        """A connect whose *request* rides the TCP control connection (§4.2,
        §4.5, §2.3): one request, then a deadline of *config*'s timeout for
        S's answer — the punch it starts gets that budget again."""
        config = config or self.tcp_punch_config
        connect = self._open_connect(technique, peer_id, on_connected, on_failure, config)
        if connect is None:
            return
        self._send_server_tcp(request)
        self.scheduler.call_later(
            config.timeout, self._connect_deadline, (technique, peer_id), connect
        )

    def _connect_deadline(self, key: Tuple[str, int], connect: _Connect) -> None:
        """If S never answers (down, unreachable, restarting, killed
        mid-request) the request must still fail in bounded time so an
        application re-punching on demand can back off and retry.  The timer
        is never cancelled; it carries the record it was armed for, so once
        that request is settled it cannot fail a later request to the same
        peer."""
        if self._connects.get(key) is not connect:
            return  # endpoints arrived (or the request already failed)
        del self._connects[key]
        self._fail_connect(
            connect,
            "timeout",
            TimeoutError_(f"endpoint exchange with peer {key[1]} timed out"),
        )

    def _request_failed(self, error: RendezvousError, transport: int) -> None:
        """S refused a request on *transport*: every connect pending there
        fails, whatever its technique — the error names no request."""
        if (
            transport == TRANSPORT_UDP
            and error.code == RendezvousError.NOT_REGISTERED
            and self.auto_reregister
            and self.udp_registered
        ):
            # S lost our registration (restart, state flush) while we thought
            # we were registered.  Re-register and keep the pending connects:
            # their retransmit loops will retry once we are back in the table.
            self.metrics.counter("client.reregistrations").inc()
            self.register_udp()
            return
        failed = [item for item in self._connects.items() if _TECHNIQUES[item[0][0]] == transport]
        for key, _ in failed:
            del self._connects[key]
        for _, connect in failed:
            self._fail_connect(
                connect,
                "error",
                ReproError(f"rendezvous error: {error.reason}"),
            )

    def _fail_connect(self, connect: _Connect, outcome: str, error: Exception) -> None:
        if connect.attempt is not None:
            self.flight.finish(connect.attempt, outcome)
        for _, on_failure in connect.callbacks:
            if on_failure is not None:
                on_failure(error)

    def _take_pending(self, technique: str, peer_id: int) -> Optional[_Connect]:
        """S answered: the connect it answers, for the punch to carry (None
        when we are the responder, or the request already failed)."""
        return self._connects.pop((technique, peer_id), None)

    def _start_punch(self, puncher) -> None:
        """Book *puncher* under its technique and start it."""
        self._punch_books[puncher._name][puncher.peer_id] = puncher
        puncher.start()

    def _send_server_udp(self, message: Message) -> None:
        self.udp_socket.sendto(protocol.encode(message, self.obfuscate), self.server)

    def _send_peer(self, message: Message, endpoint: Endpoint) -> None:
        """Raw datagram to a peer candidate endpoint (punchers/sessions)."""
        self.udp_socket.sendto(protocol.encode(message, self.obfuscate), endpoint)

    # -- UDP demux ----------------------------------------------------------------

    def _on_udp(self, data: bytes, src: Endpoint) -> None:
        message = protocol.try_decode(data)
        if message is None:
            self.stray_messages += 1
            return
        if type(message) in _PEER_MESSAGES:
            self._route_peer_message(message, src)
        elif isinstance(message, Registered):
            self._udp_registered(message)
        elif isinstance(message, PeerEndpoints):
            if message.transport == TRANSPORT_UDP:
                self._endpoint_exchange(message)
        elif isinstance(message, RelayPayload):
            self._route_relay(message, TRANSPORT_UDP)
        elif isinstance(message, RelayError):
            self._relay_send_failed(message, TRANSPORT_UDP)
        elif isinstance(message, RendezvousError):
            self._request_failed(message, TRANSPORT_UDP)

    def _udp_registered(self, message: Registered) -> None:
        if message.client_id != self.client_id:
            return
        self.udp_public = message.public_ep
        self.udp_registered = True
        if self._udp_register_timer is not None:
            self._udp_register_timer.cancel()
        callback, self._udp_register_cb = self._udp_register_cb, None
        if callback is not None:
            callback()

    @property
    def behind_nat_udp(self) -> Optional[bool]:
        """True if S observed a different endpoint than we bound (§3.1)."""
        if self.udp_public is None:
            return None
        return self.udp_public != self.udp_private

    def _endpoint_exchange(self, message: PeerEndpoints) -> None:
        """§3.2 / §4.2 steps 2-3: we know the peer's endpoints — start
        punching (over TCP: connecting while we keep listening)."""
        peer_id, udp = message.peer_id, message.transport == TRANSPORT_UDP
        technique = "udp" if udp else "tcp"
        punchers = self._punch_books[technique]
        if peer_id in punchers and not punchers[peer_id].finished:
            return  # already punching this peer
        session = self.sessions.get(peer_id) if udp else None
        if session is not None and session.alive and session.nonce == message.nonce:
            # Late duplicate of an exchange we already completed (S reuses
            # the pairing nonce precisely so stragglers — e.g. a nudge's
            # response arriving after lock-in — don't restart a live punch).
            return
        connect = self._take_pending(technique, peer_id)
        requester = connect is not None
        # Responder role (nothing pending): deliver via the application handler.
        incoming = self._deliver_incoming_session if udp else self._deliver_incoming_stream
        config = self.punch_config if udp else self.tcp_punch_config
        connect = connect or _Connect([(incoming, None)], config)
        candidates = [message.public_ep, message.private_ep]
        if udp:
            puncher = UdpHolePuncher(self, peer_id, message.nonce, candidates, connect)
        else:
            controlling = message.role == PeerEndpoints.ROLE_REQUESTER
            puncher = TcpHolePuncher(self, peer_id, message.nonce, candidates, controlling, connect)
            self._register_stream_claimant(peer_id, message.nonce, puncher.offer_accepted)
        self._start_punch(puncher)
        if udp and requester:
            # We are the requester: keep nudging S while the punch is live,
            # in case the responder's copy of the endpoint exchange was lost
            # (S reuses the pairing nonce, so late copies still match).
            self._udp_connect_nudge(peer_id)

    def _udp_connect_nudge(self, peer_id: int) -> None:
        puncher = self.punchers.get(peer_id)
        if puncher is None or puncher.finished:
            return
        self._request_endpoints(peer_id)
        self.scheduler.call_later(1.0, self._udp_connect_nudge, peer_id)

    def _route_peer_message(self, message, src: Endpoint) -> None:
        sender = message.sender
        puncher = self.punchers.get(sender)
        if puncher is not None and not puncher.finished:
            puncher.handle(message, src)
            return
        session = self.sessions.get(sender)
        if (
            session is not None
            and session.alive
            and message.receiver == self.client_id
            and message.nonce == session.nonce
        ):
            session._handle(message, src)
            return
        self.stray_messages += 1

    def _route_relay(self, message: RelayPayload, transport: int) -> None:
        if message.target != self.client_id:
            self.stray_messages += 1
            return
        key = (message.sender, transport)
        session = self.relays.get(key)
        if session is None:
            session = RelaySession(self, message.sender, transport)
            self.relays[key] = session
            if self.on_relay_session is not None:
                self.on_relay_session(session)
        session._handle(message)

    def _relay_send_failed(self, error: RelayError, transport: int) -> None:
        """S reported that a relayed payload had no live target (§2.2).

        Routed to the matching :class:`RelaySession` (never the connect
        machinery — a relay delivery failure must not fail pending punches).
        """
        if error.sender != self.client_id:
            self.stray_messages += 1
            return
        session = self.relays.get((error.target, transport))
        if session is not None:
            session._send_failed(error)

    # -- puncher/session bookkeeping --------------------------------------------------

    def _punch_finished(self, puncher, outcome: str, session=None) -> None:
        """A punch of any technique locked in or failed: finish its connect
        attempt and drop it from its book.  A UDP *session* becomes the
        peer's current one."""
        if puncher.connect.attempt is not None:
            self.flight.finish(puncher.connect.attempt, outcome)
        punchers = self._punch_books[puncher._name]
        if punchers.get(puncher.peer_id) is puncher:
            del punchers[puncher.peer_id]
        if isinstance(session, UdpSession):
            old = self.sessions.get(puncher.peer_id)
            if old is not None and old.alive:
                old.close()
            self.sessions[puncher.peer_id] = session

    def _session_closed(self, session: UdpSession) -> None:
        if self.sessions.get(session.peer_id) is session:
            del self.sessions[session.peer_id]

    def _deliver_incoming_session(self, session: UdpSession) -> None:
        if self.on_peer_session is not None:
            self.on_peer_session(session)

    # =====================================================================
    # TCP: registration, parallel/sequential punching, reversal
    # =====================================================================

    def register_tcp(self, on_registered: Optional[Callable[[], None]] = None) -> None:
        """Open the listen socket and the control connection to S (§4.2).

        All TCP sockets share :attr:`tcp_local_port` via SO_REUSEADDR (§4.1).
        """
        self._tcp_register_cb = on_registered
        if self._listener is None:
            self._listener = self.tcp_stack.listen(
                self.tcp_local_port, on_accept=self._on_accept, reuse=True
            )
        self._open_control()

    def _open_control(self) -> None:
        self._control_failed = False
        self._control_buffer = FrameBuffer(protocol.decode)
        self._control = self.tcp_stack.connect(
            self.server,
            local_port=self.tcp_local_port,
            reuse=True,
            on_connected=self._control_connected,
            on_error=self._control_error,
            on_data=self._control_data,
        )

    def _control_connected(self, conn) -> None:
        conn.send(
            protocol.frame(
                Register(client_id=self.client_id, private_ep=self.tcp_private),
                self.obfuscate,
            )
        )

    def _control_error(self, error) -> None:
        # RST from a restarted or stopped S, or a retransmission timeout
        # toward an unreachable one: the next server-keepalive tick re-dials.
        self.tcp_registered = False
        self._control_failed = True

    def _reopen_control(self) -> None:
        """Tear down the control connection and re-dial S (after an error,
        and when §4.5 consumes it)."""
        self.control_reconnects += 1
        self.tcp_registered = False
        if self._control is not None:
            self._control.abort()
        self._open_control()

    def _control_data(self, data: bytes) -> None:
        try:
            messages = self._control_buffer.feed(data)
        except ProtocolError:
            return
        for message in messages:
            self._dispatch_server_tcp(message)

    def _send_server_tcp(self, message: Message) -> None:
        if self._control is None:
            raise ReproError("TCP control connection not open")
        try:
            self._control.send(protocol.frame(message, self.obfuscate))
        except ConnectionError_:
            # The control connection died under us (server kill mid-exchange).
            # Swallow rather than unwind the caller: pending requests have
            # their own deadlines, and the server-keepalive tick re-dials.
            self.metrics.counter("client.control_send_failures").inc()

    def _consume_control_connection(self) -> None:
        """§4.5: the sequential procedure consumes the connection to S; we
        reset it and immediately re-register on a fresh connection."""
        self._reopen_control()

    def connect_tcp(
        self,
        peer_id: int,
        on_stream: StreamHandler,
        on_failure: Optional[FailureHandler] = None,
        config: Optional[TcpPunchConfig] = None,
    ) -> None:
        """Open a P2P TCP stream to *peer_id* by parallel hole punching (§4.2).

        *config* overrides :attr:`tcp_punch_config` for this punch only.
        """
        if not self.tcp_registered:
            raise ReproError("connect_tcp before TCP registration completed")
        request = ConnectRequest(
            requester_id=self.client_id, target_id=peer_id, transport=TRANSPORT_TCP
        )
        self._connect_on_control("tcp", peer_id, request, on_stream, on_failure, config)

    def connect_tcp_sequential(
        self,
        peer_id: int,
        on_stream: StreamHandler,
        on_failure: Optional[FailureHandler] = None,
    ) -> None:
        """Open a P2P TCP stream using the §4.5 sequential procedure."""
        if not self.tcp_registered:
            raise ReproError("connect_tcp_sequential before TCP registration")
        request = SeqRequest(requester_id=self.client_id, target_id=peer_id)
        self._connect_on_control(
            "sequential", peer_id, request, on_stream, on_failure, self.sequential_config
        )

    def request_reversal(
        self,
        target_id: int,
        on_stream: StreamHandler,
        on_failure: Optional[FailureHandler] = None,
        timeout: float = 15.0,
    ) -> None:
        """Ask *target_id* (via S) to connect back to us (§2.3).  *timeout*
        bounds S's answer and then the wait for the stream, like
        ``connect_tcp``'s punch timeout."""
        if not self.tcp_registered:
            raise ReproError("request_reversal before TCP registration")
        request = ReverseRequest(requester_id=self.client_id, target_id=target_id)
        config = dataclasses.replace(self.tcp_punch_config, timeout=timeout)
        self._connect_on_control("reversal", target_id, request, on_stream, on_failure, config)

    def open_relay(self, peer_id: int, transport: int = TRANSPORT_UDP) -> RelaySession:
        """Open (or return) a relayed channel to *peer_id* via S (§2.2)."""
        key = (peer_id, transport)
        session = self.relays.get(key)
        if session is None or session.closed:
            session = RelaySession(self, peer_id, transport)
            self.relays[key] = session
        return session

    def _relay_closed(self, session: RelaySession) -> None:
        key = (session.peer_id, session.transport)
        if self.relays.get(key) is session:
            del self.relays[key]

    # -- server (TCP control) demux -----------------------------------------------------

    def _dispatch_server_tcp(self, message: Message) -> None:
        if isinstance(message, Registered):
            if message.client_id == self.client_id:
                self.tcp_public = message.public_ep
                self.tcp_registered = True
                callback, self._tcp_register_cb = self._tcp_register_cb, None
                if callback is not None:
                    callback()
        elif isinstance(message, PeerEndpoints):
            if message.transport == TRANSPORT_TCP:
                self._endpoint_exchange(message)
        elif isinstance(message, ReverseExpect):
            self._control_answer(ReversalRequest, message)
        elif isinstance(message, ReverseConnect):
            ReversalResponder(self, message)
        elif isinstance(message, SeqConnect):
            SequentialResponder(self, message, self.sequential_config)
        elif isinstance(message, SeqReady):
            self._control_answer(SequentialRequester, message)
        elif isinstance(message, RelayPayload):
            self._route_relay(message, TRANSPORT_TCP)
        elif isinstance(message, RelayError):
            self._relay_send_failed(message, TRANSPORT_TCP)
        elif isinstance(message, RendezvousError):
            self._request_failed(message, TRANSPORT_TCP)

    def _control_answer(self, carrier, message) -> None:
        """S answered a reversal or sequential request (``ReverseExpect`` /
        ``SeqReady``): run the *carrier* punch for every caller waiting."""
        connect = self._take_pending(carrier._name, message.peer_id)
        if connect is None:
            return  # nothing asked, or the request already failed
        self._start_punch(carrier(self, message, connect))

    # -- accepted-stream routing (§4.2 step 5) -------------------------------------------------

    def _on_accept(self, conn) -> None:
        stream = TcpStream(self, conn, origin="accept")
        # If an active puncher is expecting this remote, let it speak first
        # (covers the both-sides-listen-preferred case of §4.3/§4.4 where the
        # stream surfaces via accept() on both ends).
        for puncher in self.tcp_punchers.values():
            if not puncher.finished and puncher.matches_remote(stream.remote):
                puncher.adopt_unauthenticated(stream)
                return
        self._park_or_route_stream(stream)

    def _park_or_route_stream(self, stream: TcpStream) -> None:
        """Hold a fresh inbound stream until its Hello identifies it."""
        stream._on_message = lambda m, s=stream: self._unauth_message(s, m)

        def drop_if_silent() -> None:
            if not stream.authenticated and not stream.closed:
                stream.abort()

        self.scheduler.call_later(ACCEPT_AUTH_GRACE, drop_if_silent)

    def _unauth_message(self, stream: TcpStream, message: Message) -> None:
        if not isinstance(message, Hello):
            return  # wait for identification
        if message.receiver != self.client_id:
            stream.abort()  # §3.4/§4.2: wrong host — reject
            return
        key = (message.sender, message.nonce)
        claimant = self._stream_claimants.get(key)
        if claimant is not None:
            stream.authenticated = True
            claimant(stream, message)
            return
        # No claimant yet (Hello raced ahead of the endpoint exchange): park.
        stream.authenticated = True
        self._parked_streams[key] = (stream, message)

        def expire() -> None:
            parked = self._parked_streams.get(key)
            if parked is not None and parked[0] is stream:
                del self._parked_streams[key]
                stream.abort()

        self.scheduler.call_later(PARK_GRACE, expire)

    def _register_stream_claimant(self, peer_id: int, nonce: int, claimant: _Claimant) -> None:
        self._stream_claimants[(peer_id, nonce)] = claimant

    def _unregister_stream_claimant(self, peer_id: int, nonce: int) -> None:
        self._stream_claimants.pop((peer_id, nonce), None)

    def _claim_parked_streams(self, peer_id: int, nonce: int) -> List[Tuple[TcpStream, Hello]]:
        key = (peer_id, nonce)
        parked = self._parked_streams.pop(key, None)
        return [parked] if parked is not None else []

    def _deliver_incoming_stream(self, stream: TcpStream) -> None:
        if self.on_peer_stream is not None:
            self.on_peer_stream(stream)
        else:
            self.incoming_streams.append(stream)

    def __repr__(self) -> str:
        return (
            f"PeerClient(id={self.client_id}, udp={self.udp_private}, "
            f"registered=({self.udp_registered},{self.tcp_registered}))"
        )
