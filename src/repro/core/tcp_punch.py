"""Parallel TCP hole punching (paper §4.2-§4.4).

From the **same local TCP port** used for the client's connection to S, the
:class:`TcpHolePuncher` simultaneously:

* keeps listening for incoming connections (the client's listen socket), and
* makes asynchronous ``connect()`` attempts to the peer's public and private
  endpoints,

retrying attempts that fail with "connection reset" or "host unreachable"
after a short delay (§4.2 step 4), ignoring "address in use" failures (the
§4.3 listen-preferred behaviour), and authenticating every stream that comes
up — whether it arrived via ``connect()`` or ``accept()`` — with the pairing
nonce (§4.2 step 5).  The first authenticated stream wins; when several race
(e.g. the private path and the hairpin path behind a common NAT), the
requester picks one and announces it with ``StreamSelect`` so both sides
converge on the same stream.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, List, Optional

from repro.core import protocol
from repro.core.auth import message_is_from_peer
from repro.core.protocol import FrameBuffer, Hello, StreamData, StreamKeepalive, StreamSelect
from repro.core.udp_punch import _Connect, _HolePunch, _PeerSession
from repro.netsim.addresses import Endpoint
from repro.netsim.clock import Timer
from repro.transport.tcp import TcpConnection
from repro.util.errors import ConnectionError_, ProtocolError

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.client import PeerClient


@dataclass(frozen=True)
class TcpPunchConfig:
    """Timing knobs for TCP hole punching.

    Attributes:
        timeout: application-defined maximum for the whole punch.
        select_delay: settle window after the first authenticated stream
            before the controlling side selects (lets a better/racing
            stream finish authenticating).
    """

    timeout: float = 30.0
    select_delay: float = 0.25


#: Delay before re-trying a connect that failed with a network error (§4.2
#: step 4: "simply re-tries that connection attempt after a short delay
#: (e.g., one second)").
CONNECT_RETRY_DELAY = 1.0
#: How long a fresh stream may stay unauthenticated before being dropped
#: (§4.2 step 5: guards against a connection to the wrong host).
AUTH_TIMEOUT = 4.0
#: A stream whose own probing is off still answers incoming probes, but at
#: most once per this window (prevents echo storms between armed peers).
STREAM_ECHO_SUPPRESS_SECONDS = 0.5


class TcpStream(_PeerSession):
    """A framed, authenticated message stream over one TCP connection.

    During punching the owning :class:`TcpHolePuncher` drives it; once
    selected it is handed to the application, which uses :meth:`send`,
    :attr:`on_data`, and :meth:`close`.  Its session attempt opens only on
    selection (punch-race losers are not sessions).
    """

    _name = "tcp"

    def __init__(self, client: "PeerClient", conn: TcpConnection, origin: str) -> None:
        super().__init__(client)
        self.conn = conn
        self.origin = origin  # "connect" | "accept"
        self.buffer = FrameBuffer()
        self.authenticated = False
        self.hello_sent = False
        self.nonce: Optional[int] = None
        self.selected = False
        self._on_message: Optional[Callable[[protocol.Message], None]] = None
        self._on_data: Optional[Callable[[bytes], None]] = None
        self._pending_payloads: List[bytes] = []
        self.on_close: Optional[Callable[[], None]] = None
        conn.on_data = self._feed
        conn.on_close = self._closed_by_peer
        conn.on_error = self._conn_error

    # -- application API --------------------------------------------------------

    @property
    def remote(self) -> Endpoint:
        return self.conn.remote

    @property
    def local(self) -> Endpoint:
        return self.conn.local

    def send(self, payload: bytes) -> None:
        """Send application bytes (framed as StreamData)."""
        self.bytes_sent += len(payload)
        self._send_message(StreamData(sender=self.client.client_id, payload=payload))

    @property
    def on_data(self) -> Optional[Callable[[bytes], None]]:
        return self._on_data

    @on_data.setter
    def on_data(self, callback: Optional[Callable[[bytes], None]]) -> None:
        """Setting the handler drains payloads that raced ahead of it."""
        self._on_data = callback
        if callback is not None:
            pending, self._pending_payloads = self._pending_payloads, []
            for payload in pending:
                callback(payload)

    def close(self) -> None:
        if self.closed:
            return
        self._finish_session("closed")
        self.conn.close()

    def abort(self) -> None:
        if self.closed:
            return
        self.closed = True
        self._stop_keepalives()
        self.conn.abort()

    # -- liveness (§3.6 ladder, TCP flavour) ------------------------------------
    # TCP's retransmissions only detect a dead peer while data is in flight;
    # an idle punched stream whose peer died (or whose NAT mapping expired,
    # §5.1) would blackhole forever, so start_keepalives probes in band.

    def _send_keepalive(self) -> None:
        self.keepalives_sent += 1
        self.client.metrics.counter("session.tcp.keepalives_sent").inc()
        self._send_message(StreamKeepalive(sender=self.client.client_id))

    def _mark_broken(self) -> None:
        """Too long without a peer frame: declare the stream dead.

        Resetting the connection fires ``on_close`` (via the connection
        teardown) — that is the signal the connector's channel watch re-runs
        the ladder on.
        """
        self.broken = True
        self.client.metrics.counter("session.tcp.broken").inc()
        self._finish_session("broken")
        self.conn.abort()

    # -- internals ----------------------------------------------------------------

    def _send_message(self, message: protocol.Message) -> None:
        self._last_outbound = self.client.scheduler.now
        self.conn.send(protocol.frame(message, self.client.obfuscate))

    def send_hello(self, peer_id: int, nonce: int) -> None:
        """Identify ourselves on a fresh stream (§4.2 step 5)."""
        self.hello_sent = True
        self._send_message(
            Hello(sender=self.client.client_id, receiver=peer_id, nonce=nonce)
        )

    def authenticate(self, peer_id: int, nonce: int) -> None:
        """The far end proved to be *peer_id* under pairing *nonce*: bind the
        stream to them, and identify ourselves if we have not yet."""
        self.peer_id = peer_id
        self.nonce = nonce
        self.authenticated = True
        if not self.hello_sent:
            self.send_hello(peer_id, nonce)

    def _feed(self, data: bytes) -> None:
        self._last_inbound = self.client.scheduler.now
        try:
            messages = self.buffer.feed(data)
        except ProtocolError:
            # Garbage on a p2p stream: we connected to the wrong host (§4.2).
            self.abort()
            return
        for message in messages:
            self._dispatch(message)

    def _dispatch(self, message: protocol.Message) -> None:
        if isinstance(message, StreamKeepalive):
            # Echo so the prober sees traffic — even if our own probing is
            # off, the peer's liveness ladder depends on the answer.  The
            # quiet-window suppression keeps two armed sides from ping-ponging
            # at network speed.
            window = (
                self._keepalive_interval / 2
                if self._keepalive_interval is not None
                else STREAM_ECHO_SUPPRESS_SECONDS
            )
            if (
                self.selected
                and not self.closed
                and self.client.scheduler.now - self._last_outbound >= window
            ):
                self._send_keepalive()
            return
        if isinstance(message, StreamData) and self.selected:
            self.bytes_received += len(message.payload)
            if self._on_data is not None:
                self._on_data(message.payload)
            else:
                self._pending_payloads.append(message.payload)
            return
        if self._on_message is not None:
            self._on_message(message)

    def _closed_by_peer(self) -> None:
        self._finish_session("closed")
        if self.on_close is not None:
            self.on_close()

    def _conn_error(self, error: ConnectionError_) -> None:
        """The transport declared the peer dead (RST, or data retransmission
        exhausted its timeout).  Teardown already happened without a close
        notification, so surface it as one: the stream is gone either way."""
        self.broken = True
        self.client.metrics.counter("session.tcp.dead_peer", reason=error.reason).inc()
        self._finish_session("broken")
        if self.on_close is not None:
            self.on_close()

    def __repr__(self) -> str:
        return (
            f"TcpStream({self.local} <-> {self.remote}, origin={self.origin}, "
            f"auth={self.authenticated}, selected={self.selected})"
        )


class TcpHolePuncher(_HolePunch):
    """One in-flight parallel TCP hole punch toward a single peer (§4.2)."""

    _name = "tcp"
    _kind_counter = "punch.tcp.stream_origin"
    _kind_label = "origin"
    _latency_histogram = "punch.tcp.connect_seconds"

    def __init__(
        self,
        client: "PeerClient",
        peer_id: int,
        nonce: int,
        candidates: List[Endpoint],
        controlling: bool,
        connect: _Connect,
    ) -> None:
        super().__init__(client, peer_id, nonce, connect)
        seen = set()
        self.candidates = [c for c in candidates if not (c in seen or seen.add(c))]
        metrics = client.metrics
        self._attempt_counter = metrics.counter("punch.tcp.connect_attempts")
        self._retry_counter = metrics.counter("punch.tcp.retries")
        self._in_use_counter = metrics.counter("punch.tcp.address_in_use")
        self.controlling = controlling
        self.connect_attempts = 0
        self.retries = 0
        self.address_in_use_errors = 0
        self.streams: List[TcpStream] = []
        self.authenticated_streams: List[TcpStream] = []
        self.winner: Optional[TcpStream] = None
        self._select_timer: Optional[Timer] = None
        self._retry_timers: List[Timer] = []
        self._in_flight: List[TcpConnection] = []

    def _punch(self) -> None:
        """§4.2 step 3: connect to all candidates while listening."""
        self.span.event(
            "punching-started",
            candidates=len(self.candidates),
            controlling=self.controlling,
        )
        # Adopt any already-accepted stream that authenticated for us while
        # the endpoint exchange was still in flight.
        for stream, hello in self.client._claim_parked_streams(self.peer_id, self.nonce):
            self.offer_accepted(stream, hello)
        for candidate in self.candidates:
            self._attempt(candidate)

    # -- outgoing attempts ---------------------------------------------------------

    def _attempt(self, endpoint: Endpoint) -> None:
        if self.finished:
            return
        self.connect_attempts += 1
        self._attempt_counter.inc()
        try:
            conn = self.client.tcp_stack.connect(
                endpoint,
                local_port=self.client.tcp_local_port,
                reuse=True,
                on_connected=lambda c, ep=endpoint: self._on_connected(c),
                on_error=lambda err, ep=endpoint: self._on_connect_error(ep, err),
            )
        except ConnectionError_:
            # 4-tuple momentarily occupied (e.g. TIME_WAIT from a previous
            # attempt): retry after the standard delay.
            self._schedule_retry(endpoint)
            return
        self._in_flight.append(conn)

    def _on_connected(self, conn: TcpConnection) -> None:
        if self.finished:
            conn.abort()
            return
        stream = TcpStream(self.client, conn, origin="connect")
        stream._on_message = lambda m, s=stream: self._stream_message(s, m)
        # Until selection, a reset on an established attempt still retries the
        # endpoint (§4.2 step 4); the stream's own error handler takes over in
        # _deliver.
        conn.on_error = lambda err, ep=conn.remote, s=stream: self._established_error(
            s, ep, err
        )
        self.streams.append(stream)
        stream.send_hello(self.peer_id, self.nonce)
        self._arm_auth_timeout(stream)

    def _established_error(self, stream: TcpStream, endpoint: Endpoint, error: ConnectionError_) -> None:
        stream.closed = True
        stream.broken = True
        stream._stop_keepalives()
        if not self.finished:
            self._on_connect_error(endpoint, error)

    def _on_connect_error(self, endpoint: Endpoint, error: ConnectionError_) -> None:
        if self.finished:
            return
        if error.reason == "address-in-use":
            # §4.3: the listen socket claimed the session; the working stream
            # arrives via accept().  Ignore this failure.
            self.address_in_use_errors += 1
            self._in_use_counter.inc()
            return
        # "connection reset" / "host unreachable" / timeout: §4.2 step 4 —
        # retry after a short delay up to the application-defined maximum.
        self._schedule_retry(endpoint)

    def _schedule_retry(self, endpoint: Endpoint) -> None:
        remaining = (self.started_at + self.config.timeout) - self.client.scheduler.now
        if remaining <= CONNECT_RETRY_DELAY:
            return
        self.retries += 1
        self._retry_counter.inc()
        self._retry_timers.append(
            self.client.scheduler.call_later(CONNECT_RETRY_DELAY, self._attempt, endpoint)
        )

    # -- incoming streams ---------------------------------------------------------------

    def adopt_unauthenticated(self, stream: TcpStream) -> None:
        """Adopt a freshly accepted stream whose remote IP matches one of our
        candidates, and Hello it proactively.

        Needed when *both* stacks exhibit §4.3's listen-preferred behaviour:
        the punched stream then surfaces via accept() on both ends, so unless
        someone speaks first, neither side would identify itself.  If the
        stream actually belongs to a different peer behind the same NAT, its
        Hello will fail validation and the stream is dropped.
        """
        stream._on_message = lambda m, s=stream: self._stream_message(s, m)
        self.streams.append(stream)
        stream.send_hello(self.peer_id, self.nonce)
        self._arm_auth_timeout(stream)

    def matches_remote(self, remote: Endpoint) -> bool:
        """Heuristic candidate match for accepted streams (IP-level, because
        hairpin translation may present a different port, §3.5)."""
        return any(c.ip == remote.ip for c in self.candidates)

    def offer_accepted(self, stream: TcpStream, hello: Hello) -> None:
        """Client demux hands us an accepted stream whose Hello matched."""
        stream._on_message = lambda m, s=stream: self._stream_message(s, m)
        self.streams.append(stream)
        stream.authenticate(self.peer_id, self.nonce)
        self._stream_authenticated(stream)

    # -- stream events --------------------------------------------------------------------

    def _stream_message(self, stream: TcpStream, message: protocol.Message) -> None:
        if isinstance(message, Hello):
            if not message_is_from_peer(message, self.client.client_id, self.peer_id, self.nonce):
                stream.abort()  # wrong host (§4.2 step 5): drop, keep waiting
                return
            fresh = not stream.authenticated
            stream.authenticate(self.peer_id, self.nonce)
            if fresh:
                self._stream_authenticated(stream)
        elif isinstance(message, StreamSelect):
            if not message_is_from_peer(message, self.client.client_id, self.peer_id, self.nonce):
                return
            self._deliver(stream)

    def _stream_authenticated(self, stream: TcpStream) -> None:
        if self.finished:
            return
        self.span.event(
            "stream-authenticated", origin=stream.origin, remote=str(stream.remote)
        )
        self.authenticated_streams.append(stream)
        if self.controlling and self._select_timer is None:
            self._select_timer = self.client.scheduler.call_later(
                self.config.select_delay, self._do_select
            )
        # The controlled side waits for StreamSelect.

    def _do_select(self) -> None:
        if self.finished:
            return
        live = [s for s in self.authenticated_streams if not s.closed]
        if not live:
            self._select_timer = None
            return  # all raced streams died; keep punching until deadline
        winner = live[0]  # first authenticated stream (§4.2 step 5)
        winner._send_message(
            StreamSelect(sender=self.client.client_id, receiver=self.peer_id, nonce=self.nonce)
        )
        self._deliver(winner)

    def _deliver(self, stream: TcpStream) -> None:
        if self.finished:
            return
        self.winner = stream
        stream.selected = True
        stream.conn.on_error = stream._conn_error
        # Open the session attempt before _succeed: the connect attempt it
        # parents to is still live, and the losing streams' resets (sent by
        # _release) run in the session's causal context.
        stream._begin_session(self.peer_id, self.connect.attempt)
        self._succeed(stream, stream.origin, remote=str(stream.remote), origin=stream.origin)

    # -- timers / failure -------------------------------------------------------------------

    def _arm_auth_timeout(self, stream: TcpStream) -> None:
        def check() -> None:
            if not stream.authenticated and not stream.closed and not self.finished:
                stream.abort()

        self.client.scheduler.call_later(AUTH_TIMEOUT, check)

    def _release(self, keep: Optional[TcpStream]) -> None:
        """Stop punching: cancel the retries and the pending selection, tear
        down connect attempts that never completed (half-open SYN_SENT
        sockets would otherwise keep retransmitting), abort every stream but
        *keep*, and stop claiming accepted streams for this pairing."""
        for timer in self._retry_timers:
            timer.cancel()
        if self._select_timer is not None:
            self._select_timer.cancel()
        keep_conn = keep.conn if keep is not None else None
        for conn in self._in_flight:
            if conn is keep_conn or conn.established:
                continue
            conn.close()  # quiet teardown for SYN_SENT/SYN_RCVD states
        for stream in self.streams:
            if stream is not keep and not stream.closed:
                stream.abort()
        self.client._unregister_stream_claimant(self.peer_id, self.nonce)

    def __repr__(self) -> str:
        return (
            f"TcpHolePuncher(peer={self.peer_id}, controlling={self.controlling}, "
            f"streams={len(self.streams)}, winner={self.winner is not None})"
        )
