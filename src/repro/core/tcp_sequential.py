"""Sequential TCP hole punching — the NatTrav variant (paper §4.5).

Instead of punching in parallel, the peers take turns:

1. A tells S (SeqRequest) it wants to reach B, *without* listening;
2. B makes a doomed ``connect()`` to A's public endpoint — the SYN opens a
   hole in B's NAT, then fails (timeout, or RST from A's NAT);
3. B abandons the attempt, listens on its local port, and signals readiness
   (the original NatTrav signalled by closing its connection to S; we send
   an explicit SeqReady *and* consume the control connections afterwards to
   preserve the paper's resource accounting);
4. A connects to B's public endpoint, which now passes through B's punched
   hole, and the peers authenticate.

The paper's critique — timing sensitivity and consuming both clients'
connections to S — is measurable here: ``punch_delay`` is the §4.5
"doomed-to-fail attempt must last long enough for the SYN to traverse"
knob, and :attr:`PeerClient.control_reconnects` counts consumed connections.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.core.auth import message_is_from_peer
from repro.core.protocol import Hello, SeqConnect, SeqReady
from repro.core.tcp_punch import TcpStream
from repro.core.udp_punch import _Connect, _HolePunch
from repro.obs.spans import OUTCOME_ERROR
from repro.util.errors import ConnectionError_

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.client import PeerClient


@dataclass(frozen=True)
class SequentialConfig:
    """Timing for the sequential procedure.

    Attributes:
        punch_delay: how long B lets its doomed connect run before giving up
            and listening (§4.5: "too little delay risks a lost SYN derailing
            the process, whereas too much delay increases the total time").
        timeout: the requester's budget, spent once waiting for ``SeqReady``
            and once more on the dial (the same rule as ``connect_tcp``).
        consume_control: reproduce NatTrav's consumption of both clients'
            connections to S (close + reconnect after the punch).
    """

    punch_delay: float = 0.6
    timeout: float = 30.0
    consume_control: bool = True


class SequentialRequester(_HolePunch):
    """A's side of §4.5 from step 4 on (the request and the wait for
    ``SeqReady`` are the client's connect book): dial B's public endpoint,
    through the hole B just punched, and authenticate."""

    _name = "sequential"
    _kind_counter = "punch.sequential.stream_origin"
    _kind_label = "origin"
    _latency_histogram = "punch.sequential.connect_seconds"

    def __init__(self, client: "PeerClient", ready: SeqReady, connect: _Connect) -> None:
        super().__init__(client, ready.peer_id, ready.nonce, connect)
        self._target = ready.public_ep

    def _punch(self) -> None:
        self.client.tcp_stack.connect(
            self._target,
            local_port=self.client.tcp_local_port,
            reuse=True,
            on_connected=self._on_connected,
            on_error=self._on_error,
        )

    def _on_connected(self, conn) -> None:
        stream = TcpStream(self.client, conn, origin="connect")
        stream._on_message = lambda m, s=stream: self._on_message(s, m)
        stream.send_hello(self.peer_id, self.nonce)

    def _on_message(self, stream: TcpStream, message) -> None:
        if not isinstance(message, Hello):
            return
        if not message_is_from_peer(message, self.client.client_id, self.peer_id, self.nonce):
            stream.abort()
            return
        if self.finished:
            return
        stream.authenticate(self.peer_id, self.nonce)
        stream.selected = True
        self._succeed(stream, stream.origin, remote=str(stream.remote), origin=stream.origin)

    def _on_error(self, error: ConnectionError_) -> None:
        self._fail(
            OUTCOME_ERROR,
            ConnectionError_(
                error.reason,
                f"sequential punch dial to peer {self.peer_id} failed: "
                f"{error.reason} (§4.5: the procedure is timing-dependent)",
            ),
        )

    def _release(self, keep: Optional[TcpStream]) -> None:
        if keep is not None and self.config.consume_control:
            self.client._consume_control_connection()


class SequentialResponder:
    """B's side of §4.5: doomed connect, then listen and report ready."""

    def __init__(self, client: "PeerClient", request: SeqConnect, config: SequentialConfig) -> None:
        self.client = client
        self.request = request
        self.config = config
        self.doomed_failed = False
        # Step 2: the doomed-to-fail connect that punches B's own NAT.
        self._doomed = client.tcp_stack.connect(
            request.public_ep,
            local_port=client.tcp_local_port,
            reuse=True,
            on_connected=self._unexpected_success,
            on_error=self._doomed_error,
        )
        client.scheduler.call_later(config.punch_delay, self._go_ready)

    def _doomed_error(self, error: ConnectionError_) -> None:
        # Expected: RST from A's NAT, ICMP, or eventual timeout.
        self.doomed_failed = True

    def _unexpected_success(self, conn) -> None:
        # A was not behind a NAT after all; the connection is real.  Treat it
        # like any accepted stream: wait for Hello-based authentication.
        stream = TcpStream(self.client, conn, origin="connect")
        self.client._park_or_route_stream(stream)

    def _go_ready(self) -> None:
        """Step 3: abandon the attempt, listen, signal readiness."""
        if self._doomed.established:
            pass  # handled by _unexpected_success
        elif not self.doomed_failed:
            self._doomed.close()  # abandon the half-open attempt
        # The client's listener on tcp_local_port is already active; claim
        # the stream A is about to open.
        self.client._register_stream_claimant(
            self.request.peer_id, self.request.nonce, self._claim_stream
        )
        self.client._send_server_tcp(
            SeqReady(
                peer_id=self.request.peer_id,
                public_ep=self.request.public_ep,
                private_ep=self.request.private_ep,
                nonce=self.request.nonce,
            )
        )

    def _claim_stream(self, stream: TcpStream, hello: Hello) -> None:
        stream.authenticate(self.request.peer_id, self.request.nonce)
        stream.selected = True
        if self.config.consume_control:
            self.client._consume_control_connection()
        self.client._deliver_incoming_stream(stream)
