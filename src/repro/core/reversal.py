"""Connection reversal (paper §2.3).

Usable when only ONE of the peers is behind a NAT: if B (public) cannot
connect to A (NATed), B relays a request through S asking A to open a
"reverse" connection back to B.  The requester learns the pairing nonce via
``ReverseExpect`` and waits for an inbound stream carrying a matching Hello;
the target receives ``ReverseConnect`` and dials out.

The paper presents reversal both as a limited technique on its own and as
the conceptual seed of hole punching; the :mod:`~repro.core.connector`
ladder uses it between direct punching and relaying.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.core.auth import message_is_from_peer
from repro.core.protocol import Hello, ReverseConnect, ReverseExpect
from repro.core.tcp_punch import TcpStream
from repro.core.udp_punch import _Connect, _HolePunch
from repro.util.errors import ConnectionError_

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.client import PeerClient


class ReversalRequest(_HolePunch):
    """Requester side, from ``ReverseExpect`` on: the punch is claiming the
    stream the target dials back, and the first to authenticate wins."""

    _name = "reversal"
    _kind_counter = "punch.reversal.stream_origin"
    _kind_label = "origin"
    _latency_histogram = "punch.reversal.connect_seconds"

    def __init__(self, client: "PeerClient", expect: ReverseExpect, connect: _Connect) -> None:
        super().__init__(client, expect.peer_id, expect.nonce, connect)

    def _punch(self) -> None:
        self.client._register_stream_claimant(self.peer_id, self.nonce, self._claim)
        for stream, hello in self.client._claim_parked_streams(self.peer_id, self.nonce):
            self._claim(stream, hello)

    def _claim(self, stream: TcpStream, hello: Hello) -> None:
        stream.authenticate(self.peer_id, self.nonce)
        stream.selected = True
        self._succeed(stream, stream.origin)

    def _release(self, keep: Optional[TcpStream]) -> None:
        self.client._unregister_stream_claimant(self.peer_id, self.nonce)


class ReversalResponder:
    """Target-side: dial the requester's public endpoint and authenticate."""

    def __init__(self, client: "PeerClient", request: ReverseConnect) -> None:
        self.client = client
        self.request = request
        self.stream: Optional[TcpStream] = None
        conn = client.tcp_stack.connect(
            request.public_ep,
            local_port=0,  # a fresh ephemeral port: a plain outbound connect
            on_connected=self._on_connected,
            on_error=self._on_error,
        )
        del conn

    def _on_connected(self, conn) -> None:
        stream = TcpStream(self.client, conn, origin="connect")
        self.stream = stream
        stream._on_message = self._on_message
        stream.send_hello(self.request.peer_id, self.request.nonce)

    def _on_message(self, message) -> None:
        if isinstance(message, Hello) and message_is_from_peer(
            message, self.client.client_id, self.request.peer_id, self.request.nonce
        ):
            self.stream.authenticate(self.request.peer_id, self.request.nonce)
            self.stream.selected = True
            self.client._deliver_incoming_stream(self.stream)

    def _on_error(self, error: ConnectionError_) -> None:
        # The requester was unreachable (it may itself be behind a NAT, the
        # case where reversal is documented to fail and punching is needed).
        self.client.reversal_dial_failures += 1
