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

from typing import TYPE_CHECKING, Callable, Optional

from repro.core.auth import message_is_from_peer
from repro.core.protocol import Hello, ReverseConnect
from repro.core.tcp_punch import TcpStream
from repro.netsim.clock import Timer
from repro.util.errors import ConnectionError_, TimeoutError_

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.client import PeerClient

StreamHandler = Callable[[TcpStream], None]
FailureHandler = Callable[[Exception], None]


class ReversalRequest:
    """Requester-side state: waiting for the target to dial back."""

    def __init__(
        self,
        client: "PeerClient",
        target_id: int,
        on_stream: StreamHandler,
        on_failure: Optional[FailureHandler],
        timeout: float,
    ) -> None:
        self.client = client
        self.target_id = target_id
        self.on_stream = on_stream
        self.on_failure = on_failure
        self.nonce: Optional[int] = None
        self.finished = False
        self._timer: Timer = client.scheduler.call_later(timeout, self._on_timeout)

    def expect(self, nonce: int) -> None:
        """ReverseExpect arrived: register to claim the inbound stream."""
        self.nonce = nonce
        self.client._register_stream_claimant(
            self.target_id, nonce, self._claim_stream
        )
        for stream, hello in self.client._claim_parked_streams(self.target_id, nonce):
            self._claim_stream(stream, hello)

    def _claim_stream(self, stream: TcpStream, hello: Hello) -> None:
        if self.finished:
            stream.abort()
            return
        self.finished = True
        self._timer.cancel()
        stream.authenticate(self.target_id, self.nonce)
        stream.selected = True
        self.client._reversal_finished(self)
        self.on_stream(stream)

    def _on_timeout(self) -> None:
        if self.finished:
            return
        self.finished = True
        if self.nonce is not None:
            self.client._unregister_stream_claimant(self.target_id, self.nonce)
        self.client._reversal_finished(self)
        if self.on_failure is not None:
            self.on_failure(
                TimeoutError_(
                    f"connection reversal via peer {self.target_id} timed out"
                )
            )


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
