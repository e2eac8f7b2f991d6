"""P2PConnector: the strategy ladder.

The paper's toolbox, ordered from most direct to most reliable:

1. **hole punching** (§3/§4) — succeeds whenever the NATs are well-behaved,
   and degenerates to a plain direct connection when the peer is public;
2. **connection reversal** (§2.3) — succeeds when *we* are publicly
   reachable and only the peer's direction was blocked;
3. **relaying** (§2.2) — "always works as long as both clients can connect
   to the server", at the cost of S's bandwidth and extra latency.

:class:`P2PConnector` tries each strategy in turn with a per-phase timeout
and reports a :class:`ConnectOutcome` per attempt — the shape modern ICE
implementations later standardised.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Union

from repro.core.client import PeerClient
from repro.core.relay import RelaySession
from repro.core.tcp_punch import TcpStream
from repro.core.udp_punch import UdpSession
from repro.core.protocol import TRANSPORT_TCP, TRANSPORT_UDP
from repro.util.errors import ReproError

Channel = Union[UdpSession, TcpStream, RelaySession]
ResultHandler = Callable[["ConnectResult"], None]

#: Strategy names, in ladder order.
STRATEGY_PUNCH = "hole-punch"
STRATEGY_REVERSAL = "reversal"
STRATEGY_RELAY = "relay"


@dataclass
class ConnectOutcome:
    """One strategy attempt's result."""

    strategy: str
    success: bool
    elapsed: float
    detail: str = ""


@dataclass
class ConnectResult:
    """The ladder's final verdict.

    Attributes:
        channel: the established channel (UdpSession / TcpStream /
            RelaySession) or None if even relaying was impossible.
        strategy: the winning strategy name, or None.
        attempts: per-strategy outcomes in the order tried.
    """

    channel: Optional[Channel] = None
    strategy: Optional[str] = None
    attempts: List[ConnectOutcome] = field(default_factory=list)

    @property
    def connected(self) -> bool:
        return self.channel is not None


class P2PConnector:
    """Runs the strategy ladder for one client.

    Args:
        client: the local :class:`PeerClient` (already registered on the
            transports the chosen strategies need).
        transport: TRANSPORT_UDP (punch then relay) or TRANSPORT_TCP
            (punch, reversal, then relay).
        phase_timeout: per-strategy budget in virtual seconds.

    The ladder runs once per :meth:`connect`.  A won channel that later
    breaks says so through its own hook (``UdpSession.on_broken``,
    ``TcpStream.on_close`` with ``start_keepalives`` armed,
    ``RelaySession.on_error``); re-running the ladder from there is the
    application's call (§3.6: re-punch "on demand").
    """

    def __init__(
        self,
        client: PeerClient,
        transport: int = TRANSPORT_UDP,
        phase_timeout: float = 10.0,
    ) -> None:
        self.client = client
        self.transport = transport
        self.phase_timeout = phase_timeout

    def connect(self, peer_id: int, on_result: ResultHandler) -> None:
        """Run the ladder toward *peer_id*; *on_result* fires exactly once."""
        result = ConnectResult()
        strategies = [STRATEGY_PUNCH]
        if self.transport == TRANSPORT_TCP:
            strategies.append(STRATEGY_REVERSAL)
        strategies.append(STRATEGY_RELAY)
        self._run_phase(peer_id, strategies, 0, result, on_result)

    # -- phases ------------------------------------------------------------------

    def _run_phase(
        self,
        peer_id: int,
        strategies: List[str],
        index: int,
        result: ConnectResult,
        on_result: ResultHandler,
    ) -> None:
        strategy = strategies[index]
        started = self.client.scheduler.now

        # Every rung answers exactly once (tests/test_connector.py pins it).
        def succeed(channel: Channel, detail: str = "") -> None:
            elapsed = self.client.scheduler.now - started
            result.attempts.append(ConnectOutcome(strategy, True, elapsed, detail))
            result.channel = channel
            result.strategy = strategy
            on_result(result)

        def fail(error: Exception) -> None:
            elapsed = self.client.scheduler.now - started
            result.attempts.append(
                ConnectOutcome(strategy, False, elapsed, detail=str(error))
            )
            if index + 1 < len(strategies):
                self._run_phase(peer_id, strategies, index + 1, result, on_result)
            else:  # pragma: no cover - relay cannot fail in-simulation
                on_result(result)

        # A strategy can fail synchronously (e.g. the client is momentarily
        # unregistered after S restarted): route the error through fail() so the
        # ladder keeps descending and every connect attempt terminates.
        try:
            if strategy == STRATEGY_PUNCH:
                self._try_punch(peer_id, succeed, fail)
            elif strategy == STRATEGY_REVERSAL:
                self.client.request_reversal(
                    peer_id,
                    on_stream=lambda s: succeed(s, f"reverse stream via {s.remote}"),
                    on_failure=fail,
                    timeout=self.phase_timeout,
                )
            else:
                # §2.2: relaying needs no handshake — it rides the existing
                # client/server connections, so it succeeds immediately.
                relay = self.client.open_relay(peer_id, self.transport)
                succeed(relay, "relayed via S")
        except ReproError as error:
            fail(error)

    def _try_punch(self, peer_id: int, succeed, fail) -> None:
        import dataclasses

        if self.transport == TRANSPORT_UDP:
            config = dataclasses.replace(
                self.client.punch_config, timeout=self.phase_timeout
            )
            self.client.connect_udp(
                peer_id,
                on_session=lambda s: succeed(s, f"locked {s.remote}"),
                on_failure=fail,
                config=config,
            )
        else:
            config = dataclasses.replace(
                self.client.tcp_punch_config, timeout=self.phase_timeout
            )
            self.client.connect_tcp(
                peer_id,
                on_stream=lambda s: succeed(s, f"stream via {s.remote}"),
                on_failure=fail,
                config=config,
            )
