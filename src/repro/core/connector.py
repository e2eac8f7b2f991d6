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
from repro.obs.spans import OUTCOME_ERROR, OUTCOME_FALLBACK, OUTCOME_OK
from repro.util.errors import ReproError

Channel = Union[UdpSession, TcpStream, RelaySession]
ResultHandler = Callable[["ConnectResult"], None]

#: Strategy names, in ladder order.
STRATEGY_PUNCH = "hole-punch"
STRATEGY_REVERSAL = "reversal"
STRATEGY_TURN = "turn-relay"
STRATEGY_RELAY = "relay"


@dataclass(frozen=True)
class RetryPolicy:
    """How the connector reacts when an established channel later breaks.

    NAT holes are leases, not contracts (§3.6): a NAT reboot or idle timeout
    can kill a punched session mid-conversation.  With a policy attached the
    connector re-runs the whole ladder — the network may have changed, so the
    winning strategy may differ — with exponential backoff between recoveries.

    Attributes:
        max_retries: ladder re-runs before giving up (0 disables recovery).
        backoff: delay before the first re-run; doubles per recovery, up
            to :data:`BACKOFF_CAP`.
        tcp_keepalive_interval: if > 0, arm in-band keepalive probes on a
            winning :class:`TcpStream` so an idle punched stream detects a
            dead peer (UDP sessions carry their own keepalive config).
    """

    max_retries: int = 2
    backoff: float = 0.5
    tcp_keepalive_interval: float = 0.0


#: Upper bound on the delay between ladder re-runs (§3.6 asks for re-punching
#: "on demand": recovery may slow down but never stops being prompt).
BACKOFF_CAP = 8.0


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
        recovery: 0 for the initial connect; N for the Nth ladder re-run
            after a channel broke (see :class:`RetryPolicy`).
    """

    channel: Optional[Channel] = None
    strategy: Optional[str] = None
    attempts: List[ConnectOutcome] = field(default_factory=list)
    recovery: int = 0

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
        retry_policy: if set, a channel that later breaks (UDP keepalive
            decay, peer-closed TCP stream) re-runs the ladder and fires
            *on_result* again with ``result.recovery`` incremented.
    """

    def __init__(
        self,
        client: PeerClient,
        transport: int = TRANSPORT_UDP,
        phase_timeout: float = 10.0,
        retry_policy: Optional[RetryPolicy] = None,
    ) -> None:
        self.client = client
        self.transport = transport
        self.phase_timeout = phase_timeout
        self.retry_policy = retry_policy
        #: Ladder re-runs triggered by broken channels, across all connects.
        self.recoveries = 0

    def connect(self, peer_id: int, on_result: ResultHandler) -> None:
        """Run the ladder toward *peer_id*.

        Without a :class:`RetryPolicy`, *on_result* fires exactly once.  With
        one, it fires again after each successful recovery (``recovery`` > 0
        on the new result), so the application can swap in the new channel.
        """
        self._connect(peer_id, on_result, recovery=0)

    def _connect(self, peer_id: int, on_result: ResultHandler, recovery: int) -> None:
        result = ConnectResult(recovery=recovery)
        strategies = [STRATEGY_PUNCH]
        if self.transport == TRANSPORT_TCP:
            strategies.append(STRATEGY_REVERSAL)
        if self.transport == TRANSPORT_UDP and self.client.turn is not None:
            # A dedicated TURN relay (§2.2) beats burdening S with data.
            strategies.append(STRATEGY_TURN)
        strategies.append(STRATEGY_RELAY)
        span = self.client.metrics.span(
            "connect.ladder",
            peer=str(peer_id),
            transport="udp" if self.transport == TRANSPORT_UDP else "tcp",
        )
        self._run_phase(peer_id, strategies, 0, result, on_result, span)

    # -- phases ------------------------------------------------------------------

    def _run_phase(
        self,
        peer_id: int,
        strategies: List[str],
        index: int,
        result: ConnectResult,
        on_result: ResultHandler,
        span=None,
    ) -> None:
        strategy = strategies[index]
        started = self.client.scheduler.now
        if span is not None:
            span.event("strategy-started", strategy=strategy)

        # Every rung answers exactly once (tests/test_connector.py pins it).
        def succeed(channel: Channel, detail: str = "") -> None:
            elapsed = self.client.scheduler.now - started
            result.attempts.append(ConnectOutcome(strategy, True, elapsed, detail))
            result.channel = channel
            result.strategy = strategy
            if span is not None:
                # Relayed channels are the §2.2 fallback, not a direct win.
                outcome = (
                    OUTCOME_FALLBACK
                    if strategy in (STRATEGY_RELAY, STRATEGY_TURN)
                    else OUTCOME_OK
                )
                span.finish(outcome, strategy=strategy)
            if self.retry_policy is not None:
                self._watch_channel(peer_id, channel, on_result, result.recovery)
            on_result(result)

        def fail(error: Exception) -> None:
            elapsed = self.client.scheduler.now - started
            result.attempts.append(
                ConnectOutcome(strategy, False, elapsed, detail=str(error))
            )
            if span is not None:
                span.event("strategy-failed", strategy=strategy, detail=str(error))
            if index + 1 < len(strategies):
                self._run_phase(peer_id, strategies, index + 1, result, on_result, span)
            else:  # pragma: no cover - relay cannot fail in-simulation
                if span is not None:
                    span.finish(OUTCOME_ERROR)
                on_result(result)

        # A strategy can fail synchronously (e.g. the client is momentarily
        # unregistered mid-failover): route the error through fail() so the
        # ladder keeps descending and every connect attempt terminates.
        try:
            if strategy == STRATEGY_PUNCH:
                self._try_punch(peer_id, succeed, fail)
            elif strategy == STRATEGY_TURN:
                self.client.connect_via_turn(
                    peer_id,
                    on_session=lambda s: succeed(s, f"TURN pair via {s.peer_relay}"),
                    on_failure=fail,
                    timeout=self.phase_timeout,
                )
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

    # -- recovery (RetryPolicy) ----------------------------------------------------

    def _watch_channel(
        self, peer_id: int, channel: Channel, on_result: ResultHandler, recovery: int
    ) -> None:
        """Hook the channel's breakage signal to a ladder re-run."""
        policy = self.retry_policy
        if policy is None or recovery >= policy.max_retries:
            return
        tripped = {"fired": False}

        def trip(*_args) -> None:
            if tripped["fired"]:
                return
            tripped["fired"] = True
            self._channel_broken(peer_id, on_result, recovery)

        if isinstance(channel, UdpSession):
            channel.on_broken = trip
        elif isinstance(channel, TcpStream):
            channel.on_close = trip
            if policy.tcp_keepalive_interval > 0:
                channel.start_keepalives(policy.tcp_keepalive_interval)
        elif isinstance(channel, RelaySession):
            # Relaying rides the client/server connections, so the only
            # breakage signal is S bouncing a payload (peer gone / failover
            # lag): treat that like any other broken channel.  The guard
            # matters here — S may bounce several queued payloads at once.
            channel.on_error = trip

    def _channel_broken(self, peer_id: int, on_result: ResultHandler, recovery: int) -> None:
        policy = self.retry_policy
        if policy is None:  # pragma: no cover - watch is only armed with a policy
            return
        self.recoveries += 1
        self.client.metrics.counter("connector.recoveries").inc()
        delay = min(policy.backoff * (2 ** recovery), BACKOFF_CAP)
        self.client.scheduler.call_later(
            delay, self._connect, peer_id, on_result, recovery + 1
        )

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
