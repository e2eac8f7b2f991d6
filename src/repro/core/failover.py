"""Rendezvous-server failover (survivability layer).

The paper's §2.2 guarantee — "relaying always works as long as both clients
can connect to the server" — makes the rendezvous server the single point of
failure of the whole toolbox: punched sessions survive S dying, but nothing
new can be punched, reversed, or relayed until S is back.  Production
rendezvous deployments therefore run *pools* of servers; this module gives
:class:`~repro.core.client.PeerClient` the client half of that design.

A :class:`ServerFailover` manager owns an ordered list of server endpoints
and drives the client's server keepalives (§3.6).  Every keepalive to a live
server draws a :class:`~repro.core.protocol.KeepaliveAck`; when
``dead_after_missed`` consecutive probes go unanswered the manager declares
the current server dead and **migrates**: it advances to the next server in
the list (wrapping), re-registers the client's UDP (and, if in use, TCP)
registration there, and fires ``on_failover``.  Everything that addresses
the server through ``client.server`` — relay sessions, connect-request
retransmit loops, reversal requests — follows the migration transparently,
which is what lets in-flight :class:`~repro.core.relay.RelaySession`\\ s
resume on the successor instead of blackholing.

TCP control-connection failures (RST from a dead server, retransmission
timeout toward an unreachable one) feed the same miss counter via
:meth:`note_control_failure`, so a TCP-only client detects a dead server as
fast as a UDP one.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Callable, List, Optional, Sequence

from repro.core.protocol import Keepalive
from repro.netsim.addresses import Endpoint
from repro.netsim.clock import Timer
from repro.obs.spans import OUTCOME_MIGRATED

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.client import PeerClient

FailoverHandler = Callable[[Endpoint, Endpoint], None]


@dataclass(frozen=True)
class FailoverConfig:
    """Timing knobs for rendezvous-server failover.

    Attributes:
        keepalive_interval: seconds between server keepalive probes (these
            double as the §3.6 NAT-mapping refresh toward S).
        dead_after_missed: consecutive unacknowledged probes (or control
            reconnect failures) after which the server is declared dead.
    """

    keepalive_interval: float = 2.0
    dead_after_missed: int = 3


#: Delay before re-dialling the TCP control connection after it errors (each
#: failed dial counts as one miss) — §4.2 step 4's "short delay (e.g., one
#: second)" applied to the connection to S.
CONTROL_RETRY = 1.0


class ServerFailover:
    """Keepalive-driven migration across an ordered rendezvous-server list.

    Attributes:
        servers: the ordered endpoint list (index 0 is the preferred server).
        index: which entry the client is currently registered with.
        migrations: completed migrations (also ``failover.migrations`` in the
            metrics registry).
        on_failover: optional ``(old_endpoint, new_endpoint)`` callback fired
            at each migration.
    """

    def __init__(
        self,
        client: "PeerClient",
        servers: Sequence[Endpoint],
        config: Optional[FailoverConfig] = None,
    ) -> None:
        if not servers:
            raise ValueError("ServerFailover needs at least one server endpoint")
        self.client = client
        self.servers: List[Endpoint] = list(servers)
        self.config = config or FailoverConfig()
        self.index = 0
        self.migrations = 0
        self.on_failover: Optional[FailoverHandler] = None
        self._misses = 0
        self._started = False
        self._tick_timer: Optional[Timer] = None
        self._control_timer: Optional[Timer] = None
        self._migrations_counter = client.metrics.counter("failover.migrations")
        self._ack_counter = client.metrics.counter("failover.keepalive_acks")
        self._miss_counter = client.metrics.counter("failover.keepalive_misses")

    @property
    def current(self) -> Endpoint:
        return self.servers[self.index]

    # -- lifecycle -------------------------------------------------------------

    def start(self, interval: Optional[float] = None) -> None:
        """Begin probing the current server (replaces the plain keepalive
        loop of ``PeerClient.start_server_keepalives``)."""
        if interval is not None and interval != self.config.keepalive_interval:
            self.config = replace(self.config, keepalive_interval=interval)
        self._started = True
        self._misses = 0
        self._schedule_tick()

    def stop(self) -> None:
        self._started = False
        if self._tick_timer is not None:
            self._tick_timer.cancel()
            self._tick_timer = None
        if self._control_timer is not None:
            self._control_timer.cancel()
            self._control_timer = None

    # -- probe loop ------------------------------------------------------------

    def _schedule_tick(self) -> None:
        self._tick_timer = self.client.scheduler.call_later(
            self.config.keepalive_interval, self._tick
        )

    def _tick(self) -> None:
        if not self._started:
            return
        if self._misses >= self.config.dead_after_missed:
            self._migrate("keepalive decay")
            return
        self._misses += 1  # provisional; an ack resets it
        self.client._send_server_udp(Keepalive(client_id=self.client.client_id))
        self._schedule_tick()

    def retarget(self, endpoint: Endpoint) -> None:
        """Re-point at *endpoint* without counting a migration.

        Used when the server itself re-homes the client (a shard redirect,
        see :class:`~repro.core.protocol.ShardRedirect`): probes must track
        the server that actually holds the registration, and a later decay
        there should migrate to *its* list neighbour.  Endpoints outside the
        configured pool are appended — a ring can name servers the client
        was never told about.
        """
        if endpoint not in self.servers:
            self.servers.append(endpoint)
        self.index = self.servers.index(endpoint)
        self._misses = 0

    def note_ack(self) -> None:
        """A KeepaliveAck arrived from the current server."""
        if self._misses > 0:
            self._misses = 0
        self._ack_counter.inc()

    def note_control_failure(self) -> None:
        """The TCP control connection died (RST or retransmission timeout).

        Counts as one miss and schedules a re-dial toward the *current*
        server; repeated failures cross the miss threshold and migrate.
        """
        if not self._started:
            return
        self._misses += 1
        self._miss_counter.inc()
        if self._misses >= self.config.dead_after_missed:
            self._migrate("control connection failures")
            return
        if self._control_timer is None or not self._control_timer.active:
            self._control_timer = self.client.scheduler.call_later(
                CONTROL_RETRY, self._redial_control
            )

    def _redial_control(self) -> None:
        self._control_timer = None
        if not self._started:
            return
        if self.client._listener is not None and not self.client.tcp_registered:
            self.client._reopen_control()

    # -- migration ---------------------------------------------------------------

    def _migrate(self, reason: str) -> None:
        old = self.current
        self.index = (self.index + 1) % len(self.servers)
        new = self.current
        self.migrations += 1
        self._migrations_counter.inc()
        span = self.client.metrics.span(
            "failover", client=str(self.client.client_id), reason=reason
        )
        span.event("migrating", old=str(old), new=str(new))
        self.client.server = new
        self._misses = 0
        # Re-register on the successor.  The UDP register retransmit loop and
        # any pending connect-request loops now address the new server; relay
        # sessions ride client.server and migrate with it.
        self.client.register_udp()
        if self.client._listener is not None:
            self.client._reopen_control()
        span.finish(OUTCOME_MIGRATED, old=str(old), new=str(new))
        if self.on_failover is not None:
            self.on_failover(old, new)
        self._schedule_tick()

    def __repr__(self) -> str:
        return (
            f"ServerFailover(current={self.current}, index={self.index}, "
            f"migrations={self.migrations})"
        )
