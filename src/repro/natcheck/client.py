"""The NAT Check client (paper §6.1, Figure 8).

Runs behind the NAT under test and cooperates with the three well-known
servers: the UDP test (§6.1.1), the UDP hairpin probe, the TCP test with
server 2's delayed echo and the simultaneous open toward server 3 (§6.1.2),
and the TCP hairpin probe.  Produces a :class:`NatCheckReport`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.natcheck import messages as m
from repro.natcheck.classify import NatCheckReport
from repro.netsim.addresses import Endpoint
from repro.netsim.node import Host
from repro.transport.tcp import FrameBuffer
from repro.util.errors import ConnectionError_


@dataclass(frozen=True)
class NatCheckConfig:
    """Which tests to run and their timers.

    The ``run_*`` flags model NAT Check's release history: hairpin and TCP
    testing "were implemented in later versions ... after we had already
    started gathering results" (§6.2), which is why Table 1's denominators
    differ per column.
    """

    run_udp_hairpin: bool = True
    run_tcp: bool = True
    run_tcp_hairpin: bool = True
    local_port: int = 4321
    secondary_port: int = 4322
    udp_wait: float = 2.0
    hairpin_wait: float = 2.0
    tcp_echo_wait: float = 12.0  # covers server 2's ~5 s delayed reply
    tcp_connect_wait: float = 8.0


class NatCheckClient:
    """One NAT Check run on one client host."""

    def __init__(
        self,
        host: Host,
        server_endpoints: List[Endpoint],
        config: Optional[NatCheckConfig] = None,
    ) -> None:
        if len(server_endpoints) != 3:
            raise ValueError("NAT Check needs exactly three servers")
        self.host = host
        self.servers = server_endpoints
        self.config = config or NatCheckConfig()
        self.report = NatCheckReport()
        self._stack = host.stack  # type: ignore[attr-defined]
        self._on_complete: Optional[Callable[[NatCheckReport], None]] = None
        self._started_at = 0.0
        self._udp_secondary = None
        self._token = 0
        self._tcp_echo2_seen = False
        # Flight recorder (if the owning network attached one): one attempt
        # per test phase, so attribution can explain each Table 1 column
        # failure separately.
        self._flight = getattr(host, "flight", None)
        self._attempts: dict = {}

    @property
    def scheduler(self):
        return self.host.scheduler

    def _next_token(self) -> int:
        self._token += 1
        return self._token

    # -- flight-recorder phase attempts -------------------------------------

    def _phase_start(self, key: str, name: str) -> None:
        """Open a per-phase attempt; everything the phase triggers (probe
        sends, NAT decisions, server dances) inherits its correlation id."""
        if self._flight is not None:
            self._attempts[key] = self._flight.attempt(name, host=self.host.name)

    def _phase_outcome(self, key: str) -> str:
        """The phase verdict, using the same predicates the fleet's Table 1
        failure counts use — so attribution totals match by construction."""
        r = self.report
        if key == "udp":
            return "ok" if bool(r.udp_punch_ok) else "failed"
        if key == "udp-hairpin":
            if r.udp_hairpin is None:
                return "skipped"
            return "ok" if r.udp_hairpin else "failed"
        if key == "tcp":
            if not r.tcp_tested:
                return "skipped"
            return "ok" if bool(r.tcp_punch_ok) else "failed"
        if r.tcp_hairpin is None:  # tcp-hairpin
            return "skipped"
        return "ok" if r.tcp_hairpin else "failed"

    def _close_open_phases(self) -> None:
        if self._flight is None:
            return
        for key, attempt in self._attempts.items():
            if not attempt.finished:
                self._flight.finish(attempt, self._phase_outcome(key))

    def run(self, on_complete: Callable[[NatCheckReport], None]) -> None:
        """Start the test sequence; *on_complete* fires once with the report."""
        self._on_complete = on_complete
        self._started_at = self.scheduler.now
        self._udp_test()

    # -- phase 1: UDP (§6.1.1) ---------------------------------------------------

    def _udp_test(self) -> None:
        self._phase_start("udp", "natcheck.udp")
        sock = self._stack.udp.socket(self.config.local_port)
        token1, token2 = self._next_token(), self._next_token()
        sent_at = self.scheduler.now

        def on_datagram(data: bytes, src: Endpoint) -> None:
            message = m.try_unpack(data)
            if message is None:
                return
            if isinstance(message, m.Echo) and message.msg_type == m.UDP_ECHO:
                if message.token == token1:
                    if self.report.udp_probe_rtt is None:
                        self.report.udp_probe_rtt = self.scheduler.now - sent_at
                    self.report.udp_ep1 = message.observed
                elif message.token == token2:
                    self.report.udp_ep2 = message.observed
            elif isinstance(message, m.From3):
                # Server 3's reply got through: no per-session filtering.
                self.report.udp_unsolicited_received = True
            elif isinstance(message, m.Probe) and message.msg_type == m.UDP_HAIRPIN:
                # Our own hairpin probe looped back through the NAT.
                self.report.udp_hairpin = True

        sock.on_datagram = on_datagram
        sock.sendto(m.Probe(m.UDP_PROBE, token1).pack(), self.servers[0])
        sock.sendto(m.Probe(m.UDP_PROBE, token2).pack(), self.servers[1])
        self.scheduler.call_later(self.config.udp_wait, self._udp_hairpin_test)

    # -- phase 2: UDP hairpin (§6.1.1) -------------------------------------------------

    def _udp_hairpin_test(self) -> None:
        self._close_open_phases()
        if not self.config.run_udp_hairpin or self.report.udp_ep2 is None:
            self._tcp_test()
            return
        self._phase_start("udp-hairpin", "natcheck.udp-hairpin")
        self.report.udp_hairpin = False  # until the probe loops back
        self._udp_secondary = self._stack.udp.socket(self.config.secondary_port)
        self._udp_secondary.sendto(
            m.Probe(m.UDP_HAIRPIN, self._next_token()).pack(), self.report.udp_ep2
        )
        self.scheduler.call_later(self.config.hairpin_wait, self._tcp_test)

    # -- phase 3: TCP (§6.1.2) ---------------------------------------------------------

    def _tcp_test(self) -> None:
        self._close_open_phases()
        if not self.config.run_tcp:
            self._complete()
            return
        self._phase_start("tcp", "natcheck.tcp")
        self.report.tcp_tested = True
        self._stack.tcp.listen(
            self.config.local_port, on_accept=self._on_accept, reuse=True
        )
        token1 = self._next_token()
        tcp_started = self.scheduler.now

        def s1_connected(conn) -> None:
            if self.report.tcp_connect_rtt is None:
                self.report.tcp_connect_rtt = self.scheduler.now - tcp_started
            buffer = FrameBuffer(m.unpack)

            def on_data(data: bytes) -> None:
                for message in buffer.feed(data):
                    if isinstance(message, m.Echo) and message.token == token1:
                        self.report.tcp_ep1 = message.observed
                        conn.close()

            conn.on_data = on_data
            conn.send(m.frame_tcp(m.Probe(m.TCP_PROBE, token1)))

        self._stack.tcp.connect(
            self.servers[0],
            local_port=self.config.local_port,
            reuse=True,
            on_connected=s1_connected,
            on_error=lambda e: None,
        )
        # Server 2 in parallel (its echo is delayed by the server-3 dance).
        token2 = self._next_token()

        def s2_connected(conn) -> None:
            buffer = FrameBuffer(m.unpack)

            def on_data(data: bytes) -> None:
                for message in buffer.feed(data):
                    if isinstance(message, m.Echo) and message.token == token2:
                        self.report.tcp_ep2 = message.observed
                        self.report.tcp_syn_response = message.syn_report
                        self._tcp_echo2_seen = True
                        conn.close()
                        self._tcp_simopen_test()

            conn.on_data = on_data
            conn.send(m.frame_tcp(m.Probe(m.TCP_PROBE, token2)))

        self._stack.tcp.connect(
            self.servers[1],
            local_port=self.config.local_port,
            reuse=True,
            on_connected=s2_connected,
            on_error=lambda e: None,
        )
        # Safety net: if server 2's echo never arrives, move on.
        self.scheduler.call_later(self.config.tcp_echo_wait, self._tcp_echo_deadline)

    def _tcp_echo_deadline(self) -> None:
        if not self._tcp_echo2_seen:
            self._tcp_hairpin_test()

    def _on_accept(self, conn) -> None:
        """Unsolicited inbound connections land here (§6.1.2): either server
        3's probe got through the NAT, or our own hairpin probe looped."""
        if conn.remote.ip == self.servers[2].ip:
            self.report.tcp_unsolicited_accepted = True
            return
        buffer = FrameBuffer(m.unpack)

        def on_data(data: bytes) -> None:
            for message in buffer.feed(data):
                if isinstance(message, m.Probe) and message.msg_type == m.TCP_HAIRPIN:
                    self.report.tcp_hairpin = True

        conn.on_data = on_data

    # -- phase 4: simultaneous open with server 3 (§6.1.2) ---------------------------------

    def _tcp_simopen_test(self) -> None:
        token3 = self._next_token()
        done = {"fired": False}

        def finish(success: bool) -> None:
            if done["fired"]:
                return
            done["fired"] = True
            self.report.tcp_simopen_success = success
            self._tcp_hairpin_test()

        def s3_connected(conn) -> None:
            buffer = FrameBuffer(m.unpack)

            def on_data(data: bytes) -> None:
                for message in buffer.feed(data):
                    if isinstance(message, m.Echo) and message.token == token3:
                        conn.close()
                        finish(True)

            conn.on_data = on_data
            conn.send(m.frame_tcp(m.Probe(m.TCP_PROBE, token3)))

        try:
            self._stack.tcp.connect(
                self.servers[2],
                local_port=self.config.local_port,
                reuse=True,
                on_connected=s3_connected,
                on_error=lambda e: finish(False),
            )
        except ConnectionError_:
            finish(False)
            return
        self.scheduler.call_later(self.config.tcp_connect_wait, finish, False)

    # -- phase 5: TCP hairpin ---------------------------------------------------------------

    def _tcp_hairpin_test(self) -> None:
        self._close_open_phases()
        if not self.config.run_tcp_hairpin or self.report.tcp_ep2 is None:
            self._complete()
            return
        self._phase_start("tcp-hairpin", "natcheck.tcp-hairpin")
        if self.report.tcp_hairpin is None:
            self.report.tcp_hairpin = False  # until the probe loops back

        def connected(conn) -> None:
            conn.send(m.frame_tcp(m.Probe(m.TCP_HAIRPIN, self._next_token())))

        try:
            self._stack.tcp.connect(
                self.report.tcp_ep2,
                local_port=self.config.secondary_port,
                reuse=True,
                on_connected=connected,
                on_error=lambda e: None,
            )
        except ConnectionError_:
            pass
        self.scheduler.call_later(self.config.hairpin_wait, self._complete)

    # -- completion ---------------------------------------------------------------------------

    def _complete(self) -> None:
        if self._on_complete is None:
            return
        self._close_open_phases()
        if self._flight is not None:
            self._attribute_failures()
        self.report.elapsed = self.scheduler.now - self._started_at
        callback, self._on_complete = self._on_complete, None
        callback(self.report)

    def _attribute_failures(self) -> None:
        """Run the attribution engine over every failed phase attempt and
        record the root-cause categories on the report."""
        from repro.obs.attribution import explain

        attribution = {}
        for key, attempt in self._attempts.items():
            if attempt.outcome == "failed":
                attribution[key] = explain(attempt, self._flight).category
        self.report.failure_attribution = attribution
