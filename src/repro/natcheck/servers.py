"""The three NAT Check servers (paper §6.1, Figure 8).

Server 1 and server 2 echo the client's observed endpoint.  For UDP, server 2
additionally forwards every probe to server 3, which replies to the client
from its own address — if that reply arrives, the NAT does not filter
unsolicited inbound traffic.  For TCP, server 2 *delays* its echo until
server 3 reports the outcome of an unsolicited inbound connection attempt at
the client's public endpoint (the 5 s / 20 s dance of §6.1.2), so the
client's subsequent outbound connect to server 3 becomes a simultaneous open
through the freshly punched hole.
"""

from __future__ import annotations

from typing import Dict

from repro.natcheck import messages as m
from repro.netsim.addresses import Endpoint
from repro.netsim.network import Network
from repro.netsim.node import Host
from repro.transport.stack import attach_stack
from repro.transport.tcp import FrameBuffer, TcpConnection
from repro.util.errors import ConnectionError_

#: Default server addresses: three distinct global IPs (§6.1).
SERVER_IPS = ("18.181.0.31", "18.181.0.32", "192.12.4.99")
SERVER_PORT = 5000
#: Alternate UDP port each server also answers on (RFC 3489-style discovery).
SERVER_ALT_PORT = 5001

#: §6.1.2 timers: go-ahead after 5 s, keep trying for 20 s total.
GO_AHEAD_AFTER = 5.0
KEEP_TRYING_FOR = 20.0


class _TcpPeer:
    """One accepted TCP connection on a NAT Check server."""

    def __init__(self, server: "_Server", conn: TcpConnection) -> None:
        self.server = server
        self.conn = conn
        self.buffer = FrameBuffer(m.unpack)
        conn.on_data = self._on_data

    def send(self, message: m.AnyMessage) -> None:
        self.conn.send(m.frame_tcp(message))

    def _on_data(self, data: bytes) -> None:
        try:
            parsed = self.buffer.feed(data)
        except Exception:
            self.conn.abort()
            return
        for message in parsed:
            self.server.handle_tcp(message, self)


class _Server:
    """Shared machinery of servers 1-3; `index` selects the §6.1 role."""

    def __init__(self, suite: "NatCheckServers", host: Host, index: int) -> None:
        self.suite = suite
        self.host = host
        self.index = index
        stack = host.stack  # type: ignore[attr-defined]
        self.udp = stack.udp.socket(SERVER_PORT)
        self.udp.on_datagram = self.handle_udp
        self.udp_alt = stack.udp.socket(SERVER_ALT_PORT)
        self.udp_alt.on_datagram = self.handle_udp_alt
        self.tcp = stack.tcp
        self.listener = self.tcp.listen(SERVER_PORT, on_accept=self._accept, reuse=True)
        self.endpoint = Endpoint(host.primary_ip, SERVER_PORT)
        # server 3 state: token -> in-flight unsolicited connect bookkeeping
        self._probes: Dict[int, dict] = {}

    def _accept(self, conn: TcpConnection) -> None:
        _TcpPeer(self, conn)

    # -- UDP (§6.1.1) ---------------------------------------------------------

    def handle_udp(self, data: bytes, src: Endpoint) -> None:
        message = m.try_unpack(data)
        if message is None:
            return
        if isinstance(message, m.Probe) and message.msg_type == m.UDP_PROBE:
            self.udp.sendto(
                m.Echo(m.UDP_ECHO, message.token, observed=src).pack(), src
            )
            if self.index == 2:
                # Forward to server 3, which replies from its own address.
                self.udp.sendto(
                    m.Forward(m.UDP_FORWARD, message.token, client=src).pack(),
                    self.suite.server3.endpoint,
                )
        elif isinstance(message, m.Forward) and message.msg_type == m.UDP_FORWARD:
            # We are server 3: send the "unsolicited" reply (§6.1.1).
            self.udp.sendto(m.From3(message.token).pack(), message.client)
        elif isinstance(message, m.Probe) and message.msg_type == m.UDP_PROBE_ALT_PORT:
            # RFC 3489-style: reply from the alternate port (same IP).
            self.udp_alt.sendto(
                m.Echo(m.UDP_ECHO, message.token, observed=src).pack(), src
            )
        elif isinstance(message, m.Probe) and message.msg_type == m.UDP_PROBE_ALT_IP:
            # Reply must come from a different IP: forward to server 3.
            self.udp.sendto(
                m.Forward(m.UDP_FORWARD, message.token, client=src).pack(),
                self.suite.server3.endpoint,
            )
        elif isinstance(message, m.Forward) and message.msg_type == m.TCP_FORWARD:
            # We are server 3: begin the unsolicited TCP connect (§6.1.2).
            self._begin_unsolicited_connect(message, src)

    def handle_udp_alt(self, data: bytes, src: Endpoint) -> None:
        """Echo service on the alternate port (mapping discovery)."""
        message = m.try_unpack(data)
        if isinstance(message, m.Probe) and message.msg_type == m.UDP_PROBE:
            self.udp_alt.sendto(
                m.Echo(m.UDP_ECHO, message.token, observed=src).pack(), src
            )

    # -- TCP (§6.1.2) -----------------------------------------------------------

    def handle_tcp(self, message: m.AnyMessage, peer: _TcpPeer) -> None:
        if isinstance(message, m.Probe) and message.msg_type == m.TCP_PROBE:
            if self.index != 2:
                peer.send(m.Echo(m.TCP_ECHO, message.token, observed=peer.conn.remote))
                return
            # Server 2: hold the echo until server 3's go-ahead.
            self._probes[message.token] = {"peer": peer, "observed": peer.conn.remote}
            self.udp.sendto(
                m.Forward(m.TCP_FORWARD, message.token, client=peer.conn.remote).pack(),
                self.suite.server3.endpoint,
            )
        elif isinstance(message, m.Probe) and message.msg_type == m.TCP_HAIRPIN:
            # The hairpin test connects to the *client's* public endpoint;
            # if it lands here instead, just echo so nothing hangs.
            peer.send(m.Echo(m.TCP_ECHO, message.token, observed=peer.conn.remote))

    def handle_udp_report(self, report: m.Report) -> None:
        """Server 2: server 3's go-ahead arrived — release the delayed echo."""
        pending = self._probes.pop(report.token, None)
        if pending is None:
            return
        pending["peer"].send(
            m.Echo(
                m.TCP_ECHO,
                report.token,
                observed=pending["observed"],
                syn_report=report.outcome,
            )
        )

    # -- server 3's unsolicited connect (§6.1.2) ----------------------------------

    def _begin_unsolicited_connect(self, forward: m.Forward, reporter: Endpoint) -> None:
        token = forward.token
        state = {"outcome": m.SYN_PENDING, "reported": False}
        self._probes[token] = state

        def report(outcome: int) -> None:
            state["outcome"] = outcome
            if not state["reported"]:
                state["reported"] = True
                self.udp.sendto(m.Report(token, outcome).pack(), reporter)

        def on_connected(conn: TcpConnection) -> None:
            # Either the NAT let the unsolicited SYN through directly (no
            # filtering), or the client's later outbound connect crossed ours
            # as a simultaneous open (§6.1.2).  If we had already observed
            # the five-second drop window, keep that verdict; otherwise the
            # NAT genuinely accepted the unsolicited SYN.
            if not state["reported"]:
                report(m.SYN_CONNECTED)
            # Serve the connection so the client's probe gets its echo.
            _TcpPeer(self, conn)

        def on_error(error: ConnectionError_) -> None:
            if state["reported"]:
                return
            if error.reason == "reset":
                report(m.SYN_RST)
            elif error.reason == "unreachable":
                report(m.SYN_ICMP)
            # timeout: the go-ahead timer reports SYN_PENDING first.

        def go_ahead() -> None:
            # Five seconds elapsed with the connect still in progress: tell
            # server 2 to release the client, keep trying up to 20 s.
            if not state["reported"]:
                report(m.SYN_PENDING)

        def give_up() -> None:
            conn = state.get("conn")
            if conn is not None and not conn.established:
                conn.close()

        try:
            state["conn"] = self.tcp.connect(
                forward.client,
                local_port=SERVER_PORT,
                reuse=True,
                on_connected=on_connected,
                on_error=on_error,
            )
        except ConnectionError_:
            # A previous probe's 4-tuple still lingers: report as pending.
            report(m.SYN_PENDING)
            return
        self.host.scheduler.call_later(GO_AHEAD_AFTER, go_ahead)
        self.host.scheduler.call_later(KEEP_TRYING_FOR, give_up)


class NatCheckServers:
    """The trio of well-known NAT Check servers at :data:`SERVER_IPS` on a
    public segment."""

    def __init__(self, net: Network, link) -> None:
        self.net = net
        self.servers = []
        for index, ip in enumerate(SERVER_IPS, start=1):
            host = net.add_host(f"ncs{index}", ip=ip, network="0.0.0.0/0", link=link)
            attach_stack(host, rng=net.rng.child(f"stack/ncs{index}"))
            self.servers.append(_Server(self, host, index))
        # Route server-3 reports back to server 2's release handler.
        server2, server3 = self.servers[1], self.servers[2]
        original = server2.handle_udp

        def server2_udp(data: bytes, src: Endpoint) -> None:
            message = m.try_unpack(data)
            if isinstance(message, m.Report):
                server2.handle_udp_report(message)
                return
            original(data, src)

        server2.udp.on_datagram = server2_udp

    @property
    def server3(self) -> _Server:
        return self.servers[2]

    @property
    def endpoints(self):
        return [s.endpoint for s in self.servers]
