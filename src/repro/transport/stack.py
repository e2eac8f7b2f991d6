"""Glue: attach UDP + TCP stacks to a simulated host."""

from __future__ import annotations

from typing import Optional

from repro.netsim.node import Host
from repro.netsim.packet import IpProtocol, Packet
from repro.transport.tcp import TcpStack, TcpStyle
from repro.transport.udp import UdpStack
from repro.util.rng import SeededRng


class HostStack:
    """The transport plumbing of one host: ``.udp`` and ``.tcp`` stacks.

    Constructing a HostStack registers protocol handlers on the host, so any
    packet the host terminates is demultiplexed to the right socket.  ICMP
    errors are attributed by the session identifiers quoted in the error.
    """

    def __init__(
        self,
        host: Host,
        tcp_style: TcpStyle = TcpStyle.BSD,
        rng: Optional[SeededRng] = None,
        simultaneous_open_supported: bool = True,
        rst_seq_validation: bool = False,
        icmp_validation: bool = False,
    ) -> None:
        self.host = host
        rng = rng or SeededRng(0, f"stack/{host.name}")
        self.udp = UdpStack(host)
        self.tcp = TcpStack(
            host,
            style=tcp_style,
            rng=rng.child("tcp"),
            simultaneous_open_supported=simultaneous_open_supported,
            rst_seq_validation=rst_seq_validation,
            icmp_validation=icmp_validation,
        )
        host.register_protocol(IpProtocol.UDP, self.udp.handle_packet)
        host.register_protocol(IpProtocol.TCP, self.tcp.handle_packet)
        host.register_protocol(IpProtocol.ICMP, self._handle_icmp)

    def detach(self) -> None:
        """Unregister this stack's protocol handlers from the host.

        Locally-addressed packets drop afterwards, exactly as on a host that
        never attached a stack — packets already in flight included, since
        every delivery looks the handler up when it fires.
        """
        host = self.host
        host.unregister_protocol(IpProtocol.UDP)
        host.unregister_protocol(IpProtocol.TCP)
        host.unregister_protocol(IpProtocol.ICMP)
        if getattr(host, "stack", None) is self:
            host.stack = None  # type: ignore[attr-defined]

    def _handle_icmp(self, packet: Packet) -> None:
        error = packet.icmp
        if error.original_proto is IpProtocol.TCP:
            self.tcp.handle_icmp(error)
        elif error.original_proto is IpProtocol.UDP:
            self.udp.handle_icmp(error)

    def __repr__(self) -> str:
        return f"HostStack({self.host.name}, tcp_style={self.tcp.style.value})"


def attach_stack(
    host: Host,
    tcp_style: TcpStyle = TcpStyle.BSD,
    rng: Optional[SeededRng] = None,
    simultaneous_open_supported: bool = True,
    rst_seq_validation: bool = False,
    icmp_validation: bool = False,
) -> HostStack:
    """Create a :class:`HostStack` for *host* and store it as ``host.stack``."""
    stack = HostStack(
        host,
        tcp_style=tcp_style,
        rng=rng,
        simultaneous_open_supported=simultaneous_open_supported,
        rst_seq_validation=rst_seq_validation,
        icmp_validation=icmp_validation,
    )
    host.stack = stack  # type: ignore[attr-defined]
    return stack
