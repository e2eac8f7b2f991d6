"""UDP socket layer.

Connectionless and callback-driven: an application binds a :class:`UdpSocket`
to a local port, registers an ``on_datagram`` callback, and calls
:meth:`UdpSocket.sendto`.  Dispatch prefers an exact (ip, port) bind over a
wildcard-IP bind on the same port.

One UDP socket is all a hole-punching client needs to talk to the rendezvous
server and any number of peers simultaneously (paper §4.2 contrasts this with
TCP's several-sockets-per-port requirement).
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

from repro.netsim.addresses import Endpoint, IPv4Address
from repro.netsim.node import Host
from repro.netsim.packet import IcmpError, Packet, udp_packet
from repro.util.errors import BindError

#: Start of the ephemeral port range (IANA suggested range).
EPHEMERAL_BASE = 49152
EPHEMERAL_LIMIT = 65535

DatagramHandler = Callable[[bytes, Endpoint], None]
ErrorHandler = Callable[[IcmpError], None]

# Bind key: (raw 32-bit ip value or None for wildcard, port).  The raw int —
# not the IPv4Address — keys the dict so the per-datagram demux probe hashes
# at C speed instead of through a Python-level ``__hash__``.
_BindKey = Tuple[Optional[int], int]


class UdpSocket:
    """One bound UDP socket.

    Attributes:
        local: the bound endpoint.  For wildcard binds the IP is the host's
            primary address (used as the source of outgoing datagrams).
        on_datagram: callback ``(payload, source_endpoint)`` per datagram.
        on_icmp_error: optional callback for ICMP errors attributed to this
            socket's traffic.
    """

    def __init__(self, stack: "UdpStack", local: Endpoint, wildcard: bool) -> None:
        self._stack = stack
        self.local = local
        self._wildcard = wildcard
        self.closed = False
        self.on_datagram: Optional[DatagramHandler] = None
        self.on_icmp_error: Optional[ErrorHandler] = None
        self.datagrams_sent = 0
        self.datagrams_received = 0

    def sendto(self, payload: bytes, dest: Endpoint) -> bool:
        """Send one datagram; returns False if it could not be routed."""
        if self.closed:
            raise BindError("sendto on closed UDP socket")
        self.datagrams_sent += 1
        stack = self._stack
        stack.datagrams_sent += 1
        return stack.host.send(udp_packet(self.local, dest, payload))

    def close(self) -> None:
        """Release the port binding; idempotent."""
        if self.closed:
            return
        self.closed = True
        self._stack._release(self)

    def __repr__(self) -> str:
        star = "*" if self._wildcard else ""
        return f"UdpSocket({star}{self.local})"


class UdpStack:
    """Per-host UDP demultiplexer and port registry."""

    def __init__(self, host: Host) -> None:
        self.host = host
        self._bindings: Dict[_BindKey, UdpSocket] = {}
        self._next_ephemeral = EPHEMERAL_BASE
        self.packets_dropped = 0
        #: Stack-wide totals (per-socket counts live on the sockets, which
        #: close and disappear); feed the ``udp.*`` metrics.
        self.datagrams_sent = 0
        self.datagrams_received = 0

    def socket(self, port: int = 0, ip=None) -> UdpSocket:
        """Create and bind a UDP socket.

        Args:
            port: local port; 0 allocates an ephemeral port.
            ip: local IP; None binds the wildcard address.

        Raises:
            BindError: the (ip, port) pair is already bound.
        """
        bind_ip = IPv4Address(ip) if ip is not None else None
        if port == 0:
            port = self._allocate_ephemeral(bind_ip)
        key = (bind_ip._value if bind_ip is not None else None, port)
        if key in self._bindings:
            raise BindError(f"{self.host.name}: UDP port {key[1]} already bound")
        source_ip = bind_ip if bind_ip is not None else self.host.primary_ip
        sock = UdpSocket(self, Endpoint(source_ip, port), wildcard=bind_ip is None)
        self._bindings[key] = sock
        return sock

    def _allocate_ephemeral(self, bind_ip) -> int:
        for _ in range(EPHEMERAL_LIMIT - EPHEMERAL_BASE + 1):
            port = self._next_ephemeral
            self._next_ephemeral += 1
            if self._next_ephemeral > EPHEMERAL_LIMIT:
                self._next_ephemeral = EPHEMERAL_BASE
            key = (bind_ip._value if bind_ip is not None else None, port)
            if key not in self._bindings:
                return port
        raise BindError(f"{self.host.name}: UDP ephemeral ports exhausted")

    def _release(self, sock: UdpSocket) -> None:
        ip = None if sock._wildcard else sock.local.ip._value
        del self._bindings[ip, sock.local.port]

    def _socket_for(self, dst: Endpoint) -> Optional[UdpSocket]:
        """The open socket *dst* demultiplexes to: an exact (ip, port) bind
        wins over a wildcard-IP bind on the same port.  A closed socket is
        never found: :meth:`UdpSocket.close` removes its binding."""
        bindings = self._bindings
        return bindings.get((dst.ip._value, dst.port)) or bindings.get(
            (None, dst.port)
        )

    def handle_packet(self, packet: Packet) -> Optional[bool]:
        """Demultiplex one inbound UDP packet to a bound socket.

        Returns ``True`` where the datagram reached a socket.  That delivery
        is *consuming*: the callback gets (payload, src), both immutable
        shared objects it may retain freely, and the packet object is never
        exposed — so the caller may recycle it (see :meth:`Node.receive`).
        """
        sock = self._socket_for(packet.dst)
        if sock is None:
            self.packets_dropped += 1
            return None
        sock.datagrams_received += 1
        self.datagrams_received += 1
        callback = sock.on_datagram
        if callback is not None:
            callback(packet.payload, packet.src)
        return True

    def handle_icmp(self, error: IcmpError) -> None:
        """Attribute an ICMP error to the socket that sent the offender."""
        sock = self._socket_for(error.original_src)
        if sock is not None and sock.on_icmp_error is not None:
            sock.on_icmp_error(error)
