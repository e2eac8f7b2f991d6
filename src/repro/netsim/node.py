"""Nodes: hosts and routers.

A :class:`Node` owns named interfaces, a routing table, and a receive path.
:class:`Host` delivers locally-addressed packets to registered protocol
handlers (the transport stacks in :mod:`repro.transport` register themselves);
:class:`Router` additionally forwards transit packets.  NAT devices subclass
``Router`` in :mod:`repro.nat.device` and interpose translation on both the
forward and local-delivery paths.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.netsim.addresses import IPv4Address, IPv4Network
from repro.netsim.clock import Scheduler
from repro.netsim.link import Link
from repro.netsim.packet import IpProtocol, Packet
from repro.netsim.routing import Route, RoutingTable
from repro.util.errors import RoutingError


@dataclass
class Interface:
    """A node's attachment point: name, IP, on-link prefix, and segment."""

    name: str
    ip: IPv4Address
    network: IPv4Network
    link: Link


class Node:
    """Base class: interfaces + routing table + send/receive machinery."""

    forwards_packets = False
    #: True when this node's :meth:`receive` provably never retains the
    #: delivered packet object (it re-emits a fresh clone or drops) — the
    #: node-level licence for the drain loop to recycle a delivery into the
    #: packet pool.  NAT devices set it; hosts must not (application
    #: handlers may stow packets) — a host's handler answers per packet
    #: through the return value of :meth:`receive` instead.
    consumes_packets = False
    #: The owning network's MetricsRegistry, set by ``Network.add_node`` so
    #: protocol layers above can reach it; None for standalone nodes.
    metrics = None
    #: The owning network's FlightRecorder, set by ``Network.add_node`` /
    #: ``Network.attach_flight``; None keeps recording sites to one test.
    flight = None

    def __init__(self, name: str, scheduler: Scheduler) -> None:
        self.name = name
        self.scheduler = scheduler
        self.interfaces: Dict[str, Interface] = {}
        self.routing = RoutingTable()
        #: Alias of ``routing.closures``: destination IP (as its raw 32-bit
        #: int — int keys probe with C-level hashing, IPv4Address keys pay a
        #: Python-level ``__hash__`` call) -> (link, next_hop, interface).
        #: Filled only by :meth:`_resolve`; emptied in place by the routing
        #: table whenever a route is added or removed.
        self._fwd_cache: Dict[int, tuple] = self.routing.closures
        #: Raw int values of IPs this node owns, for the O(1) local-delivery
        #: test (``packet.dst.ip._value in self._local_ips``).  Kept in sync
        #: by :meth:`add_interface` (interfaces are never removed).
        self._local_ips: set = set()
        #: Per-protocol handlers as a dense list indexed by
        #: ``IpProtocol.wire_index``.
        self._handlers_by_index: List = [None] * len(IpProtocol)
        #: Arrival-link -> interface (first interface wins, matching the
        #: historical scan order); NAT devices classify every received
        #: packet by arrival interface.
        self._iface_by_link: Dict[Link, Interface] = {}
        self.packets_received = 0
        self.packets_forwarded = 0
        self.packets_dropped = 0

    # -- topology wiring ---------------------------------------------------

    def add_interface(self, name: str, ip, network, link: Link) -> Interface:
        """Attach an interface and install the connected (on-link) route."""
        if name in self.interfaces:
            raise ValueError(f"{self.name}: duplicate interface {name!r}")
        interface = Interface(
            name=name, ip=IPv4Address(ip), network=IPv4Network(network), link=link
        )
        self.interfaces[name] = interface
        self._local_ips.add(interface.ip._value)
        self._iface_by_link.setdefault(link, interface)
        link.attach(self, interface.ip)
        self.routing.add(interface.network, name, next_hop=None)
        return interface

    # -- protocol handlers ---------------------------------------------------

    def register_protocol(
        self, proto: IpProtocol, handler: Callable[[Packet], Optional[bool]]
    ) -> None:
        """Register the local delivery handler for one transport protocol.

        Transport stacks call this once at attach time; re-registration
        replaces the handler (used by tests to interpose observers).  A
        handler returns ``True`` only where it provably kept no reference
        to the packet object (see :meth:`receive`); anything else — the
        usual ``None`` — leaves the packet alone.
        """
        self._handlers_by_index[proto.wire_index] = handler

    # -- data path -----------------------------------------------------------

    def send(self, packet: Packet) -> bool:
        """Originate *packet* from this node, routing by destination IP.

        Loopback (destination is one of our own addresses) is delivered
        immediately via the scheduler, preserving async semantics.
        Returns True if the packet was handed to a link (or looped back).
        """
        if packet.dst.ip._value in self._local_ips:
            self.scheduler.call_later(0.0, self.deliver_local, packet)
            return True
        return self._emit(packet)

    def _resolve(self, dst_ip: IPv4Address) -> Optional[tuple]:
        """Resolve *dst_ip* through the routing table and memoise the
        forwarding closure ``(link, next_hop, interface)``; None (nothing
        memoised) when no route matches.  The only fill site of
        :attr:`_fwd_cache` — every reader is
        ``cache.get(value) or self._resolve(ip)``.
        """
        route = self.routing.try_lookup(dst_ip)
        if route is None:
            return None
        interface = self.interfaces[route.interface]
        next_hop = route.next_hop if route.next_hop is not None else dst_ip
        closure = self._fwd_cache[dst_ip._value] = (interface.link, next_hop, interface)
        return closure

    def _emit(self, packet: Packet) -> bool:
        """Route and transmit without the local-delivery check.

        A packet with no route is this node's drop; one the egress link
        refuses or loses is the link's (it counts it), not ours.
        """
        dst_ip = packet.dst.ip
        closure = self._fwd_cache.get(dst_ip._value) or self._resolve(dst_ip)
        if closure is None:
            self.packets_dropped += 1
            return False
        return closure[0].transmit(packet, self, closure[1])

    def receive(self, packet: Packet, link: Link) -> Optional[bool]:
        """Entry point for packets arriving from a link.

        Returns what the protocol handler returned: ``True`` is the
        handler's statement that it kept no reference to *packet*, which
        licenses the link's batch drain to recycle it into the pool.
        """
        self.packets_received += 1
        if packet.dst.ip._value in self._local_ips:
            # deliver_local, inlined: one packet in every NAT-echo round trip
            # terminates here, and the extra frame is measurable.
            handler = self._handlers_by_index[packet.proto.wire_index]
            if handler is None:
                self.packets_dropped += 1
                return None
            return handler(packet)
        if not self.forwards_packets:
            self.packets_dropped += 1
            return None
        self.forward(packet, link)
        return None

    def deliver_local(self, packet: Packet) -> None:
        """Hand a locally-addressed packet to the protocol handler."""
        handler = self._handlers_by_index[packet.proto.wire_index]
        if handler is None:
            self.packets_dropped += 1
            return
        handler(packet)

    def forward(self, packet: Packet, in_link: Link) -> None:
        """Transit forwarding (routers only); TTL-guarded."""
        if packet.ttl <= 1:
            self.packets_dropped += 1
            return
        forwarded = packet.copy()
        forwarded.ttl = packet.ttl - 1
        dst_ip = forwarded.dst.ip
        closure = self._fwd_cache.get(dst_ip._value) or self._resolve(dst_ip)
        if closure is None:
            self.packets_dropped += 1
            return
        self.packets_forwarded += 1
        closure[0].transmit(forwarded, self, closure[1])

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r}, ifaces={list(self.interfaces)})"


class Host(Node):
    """An end host: terminates traffic, never forwards.

    Transport stacks (UDP/TCP) attach themselves via
    :meth:`Node.register_protocol`; see :class:`repro.transport.stack.HostStack`.
    """

    forwards_packets = False

    @property
    def primary_ip(self) -> IPv4Address:
        """The IP of the first interface (hosts usually have exactly one)."""
        if not self.interfaces:
            raise RoutingError(f"host {self.name} has no interfaces")
        return next(iter(self.interfaces.values())).ip

    def set_default_gateway(self, gateway_ip) -> Route:
        """Install the default route via *gateway_ip*, which must be on-link
        of exactly one interface."""
        gateway = IPv4Address(gateway_ip)
        candidates = [i.name for i in self.interfaces.values() if gateway in i.network]
        if len(candidates) != 1:
            raise RoutingError(
                f"{self.name}: cannot infer interface for gateway {gateway} "
                f"(candidates: {candidates})"
            )
        return self.routing.add_default(candidates[0], gateway)


class Router(Node):
    """A plain (non-translating) router."""

    forwards_packets = True
