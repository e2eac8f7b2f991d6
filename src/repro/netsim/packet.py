"""Packet model: IP header fields plus UDP / TCP / ICMP transport layers.

A :class:`Packet` is a mutable value object (NATs rewrite its endpoints in
place on copies).  TCP segments carry flags/seq/ack so the transport layer in
:mod:`repro.transport.tcp` can implement the RFC 793 subset the paper's §4
depends on, including simultaneous open.  ICMP is modelled only as the error
messages a NAT may emit toward an unsolicited SYN (paper §5.2).
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Optional

from repro.netsim.addresses import Endpoint

DEFAULT_TTL = 64

_packet_ids = itertools.count(1)


class _RecycledField:
    """Poison value installed on a released Packet's fields in pool debug
    mode: any substantive use — attribute access, length, bytes conversion,
    comparison, iteration — raises immediately, so a stale holder fails loud
    instead of silently reading another flow's data."""

    __slots__ = ()

    def _boom(self, *args, **kwargs):
        raise RuntimeError(
            "stale reference to a recycled Packet: the drain loop returned "
            "this object to the pool. Retain Packet.stow() (a defensive "
            "copy), not the delivered packet itself."
        )

    __getattr__ = _boom
    __len__ = _boom
    __bytes__ = _boom
    __iter__ = _boom
    __eq__ = _boom
    __str__ = _boom

    def __repr__(self) -> str:  # kept printable so debuggers survive
        return "<recycled>"


_RECYCLED = _RecycledField()


class PacketPool:
    """Free-list recycler for hot-path Packets.

    Only a link's batch drain (``Link._drain_batch``) releases packets, and
    only where the code that held the packet says it kept no reference:
    ``receive()`` returned ``True`` (``UdpStack.handle_packet`` handing a
    socket ``(payload, src)``, both immutable and safe to retain) or the
    node's class declares ``consumes_packets = True`` (NAT devices — their
    receive path always emits a fresh clone and never stows the original).
    A handler that returns anything else is *never* recycled from, so
    application code that stows a delivered packet keeps a valid object;
    code that must retain one across deliveries should take
    :meth:`Packet.stow` anyway, which is recycle-proof by construction.

    Every release bumps the packet's generation stamp (:attr:`Packet.gen`),
    so a holder that snapshots ``gen`` can always detect recycling, and
    drops the carcass's payload and headers, so the free list pins no
    application data; with :attr:`debug_poison` on, release poisons the
    payload and endpoint fields instead so any use of a stale reference
    raises (the identity and safety suites run in this mode).

    ``disable()`` empties the free list, which makes the acquire fast path
    (``free.pop() if free else object.__new__``) collapse to the plain
    allocation — pooled and unpooled runs are byte-identical on every
    observable (packet ids still come from the global counter on acquire).
    """

    __slots__ = ("enabled", "debug_poison", "max_free", "released", "_free")

    def __init__(self) -> None:
        self.enabled = True
        self.debug_poison = False
        #: Soft bound on the free list: the drain loop stops releasing for
        #: the rest of a batch once the list reaches this size.
        self.max_free = 4096
        #: Total packets returned to the pool (obs counter).
        self.released = 0
        self._free: list = []

    def disable(self) -> None:
        """Turn recycling off and drop the free list (identity tests)."""
        self.enabled = False
        self._free.clear()

    def enable(self) -> None:
        self.enabled = True

    @property
    def free(self) -> int:
        """Packets currently waiting for reuse."""
        return len(self._free)

    def release(self, packet: "Packet") -> None:
        """Return *packet* to the pool; the drain loop inlines this, but the
        safety tests exercise it directly."""
        if not self.enabled or len(self._free) >= self.max_free:
            return
        if self.debug_poison:
            packet.src = _RECYCLED
            packet.dst = _RECYCLED
            packet.payload = _RECYCLED
        else:
            packet.payload = b""
        packet.tcp = None
        packet.icmp = None
        packet.gen += 1
        self.released += 1
        self._free.append(packet)


#: Process-wide pool instance; hot constructors read ``PACKET_POOL._free``.
PACKET_POOL = PacketPool()
_pool_free = PACKET_POOL._free


class IpProtocol(enum.Enum):
    """Transport protocol carried by a packet.

    Each member additionally carries two plain instance attributes set right
    after the class body (enum members accept them):

    - ``wire_index``: a small dense int (0..2) used to index per-protocol
      lists on hot paths — ``list[proto.wire_index]`` costs one C-level
      attribute read plus a C-level list index, where ``dict[proto]`` pays a
      Python-level ``Enum.__hash__`` call per probe.
    - ``header_bytes``: the on-wire header-size estimate ``Packet.size``
      adds to the payload length.
    """

    UDP = "udp"
    TCP = "tcp"
    ICMP = "icmp"


for _index, _member in enumerate(IpProtocol):
    _member.wire_index = _index
IpProtocol.UDP.header_bytes = 28
IpProtocol.TCP.header_bytes = 40
IpProtocol.ICMP.header_bytes = 36


class TcpFlags(enum.IntFlag):
    """TCP header flags (subset used by the state machine)."""

    NONE = 0
    FIN = 0x01
    SYN = 0x02
    RST = 0x04
    ACK = 0x10

    def describe(self) -> str:
        bits = self._value_
        names = [
            flag.name
            for flag in (TcpFlags.SYN, TcpFlags.ACK, TcpFlags.FIN, TcpFlags.RST)
            if bits & flag._value_
        ]
        return "+".join(names) if names else "none"


#: Plain-int masks for per-packet flag tests.  ``flags._value_ & RST_BIT`` is
#: an attribute read and a C-level int op; ``flags & TcpFlags.RST`` is a
#: Python-level ``Flag.__and__`` that also looks up and returns a member.
FIN_BIT = TcpFlags.FIN._value_
SYN_BIT = TcpFlags.SYN._value_
RST_BIT = TcpFlags.RST._value_
ACK_BIT = TcpFlags.ACK._value_
_SYN_ACK_BITS = SYN_BIT | ACK_BIT

#: The flag unions the send paths use, built once (``|`` on members is a
#: Python-level ``Flag.__or__``).
SYN_ACK = TcpFlags.SYN | TcpFlags.ACK
FIN_ACK = TcpFlags.FIN | TcpFlags.ACK
RST_ACK = TcpFlags.RST | TcpFlags.ACK


@dataclass(slots=True)
class TcpHeader:
    """TCP segment header: flags and 32-bit sequence/ack numbers.

    Treated as immutable once attached to a packet: :meth:`Packet.copy`
    shares the header object between the original and the copy, so in-place
    header mutation would alias across NAT hops.  Build a fresh header (or
    ``dataclasses.replace``) instead of writing fields.
    """

    flags: TcpFlags = TcpFlags.NONE
    seq: int = 0
    ack: int = 0

    def has(self, flag: TcpFlags) -> bool:
        return self.flags._value_ & flag._value_ != 0

    @property
    def is_syn_only(self) -> bool:
        """A "raw" SYN: connection-opening segment with no ACK (paper §4.4)."""
        return self.flags._value_ & _SYN_ACK_BITS == SYN_BIT

    @property
    def is_syn_ack(self) -> bool:
        return self.flags._value_ & _SYN_ACK_BITS == _SYN_ACK_BITS

    @property
    def is_rst(self) -> bool:
        return self.flags._value_ & RST_BIT != 0


class IcmpType(enum.Enum):
    """ICMP message kinds the simulator can emit."""

    DEST_UNREACHABLE = "dest-unreachable"
    PORT_UNREACHABLE = "port-unreachable"
    TIME_EXCEEDED = "time-exceeded"
    ADMIN_PROHIBITED = "admin-prohibited"


@dataclass(slots=True)
class IcmpError:
    """An ICMP error, carrying the offending packet's session identifiers.

    ``original_src``/``original_dst`` identify the transport session of the
    packet that provoked the error (as real ICMP embeds the original header),
    so the TCP stack can route the error to the right socket.  Like
    :class:`TcpHeader`, the body is shared by :meth:`Packet.copy` and must
    not be mutated in place — translators build a fresh body.
    """

    icmp_type: IcmpType
    original_proto: IpProtocol
    original_src: Endpoint
    original_dst: Endpoint


@dataclass(slots=True)
class Packet:
    """One simulated IP packet.

    Attributes:
        proto: transport protocol.
        src / dst: transport-level session endpoints (IP + port).  For ICMP
            the port halves are 0 and :attr:`icmp` carries the session info.
        payload: opaque application bytes (UDP datagram body or TCP segment
            body).  NAT payload-mangling (§5.3) scans these bytes.
        tcp: TCP header, present iff ``proto is IpProtocol.TCP``.
        icmp: ICMP error body, present iff ``proto is IpProtocol.ICMP``.
        ttl: decremented per hop; expiry drops the packet (guards routing
            loops in malformed topologies).
        packet_id: unique per packet object, for tracing.
        flow: attempt-scoped correlation id (see :mod:`repro.obs.flight`),
            or None when no flight recorder is attached.  Stamped lazily at
            the first recorded hop and propagated through :meth:`copy`, so
            every NAT rewrite of the same original packet shares lineage.
        gen: pool generation stamp, bumped each time :data:`PACKET_POOL`
            recycles this object.  Snapshot it when retaining a delivered
            packet to detect reuse; excluded from equality and repr because
            it describes the container, not the packet.
    """

    proto: IpProtocol
    src: Endpoint
    dst: Endpoint
    payload: bytes = b""
    tcp: Optional[TcpHeader] = None
    icmp: Optional[IcmpError] = None
    ttl: int = DEFAULT_TTL
    packet_id: int = field(default_factory=lambda: next(_packet_ids))
    flow: Optional[int] = None
    gen: int = field(default=0, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.proto is IpProtocol.TCP and self.tcp is None:
            raise ValueError("TCP packet requires a TcpHeader")
        if self.proto is not IpProtocol.TCP and self.tcp is not None:
            raise ValueError(f"{self.proto} packet must not carry a TcpHeader")
        if self.proto is IpProtocol.ICMP and self.icmp is None:
            raise ValueError("ICMP packet requires an IcmpError body")

    def copy(self) -> "Packet":
        """Copy-on-write clone for NAT rewriting.

        This is the per-hop hot path (every NAT translation and router
        forward clones the packet), so it bypasses ``__init__`` — the
        original already passed ``__post_init__`` validation and the clone
        carries the same protocol invariants.  Top-level fields (``src``,
        ``dst``, ``ttl``, ``payload``) are per-clone and safe to overwrite;
        the ``tcp``/``icmp`` header objects and the payload bytes are
        *shared* and treated as immutable — a mangling NAT rebinds
        ``payload`` to new bytes, and the ICMP translator attaches a fresh
        :class:`IcmpError` rather than writing through the shared one.

        Clones come from :data:`PACKET_POOL`'s free list when one is
        available (an empty list costs a single truthiness check); every
        field is assigned below, so a recycled carcass is indistinguishable
        from a fresh allocation except for its ``gen`` stamp.
        """
        free = _pool_free
        if free:
            clone = free.pop()
        else:
            clone = object.__new__(Packet)
            clone.gen = 0
        clone.proto = self.proto
        clone.src = self.src
        clone.dst = self.dst
        clone.payload = self.payload
        clone.tcp = self.tcp
        clone.icmp = self.icmp
        clone.ttl = self.ttl
        clone.packet_id = next(_packet_ids)
        clone.flow = self.flow
        return clone

    def stow(self) -> "Packet":
        """Defensive copy for handlers that retain delivered packets.

        The drain loop may recycle a delivered packet once the delivery
        callback returns (see :class:`PacketPool`); a stowed copy is owned
        by the caller — the pool only ever reclaims packets it delivered,
        so nothing reaches into this clone behind the caller's back.
        """
        return self.copy()

    @property
    def size(self) -> int:
        """Approximate on-wire size in bytes (header estimate + payload)."""
        return self.proto.header_bytes + len(self.payload)

    def describe(self) -> str:
        """One-line human-readable summary, used by the flight recorder and logs."""
        base = f"{self.proto.value} {self.src} -> {self.dst}"
        if self.tcp is not None:
            base += f" [{self.tcp.flags.describe()} seq={self.tcp.seq} ack={self.tcp.ack}]"
        if self.icmp is not None:
            base += f" [{self.icmp.icmp_type.value}]"
        if self.payload:
            base += f" ({len(self.payload)}B)"
        return base


def udp_packet(src: Endpoint, dst: Endpoint, payload: bytes = b"") -> Packet:
    """Convenience constructor for a UDP datagram.

    Built like :meth:`Packet.copy` — pool acquire or straight into
    ``__new__`` — because the UDP send path creates one packet per datagram
    and the protocol invariants ``__post_init__`` would check (a UDP packet
    has no TCP/ICMP body) hold by construction here.
    """
    free = _pool_free
    if free:
        packet = free.pop()
    else:
        packet = object.__new__(Packet)
        packet.gen = 0
    packet.proto = IpProtocol.UDP
    packet.src = src
    packet.dst = dst
    packet.payload = payload
    packet.tcp = None
    packet.icmp = None
    packet.ttl = DEFAULT_TTL
    packet.packet_id = next(_packet_ids)
    packet.flow = None
    return packet


def tcp_packet(
    src: Endpoint,
    dst: Endpoint,
    flags: TcpFlags,
    seq: int = 0,
    ack: int = 0,
    payload: bytes = b"",
) -> Packet:
    """Convenience constructor for a TCP segment.

    Built like :func:`udp_packet` — straight into ``__new__``, because the
    TCP send path creates one packet per segment and a TCP packet with a
    header and no ICMP body satisfies ``__post_init__`` by construction —
    except that it never draws from :data:`PACKET_POOL`: which carcasses the
    pool hands out and takes back stays a property of the UDP and NAT paths.
    """
    header = object.__new__(TcpHeader)
    header.flags = flags
    header.seq = seq % (1 << 32)
    header.ack = ack % (1 << 32)
    packet = object.__new__(Packet)
    packet.gen = 0
    packet.proto = IpProtocol.TCP
    packet.src = src
    packet.dst = dst
    packet.payload = payload
    packet.tcp = header
    packet.icmp = None
    packet.ttl = DEFAULT_TTL
    packet.packet_id = next(_packet_ids)
    packet.flow = None
    return packet


def icmp_error_for(offender: Packet, icmp_type: IcmpType, reporter_ip) -> Packet:
    """Build the ICMP error a middlebox sends about *offender*.

    The error travels back toward the offender's source; its ICMP body quotes
    the offending session so the sender's stack can attribute it.
    """
    return Packet(
        proto=IpProtocol.ICMP,
        src=Endpoint(reporter_ip, 0),
        dst=Endpoint(offender.src.ip, 0),
        icmp=IcmpError(
            icmp_type=icmp_type,
            original_proto=offender.proto,
            original_src=offender.src,
            original_dst=offender.dst,
        ),
    )
