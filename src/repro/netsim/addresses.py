"""IPv4 addressing: addresses, prefixes, endpoints, realms, and pools.

The paper's Figure 1 architecture — one global realm plus many private realms
glued together by NATs — is modelled here.  Addresses are immutable value
objects backed by a 32-bit integer, cheap enough to live in every packet.

We implement our own small IPv4 types rather than using :mod:`ipaddress`
because NAT payload-mangling (paper §5.3) and address obfuscation (§3.1) need
direct byte-level access, and because packets are created by the million in
benchmarks — these types are ``__slots__``-lean and hashable.
"""

from __future__ import annotations

import struct
from functools import lru_cache
from typing import Iterator, List, Optional, Set, Tuple

from repro.util.errors import AddressError


class IPv4Address:
    """An immutable IPv4 address.

    Accepts dotted-quad strings, integers, 4-byte sequences, or another
    address.  Comparable, hashable, and ordered by numeric value.
    """

    __slots__ = ("_value",)

    def __init__(self, value) -> None:
        if isinstance(value, IPv4Address):
            self._value = value._value
        elif isinstance(value, int):
            if not 0 <= value <= 0xFFFFFFFF:
                raise AddressError(f"IPv4 integer out of range: {value}")
            self._value = value
        elif isinstance(value, str):
            self._value = _parse_dotted_quad(value)
        elif isinstance(value, (bytes, bytearray)):
            if len(value) != 4:
                raise AddressError(f"IPv4 bytes must be length 4, got {len(value)}")
            self._value = struct.unpack("!I", bytes(value))[0]
        else:
            raise AddressError(f"cannot build IPv4Address from {type(value).__name__}")

    def __int__(self) -> int:
        return self._value

    def __index__(self) -> int:
        return self._value

    def __bytes__(self) -> bytes:
        return struct.pack("!I", self._value)

    @property
    def packed(self) -> bytes:
        """Network-order 4-byte encoding."""
        return bytes(self)

    def complement(self) -> "IPv4Address":
        """One's complement of the address (paper §3.1 obfuscation)."""
        return IPv4Address(self._value ^ 0xFFFFFFFF)

    def __eq__(self, other) -> bool:
        return isinstance(other, IPv4Address) and self._value == other._value

    def __lt__(self, other: "IPv4Address") -> bool:
        return self._value < other._value

    def __le__(self, other: "IPv4Address") -> bool:
        return self._value <= other._value

    def __hash__(self) -> int:
        # Hashed once per routing/NAT/link dict probe on the per-packet hot
        # path; hashing the bare int avoids a tuple allocation per probe.
        return hash(self._value)

    def __str__(self) -> str:
        v = self._value
        return f"{v >> 24 & 255}.{v >> 16 & 255}.{v >> 8 & 255}.{v & 255}"

    def __repr__(self) -> str:
        return f"IPv4Address({str(self)!r})"


def _is_decimal(text: str) -> bool:
    """ASCII digits only: ``str.isdigit`` alone also accepts every other
    Unicode digit (``"٤"``, ``"４"``), which ``int()`` then happily reads."""
    return text.isascii() and text.isdigit()


@lru_cache(maxsize=1024)  # topologies re-parse the same few literals per build
def _parse_dotted_quad(text: str) -> int:
    parts = text.strip().split(".")
    if len(parts) != 4:
        raise AddressError(f"malformed IPv4 address: {text!r}")
    value = 0
    for part in parts:
        if not _is_decimal(part):
            raise AddressError(f"malformed IPv4 address: {text!r}")
        octet = int(part)
        if octet > 255 or (len(part) > 1 and part[0] == "0"):
            raise AddressError(f"malformed IPv4 address: {text!r}")
        value = (value << 8) | octet
    return value


class IPv4Network:
    """An IPv4 prefix (network address + mask length)."""

    __slots__ = ("_network", "_prefix_len")

    def __init__(self, spec, prefix_len: Optional[int] = None) -> None:
        if isinstance(spec, IPv4Network):
            self._network, self._prefix_len = spec._network, spec._prefix_len
            return
        if isinstance(spec, str) and prefix_len is None:
            if "/" not in spec:
                raise AddressError(f"prefix missing mask length: {spec!r}")
            addr_text, _, len_text = spec.partition("/")
            address = IPv4Address(addr_text)
            if not _is_decimal(len_text):
                raise AddressError(f"malformed prefix length: {spec!r}")
            prefix_len = int(len_text)
        else:
            address = IPv4Address(spec)
            if prefix_len is None:
                prefix_len = 32
        if not 0 <= prefix_len <= 32:
            raise AddressError(f"prefix length out of range: {prefix_len}")
        self._prefix_len = prefix_len
        self._network = int(address) & self.netmask_int()

    def netmask_int(self) -> int:
        if self._prefix_len == 0:
            return 0
        return (0xFFFFFFFF << (32 - self._prefix_len)) & 0xFFFFFFFF

    @property
    def prefix_len(self) -> int:
        return self._prefix_len

    @property
    def network_address(self) -> IPv4Address:
        return IPv4Address(self._network)

    @property
    def broadcast_address(self) -> IPv4Address:
        return IPv4Address(self._network | (~self.netmask_int() & 0xFFFFFFFF))

    @property
    def num_addresses(self) -> int:
        return 1 << (32 - self._prefix_len)

    def __contains__(self, address) -> bool:
        try:
            value = address._value
        except AttributeError:  # given as str/int/bytes
            value = IPv4Address(address)._value
        return value & self.netmask_int() == self._network

    def hosts(self) -> Iterator[IPv4Address]:
        """Iterate usable host addresses (excludes network/broadcast on /30-)."""
        first, last = self._network, int(self.broadcast_address)
        if self._prefix_len <= 30:
            first += 1
            last -= 1
        for value in range(first, last + 1):
            yield IPv4Address(value)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, IPv4Network)
            and self._network == other._network
            and self._prefix_len == other._prefix_len
        )

    def __hash__(self) -> int:
        return hash(("IPv4Network", self._network, self._prefix_len))

    def __str__(self) -> str:
        return f"{IPv4Address(self._network)}/{self._prefix_len}"

    def __repr__(self) -> str:
        return f"IPv4Network({str(self)!r})"


#: RFC 1918 private realms plus loopback; used by :func:`is_private`.
PRIVATE_NETWORKS: Tuple[IPv4Network, ...] = (
    IPv4Network("10.0.0.0/8"),
    IPv4Network("172.16.0.0/12"),
    IPv4Network("192.168.0.0/16"),
    IPv4Network("127.0.0.0/8"),
)


def is_private(address) -> bool:
    """True if *address* falls in an RFC 1918 (or loopback) realm."""
    addr = IPv4Address(address)
    return any(addr in net for net in PRIVATE_NETWORKS)


class Endpoint:
    """A transport session endpoint: (IP address, port) — paper §2.1."""

    __slots__ = ("ip", "port", "_key")

    def __init__(self, ip, port: int) -> None:
        # An IPv4Address is immutable, so one handed in is shared, not copied.
        object.__setattr__(self, "ip", ip if type(ip) is IPv4Address else IPv4Address(ip))
        if not 0 <= port <= 0xFFFF:
            raise AddressError(f"port out of range: {port}")
        object.__setattr__(self, "port", int(port))
        #: The 48-bit session key ``ip << 16 | port``, precomputed once.
        #: Every per-packet integer key in the system — NAT mapping keys,
        #: per-remote mapping activity — folds (ip, port) exactly this
        #: way, so hot paths read one slot instead of redoing the arithmetic
        #: (two attribute hops, a multiply, and an add) per packet.
        object.__setattr__(self, "_key", self.ip._value * 65536 + self.port)

    def __setattr__(self, name, value):
        raise AttributeError("Endpoint is immutable")

    @classmethod
    def parse(cls, text: str) -> "Endpoint":
        """Parse ``"1.2.3.4:5678"``."""
        host, sep, port_text = text.rpartition(":")
        if not sep or not _is_decimal(port_text):
            raise AddressError(f"malformed endpoint: {text!r}")
        return cls(host, int(port_text))

    @property
    def is_private(self) -> bool:
        return is_private(self.ip)

    def pack(self) -> bytes:
        """6-byte wire encoding: 4-byte IP + 2-byte port, network order."""
        return self.ip.packed + struct.pack("!H", self.port)

    @classmethod
    def unpack(cls, data: bytes) -> "Endpoint":
        if len(data) != 6:
            raise AddressError(f"endpoint encoding must be 6 bytes, got {len(data)}")
        return cls(data[:4], struct.unpack("!H", data[4:])[0])

    def obfuscated(self) -> "Endpoint":
        """Endpoint with one's-complement IP (paper §3.1 / §5.3 defence)."""
        return Endpoint(self.ip.complement(), self.port)

    def __reduce__(self):
        # The immutable __setattr__ defeats pickle's default slot restore;
        # rebuild through the constructor instead (fleet workers ship
        # NatCheckReports, which embed Endpoints, back across the pool).
        return (Endpoint, (self.ip, self.port))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Endpoint)
            and self.ip == other.ip
            and self.port == other.port
        )

    def __lt__(self, other: "Endpoint") -> bool:
        return (self.ip, self.port) < (other.ip, other.port)

    def __hash__(self) -> int:
        # Endpoints key NAT mapping and socket-demux dicts probed per packet;
        # the precomputed fold means no tuple (or nested IPv4Address tuple
        # hash) is built per probe.
        return hash(self._key)

    def __str__(self) -> str:
        return f"{self.ip}:{self.port}"

    def __repr__(self) -> str:
        return f"Endpoint({str(self)!r})"


class AddressPool:
    """Allocates host addresses from a prefix, in order, with release.

    NAT devices use one pool per private realm to play DHCP server (the paper
    notes NATs "hand out IP addresses in a fairly deterministic way" — §3.4,
    which is what makes private-endpoint collisions likely).
    """

    def __init__(self, network: IPv4Network, reserved: Optional[List] = None) -> None:
        self.network = IPv4Network(network)
        self._reserved: Set[IPv4Address] = {IPv4Address(a) for a in (reserved or [])}
        self._allocated: Set[IPv4Address] = set()
        self._cursor = iter(self.network.hosts())

    def allocate(self) -> IPv4Address:
        """Return the next free address; raises AddressError when exhausted."""
        for address in self._cursor:
            if address in self._reserved or address in self._allocated:
                continue
            self._allocated.add(address)
            return address
        raise AddressError(f"address pool {self.network} exhausted")

    def release(self, address) -> None:
        """Return an address to the pool (it will not be re-issued until the
        cursor wraps; deterministic allocation order is preserved)."""
        self._allocated.discard(IPv4Address(address))

    @property
    def allocated(self) -> Set[IPv4Address]:
        return set(self._allocated)
