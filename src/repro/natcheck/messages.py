"""NAT Check's own little wire protocol.

The real NAT Check predates (and is separate from) any p2p application
protocol, so this codec is independent of :mod:`repro.core.protocol`.
Messages are ``type (1 byte) + fixed fields``; TCP messages ride the same
u16-length framing helper.

Note the client's endpoints travel *unobfuscated* — deliberately, because
§6.3 admits NAT Check "currently does not protect itself" from
payload-mangling NATs, and we reproduce that limitation (and test it).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Optional, Union

from repro.netsim.addresses import Endpoint
from repro.util.errors import AddressError, ProtocolError

U16 = struct.Struct("!H")
U32 = struct.Struct("!I")

# UDP message types
UDP_PROBE = 0x01
UDP_ECHO = 0x02
UDP_FORWARD = 0x03
UDP_FROM3 = 0x04
UDP_HAIRPIN = 0x05
#: Probe asking the server to reply from its *alternate* port (same IP) —
#: used by RFC 3489-style filtering discovery.
UDP_PROBE_ALT_PORT = 0x06
#: Probe asking server 2 to have server 3 reply (alternate IP) — filtering.
UDP_PROBE_ALT_IP = 0x07
# TCP message types
TCP_PROBE = 0x11
TCP_ECHO = 0x12
TCP_FORWARD = 0x13
TCP_REPORT = 0x14
TCP_HAIRPIN = 0x15

# Server 3's observation of its unsolicited connect (paper §6.1.2)
SYN_PENDING = 1  # still in progress after 5 s: the NAT silently drops
SYN_CONNECTED = 2  # went through: the NAT does not filter at all
SYN_RST = 3  # actively rejected with a TCP RST
SYN_ICMP = 4  # actively rejected with an ICMP error
SYN_NOT_TESTED = 0

SYN_NAMES = {
    SYN_NOT_TESTED: "not-tested",
    SYN_PENDING: "drop",
    SYN_CONNECTED: "accepted",
    SYN_RST: "rst",
    SYN_ICMP: "icmp",
}


@dataclass(frozen=True)
class Probe:
    """Client -> server: echo request carrying a test token."""

    msg_type: int  # UDP_PROBE / TCP_PROBE / UDP_HAIRPIN / TCP_HAIRPIN
    token: int

    def pack(self) -> bytes:
        return struct.pack("!BI", self.msg_type, self.token)


@dataclass(frozen=True)
class Echo:
    """Server -> client: the endpoint the server observed, plus (for server
    2's TCP echo) server 3's SYN observation."""

    msg_type: int  # UDP_ECHO / TCP_ECHO
    token: int
    observed: Endpoint
    syn_report: int = SYN_NOT_TESTED

    def pack(self) -> bytes:
        return struct.pack("!BI", self.msg_type, self.token) + self.observed.pack() + struct.pack(
            "!B", self.syn_report
        )


@dataclass(frozen=True)
class Forward:
    """Server 2 -> server 3: please probe this client endpoint."""

    msg_type: int  # UDP_FORWARD / TCP_FORWARD
    token: int
    client: Endpoint

    def pack(self) -> bytes:
        return struct.pack("!BI", self.msg_type, self.token) + self.client.pack()


@dataclass(frozen=True)
class From3:
    """Server 3 -> client (UDP): the 'unsolicited' reply of §6.1.1."""

    token: int

    def pack(self) -> bytes:
        return struct.pack("!BI", UDP_FROM3, self.token)


@dataclass(frozen=True)
class Report:
    """Server 3 -> server 2: go-ahead with the SYN observation (§6.1.2)."""

    token: int
    outcome: int

    def pack(self) -> bytes:
        return struct.pack("!BIB", TCP_REPORT, self.token, self.outcome)


AnyMessage = Union[Probe, Echo, Forward, From3, Report]


def unpack(data: bytes) -> AnyMessage:
    """Parse one NAT Check message; raises ProtocolError on garbage."""
    if not data:
        raise ProtocolError("empty NAT Check message")
    msg_type = data[0]
    try:
        if msg_type in (
            UDP_PROBE,
            TCP_PROBE,
            UDP_HAIRPIN,
            TCP_HAIRPIN,
            UDP_PROBE_ALT_PORT,
            UDP_PROBE_ALT_IP,
        ):
            (token,) = U32.unpack_from(data, 1)
            return Probe(msg_type, token)
        if msg_type in (UDP_ECHO, TCP_ECHO):
            (token,) = U32.unpack_from(data, 1)
            observed = Endpoint.unpack(data[5:11])
            syn_report = data[11] if len(data) > 11 else SYN_NOT_TESTED
            return Echo(msg_type, token, observed, syn_report)
        if msg_type in (UDP_FORWARD, TCP_FORWARD):
            (token,) = U32.unpack_from(data, 1)
            return Forward(msg_type, token, Endpoint.unpack(data[5:11]))
        if msg_type == UDP_FROM3:
            (token,) = U32.unpack_from(data, 1)
            return From3(token)
        if msg_type == TCP_REPORT:
            token, outcome = struct.unpack_from("!IB", data, 1)
            return Report(token, outcome)
    except (struct.error, IndexError, AddressError) as exc:
        raise ProtocolError(f"truncated NAT Check message type 0x{msg_type:02x}") from exc
    raise ProtocolError(f"unknown NAT Check message type 0x{msg_type:02x}")


def try_unpack(data: bytes) -> Optional[AnyMessage]:
    try:
        return unpack(data)
    except ProtocolError:
        return None


def frame_tcp(message: AnyMessage) -> bytes:
    """u16-length framing for the TCP legs."""
    raw = message.pack()
    return U16.pack(len(raw)) + raw
