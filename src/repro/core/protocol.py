"""Binary wire protocol for rendezvous, punching, relaying, and reversal.

Every message is ``header (4 bytes) + body``:

    magic   u8 = 0x5A
    version u8 = 1
    type    u8
    flags   u8   (bit 0: endpoints in the body are obfuscated)

Endpoints are packed as 6 bytes (IP + port).  When the obfuscation flag is
set, the IP halves are stored as their one's complement — the §3.1/§5.3
defence against NATs that blindly translate address-like payload bytes.  The
codec applies/removes the complement transparently, so application code
always sees true endpoints.

Over TCP, messages are framed with a u16 big-endian length prefix; a
``repro.transport.tcp.FrameBuffer(decode)`` reassembles a stream into
messages.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, fields
from typing import Callable, ClassVar, Dict, Optional, Tuple, Type

from repro.netsim.addresses import Endpoint
from repro.util.errors import ProtocolError

MAGIC = 0x5A
VERSION = 1
FLAG_OBFUSCATED = 0x01

HEADER = struct.Struct("!BBBB")
U16 = struct.Struct("!H")

#: Transport selector carried in connect requests.
TRANSPORT_UDP = 0
TRANSPORT_TCP = 1

#: ``_layout`` kind -> struct format of its fixed-size wire encoding.  An
#: endpoint is the address word plus the port; ``bytes`` has no fixed part.
_WIRE_FORMATS = {"u8": "B", "u16": "H", "u32": "I", "u64": "Q", "ep": "IH"}


@dataclass
class Message:
    """Base class; concrete messages define TYPE and a field layout.

    Field layout conventions (``_layout`` tuples): ``("name", "u8"|"u16"|
    "u32"|"u64"|"ep"|"bytes")``, in dataclass field order.  ``bytes`` must
    be last (consumes the remainder).  :func:`_register` compiles the layout
    into the class's codec, ``_pack`` / ``_unpack``; every encode and decode
    entry point in this module runs on those two functions.
    """

    TYPE: ClassVar[int] = 0
    _layout: ClassVar[Tuple[Tuple[str, str], ...]] = ()
    #: ``message._pack(obfuscate)`` -> header + body.
    _pack: ClassVar[Callable[..., bytes]]
    #: ``cls._unpack(data)`` -> message, from a whole encoding whose magic,
    #: version and type have been checked.
    _unpack: ClassVar[Callable[[bytes], "Message"]]


_REGISTRY: Dict[int, Type[Message]] = {}

#: What :func:`_compile` generates per message class.  ``pack`` /
#: ``unpack_from`` belong to the class's one ``struct.Struct`` (header plus
#: every fixed-size field); an endpoint occupies two of its slots, the
#: address word — XORed with ``mask`` to apply / remove the one's complement
#: — and the port; a trailing ``bytes`` field is appended / sliced off.
_CODEC_SOURCE = """\
def _pack(m, obfuscate):
    mask = 0xFFFFFFFF if obfuscate else 0
    return pack({magic}, {version}, {type}, {flag} if obfuscate else 0{pack_args}){pack_tail}

def _unpack(data):
    if len(data) {size_test} {size}:
        raise _wrong_size({label!r}, len(data) - {size})
    _, _, _, flags{unpack_names} = unpack_from(data)
    mask = 0xFFFFFFFF if flags & {flag} else 0
    return cls({built})
"""


def _wrong_size(label: str, excess: int) -> ProtocolError:
    if excess < 0:
        return ProtocolError(f"truncated {label} body")
    return ProtocolError(f"{label}: {excess} trailing bytes")


def _compile(cls: Type[Message]) -> None:
    """Compile ``cls._layout`` into the straight-line ``_pack`` / ``_unpack``
    pair of :data:`_CODEC_SOURCE`, once, when the class registers."""
    layout = cls._layout
    if [name for name, _ in layout] != [f.name for f in fields(cls)]:
        raise ProtocolError(f"{cls.__name__}: _layout order differs from the dataclass fields")
    if any(kind == "bytes" for _, kind in layout[:-1]):
        raise ProtocolError(f"{cls.__name__}: a bytes field must be last")
    tail = layout[-1][0] if layout and layout[-1][1] == "bytes" else None
    fixed = layout[:-1] if tail else layout
    wire = struct.Struct(HEADER.format + "".join(_WIRE_FORMATS[kind] for _, kind in fixed))
    pack_args, unpack_names, built = [], [], []
    for name, kind in fixed:
        if kind == "ep":
            pack_args += [f"m.{name}.ip._value ^ mask", f"m.{name}.port"]
            unpack_names += [f"{name}_ip", f"{name}_port"]
            built.append(f"Endpoint({name}_ip ^ mask, {name}_port)")
        else:
            pack_args.append(f"m.{name}")
            unpack_names.append(name)
            built.append(name)
    if tail:
        built.append(f"data[{wire.size}:]")
    source = _CODEC_SOURCE.format(
        magic=MAGIC,
        version=VERSION,
        type=cls.TYPE,
        flag=FLAG_OBFUSCATED,
        label=cls.__name__,
        size=wire.size,
        size_test="<" if tail else "!=",
        pack_args="".join(f", {arg}" for arg in pack_args),
        pack_tail=f" + bytes(m.{tail})" if tail else "",
        unpack_names="".join(f", {name}" for name in unpack_names),
        built=", ".join(built),
    )
    namespace = {
        "pack": wire.pack,
        "unpack_from": wire.unpack_from,
        "cls": cls,
        "Endpoint": Endpoint,
        "_wrong_size": _wrong_size,
    }
    exec(compile(source, f"<{cls.__name__} wire codec>", "exec"), namespace)
    cls._pack = namespace["_pack"]
    cls._unpack = staticmethod(namespace["_unpack"])


def _register(cls: Type[Message]) -> Type[Message]:
    if cls.TYPE in _REGISTRY:  # pragma: no cover - development guard
        raise ProtocolError(f"duplicate message type 0x{cls.TYPE:02x}")
    _compile(cls)
    _REGISTRY[cls.TYPE] = cls
    return cls


# -- rendezvous control ---------------------------------------------------------


@_register
@dataclass
class Register(Message):
    """Client -> S: register; body carries the client's *private* endpoint
    (§3.1: the server learns the public endpoint from the packet source)."""

    TYPE: ClassVar[int] = 0x01
    _layout: ClassVar = (("client_id", "u32"), ("private_ep", "ep"))
    client_id: int
    private_ep: Endpoint


@_register
@dataclass
class Registered(Message):
    """S -> client: registration confirmed; echoes both endpoints."""

    TYPE: ClassVar[int] = 0x02
    _layout: ClassVar = (
        ("client_id", "u32"),
        ("public_ep", "ep"),
        ("private_ep", "ep"),
    )
    client_id: int
    public_ep: Endpoint
    private_ep: Endpoint


@_register
@dataclass
class ConnectRequest(Message):
    """Client -> S: request help connecting to *target_id* (§3.2 step 1)."""

    TYPE: ClassVar[int] = 0x03
    _layout: ClassVar = (
        ("requester_id", "u32"),
        ("target_id", "u32"),
        ("transport", "u8"),
    )
    requester_id: int
    target_id: int
    transport: int


@_register
@dataclass
class PeerEndpoints(Message):
    """S -> both clients: the other peer's public and private endpoints plus
    the pairing nonce both sides use to authenticate punches (§3.2 step 2)."""

    TYPE: ClassVar[int] = 0x04
    _layout: ClassVar = (
        ("peer_id", "u32"),
        ("public_ep", "ep"),
        ("private_ep", "ep"),
        ("nonce", "u64"),
        ("transport", "u8"),
        ("role", "u8"),
    )
    peer_id: int
    public_ep: Endpoint
    private_ep: Endpoint
    nonce: int
    transport: int
    role: int  # 0 = requester, 1 = requested peer

    ROLE_REQUESTER: ClassVar[int] = 0
    ROLE_RESPONDER: ClassVar[int] = 1


@_register
@dataclass
class RendezvousError(Message):
    """S -> client: a request failed (unknown peer, bad transport...)."""

    TYPE: ClassVar[int] = 0x05
    _layout: ClassVar = (("code", "u8"), ("detail", "bytes"))
    code: int
    detail: bytes = b""

    UNKNOWN_PEER: ClassVar[int] = 1
    NOT_REGISTERED: ClassVar[int] = 2
    BAD_REQUEST: ClassVar[int] = 3

    @property
    def reason(self) -> str:
        return self.detail.decode("utf-8", "replace")


@_register
@dataclass
class Keepalive(Message):
    """Client -> S: keep the registration's NAT mapping alive (§3.6)."""

    TYPE: ClassVar[int] = 0x06
    _layout: ClassVar = (("client_id", "u32"),)
    client_id: int


@_register
@dataclass
class KeepaliveAck(Message):
    """S -> client: the keepalive landed on a live registration.

    Clients consume the ack and ignore it: a registration S lost shows up as
    a NOT_REGISTERED error instead."""

    TYPE: ClassVar[int] = 0x07
    _layout: ClassVar = (("client_id", "u32"),)
    client_id: int


# Type codes 0x08-0x0A are retired (a networked shard pool's redirect and
# forwarding messages) and are not reused.


# -- punching ----------------------------------------------------------------------


@_register
@dataclass
class Punch(Message):
    """Peer -> peer: hole-punching probe, authenticated by the pairing nonce
    (§3.4 — "applications must authenticate all messages ... to filter out
    stray traffic")."""

    TYPE: ClassVar[int] = 0x10
    _layout: ClassVar = (("sender", "u32"), ("receiver", "u32"), ("nonce", "u64"))
    sender: int
    receiver: int
    nonce: int


@_register
@dataclass
class PunchAck(Message):
    """Peer -> peer: valid response that lets the sender lock in an endpoint."""

    TYPE: ClassVar[int] = 0x11
    _layout: ClassVar = (("sender", "u32"), ("receiver", "u32"), ("nonce", "u64"))
    sender: int
    receiver: int
    nonce: int


@_register
@dataclass
class SessionData(Message):
    """Peer -> peer application payload on an established UDP session."""

    TYPE: ClassVar[int] = 0x12
    _layout: ClassVar = (
        ("sender", "u32"),
        ("receiver", "u32"),
        ("nonce", "u64"),
        ("payload", "bytes"),
    )
    sender: int
    receiver: int
    nonce: int
    payload: bytes = b""


@_register
@dataclass
class SessionKeepalive(Message):
    """Peer -> peer: keeps the punched UDP hole open (§3.6)."""

    TYPE: ClassVar[int] = 0x13
    _layout: ClassVar = (("sender", "u32"), ("receiver", "u32"), ("nonce", "u64"))
    sender: int
    receiver: int
    nonce: int


@_register
@dataclass
class SessionClose(Message):
    """Peer -> peer: orderly end of a punched UDP session (lets the peer
    stop keepalives immediately instead of detecting a dead hole)."""

    TYPE: ClassVar[int] = 0x14
    _layout: ClassVar = (("sender", "u32"), ("receiver", "u32"), ("nonce", "u64"))
    sender: int
    receiver: int
    nonce: int


# -- TCP stream authentication (§4.2 step 5) ----------------------------------------


@_register
@dataclass
class Hello(Message):
    """First message on a fresh peer-to-peer TCP stream: proves identity."""

    TYPE: ClassVar[int] = 0x20
    _layout: ClassVar = (("sender", "u32"), ("receiver", "u32"), ("nonce", "u64"))
    sender: int
    receiver: int
    nonce: int


@_register
@dataclass
class StreamSelect(Message):
    """Controlling side -> controlled side: use this stream (when several
    authenticated streams raced, e.g. private + hairpin paths)."""

    TYPE: ClassVar[int] = 0x22
    _layout: ClassVar = (("sender", "u32"), ("receiver", "u32"), ("nonce", "u64"))
    sender: int
    receiver: int
    nonce: int


@_register
@dataclass
class StreamData(Message):
    """Application payload on an established peer-to-peer TCP stream."""

    TYPE: ClassVar[int] = 0x23
    _layout: ClassVar = (("sender", "u32"), ("payload", "bytes"))
    sender: int
    payload: bytes = b""


@_register
@dataclass
class StreamKeepalive(Message):
    """Peer -> peer: in-band liveness probe on an established TCP stream.

    TCP's own retransmission machinery only detects a dead peer when there
    is data in flight; an *idle* punched stream whose NAT mapping expired
    blackholes silently.  These probes give the TCP path the same liveness
    ladder UDP sessions have (§3.6): probe when idle, declare the stream
    broken after ``broken_after_missed`` silent intervals — the probe's
    retransmission failure then surfaces via the RTO machinery too."""

    TYPE: ClassVar[int] = 0x24
    _layout: ClassVar = (("sender", "u32"),)
    sender: int


# -- relaying (§2.2) ------------------------------------------------------------------


@_register
@dataclass
class RelayPayload(Message):
    """Client -> S -> client: one relayed application datagram.

    ``sender``/``target`` are client ids; S rewrites nothing but the routing.
    """

    TYPE: ClassVar[int] = 0x30
    _layout: ClassVar = (
        ("sender", "u32"),
        ("target", "u32"),
        ("payload", "bytes"),
    )
    sender: int
    target: int
    payload: bytes = b""


@_register
@dataclass
class RelayError(Message):
    """S -> client: a relayed payload could not be delivered.

    Sent back to the *sender* of a :class:`RelayPayload` whose target has no
    live registration (e.g. S restarted and the peer has not re-registered
    yet).  Without it the relay path — the paper's "always works" fallback —
    blackholes silently; with it the sending :class:`RelaySession` can
    surface the failure (``relay.send_failures`` metric + ``on_error``)."""

    TYPE: ClassVar[int] = 0x31
    _layout: ClassVar = (("sender", "u32"), ("target", "u32"), ("code", "u8"))
    sender: int
    target: int
    code: int = 0

    TARGET_UNREACHABLE: ClassVar[int] = 1


# Type codes 0x60-0x64 are retired (a second relay's allocate, send and data
# messages and its relayed-endpoint exchange; S is the only relay, §2.2) and
# are not reused.


# -- connection reversal (§2.3) ----------------------------------------------------------


@_register
@dataclass
class ReverseRequest(Message):
    """Client -> S: ask *target_id* to connect back to me."""

    TYPE: ClassVar[int] = 0x40
    _layout: ClassVar = (("requester_id", "u32"), ("target_id", "u32"))
    requester_id: int
    target_id: int


@_register
@dataclass
class ReverseConnect(Message):
    """S -> target: please open a TCP connection to this peer."""

    TYPE: ClassVar[int] = 0x41
    _layout: ClassVar = (
        ("peer_id", "u32"),
        ("public_ep", "ep"),
        ("private_ep", "ep"),
        ("nonce", "u64"),
    )
    peer_id: int
    public_ep: Endpoint
    private_ep: Endpoint
    nonce: int


@_register
@dataclass
class ReverseExpect(Message):
    """S -> requester: the target was asked to connect back to you; expect a
    stream authenticated with this nonce."""

    TYPE: ClassVar[int] = 0x42
    _layout: ClassVar = (("peer_id", "u32"), ("nonce", "u64"))
    peer_id: int
    nonce: int


# -- sequential TCP hole punching (§4.5) ----------------------------------------------------


@_register
@dataclass
class SeqRequest(Message):
    """A -> S: start the NatTrav-style sequential procedure toward target."""

    TYPE: ClassVar[int] = 0x50
    _layout: ClassVar = (("requester_id", "u32"), ("target_id", "u32"))
    requester_id: int
    target_id: int


@_register
@dataclass
class SeqConnect(Message):
    """S -> B: step (2): connect to the requester's public endpoint (this
    punches B's NAT), expect failure, then listen and report ready."""

    TYPE: ClassVar[int] = 0x51
    _layout: ClassVar = (
        ("peer_id", "u32"),
        ("public_ep", "ep"),
        ("private_ep", "ep"),
        ("nonce", "u64"),
    )
    peer_id: int
    public_ep: Endpoint
    private_ep: Endpoint
    nonce: int


@_register
@dataclass
class SeqReady(Message):
    """S -> A: step (4): B is listening; connect to B's public endpoint now."""

    TYPE: ClassVar[int] = 0x52
    _layout: ClassVar = (
        ("peer_id", "u32"),
        ("public_ep", "ep"),
        ("private_ep", "ep"),
        ("nonce", "u64"),
    )
    peer_id: int
    public_ep: Endpoint
    private_ep: Endpoint
    nonce: int


# -- codec -------------------------------------------------------------------------------


def encode(message: Message, obfuscate: bool = False) -> bytes:
    """Serialize *message* (header + body)."""
    return message._pack(obfuscate)


def decode(data: bytes) -> Message:
    """Parse one message; raises ProtocolError on garbage (stray traffic)."""
    if len(data) < HEADER.size:
        raise ProtocolError(f"short message ({len(data)} bytes)")
    if data[0] != MAGIC:
        raise ProtocolError(f"bad magic 0x{data[0]:02x}")
    if data[1] != VERSION:
        raise ProtocolError(f"unsupported version {data[1]}")
    cls = _REGISTRY.get(data[2])
    if cls is None:
        raise ProtocolError(f"unknown message type 0x{data[2]:02x}")
    return cls._unpack(data)


def try_decode(data: bytes) -> Optional[Message]:
    """decode() returning None instead of raising; for datagram demux paths
    that must tolerate stray traffic (§3.4)."""
    try:
        return decode(data)
    except ProtocolError:
        return None


def frame(message: Message, obfuscate: bool = False) -> bytes:
    """Length-prefixed encoding for TCP streams."""
    encoded = encode(message, obfuscate)
    if len(encoded) > 0xFFFF:
        raise ProtocolError(f"message too large to frame ({len(encoded)} bytes)")
    return U16.pack(len(encoded)) + encoded
