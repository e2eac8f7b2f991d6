"""Wire protocol codec: roundtrips, obfuscation, framing, garbage handling."""

import struct
from dataclasses import dataclass
from typing import ClassVar

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import protocol as p
from repro.netsim.addresses import Endpoint
from repro.transport.tcp import FrameBuffer
from repro.util.errors import AddressError, ProtocolError

EP_A = Endpoint("10.0.0.1", 4321)
EP_B = Endpoint("155.99.25.11", 62000)

SAMPLE_MESSAGES = [
    p.Register(client_id=1, private_ep=EP_A),
    p.Registered(client_id=1, public_ep=EP_B, private_ep=EP_A),
    p.ConnectRequest(requester_id=1, target_id=2, transport=p.TRANSPORT_UDP),
    p.PeerEndpoints(peer_id=2, public_ep=EP_B, private_ep=EP_A, nonce=0xDEADBEEF,
                    transport=p.TRANSPORT_TCP, role=p.PeerEndpoints.ROLE_RESPONDER),
    p.RendezvousError(code=p.RendezvousError.UNKNOWN_PEER, detail=b"peer 2 not registered"),
    p.Keepalive(client_id=7),
    p.Punch(sender=1, receiver=2, nonce=(1 << 64) - 1),
    p.PunchAck(sender=2, receiver=1, nonce=0),
    p.SessionData(sender=1, receiver=2, nonce=5, payload=b"\x00\x01\xff" * 10),
    p.SessionKeepalive(sender=1, receiver=2, nonce=5),
    p.Hello(sender=1, receiver=2, nonce=9),
    p.StreamSelect(sender=1, receiver=2, nonce=9),
    p.StreamData(sender=1, payload=b"stream bytes"),
    p.RelayPayload(sender=1, target=2, payload=b"relayed"),
    p.ReverseRequest(requester_id=3, target_id=4),
    p.ReverseConnect(peer_id=3, public_ep=EP_B, private_ep=EP_A, nonce=11),
    p.ReverseExpect(peer_id=4, nonce=11),
    p.SeqRequest(requester_id=1, target_id=2),
    p.SeqConnect(peer_id=1, public_ep=EP_B, private_ep=EP_A, nonce=12),
    p.SeqReady(peer_id=1, public_ep=EP_B, private_ep=EP_A, nonce=12),
]


@pytest.mark.parametrize("message", SAMPLE_MESSAGES, ids=lambda m: type(m).__name__)
def test_roundtrip_plain(message):
    assert p.decode(p.encode(message)) == message


@pytest.mark.parametrize("message", SAMPLE_MESSAGES, ids=lambda m: type(m).__name__)
def test_roundtrip_obfuscated(message):
    assert p.decode(p.encode(message, obfuscate=True)) == message


def test_obfuscation_hides_ip_bytes():
    """The raw private IP must not appear in the obfuscated encoding (§3.1)."""
    message = p.Register(client_id=1, private_ep=EP_A)
    plain = p.encode(message)
    hidden = p.encode(message, obfuscate=True)
    assert EP_A.ip.packed in plain
    assert EP_A.ip.packed not in hidden


def test_decode_bad_magic():
    with pytest.raises(ProtocolError):
        p.decode(b"\x00\x01\x01\x00" + b"junk")


def test_decode_bad_version():
    data = bytearray(p.encode(p.Keepalive(client_id=1)))
    data[1] = 99
    with pytest.raises(ProtocolError):
        p.decode(bytes(data))


def test_decode_unknown_type():
    data = bytearray(p.encode(p.Keepalive(client_id=1)))
    data[2] = 0xEE
    with pytest.raises(ProtocolError):
        p.decode(bytes(data))


def test_decode_truncated_body():
    data = p.encode(p.Register(client_id=1, private_ep=EP_A))
    with pytest.raises(ProtocolError):
        p.decode(data[:-3])


def test_decode_trailing_garbage():
    data = p.encode(p.Keepalive(client_id=1)) + b"extra"
    with pytest.raises(ProtocolError):
        p.decode(data)


def test_try_decode_returns_none_on_garbage():
    assert p.try_decode(b"not a message") is None
    assert p.try_decode(b"") is None


def test_retired_type_code_does_not_decode():
    """0x64 once carried a relayed-endpoint exchange (sender, target, relay
    endpoint, nonce); a frame of exactly that shape is now garbage."""
    frame = struct.pack(
        "!BBBBIIIHQ", p.MAGIC, p.VERSION, 0x64, 0, 1, 2, int(EP_B.ip), EP_B.port, 7
    )
    assert p.try_decode(frame) is None


def test_error_reason_text():
    e = p.RendezvousError(code=1, detail="pêer".encode())
    assert e.reason == "pêer"


class TestFraming:
    def test_frame_roundtrip_single(self):
        buf = FrameBuffer(p.decode)
        messages = buf.feed(p.frame(p.Keepalive(client_id=3)))
        assert messages == [p.Keepalive(client_id=3)]

    def test_frame_multiple_in_one_chunk(self):
        data = p.frame(p.Keepalive(client_id=1)) + p.frame(p.Keepalive(client_id=2))
        buf = FrameBuffer(p.decode)
        assert [m.client_id for m in buf.feed(data)] == [1, 2]

    def test_frame_split_across_chunks(self):
        data = p.frame(p.SessionData(sender=1, receiver=2, nonce=3, payload=b"x" * 100))
        buf = FrameBuffer(p.decode)
        out = []
        for i in range(0, len(data), 7):
            out.extend(buf.feed(data[i : i + 7]))
        assert len(out) == 1
        assert out[0].payload == b"x" * 100
        assert not buf._buffer

    def test_frame_partial_then_complete(self):
        data = p.frame(p.Keepalive(client_id=9))
        buf = FrameBuffer(p.decode)
        assert buf.feed(data[:1]) == []
        assert buf.feed(data[1:]) == [p.Keepalive(client_id=9)]

    def test_oversized_message_rejected(self):
        with pytest.raises(ProtocolError):
            p.frame(p.StreamData(sender=1, payload=b"x" * 70000))

    def test_obfuscated_framing(self):
        msg = p.PeerEndpoints(peer_id=1, public_ep=EP_B, private_ep=EP_A, nonce=4,
                              transport=0, role=0)
        buf = FrameBuffer(p.decode)
        assert buf.feed(p.frame(msg, obfuscate=True)) == [msg]


# -- property-based -----------------------------------------------------------

endpoints = st.builds(
    Endpoint,
    st.integers(0, 0xFFFFFFFF),
    st.integers(0, 0xFFFF),
)


@given(
    st.integers(0, 0xFFFFFFFF),
    endpoints,
    endpoints,
    st.integers(0, (1 << 64) - 1),
    st.booleans(),
)
def test_peer_endpoints_roundtrip_property(peer, pub, priv, nonce, obfuscate):
    msg = p.PeerEndpoints(peer_id=peer, public_ep=pub, private_ep=priv, nonce=nonce,
                          transport=p.TRANSPORT_UDP, role=1)
    assert p.decode(p.encode(msg, obfuscate)) == msg


@given(st.binary(max_size=1024), st.booleans())
def test_session_data_payload_roundtrip(payload, obfuscate):
    msg = p.SessionData(sender=1, receiver=2, nonce=3, payload=payload)
    assert p.decode(p.encode(msg, obfuscate)) == msg


@given(st.binary(max_size=64))
def test_decode_never_crashes_on_garbage(data):
    try:
        p.decode(data)
    except ProtocolError:
        pass  # the only acceptable exception


@given(st.lists(st.integers(0, 0xFFFFFFFF), min_size=1, max_size=20), st.integers(1, 13))
def test_framebuffer_reassembles_any_chunking(ids, chunk_size):
    stream = b"".join(p.frame(p.Keepalive(client_id=i)) for i in ids)
    buf = FrameBuffer(p.decode)
    out = []
    for i in range(0, len(stream), chunk_size):
        out.extend(buf.feed(stream[i : i + chunk_size]))
    assert [m.client_id for m in out] == ids


# -- the compiled codec against the field-by-field reference walker -----------
#
# ``protocol._compile`` turns each ``_layout`` into one fused ``struct.Struct``
# and a straight-line pack / unpack pair.  The interpretive walk it replaced
# lives on below as the reference the compiled codec is checked against.

_U16, _U32, _U64 = struct.Struct("!H"), struct.Struct("!I"), struct.Struct("!Q")
_INT_MAX = {"u8": 0xFF, "u16": 0xFFFF, "u32": 0xFFFFFFFF, "u64": (1 << 64) - 1}


def _reference_pack_body(message, obfuscate):
    parts = []
    for name, kind in message._layout:
        value = getattr(message, name)
        if kind == "u8":
            parts.append(struct.pack("!B", value))
        elif kind == "u16":
            parts.append(_U16.pack(value))
        elif kind == "u32":
            parts.append(_U32.pack(value))
        elif kind == "u64":
            parts.append(_U64.pack(value))
        elif kind == "ep":
            parts.append((value.obfuscated() if obfuscate else value).pack())
        elif kind == "bytes":
            parts.append(bytes(value))
        else:
            raise AssertionError(f"unknown layout kind {kind!r}")
    return b"".join(parts)


def _reference_unpack_body(cls, body, obfuscated):
    values = {}
    offset = 0
    for name, kind in cls._layout:
        try:
            if kind == "u8":
                values[name] = body[offset]
                offset += 1
            elif kind == "u16":
                values[name] = _U16.unpack_from(body, offset)[0]
                offset += 2
            elif kind == "u32":
                values[name] = _U32.unpack_from(body, offset)[0]
                offset += 4
            elif kind == "u64":
                values[name] = _U64.unpack_from(body, offset)[0]
                offset += 8
            elif kind == "ep":
                endpoint = Endpoint.unpack(body[offset : offset + 6])
                values[name] = endpoint.obfuscated() if obfuscated else endpoint
                offset += 6
            elif kind == "bytes":
                values[name] = body[offset:]
                offset = len(body)
        except (struct.error, IndexError, AddressError) as exc:
            raise ProtocolError(f"truncated {cls.__name__} body") from exc
    if offset != len(body):
        raise ProtocolError(f"{cls.__name__}: {len(body) - offset} trailing bytes")
    return cls(**values)


def _reference_encode(message, obfuscate=False):
    flags = p.FLAG_OBFUSCATED if obfuscate else 0
    header = p.HEADER.pack(p.MAGIC, p.VERSION, message.TYPE, flags)
    return header + _reference_pack_body(message, obfuscate)


def _reference_decode(data):
    if len(data) < p.HEADER.size:
        raise ProtocolError(f"short message ({len(data)} bytes)")
    magic, version, msg_type, flags = p.HEADER.unpack_from(data)
    if magic != p.MAGIC:
        raise ProtocolError(f"bad magic 0x{magic:02x}")
    if version != p.VERSION:
        raise ProtocolError(f"unsupported version {version}")
    cls = p._REGISTRY.get(msg_type)
    if cls is None:
        raise ProtocolError(f"unknown message type 0x{msg_type:02x}")
    return _reference_unpack_body(cls, data[p.HEADER.size :], bool(flags & p.FLAG_OBFUSCATED))


def _outcome(decoder, data):
    """What *decoder* makes of *data*: the message, or the error's text."""
    try:
        return decoder(data)
    except ProtocolError as exc:
        return str(exc)


MESSAGE_CLASSES = sorted(p._REGISTRY.values(), key=lambda cls: cls.TYPE)
by_class = pytest.mark.parametrize("cls", MESSAGE_CLASSES, ids=lambda cls: cls.__name__)

_edge_endpoints = st.sampled_from(
    [Endpoint("0.0.0.0", 0), Endpoint("255.255.255.255", 65535), EP_A, EP_B]
)
_edge_payloads = st.sampled_from([b"", b"\x5a", bytes(range(256)) * 5 + b"x" * 120, b"\xff" * 65_000])
_FIELD_VALUES = {
    **{
        kind: st.sampled_from([0, 1, top - 1, top]) | st.integers(0, top)
        for kind, top in _INT_MAX.items()
    },
    "ep": _edge_endpoints | endpoints,
    "bytes": _edge_payloads | st.binary(max_size=64),
}


def messages_of(cls):
    return st.builds(cls, **{name: _FIELD_VALUES[kind] for name, kind in cls._layout})


def _fixed_size(cls):
    """Header plus every fixed-size field: where a ``bytes`` tail starts."""
    return len(_reference_encode(cls(**{
        name: (b"" if kind == "bytes" else EP_A if kind == "ep" else 0)
        for name, kind in cls._layout
    })))


def _cuts(length):
    """Every byte boundary of a short stream; both ends of a long one."""
    if length <= 2048:
        return range(length + 1)
    return [*range(64), *range(length - 4, length + 1)]


def test_every_registered_class_and_layout_kind_is_generated():
    assert len(MESSAGE_CLASSES) == 24
    # 0x08-0x0A belonged to a deleted shard pool's messages, 0x60-0x64 to a
    # deleted second relay's; they stay retired.
    retired = {0x08, 0x09, 0x0A, 0x60, 0x61, 0x62, 0x63, 0x64}
    assert not retired & {cls.TYPE for cls in MESSAGE_CLASSES}
    assert {kind for cls in MESSAGE_CLASSES for _, kind in cls._layout} <= set(_FIELD_VALUES)


@by_class
@settings(max_examples=30, deadline=None)
@given(data=st.data(), obfuscate=st.booleans())
def test_compiled_codec_matches_reference_walker(cls, data, obfuscate):
    message = data.draw(messages_of(cls))
    wire = p.encode(message, obfuscate)
    assert wire == _reference_encode(message, obfuscate)
    assert p.decode(wire) == _reference_decode(wire) == message
    if len(wire) > 0xFFFF:
        with pytest.raises(ProtocolError, match="too large to frame"):
            p.frame(message, obfuscate)
        return
    framed = p.frame(message, obfuscate)
    assert framed == struct.pack("!H", len(wire)) + wire
    for cut in _cuts(len(framed)):
        buffer = FrameBuffer(p.decode)
        assert buffer.feed(framed[:cut]) + buffer.feed(framed[cut:]) == [message]
        assert not buffer._buffer


@by_class
@settings(max_examples=15, deadline=None)
@given(data=st.data(), obfuscate=st.booleans())
def test_wrong_sized_input_raises_as_the_reference_did(cls, data, obfuscate):
    """Short, truncated and over-long input: the same ``ProtocolError`` text
    from the compiled codec as from the walker, byte boundary by boundary."""
    message = data.draw(messages_of(cls))
    wire = p.encode(message, obfuscate)
    has_tail = cls._layout[-1][1] == "bytes"
    fixed = _fixed_size(cls)
    for cut in _cuts(len(wire) - 1):  # every strict prefix
        prefix = wire[:cut]
        assert _outcome(p.decode, prefix) == _outcome(_reference_decode, prefix)
        if cut < fixed:
            with pytest.raises(ProtocolError):
                p.decode(prefix)
            assert p.try_decode(prefix) is None
    extended = wire + b"\x00"
    assert _outcome(p.decode, extended) == _outcome(_reference_decode, extended)
    if not has_tail:
        with pytest.raises(ProtocolError, match="1 trailing bytes"):
            p.decode(extended)


@by_class
def test_out_of_range_field_values_raise_struct_error(cls):
    sample = {
        name: (b"tail" if kind == "bytes" else EP_B if kind == "ep" else 1)
        for name, kind in cls._layout
    }
    for name, kind in cls._layout:
        if kind not in _INT_MAX:
            continue
        for bad in (-1, _INT_MAX[kind] + 1):
            message = cls(**{**sample, name: bad})
            for obfuscate in (False, True):
                with pytest.raises(struct.error):
                    p.encode(message, obfuscate)
                with pytest.raises(struct.error):
                    _reference_encode(message, obfuscate)


_headers = st.builds(
    bytes,
    st.tuples(
        st.sampled_from([p.MAGIC, p.MAGIC, 0x00]),
        st.sampled_from([p.VERSION, p.VERSION, 2]),
        st.sampled_from([cls.TYPE for cls in MESSAGE_CLASSES] + [0x00, 0xEE]),
        st.integers(0, 255),
    ),
)


@settings(max_examples=400, deadline=None)
@given(st.binary(max_size=96) | st.builds(bytes.__add__, _headers, st.binary(max_size=48)))
def test_try_decode_is_total_and_agrees_with_the_reference(data):
    outcome = p.try_decode(data)  # must not raise, whatever arrives
    expected = _outcome(_reference_decode, data)
    assert outcome == (None if isinstance(expected, str) else expected)
    assert _outcome(p.decode, data) == expected


def test_registration_rejects_a_layout_out_of_field_order():
    @dataclass
    class Swapped(p.Message):
        TYPE: ClassVar[int] = 0xF0
        _layout: ClassVar = (("receiver", "u32"), ("sender", "u32"))
        sender: int
        receiver: int

    with pytest.raises(ProtocolError, match="_layout order"):
        p._register(Swapped)
    assert 0xF0 not in p._REGISTRY


def test_registration_rejects_bytes_before_the_last_field():
    @dataclass
    class TailFirst(p.Message):
        TYPE: ClassVar[int] = 0xF1
        _layout: ClassVar = (("payload", "bytes"), ("sender", "u32"))
        payload: bytes
        sender: int

    with pytest.raises(ProtocolError, match="bytes field must be last"):
        p._register(TailFirst)
    assert 0xF1 not in p._REGISTRY
