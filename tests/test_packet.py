"""Unit tests for the packet model."""

import pytest

from repro.netsim.addresses import Endpoint
from repro.netsim.packet import (
    IcmpType,
    IpProtocol,
    Packet,
    TcpFlags,
    TcpHeader,
    icmp_error_for,
    tcp_packet,
    udp_packet,
)

A = Endpoint("10.0.0.1", 4321)
B = Endpoint("138.76.29.7", 31000)


def test_udp_constructor():
    p = udp_packet(A, B, b"hi")
    assert p.proto is IpProtocol.UDP
    assert p.src == A and p.dst == B
    assert p.payload == b"hi"
    assert p.tcp is None


def test_tcp_constructor():
    p = tcp_packet(A, B, TcpFlags.SYN, seq=100)
    assert p.proto is IpProtocol.TCP
    assert p.tcp.flags == TcpFlags.SYN
    assert p.tcp.seq == 100


def test_tcp_seq_wraps_mod_2_32():
    p = tcp_packet(A, B, TcpFlags.ACK, seq=(1 << 32) + 5, ack=(1 << 33) + 7)
    assert p.tcp.seq == 5
    assert p.tcp.ack == 7


def test_tcp_packet_requires_header():
    with pytest.raises(ValueError):
        Packet(proto=IpProtocol.TCP, src=A, dst=B)


def test_udp_packet_rejects_tcp_header():
    with pytest.raises(ValueError):
        Packet(proto=IpProtocol.UDP, src=A, dst=B, tcp=TcpHeader())


def test_icmp_requires_body():
    with pytest.raises(ValueError):
        Packet(proto=IpProtocol.ICMP, src=A, dst=B)


def test_packet_ids_unique():
    p1, p2 = udp_packet(A, B), udp_packet(A, B)
    assert p1.packet_id != p2.packet_id


def test_copy_top_level_fields_independent():
    """copy() is copy-on-write: the NAT-rewritable fields (src/dst/ttl/
    payload) are per-clone, while header objects are shared and treated as
    immutable (a translator attaches a fresh header rather than writing
    through the shared one)."""
    p = tcp_packet(A, B, TcpFlags.SYN, seq=1, payload=b"old")
    q = p.copy()
    q.src = Endpoint("1.2.3.4", 9)
    q.dst = Endpoint("5.6.7.8", 10)
    q.ttl = 3
    q.payload = b"new"
    assert p.src == A and p.dst == B and p.ttl == 64 and p.payload == b"old"
    assert q.tcp is p.tcp  # shared-by-contract, never mutated in place


def test_copy_preserves_values_and_allocates_id():
    p = tcp_packet(A, B, TcpFlags.SYN | TcpFlags.ACK, seq=7, ack=9, payload=b"z")
    q = p.copy()
    assert (q.proto, q.src, q.dst, q.payload, q.ttl) == (
        p.proto, p.src, p.dst, p.payload, p.ttl
    )
    assert (q.tcp.flags, q.tcp.seq, q.tcp.ack) == (p.tcp.flags, p.tcp.seq, p.tcp.ack)
    assert q.packet_id != p.packet_id


def test_size_estimates():
    assert udp_packet(A, B, b"x" * 10).size == 38
    assert tcp_packet(A, B, TcpFlags.SYN).size == 40


def test_flags_describe():
    assert TcpFlags.SYN.describe() == "SYN"
    assert (TcpFlags.SYN | TcpFlags.ACK).describe() == "SYN+ACK"
    assert TcpFlags.NONE.describe() == "none"


def test_header_predicates():
    assert TcpHeader(flags=TcpFlags.SYN).is_syn_only
    assert not TcpHeader(flags=TcpFlags.SYN | TcpFlags.ACK).is_syn_only
    assert TcpHeader(flags=TcpFlags.SYN | TcpFlags.ACK).is_syn_ack
    assert TcpHeader(flags=TcpFlags.RST).is_rst


def test_icmp_error_for_quotes_session():
    offender = tcp_packet(A, B, TcpFlags.SYN)
    err = icmp_error_for(offender, IcmpType.ADMIN_PROHIBITED, "155.99.25.11")
    assert err.proto is IpProtocol.ICMP
    assert err.dst.ip == A.ip
    assert err.icmp.original_src == A
    assert err.icmp.original_dst == B
    assert err.icmp.original_proto is IpProtocol.TCP


def test_describe_human_readable():
    p = tcp_packet(A, B, TcpFlags.SYN | TcpFlags.ACK, seq=1, ack=2, payload=b"xy")
    text = p.describe()
    assert "tcp" in text and "SYN+ACK" in text and "2B" in text


# -- flag predicates: int mask compares vs. the IntFlag-operator reference ----

ALL_FLAG_VALUES = [TcpFlags(value) for value in range(32)]  # five low bits, 0x08 unnamed


@pytest.mark.parametrize("flags", ALL_FLAG_VALUES, ids=lambda f: f"{int(f):#04x}")
def test_header_predicates_match_intflag_reference(flags):
    header = TcpHeader(flags=flags)
    has_syn, has_ack = bool(flags & TcpFlags.SYN), bool(flags & TcpFlags.ACK)
    for flag in (TcpFlags.NONE, TcpFlags.FIN, TcpFlags.SYN, TcpFlags.RST, TcpFlags.ACK,
                 TcpFlags.SYN | TcpFlags.ACK, TcpFlags.RST | TcpFlags.FIN):
        assert header.has(flag) is bool(flags & flag)
    assert header.is_syn_only is (has_syn and not has_ack)
    assert header.is_syn_ack is (has_syn and has_ack)
    assert header.is_rst is bool(flags & TcpFlags.RST)
    assert header.flags is flags  # still the public TcpFlags value


@pytest.mark.parametrize("flags", ALL_FLAG_VALUES, ids=lambda f: f"{int(f):#04x}")
def test_describe_matches_intflag_reference(flags):
    names = [flag.name for flag in (TcpFlags.SYN, TcpFlags.ACK, TcpFlags.FIN, TcpFlags.RST) if flags & flag]
    assert flags.describe() == ("+".join(names) if names else "none")


def test_send_path_flag_unions_are_the_operator_results():
    from repro.netsim import packet

    assert packet.SYN_ACK == TcpFlags.SYN | TcpFlags.ACK
    assert packet.FIN_ACK == TcpFlags.FIN | TcpFlags.ACK
    assert packet.RST_ACK == TcpFlags.RST | TcpFlags.ACK
    for union in (packet.SYN_ACK, packet.FIN_ACK, packet.RST_ACK):
        assert isinstance(union, TcpFlags)
    assert packet.SYN_ACK.describe() == "SYN+ACK"
