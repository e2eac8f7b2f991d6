"""System-level NAT invariants, observed on the wire."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.nat import behavior as B
from repro.nat.device import NatDevice
from repro.natcheck import messages as ncm
from repro.netsim.addresses import Endpoint, is_private
from repro.netsim.link import LAN_LINK
from repro.netsim.network import Network
from repro.netsim.packet import IpProtocol
from repro.transport.stack import attach_stack
from repro.transport.tcp import FrameBuffer
from repro.util.errors import ProtocolError

from tests.conftest import wire_tap


def build_world(behavior, seed=1, lan_hosts=1):
    net = Network(seed=seed)
    backbone = net.create_link("backbone")
    server = net.add_host("S", ip="18.181.0.31", network="0.0.0.0/0", link=backbone)
    attach_stack(server, rng=net.rng.child("s"))
    nat = NatDevice("NAT", net.scheduler, behavior, rng=net.rng.child("nat"))
    net.add_node(nat)
    nat.set_wan("155.99.25.11", "0.0.0.0/0", backbone)
    lan = net.create_link("lan", LAN_LINK)
    nat.add_lan("10.0.0.254", "10.0.0.0/24", lan)
    hosts = []
    for index in range(lan_hosts):
        host = net.add_host(f"C{index}", ip=f"10.0.0.{index + 1}",
                            network="10.0.0.0/24", link=lan, gateway="10.0.0.254")
        attach_stack(host, rng=net.rng.child(f"c{index}"))
        hosts.append(host)
    return net, nat, hosts, server


@pytest.mark.parametrize("behavior", [
    B.WELL_BEHAVED, B.SYMMETRIC, B.FULL_CONE, B.HAIRPIN_CAPABLE, B.RST_SENDER,
], ids=["well-behaved", "symmetric", "full-cone", "hairpin", "rst"])
def test_no_private_source_ever_crosses_the_wan(behavior):
    """Invariant: every packet a NAT emits onto its public side carries a
    globally routable source address."""
    net, nat, hosts, server = build_world(behavior, lan_hosts=3)
    echo = server.stack.udp.socket(1234)
    echo.on_datagram = lambda d, src: echo.sendto(b"e" + d, src)
    with wire_tap(net) as records:
        for index, host in enumerate(hosts):
            sock = host.stack.udp.socket(4321)
            for port in (1234,):
                sock.sendto(bytes([index]) * 8, Endpoint("18.181.0.31", port))
        # Also some TCP traffic.
        server.stack.tcp.listen(80)
        for host in hosts:
            host.stack.tcp.connect(Endpoint("18.181.0.31", 80), local_port=4321, reuse=True)
        net.run_until(5.0)
    backbone_records = [r for r in records
                        if r.link == "backbone" and r.event == "sent"]
    assert backbone_records
    for record in backbone_records:
        assert not is_private(record.packet.src.ip), record.packet.describe()


def test_mappings_idempotent_under_duplicate_traffic():
    """Replaying the same outbound packet never allocates a second mapping."""
    net, nat, hosts, server = build_world(B.WELL_BEHAVED)
    sock = hosts[0].stack.udp.socket(4321)
    for _ in range(50):
        sock.sendto(b"same", Endpoint("18.181.0.31", 1234))
    net.run_until(2.0)
    assert len(nat.table) == 1
    assert nat.table.mappings_created == 1


def test_two_lans_one_nat_transit_not_translated():
    """LAN-to-LAN traffic through a dual-LAN NAT is routed, not NAT'd."""
    net = Network(seed=2)
    backbone = net.create_link("backbone")
    nat = NatDevice("NAT", net.scheduler, B.WELL_BEHAVED, rng=net.rng.child("n"))
    net.add_node(nat)
    nat.set_wan("155.99.25.11", "0.0.0.0/0", backbone)
    lan1 = net.create_link("lan1", LAN_LINK)
    lan2 = net.create_link("lan2", LAN_LINK)
    nat.add_lan("10.0.1.254", "10.0.1.0/24", lan1, name="lan1")
    nat.add_interface("lan2", "10.0.2.254", "10.0.2.0/24", lan2)
    a = net.add_host("a", ip="10.0.1.1", network="10.0.1.0/24", link=lan1,
                     gateway="10.0.1.254")
    b = net.add_host("b", ip="10.0.2.1", network="10.0.2.0/24", link=lan2,
                     gateway="10.0.2.254")
    attach_stack(a, rng=net.rng.child("a"))
    attach_stack(b, rng=net.rng.child("b"))
    got = []
    sb = b.stack.udp.socket(2000)
    sb.on_datagram = lambda d, src: got.append((d, src))
    a.stack.udp.socket(1000).sendto(b"cross-lan", Endpoint("10.0.2.1", 2000))
    net.run_until(1.0)
    assert got == [(b"cross-lan", Endpoint("10.0.1.1", 1000))]  # untranslated
    assert nat.translations_out == 0


def test_symmetric_nat_mapping_count_grows_with_destinations():
    net, nat, hosts, server = build_world(B.SYMMETRIC)
    for port in range(1234, 1244):
        server.stack.udp.socket(port)
    sock = hosts[0].stack.udp.socket(4321)
    for port in range(1234, 1244):
        sock.sendto(b"x", Endpoint("18.181.0.31", port))
    net.run_until(2.0)
    assert len(nat.table) == 10


def test_cone_nat_mapping_count_constant():
    net, nat, hosts, server = build_world(B.WELL_BEHAVED)
    for port in range(1234, 1244):
        server.stack.udp.socket(port)
    sock = hosts[0].stack.udp.socket(4321)
    for port in range(1234, 1244):
        sock.sendto(b"x", Endpoint("18.181.0.31", port))
    net.run_until(2.0)
    assert len(nat.table) == 1
    assert len(nat.table.mappings[0].remotes) == 10


@given(st.binary(max_size=40))
@settings(max_examples=100)
def test_natcheck_messages_never_crash_on_fuzz(data):
    try:
        ncm.unpack(data)
    except ProtocolError:
        pass


@given(st.binary(max_size=80), st.integers(1, 7))
@settings(max_examples=50)
def test_natcheck_tcp_buffer_survives_fuzz(data, chunk):
    buf = FrameBuffer(ncm.unpack)
    try:
        for i in range(0, len(data), chunk):
            buf.feed(data[i : i + chunk])
    except ProtocolError:
        pass
