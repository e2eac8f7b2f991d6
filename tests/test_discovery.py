"""RFC 3489-style NAT behaviour discovery (§5.1's STUN probing)."""

import pytest

from repro.nat import behavior as B
from repro.nat.behavior import NatBehavior
from repro.nat.device import NatDevice
from repro.nat.policy import FilteringPolicy, MappingPolicy, PortAllocation
from repro.natcheck.discovery import NatDiscovery
from repro.natcheck.servers import NatCheckServers
from repro.netsim.link import BACKBONE_LINK, LAN_LINK
from repro.netsim.network import Network
from repro.transport.stack import attach_stack


def discover(behavior=None, seed=1, public_client=False):
    net = Network(seed=seed)
    backbone = net.create_link("backbone", BACKBONE_LINK)
    NatCheckServers(net, backbone)
    if public_client:
        client_host = net.add_host("client", ip="20.0.0.9", network="0.0.0.0/0",
                                   link=backbone)
    else:
        nat = NatDevice("DUT", net.scheduler, behavior, rng=net.rng.child("dut"))
        net.add_node(nat)
        nat.set_wan("155.99.25.11", "0.0.0.0/0", backbone)
        lan = net.create_link("lan", LAN_LINK)
        nat.add_lan("10.0.0.254", "10.0.0.0/24", lan)
        client_host = net.add_host("client", ip="10.0.0.1", network="10.0.0.0/24",
                                   link=lan, gateway="10.0.0.254")
    attach_stack(client_host, rng=net.rng.child("client"))
    probe = NatDiscovery(client_host)
    done = []
    probe.run(done.append)
    net.scheduler.run_while(lambda: not done, 30.0)
    assert done, "discovery did not complete"
    return done[0]


def test_no_nat_detected():
    result = discover(public_client=True)
    assert result.behind_nat is False
    assert result.mapping is MappingPolicy.ENDPOINT_INDEPENDENT


def test_cone_nat_classified():
    result = discover(B.WELL_BEHAVED)
    assert result.behind_nat is True
    assert result.mapping is MappingPolicy.ENDPOINT_INDEPENDENT
    assert result.is_cone


def test_port_restricted_filtering_classified():
    result = discover(B.WELL_BEHAVED)
    assert result.filtering is FilteringPolicy.ADDRESS_AND_PORT


def test_address_restricted_filtering_classified():
    result = discover(B.WELL_BEHAVED.but(filtering=FilteringPolicy.ADDRESS))
    assert result.filtering is FilteringPolicy.ADDRESS


def test_full_cone_filtering_classified():
    result = discover(B.FULL_CONE)
    assert result.filtering is FilteringPolicy.ENDPOINT_INDEPENDENT


def test_unfiltered_looks_like_full_cone():
    result = discover(B.UNFILTERED)
    assert result.filtering is FilteringPolicy.ENDPOINT_INDEPENDENT


def test_symmetric_nat_classified():
    result = discover(B.SYMMETRIC_PREDICTABLE)
    assert result.mapping is MappingPolicy.ADDRESS_AND_PORT_DEPENDENT
    assert result.is_cone is False


def test_symmetric_sequential_ports_are_predictable():
    """§5.1: 'many symmetric NATs allocate port numbers for successive
    sessions in a fairly predictable way' — discovery measures delta=+1."""
    result = discover(B.SYMMETRIC_PREDICTABLE)
    assert result.port_delta == 1
    assert result.predictable_ports is True
    assert result.prediction_viable is True


def test_symmetric_random_ports_not_predictable():
    result = discover(B.SYMMETRIC_RANDOM, seed=5)
    assert result.mapping is MappingPolicy.ADDRESS_AND_PORT_DEPENDENT
    assert result.predictable_ports is False
    assert result.prediction_viable is False


def test_address_dependent_mapping_classified():
    behavior = NatBehavior(mapping=MappingPolicy.ADDRESS_DEPENDENT)
    result = discover(behavior)
    assert result.mapping is MappingPolicy.ADDRESS_DEPENDENT


def test_prediction_not_viable_for_cone():
    result = discover(B.WELL_BEHAVED)
    assert result.prediction_viable is False


def test_summary_text():
    result = discover(B.WELL_BEHAVED)
    assert "mapping=endpoint-independent" in result.summary()


def test_discovery_feeds_port_prediction_end_to_end():
    """The §5.1 pipeline: discover a predictable symmetric peer NAT, then
    punch with prediction enabled."""
    from repro.core.udp_punch import PunchConfig
    from repro.scenarios import build_two_nats

    sc = build_two_nats(seed=9, behavior_a=B.WELL_BEHAVED,
                        behavior_b=B.SYMMETRIC_PREDICTABLE)
    # B discovers its own NAT is symmetric-but-predictable (simulated by the
    # standalone probe above); both sides then enable prediction.
    probe_result = discover(B.SYMMETRIC_PREDICTABLE, seed=10)
    assert probe_result.prediction_viable
    config = PunchConfig(predict_ports=3, timeout=10.0)
    for c in sc.clients.values():
        c.punch_config = config
    sc.register_all_udp()
    result = {}
    sc.clients["A"].connect_udp(2, on_session=lambda s: result.setdefault("ok", s),
                                config=config)
    sc.wait_for(lambda: result, 20.0)
    assert "ok" in result


def test_no_connectivity_yields_empty_result():
    """Probing with no reachable servers finishes with nothing learned."""
    from repro.netsim.network import Network
    from repro.netsim.link import LAN_LINK
    from repro.nat.device import NatDevice
    from repro.transport.stack import attach_stack

    net = Network(seed=99)
    backbone = net.create_link("backbone")  # no servers attached
    nat = NatDevice("DUT", net.scheduler, B.WELL_BEHAVED, rng=net.rng.child("d"))
    net.add_node(nat)
    nat.set_wan("155.99.25.11", "0.0.0.0/0", backbone)
    lan = net.create_link("lan", LAN_LINK)
    nat.add_lan("10.0.0.254", "10.0.0.0/24", lan)
    host = net.add_host("c", ip="10.0.0.1", network="10.0.0.0/24", link=lan,
                        gateway="10.0.0.254")
    attach_stack(host)
    probe = NatDiscovery(host)
    done = []
    probe.run(done.append)
    net.scheduler.run_while(lambda: not done, 30.0)
    assert done
    assert done[0].behind_nat is None
    assert done[0].mapping is None
