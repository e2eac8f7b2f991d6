"""Unit tests for links, routing tables, nodes, and the network container."""

import pytest

from repro.netsim.addresses import Endpoint
from repro.netsim.link import Link, LinkProfile
from repro.netsim.network import Network
from repro.netsim.node import Host, Router
from repro.netsim.packet import IpProtocol, udp_packet
from repro.netsim.routing import RoutingTable
from repro.util.errors import RoutingError
from repro.util.rng import SeededRng


class TestLinkProfile:
    def test_defaults(self):
        p = LinkProfile()
        assert p.latency > 0 and p.loss == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            LinkProfile(latency=-1)
        with pytest.raises(ValueError):
            LinkProfile(loss=1.5)


class TestLink:
    def _pair(self, profile=None, seed=1):
        net = Network(seed=seed)
        link = net.create_link("l", profile)
        a = net.add_host("a", ip="10.0.0.1", network="10.0.0.0/24", link=link)
        b = net.add_host("b", ip="10.0.0.2", network="10.0.0.0/24", link=link)
        return net, link, a, b

    def test_delivery_after_latency(self):
        net, link, a, b = self._pair(LinkProfile(latency=0.5))
        got = []
        b.register_protocol(IpProtocol.UDP, lambda p: got.append(net.now))
        a.send(udp_packet(Endpoint("10.0.0.1", 1), Endpoint("10.0.0.2", 2)))
        net.run()
        assert got == [0.5]

    def test_unknown_next_hop_drops_silently(self):
        net, link, a, b = self._pair()
        ok = a.send(udp_packet(Endpoint("10.0.0.1", 1), Endpoint("10.0.0.99", 2)))
        assert ok is False
        assert link.packets_dropped == 1

    def test_duplicate_ip_rejected(self):
        net, link, a, b = self._pair()
        c = Host("c", net.scheduler)
        with pytest.raises(ValueError):
            c.add_interface("eth0", "10.0.0.1", "10.0.0.0/24", link)

    def test_full_loss_drops_everything(self):
        net, link, a, b = self._pair(LinkProfile(loss=1.0))
        got = []
        b.register_protocol(IpProtocol.UDP, got.append)
        a.send(udp_packet(Endpoint("10.0.0.1", 1), Endpoint("10.0.0.2", 2)))
        net.run()
        assert got == []
        assert link.packets_dropped == 1

    def test_partial_loss_statistics(self):
        net, link, a, b = self._pair(LinkProfile(loss=0.5), seed=3)
        got = []
        b.register_protocol(IpProtocol.UDP, got.append)
        for _ in range(200):
            a.send(udp_packet(Endpoint("10.0.0.1", 1), Endpoint("10.0.0.2", 2)))
        net.run()
        assert 60 < len(got) < 140  # ~100 expected

    def test_jitter_varies_delay_deterministically(self):
        def arrival_times(seed):
            net, link, a, b = self._pair(LinkProfile(latency=0.1, jitter=0.1), seed=seed)
            got = []
            b.register_protocol(IpProtocol.UDP, lambda p: got.append(net.now))
            for _ in range(5):
                a.send(udp_packet(Endpoint("10.0.0.1", 1), Endpoint("10.0.0.2", 2)))
            net.run()
            return got

        first, second = arrival_times(9), arrival_times(9)
        assert first == second  # deterministic
        assert len(set(first)) > 1  # but jittered

    def test_counters(self):
        net, link, a, b = self._pair()
        b.register_protocol(IpProtocol.UDP, lambda p: None)
        a.send(udp_packet(Endpoint("10.0.0.1", 1), Endpoint("10.0.0.2", 2), b"xxxx"))
        net.run()
        assert link.packets_sent == 1
        assert link.bytes_sent == 32  # 28 header estimate + 4

    def test_detach(self):
        net, link, a, b = self._pair()
        link.detach(b)
        assert link.owner_of("10.0.0.2") is None
        assert b not in link.attached_nodes

    def test_detach_cancels_in_flight_deliveries(self):
        """A packet already on the wire must not reach a node that detached
        before the delivery event fires."""
        net, link, a, b = self._pair(LinkProfile(latency=0.5))
        got = []
        b.register_protocol(IpProtocol.UDP, got.append)
        a.send(udp_packet(Endpoint("10.0.0.1", 1), Endpoint("10.0.0.2", 2)))
        link.detach(b)  # at t=0, delivery scheduled for t=0.5
        net.run()
        assert got == []
        assert link.packets_dropped == 1
        assert b.packets_received == 0


class TestRoutingTable:
    def test_longest_prefix_wins(self):
        t = RoutingTable()
        t.add("10.0.0.0/8", "coarse")
        t.add("10.1.0.0/16", "fine")
        assert t.lookup("10.1.2.3").interface == "fine"
        assert t.lookup("10.2.2.3").interface == "coarse"

    def test_default_route(self):
        t = RoutingTable()
        t.add_default("wan", "1.1.1.1")
        route = t.lookup("8.8.8.8")
        assert route.interface == "wan"
        assert str(route.next_hop) == "1.1.1.1"

    def test_no_route_raises(self):
        with pytest.raises(RoutingError):
            RoutingTable().lookup("8.8.8.8")

    def test_try_lookup_returns_none(self):
        assert RoutingTable().try_lookup("8.8.8.8") is None

    def test_remove(self):
        t = RoutingTable()
        t.add("10.0.0.0/8", "a")
        t.remove("10.0.0.0/8")
        assert len(t) == 0

    def test_on_link_route_has_no_next_hop(self):
        t = RoutingTable()
        t.add("10.0.0.0/24", "eth0")
        assert t.lookup("10.0.0.7").next_hop is None


class TestNodesAndForwarding:
    def _routed_topology(self):
        """a -- r -- b across two segments."""
        net = Network(seed=2)
        l1, l2 = net.create_link("l1"), net.create_link("l2")
        r = net.add_router("r")
        r.add_interface("if1", "10.0.1.254", "10.0.1.0/24", l1)
        r.add_interface("if2", "10.0.2.254", "10.0.2.0/24", l2)
        a = net.add_host("a", ip="10.0.1.1", network="10.0.1.0/24", link=l1, gateway="10.0.1.254")
        b = net.add_host("b", ip="10.0.2.1", network="10.0.2.0/24", link=l2, gateway="10.0.2.254")
        return net, r, a, b

    def test_router_forwards_between_segments(self):
        net, r, a, b = self._routed_topology()
        got = []
        b.register_protocol(IpProtocol.UDP, got.append)
        a.send(udp_packet(Endpoint("10.0.1.1", 1), Endpoint("10.0.2.1", 2), b"via-r"))
        net.run()
        assert len(got) == 1
        assert r.packets_forwarded == 1

    def test_host_does_not_forward(self):
        net, r, a, b = self._routed_topology()
        # Deliver a transit packet straight to host a: it must drop it.
        transit = udp_packet(Endpoint("10.0.2.1", 1), Endpoint("10.0.1.99", 2))
        a.receive(transit, list(a.interfaces.values())[0].link)
        assert a.packets_dropped == 1

    def test_ttl_decrement_and_expiry(self):
        net, r, a, b = self._routed_topology()
        got = []
        b.register_protocol(IpProtocol.UDP, got.append)
        p = udp_packet(Endpoint("10.0.1.1", 1), Endpoint("10.0.2.1", 2))
        p.ttl = 1
        a.send(p)
        net.run()
        assert got == []  # router dropped at TTL 1
        p2 = udp_packet(Endpoint("10.0.1.1", 1), Endpoint("10.0.2.1", 2))
        p2.ttl = 2
        a.send(p2)
        net.run()
        assert len(got) == 1
        assert got[0].ttl == 1

    def test_loopback_to_own_address(self):
        net, r, a, b = self._routed_topology()
        got = []
        a.register_protocol(IpProtocol.UDP, got.append)
        a.send(udp_packet(Endpoint("10.0.1.1", 5), Endpoint("10.0.1.1", 5), b"self"))
        net.run()
        assert len(got) == 1

    def test_gateway_inference_unambiguous(self):
        net = Network(seed=3)
        l1 = net.create_link("l1")
        a = net.add_host("a", ip="10.0.1.1", network="10.0.1.0/24", link=l1)
        route = a.set_default_gateway("10.0.1.254")
        assert route.interface == "eth0"

    def test_gateway_inference_fails_off_link(self):
        net = Network(seed=3)
        l1 = net.create_link("l1")
        a = net.add_host("a", ip="10.0.1.1", network="10.0.1.0/24", link=l1)
        with pytest.raises(RoutingError):
            a.set_default_gateway("10.9.9.9")

    def test_unregistered_protocol_dropped(self):
        net, r, a, b = self._routed_topology()
        a.send(udp_packet(Endpoint("10.0.1.1", 1), Endpoint("10.0.2.1", 2)))
        net.run()
        assert b.packets_dropped == 1

    def test_no_route_drop_is_counted_once(self):
        net, r, a, b = self._routed_topology()
        a.send(udp_packet(Endpoint("10.0.1.1", 1), Endpoint("99.9.9.9", 2)))
        net.run()
        assert (r.packets_received, r.packets_dropped, r.packets_forwarded) == (1, 1, 0)

    def test_wire_loss_is_charged_to_the_link_not_the_router(self):
        net, r, a, b = self._routed_topology()
        egress = r.interfaces["if2"].link
        egress.profile = LinkProfile(loss=1.0)
        a.send(udp_packet(Endpoint("10.0.1.1", 1), Endpoint("10.0.2.1", 2)))
        net.run()
        assert egress.packets_dropped == 1
        assert (r.packets_dropped, r.packets_forwarded) == (0, 1)

    def test_route_changes_steer_warm_closures(self):
        """add/remove after traffic has flowed: the routing table empties the
        closures resolved from it, so the very next packet follows the new
        routes (fails if either ``closures.clear()`` in routing.py is removed)."""
        net, r, a, b = self._routed_topology()
        l3 = net.create_link("l3")
        r.add_interface("if3", "10.0.3.254", "10.0.3.0/24", l3)
        twin = net.add_host("twin", ip="10.0.2.1", network="10.0.2.0/24", link=l3)
        at_b, at_twin = [], []
        b.register_protocol(IpProtocol.UDP, at_b.append)
        twin.register_protocol(IpProtocol.UDP, at_twin.append)

        def ping():
            a.send(udp_packet(Endpoint("10.0.1.1", 1), Endpoint("10.0.2.1", 2)))
            net.run()
            return len(at_b), len(at_twin)

        assert ping() == (1, 0)
        assert ping() == (2, 0)  # closures warm on a and r
        r.routing.add("10.0.2.1/32", "if3")
        assert ping() == (2, 1)
        r.routing.remove("10.0.2.1/32")
        assert ping() == (3, 1)
        r.routing.remove("10.0.2.0/24")
        assert ping() == (3, 1)
        assert (r.packets_dropped, r.packets_forwarded) == (1, 4)
        assert r.routing.closures is r._fwd_cache

    def test_duplicate_interface_name(self):
        net = Network(seed=1)
        l1 = net.create_link("l1")
        a = net.add_host("a", ip="10.0.1.1", network="10.0.1.0/24", link=l1)
        with pytest.raises(ValueError):
            a.add_interface("eth0", "10.0.1.2", "10.0.1.0/24", l1)

    def test_primary_ip_requires_interface(self):
        net = Network(seed=1)
        host = net.add_host("bare")
        with pytest.raises(RoutingError):
            host.primary_ip


class TestNetworkContainer:
    def test_duplicate_node_name(self):
        net = Network(seed=1)
        net.add_host("x")
        with pytest.raises(ValueError):
            net.add_host("x")

    def test_duplicate_link_name(self):
        net = Network(seed=1)
        net.create_link("l")
        with pytest.raises(ValueError):
            net.create_link("l")

    def test_generated_link_names(self):
        net = Network(seed=1)
        assert net.create_link().name == "link1"
        assert net.create_link().name == "link2"

    def test_host_accessor_type_check(self):
        net = Network(seed=1)
        net.add_router("r")
        with pytest.raises(TypeError):
            net.host("r")

    def test_traffic_totals(self):
        net = Network(seed=1)
        link = net.create_link("l")
        a = net.add_host("a", ip="10.0.0.1", network="10.0.0.0/24", link=link)
        b = net.add_host("b", ip="10.0.0.2", network="10.0.0.0/24", link=link)
        b.register_protocol(IpProtocol.UDP, lambda p: None)
        a.send(udp_packet(Endpoint("10.0.0.1", 1), Endpoint("10.0.0.2", 2), b"abc"))
        net.run()
        assert net.total_packets_sent() == 1
        assert net.total_bytes_sent() == 31


class TestTrace:
    def test_trace_capture_and_query(self):
        net = Network(seed=1)
        net.trace.enable()
        link = net.create_link("l")
        a = net.add_host("a", ip="10.0.0.1", network="10.0.0.0/24", link=link)
        b = net.add_host("b", ip="10.0.0.2", network="10.0.0.0/24", link=link)
        b.register_protocol(IpProtocol.UDP, lambda p: None)
        a.send(udp_packet(Endpoint("10.0.0.1", 1), Endpoint("10.0.0.2", 2)))
        net.run()
        assert net.trace.count("sent") == 1
        assert len(net.trace.between("a", "b")) == 1
        assert net.trace.sent(IpProtocol.UDP)
        assert "udp" in net.trace.dump()

    def test_trace_disabled_by_default(self):
        net = Network(seed=1)
        link = net.create_link("l")
        a = net.add_host("a", ip="10.0.0.1", network="10.0.0.0/24", link=link)
        net.add_host("b", ip="10.0.0.2", network="10.0.0.0/24", link=link)
        a.send(udp_packet(Endpoint("10.0.0.1", 1), Endpoint("10.0.0.2", 2)))
        net.run()
        assert net.trace.records == []

    def test_capacity_limit(self):
        from repro.netsim.trace import PacketTrace

        trace = PacketTrace(enabled=True, capacity=2)
        p = udp_packet(Endpoint("1.1.1.1", 1), Endpoint("2.2.2.2", 2))
        for _ in range(5):
            trace.record(0.0, "l", "a", "b", "sent", p)
        assert len(trace.records) == 2
        assert trace.dropped_records == 3


class TestBandwidth:
    def _bw_pair(self, profile, seed=1):
        net = Network(seed=seed)
        link = net.create_link("l", profile)
        a = net.add_host("a", ip="10.0.0.1", network="10.0.0.0/24", link=link)
        b = net.add_host("b", ip="10.0.0.2", network="10.0.0.0/24", link=link)
        return net, link, a, b

    def test_serialization_delay_added(self):
        # 1000 B packet over 8 kbit/s = 1 s of serialization + 0.1 s latency.
        profile = LinkProfile(latency=0.1, bandwidth_bps=8_000)
        net, link, a, b = self._bw_pair(profile)
        arrivals = []
        b.register_protocol(IpProtocol.UDP, lambda p: arrivals.append(net.now))
        payload = bytes(1000 - 28)  # header estimate is 28 B
        a.send(udp_packet(Endpoint("10.0.0.1", 1), Endpoint("10.0.0.2", 2), payload))
        net.run()
        assert arrivals == [pytest.approx(1.1, abs=1e-6)]

    def test_fifo_queueing_spaces_packets(self):
        profile = LinkProfile(latency=0.0, bandwidth_bps=8_000)
        net, link, a, b = self._bw_pair(profile)
        arrivals = []
        b.register_protocol(IpProtocol.UDP, lambda p: arrivals.append(net.now))
        payload = bytes(1000 - 28)
        for _ in range(3):  # all enqueued at t=0
            a.send(udp_packet(Endpoint("10.0.0.1", 1), Endpoint("10.0.0.2", 2), payload))
        net.run()
        assert [round(t, 6) for t in arrivals] == [1.0, 2.0, 3.0]

    def test_throughput_capped_at_bandwidth(self):
        profile = LinkProfile(latency=0.005, bandwidth_bps=80_000)  # 10 kB/s
        net, link, a, b = self._bw_pair(profile)
        received = []
        b.register_protocol(IpProtocol.UDP, lambda p: received.append(p.size))
        for _ in range(100):
            a.send(udp_packet(Endpoint("10.0.0.1", 1), Endpoint("10.0.0.2", 2), bytes(972)))
        net.run_until(5.0)
        goodput = sum(received) / 5.0
        assert goodput <= 10_000 * 1.01
        assert goodput > 9_000  # the link stays busy

    def test_tail_drop_when_queue_too_long(self):
        profile = LinkProfile(latency=0.0, bandwidth_bps=8_000, max_queue_delay=1.5)
        net, link, a, b = self._bw_pair(profile)
        received = []
        b.register_protocol(IpProtocol.UDP, lambda p: received.append(p))
        for _ in range(5):  # each needs 1 s on the wire; queue cap 1.5 s
            a.send(udp_packet(Endpoint("10.0.0.1", 1), Endpoint("10.0.0.2", 2), bytes(972)))
        net.run()
        assert link.queue_drops == 3
        assert len(received) == 2

    def test_infinite_bandwidth_default_unchanged(self):
        profile = LinkProfile(latency=0.1)
        net, link, a, b = self._bw_pair(profile)
        arrivals = []
        b.register_protocol(IpProtocol.UDP, lambda p: arrivals.append(net.now))
        for _ in range(10):
            a.send(udp_packet(Endpoint("10.0.0.1", 1), Endpoint("10.0.0.2", 2), bytes(1000)))
        net.run()
        assert all(t == pytest.approx(0.1) for t in arrivals)

    def test_bad_profiles_rejected(self):
        with pytest.raises(ValueError):
            LinkProfile(bandwidth_bps=0)
        with pytest.raises(ValueError):
            LinkProfile(max_queue_delay=-1)
