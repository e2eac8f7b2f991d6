"""NAT device behaviour: translation, filtering, refusal, hairpin, mangling."""

import pytest

from repro.nat.behavior import (
    FULL_CONE,
    HAIRPIN_CAPABLE,
    NatBehavior,
    PAYLOAD_MANGLER,
    SYMMETRIC,
    UNFILTERED,
    WELL_BEHAVED,
)
from repro.nat.device import NatDevice
from repro.nat.policy import FilteringPolicy, TcpRefusalPolicy
from repro.netsim.addresses import Endpoint
from repro.netsim.network import Network
from repro.netsim.packet import IpProtocol, udp_packet
from repro.transport.stack import attach_stack

from tests.conftest import run_until


def build(behavior=WELL_BEHAVED, seed=1):
    """One NATed client + one public server."""
    net = Network(seed=seed)
    backbone = net.create_link("backbone")
    server = net.add_host("S", ip="18.181.0.31", network="0.0.0.0/0", link=backbone)
    attach_stack(server, rng=net.rng.child("s"))
    nat = NatDevice("NAT", net.scheduler, behavior, rng=net.rng.child("nat"))
    net.add_node(nat)
    nat.set_wan("155.99.25.11", "0.0.0.0/0", backbone)
    lan = net.create_link("lan")
    nat.add_lan("10.0.0.254", "10.0.0.0/24", lan)
    client = net.add_host("C", ip="10.0.0.1", network="10.0.0.0/24", link=lan,
                          gateway="10.0.0.254")
    attach_stack(client, rng=net.rng.child("c"))
    return net, nat, client, server


S_EP = Endpoint("18.181.0.31", 1234)


class TestOutboundTranslation:
    def test_source_rewritten_to_public(self):
        net, nat, client, server = build()
        seen = []
        sock = server.stack.udp.socket(1234)
        sock.on_datagram = lambda d, src: seen.append(src)
        client.stack.udp.socket(4321).sendto(b"x", S_EP)
        net.run_until(1.0)
        assert seen == [Endpoint("155.99.25.11", 62000)]
        assert nat.translations_out == 1

    def test_cone_consistency_across_destinations(self):
        """§5.1: the same private endpoint maps to one public endpoint."""
        net, nat, client, server = build()
        seen = []
        for port in (1234, 1235, 1236):
            s = server.stack.udp.socket(port)
            s.on_datagram = lambda d, src: seen.append(src)
        c = client.stack.udp.socket(4321)
        for port in (1234, 1235, 1236):
            c.sendto(b"x", Endpoint("18.181.0.31", port))
        net.run_until(1.0)
        assert len(set(seen)) == 1

    def test_symmetric_allocates_per_destination(self):
        net, nat, client, server = build(SYMMETRIC)
        seen = []
        for port in (1234, 1235):
            s = server.stack.udp.socket(port)
            s.on_datagram = lambda d, src: seen.append(src)
        c = client.stack.udp.socket(4321)
        c.sendto(b"x", Endpoint("18.181.0.31", 1234))
        c.sendto(b"x", Endpoint("18.181.0.31", 1235))
        net.run_until(1.0)
        assert len(set(seen)) == 2

    def test_distinct_private_ports_get_distinct_mappings(self):
        net, nat, client, server = build()
        seen = []
        s = server.stack.udp.socket(1234)
        s.on_datagram = lambda d, src: seen.append(src)
        client.stack.udp.socket(1111).sendto(b"x", S_EP)
        client.stack.udp.socket(2222).sendto(b"x", S_EP)
        net.run_until(1.0)
        assert len(set(seen)) == 2


class TestInboundTranslation:
    def test_reply_reaches_private_host(self):
        net, nat, client, server = build()
        got = []
        c = client.stack.udp.socket(4321)
        c.on_datagram = lambda d, src: got.append(d)
        s = server.stack.udp.socket(1234)
        s.on_datagram = lambda d, src: s.sendto(b"reply", src)
        c.sendto(b"ping", S_EP)
        net.run_until(1.0)
        assert got == [b"reply"]
        assert nat.translations_in == 1

    def test_unsolicited_inbound_dropped(self):
        net, nat, client, server = build()
        got = []
        c = client.stack.udp.socket(4321)
        c.on_datagram = lambda d, src: got.append(d)
        # No mapping exists at all: straight to the void.
        server.stack.udp.socket(1234).sendto(b"scan", Endpoint("155.99.25.11", 62000))
        net.run_until(1.0)
        assert got == []
        assert nat.inbound_unmatched == 1

    def test_port_restricted_filtering(self):
        """ADDRESS_AND_PORT filter: same IP, different port is refused."""
        net, nat, client, server = build(WELL_BEHAVED)
        got = []
        c = client.stack.udp.socket(4321)
        c.on_datagram = lambda d, src: got.append(src)
        s1 = server.stack.udp.socket(1234)
        s2 = server.stack.udp.socket(5678)
        c.sendto(b"ping", S_EP)  # permits 18.181.0.31:1234 only
        net.run_until(0.5)
        s2.sendto(b"other-port", Endpoint("155.99.25.11", 62000))
        s1.sendto(b"right-port", Endpoint("155.99.25.11", 62000))
        net.run_until(1.5)
        assert [x.port for x in got] == [1234]
        assert nat.inbound_refused == 1

    def test_address_restricted_filtering(self):
        behavior = WELL_BEHAVED.but(filtering=FilteringPolicy.ADDRESS)
        net, nat, client, server = build(behavior)
        got = []
        c = client.stack.udp.socket(4321)
        c.on_datagram = lambda d, src: got.append(src)
        s2 = server.stack.udp.socket(5678)
        c.sendto(b"ping", S_EP)
        net.run_until(0.5)
        s2.sendto(b"same-ip-other-port", Endpoint("155.99.25.11", 62000))
        net.run_until(1.0)
        assert [x.port for x in got] == [5678]

    def test_full_cone_accepts_any_remote(self):
        net, nat, client, server = build(FULL_CONE)
        got = []
        c = client.stack.udp.socket(4321)
        c.on_datagram = lambda d, src: got.append(src)
        c.sendto(b"ping", S_EP)  # create the mapping
        net.run_until(0.5)
        stranger = server.stack.udp.socket(9999)
        stranger.sendto(b"hello", Endpoint("155.99.25.11", 62000))
        net.run_until(1.0)
        assert any(x.port == 9999 for x in got)

    def test_unfiltered_behaves_like_full_cone(self):
        net, nat, client, server = build(UNFILTERED)
        got = []
        c = client.stack.udp.socket(4321)
        c.on_datagram = lambda d, src: got.append(src)
        c.sendto(b"ping", S_EP)
        net.run_until(0.5)
        server.stack.udp.socket(9999).sendto(b"x", Endpoint("155.99.25.11", 62000))
        net.run_until(1.0)
        assert any(x.port == 9999 for x in got)


class TestTcpRefusal:
    def _unsolicited_syn(self, behavior):
        net, nat, client, server = build(behavior)
        # Create a TCP mapping first so the SYN hits the filter, not the
        # no-mapping path.
        listener_results = []
        server.stack.tcp.listen(1234)
        client.stack.tcp.connect(S_EP, local_port=4321, reuse=True,
                                 on_connected=lambda c: listener_results.append(c))
        run_until(net, lambda: listener_results)
        outcomes = []
        server.stack.tcp.connect(
            Endpoint("155.99.25.11", 62000),
            local_port=0,
            on_connected=lambda c: outcomes.append("connected"),
            on_error=lambda e: outcomes.append(e.reason),
        )
        net.run_until(net.now + 70)
        return outcomes, nat

    def test_drop_policy_times_out(self):
        outcomes, nat = self._unsolicited_syn(WELL_BEHAVED)
        assert outcomes == ["timeout"]

    def test_rst_policy_resets(self):
        outcomes, nat = self._unsolicited_syn(
            WELL_BEHAVED.but(tcp_refusal=TcpRefusalPolicy.RST)
        )
        assert outcomes == ["reset"]

    def test_icmp_policy_unreachable(self):
        outcomes, nat = self._unsolicited_syn(
            WELL_BEHAVED.but(tcp_refusal=TcpRefusalPolicy.ICMP)
        )
        assert outcomes == ["unreachable"]


class TestHairpin:
    def test_hairpin_udp_loop(self):
        net, nat, client, server = build(HAIRPIN_CAPABLE)
        c1 = client.stack.udp.socket(4321)
        got = []
        c1.on_datagram = lambda d, src: got.append((d, src))
        c1.sendto(b"reg", S_EP)  # establish primary mapping -> 62000
        net.run_until(0.5)
        c2 = client.stack.udp.socket(4322)
        c2.sendto(b"hairpin", Endpoint("155.99.25.11", 62000))
        net.run_until(1.0)
        assert got and got[-1][0] == b"hairpin"
        # The looped packet's source is the secondary's *public* mapping.
        assert got[-1][1].ip == Endpoint("155.99.25.11", 0).ip
        assert nat.hairpin_forwarded == 1

    def test_no_hairpin_dropped(self):
        net, nat, client, server = build(WELL_BEHAVED)
        c1 = client.stack.udp.socket(4321)
        got = []
        c1.on_datagram = lambda d, src: got.append(d)
        c1.sendto(b"reg", S_EP)
        net.run_until(0.5)
        client.stack.udp.socket(4322).sendto(b"hp", Endpoint("155.99.25.11", 62000))
        net.run_until(1.0)
        assert got == []
        assert nat.hairpin_refused == 1

    def test_hairpin_expiring_ttl_creates_no_state(self):
        """Regression: a hairpin packet dying to TTL must not cut a mapping
        for its sender or refresh the destination's filter/timer state."""
        net, nat, client, server = build(HAIRPIN_CAPABLE)
        c1 = client.stack.udp.socket(4321)
        c1.sendto(b"reg", S_EP)  # primary mapping -> 62000
        net.run_until(0.5)
        assert nat.table.mappings_created == 1
        dying = udp_packet(
            Endpoint("10.0.0.1", 4322), Endpoint("155.99.25.11", 62000), b"hp"
        )
        dying.ttl = 1
        client.send(dying)
        net.run_until(1.0)
        assert nat.drops_by_reason.get("ttl-expired") == 1
        assert nat.table.mappings_created == 1  # no phantom mapping for :4322
        assert len(nat.table) == 1
        assert nat.hairpin_forwarded == 0

    def test_hairpin_filters_block_untrusted(self):
        """§6.3: a NAT may treat hairpin traffic as untrusted inbound."""
        behavior = HAIRPIN_CAPABLE.but(hairpin_filters=True)
        net, nat, client, server = build(behavior)
        c1 = client.stack.udp.socket(4321)
        got = []
        c1.on_datagram = lambda d, src: got.append(d)
        c1.sendto(b"reg", S_EP)
        net.run_until(0.5)
        client.stack.udp.socket(4322).sendto(b"hp", Endpoint("155.99.25.11", 62000))
        net.run_until(1.0)
        assert got == []  # the secondary's public ep was never contacted
        assert nat.hairpin_refused == 1


class TestPayloadMangling:
    def test_embedded_private_ip_rewritten(self):
        """§5.3: a 4-byte span equal to the private source IP is translated."""
        net, nat, client, server = build(PAYLOAD_MANGLER)
        seen = []
        s = server.stack.udp.socket(1234)
        s.on_datagram = lambda d, src: seen.append(d)
        private_ip_bytes = bytes([10, 0, 0, 1])
        client.stack.udp.socket(4321).sendto(b"ep:" + private_ip_bytes, S_EP)
        net.run_until(1.0)
        assert seen[0] == b"ep:" + bytes([155, 99, 25, 11])
        assert nat.payloads_mangled == 1

    def test_obfuscated_payload_untouched(self):
        """One's-complement obfuscation defeats the mangler (§3.1)."""
        net, nat, client, server = build(PAYLOAD_MANGLER)
        seen = []
        s = server.stack.udp.socket(1234)
        s.on_datagram = lambda d, src: seen.append(d)
        obfuscated = bytes(b ^ 0xFF for b in [10, 0, 0, 1])
        client.stack.udp.socket(4321).sendto(b"ep:" + obfuscated, S_EP)
        net.run_until(1.0)
        assert seen[0] == b"ep:" + obfuscated
        assert nat.payloads_mangled == 0


class TestUdpTimeout:
    def test_mapping_expires_and_inbound_stops(self):
        behavior = WELL_BEHAVED.but(udp_timeout=20.0)
        net, nat, client, server = build(behavior)
        got = []
        c = client.stack.udp.socket(4321)
        c.on_datagram = lambda d, src: got.append(d)
        s = server.stack.udp.socket(1234)
        replies = {"ep": None}
        s.on_datagram = lambda d, src: replies.__setitem__("ep", src)
        c.sendto(b"ping", S_EP)
        net.run_until(1.0)
        assert replies["ep"] is not None
        net.run_until(30.0)  # idle > 20 s: the hole dies (§3.6)
        s.sendto(b"late", replies["ep"])
        net.run_until(31.0)
        assert got == []
        assert len(nat.table) == 0

    def test_keepalives_hold_mapping_open(self):
        behavior = WELL_BEHAVED.but(udp_timeout=20.0)
        net, nat, client, server = build(behavior)
        got = []
        c = client.stack.udp.socket(4321)
        c.on_datagram = lambda d, src: got.append(d)
        s = server.stack.udp.socket(1234)
        replies = {"ep": None}
        s.on_datagram = lambda d, src: replies.__setitem__("ep", src)
        c.sendto(b"ping", S_EP)

        def keepalive():
            c.sendto(b"ka", S_EP)
            net.scheduler.call_later(15.0, keepalive)

        net.scheduler.call_later(15.0, keepalive)
        net.run_until(60.0)
        s.sendto(b"still-open", replies["ep"])
        net.run_until(61.0)
        assert b"still-open" in got


class TestConflictDowngrade:
    def test_second_host_same_port_goes_symmetric(self):
        """§6.3: two private hosts on one private port degrade the NAT."""
        behavior = WELL_BEHAVED.but(per_port_conflict_downgrade=True)
        net, nat, client, server = build(behavior)
        lan = net.links["lan"]
        other = net.add_host("C2", ip="10.0.0.2", network="10.0.0.0/24", link=lan,
                             gateway="10.0.0.254")
        attach_stack(other, rng=net.rng.child("c2"))
        seen = []
        for port in (1234, 1235):
            s = server.stack.udp.socket(port)
            s.on_datagram = lambda d, src: seen.append(src)
        client.stack.udp.socket(4321).sendto(b"a", S_EP)
        net.run_until(0.5)
        c2 = other.stack.udp.socket(4321)  # same private port: conflict
        c2.sendto(b"b1", Endpoint("18.181.0.31", 1234))
        c2.sendto(b"b2", Endpoint("18.181.0.31", 1235))
        net.run_until(1.5)
        c2_ports = {src.port for src in seen[1:]}
        assert len(c2_ports) == 2  # degraded to per-destination mappings


class TestMemoInvalidation:
    """Route and table changes after traffic has flowed.  The table that
    mutates empties the memo derived from it, so the next packet sees the
    new state; each case fails if the owning ``.clear()`` is removed
    (``RoutingTable.add``/``remove``, ``NatTable.create``/``remove``/``reset``).
    """

    def _warm(self, behavior=WELL_BEHAVED):
        net, nat, client, server = build(behavior)
        seen = []
        server.stack.udp.socket(1234).on_datagram = lambda d, src: seen.append(src)
        sock = client.stack.udp.socket(4321)

        def ping():
            sock.sendto(b"x", S_EP)
            net.run_until(net.now + 1.0)
            return seen[-1]

        first = ping()
        assert ping() == first == Endpoint("155.99.25.11", 62000)
        return net, nat, ping, seen

    def test_lan_transit_route_shadows_the_wan_default(self):
        net, nat, ping, seen = self._warm()
        lan1 = net.create_link("lan1")
        nat.add_lan("10.0.1.254", "10.0.1.0/24", lan1, name="lan1")
        twin = net.add_host("twin", ip="18.181.0.31", network="10.0.1.0/24", link=lan1)
        at_twin = []
        twin.register_protocol(IpProtocol.UDP, at_twin.append)
        ping()  # re-warm after add_lan's connected route
        nat.routing.add("18.181.0.31/32", "lan1")
        ping()
        assert len(seen) == 3 and nat.translations_out == 3
        assert [p.src for p in at_twin] == [Endpoint("10.0.0.1", 4321)]
        assert nat.packets_forwarded == 1

    def test_default_route_removed_is_one_no_route_drop(self):
        net, nat, ping, seen = self._warm()
        nat.routing.remove("0.0.0.0/0")
        ping()
        assert len(seen) == 2
        assert nat.drops_by_reason == {"no-route": 1}
        assert nat.packets_dropped == 1

    def test_expired_mapping_is_not_served_from_the_memo(self):
        net, nat, ping, seen = self._warm(WELL_BEHAVED.but(udp_timeout=20.0))
        net.run_until(net.now + 30.0)
        assert len(nat.table) == 0
        assert ping() == Endpoint("155.99.25.11", 62001)
        assert nat.table.lookup_inbound(IpProtocol.UDP, 62001) is not None

    def test_reboot_is_not_served_from_the_memo(self):
        net, nat, ping, seen = self._warm()
        nat.reset_state()
        assert ping() == Endpoint("155.99.25.11", 62000 + nat.REBOOT_PORT_SHIFT)

    def test_behavior_change_is_not_served_from_the_memo(self):
        net, nat, ping, seen = self._warm()
        nat.behavior = SYMMETRIC
        assert ping() == Endpoint("155.99.25.11", 62001)

    def test_conflicting_host_downgrades_the_warm_flow(self):
        """§6.3: the second host's mapping changes the policy the first
        host's established flow is translated under."""
        net, nat, ping, seen = self._warm(
            WELL_BEHAVED.but(per_port_conflict_downgrade=True)
        )
        other = net.add_host("C2", ip="10.0.0.2", network="10.0.0.0/24",
                             link=net.links["lan"], gateway="10.0.0.254")
        attach_stack(other, rng=net.rng.child("c2"))
        other.stack.udp.socket(4321).sendto(b"y", S_EP)
        net.run_until(net.now + 1.0)
        assert seen[-1] == Endpoint("155.99.25.11", 62001)
        assert ping() == Endpoint("155.99.25.11", 62002)


class TestIcmpTranslation:
    def test_inbound_icmp_translated_to_private_host(self):
        """An ICMP error about a mapped session is rewritten back to the
        private host, with the quoted session identifiers de-translated."""
        from repro.netsim.packet import IcmpType, icmp_error_for, tcp_packet, TcpFlags

        net, nat, client, server = build()
        # Open a TCP mapping: client connects out toward the server.
        server.stack.tcp.listen(1234)
        established = []
        client.stack.tcp.connect(S_EP, local_port=4321, reuse=True,
                                 on_connected=established.append)
        run_until(net, lambda: established)
        # The server-side network reports an ICMP error about that session:
        # the offender is the translated packet (src = the public mapping).
        mapping = nat.table.mappings[0]
        offender = tcp_packet(mapping.public, S_EP, TcpFlags.ACK, seq=1, ack=1)
        errors = []
        established[0].on_error = errors.append
        icmp = icmp_error_for(offender, IcmpType.DEST_UNREACHABLE, server.primary_ip)
        server.send(icmp)
        net.run_until(net.now + 1)
        # Established connections treat it as a soft error (no abort), but
        # the packet really did reach the host: verify via NAT counters.
        assert nat.translations_in >= 1
        assert established[0].established

    def test_icmp_without_matching_mapping_dropped(self):
        from repro.netsim.packet import IcmpType, icmp_error_for, tcp_packet, TcpFlags
        from repro.netsim.addresses import Endpoint

        net, nat, client, server = build()
        offender = tcp_packet(Endpoint("155.99.25.11", 50000), S_EP,
                              TcpFlags.SYN, seq=1)
        server.send(icmp_error_for(offender, IcmpType.PORT_UNREACHABLE,
                                   server.primary_ip))
        net.run_until(net.now + 1)
        assert nat.inbound_unmatched == 1
