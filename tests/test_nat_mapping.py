"""Unit tests for the NAT translation table."""

import pytest

from repro.nat.mapping import NatTable, mapping_key
from repro.nat.policy import MappingPolicy, PortAllocation
from repro.netsim.addresses import Endpoint
from repro.netsim.clock import Scheduler
from repro.netsim.packet import IpProtocol, TcpFlags
from repro.util.rng import SeededRng

PRIV = Endpoint("10.0.0.1", 4321)
S = Endpoint("18.181.0.31", 1234)
PEER = Endpoint("138.76.29.7", 31000)


def make_table(allocation=PortAllocation.SEQUENTIAL, base=62000):
    return NatTable(
        scheduler=Scheduler(),
        public_ip="155.99.25.11",
        allocation=allocation,
        port_base=base,
        rng=SeededRng(1, "t"),
    )


class TestMappingKey:
    def test_endpoint_independent_ignores_remote(self):
        k1 = mapping_key(MappingPolicy.ENDPOINT_INDEPENDENT, IpProtocol.UDP, PRIV, S)
        k2 = mapping_key(MappingPolicy.ENDPOINT_INDEPENDENT, IpProtocol.UDP, PRIV, PEER)
        assert k1 == k2

    def test_address_dependent_keys_by_remote_ip(self):
        k1 = mapping_key(MappingPolicy.ADDRESS_DEPENDENT, IpProtocol.UDP, PRIV, PEER)
        k2 = mapping_key(
            MappingPolicy.ADDRESS_DEPENDENT, IpProtocol.UDP, PRIV,
            Endpoint(PEER.ip, 9999),
        )
        k3 = mapping_key(MappingPolicy.ADDRESS_DEPENDENT, IpProtocol.UDP, PRIV, S)
        assert k1 == k2 != k3

    def test_symmetric_keys_by_full_remote(self):
        k1 = mapping_key(
            MappingPolicy.ADDRESS_AND_PORT_DEPENDENT, IpProtocol.UDP, PRIV, PEER
        )
        k2 = mapping_key(
            MappingPolicy.ADDRESS_AND_PORT_DEPENDENT, IpProtocol.UDP, PRIV,
            Endpoint(PEER.ip, 9999),
        )
        assert k1 != k2

    def test_proto_isolated(self):
        ku = mapping_key(MappingPolicy.ENDPOINT_INDEPENDENT, IpProtocol.UDP, PRIV, S)
        kt = mapping_key(MappingPolicy.ENDPOINT_INDEPENDENT, IpProtocol.TCP, PRIV, S)
        assert ku != kt


class TestAllocation:
    def test_sequential_from_base(self):
        table = make_table()
        m1 = table.create(MappingPolicy.ADDRESS_AND_PORT_DEPENDENT, IpProtocol.UDP, PRIV, S, 60)
        m2 = table.create(MappingPolicy.ADDRESS_AND_PORT_DEPENDENT, IpProtocol.UDP, PRIV, PEER, 60)
        assert m1.public.port == 62000
        assert m2.public.port == 62001

    def test_preserving_uses_private_port(self):
        table = make_table(PortAllocation.PRESERVING)
        m = table.create(MappingPolicy.ENDPOINT_INDEPENDENT, IpProtocol.UDP, PRIV, S, 60)
        assert m.public.port == PRIV.port

    def test_preserving_falls_back_on_collision(self):
        table = make_table(PortAllocation.PRESERVING)
        other = Endpoint("10.0.0.2", 4321)
        m1 = table.create(MappingPolicy.ENDPOINT_INDEPENDENT, IpProtocol.UDP, PRIV, S, 60)
        m2 = table.create(MappingPolicy.ENDPOINT_INDEPENDENT, IpProtocol.UDP, other, S, 60)
        assert m1.public.port == 4321
        assert m2.public.port == 62000

    def test_random_ports_in_range_and_unique(self):
        table = make_table(PortAllocation.RANDOM)
        ports = set()
        for i in range(50):
            m = table.create(
                MappingPolicy.ADDRESS_AND_PORT_DEPENDENT, IpProtocol.UDP, PRIV,
                Endpoint("1.1.1.1", i + 1), 60,
            )
            ports.add(m.public.port)
        assert len(ports) == 50
        assert all(1024 <= p <= 65535 for p in ports)

    def test_udp_and_tcp_port_spaces_independent(self):
        table = make_table()
        mu = table.create(MappingPolicy.ENDPOINT_INDEPENDENT, IpProtocol.UDP, PRIV, S, 60)
        mt = table.create(MappingPolicy.ENDPOINT_INDEPENDENT, IpProtocol.TCP, PRIV, S, 60)
        assert mu.public.port == 62000
        assert mt.public.port == 62001  # sequential counter shared, slot free
        assert table.lookup_inbound(IpProtocol.UDP, 62000) is mu
        assert table.lookup_inbound(IpProtocol.TCP, 62001) is mt


class TestLookup:
    def test_outbound_hit_and_miss(self):
        table = make_table()
        m = table.create(MappingPolicy.ENDPOINT_INDEPENDENT, IpProtocol.UDP, PRIV, S, 60)
        assert table.lookup_outbound(MappingPolicy.ENDPOINT_INDEPENDENT, IpProtocol.UDP, PRIV, PEER) is m
        other = Endpoint("10.0.0.9", 4321)
        assert table.lookup_outbound(MappingPolicy.ENDPOINT_INDEPENDENT, IpProtocol.UDP, other, S) is None

    def test_inbound_by_public_port(self):
        table = make_table()
        m = table.create(MappingPolicy.ENDPOINT_INDEPENDENT, IpProtocol.UDP, PRIV, S, 60)
        assert table.lookup_inbound(IpProtocol.UDP, m.public.port) is m
        assert table.lookup_inbound(IpProtocol.UDP, 1) is None

    def test_conflicting_private_port_detection(self):
        table = make_table()
        table.create(MappingPolicy.ENDPOINT_INDEPENDENT, IpProtocol.UDP, PRIV, S, 60)
        assert not table.has_conflicting_private_port(PRIV)
        assert table.has_conflicting_private_port(Endpoint("10.0.0.2", 4321))
        assert not table.has_conflicting_private_port(Endpoint("10.0.0.2", 9999))

    def test_conflict_index_tracks_removal_and_expiry(self):
        """The private-port index must forget owners when their mappings go."""
        table = make_table()
        m = table.create(MappingPolicy.ENDPOINT_INDEPENDENT, IpProtocol.UDP, PRIV, S, 60)
        other = Endpoint("10.0.0.2", 4321)
        assert table.has_conflicting_private_port(other)
        table.remove(m)
        assert not table.has_conflicting_private_port(other)
        table.remove(m)  # double-remove must not corrupt the index
        assert not table.has_conflicting_private_port(other)
        m2 = table.create(
            MappingPolicy.ENDPOINT_INDEPENDENT, IpProtocol.UDP, PRIV, S, idle_timeout=10.0
        )
        assert table.has_conflicting_private_port(other)
        table.scheduler.run_until(15.0)  # m2 expires
        assert not table.has_conflicting_private_port(other)

    def test_conflict_survives_one_of_two_owners_leaving(self):
        table = make_table()
        m1 = table.create(MappingPolicy.ENDPOINT_INDEPENDENT, IpProtocol.UDP, PRIV, S, 60)
        m2 = table.create(
            MappingPolicy.ENDPOINT_INDEPENDENT, IpProtocol.UDP,
            Endpoint("10.0.0.2", 4321), S, 60,
        )
        probe = Endpoint("10.0.0.3", 4321)
        assert table.has_conflicting_private_port(probe)
        table.remove(m1)
        assert table.has_conflicting_private_port(probe)  # m2's owner remains
        table.remove(m2)
        assert not table.has_conflicting_private_port(probe)


class TestFiltering:
    def test_permits_by_port(self):
        table = make_table()
        m = table.create(MappingPolicy.ENDPOINT_INDEPENDENT, IpProtocol.UDP, PRIV, S, 60)
        m.note_outbound(S, 0.0)
        assert m.permits(S, by_port=True)
        assert not m.permits(Endpoint(S.ip, 9), by_port=True)
        assert m.permits(Endpoint(S.ip, 9), by_port=False)
        assert not m.permits(PEER, by_port=False)


class TestExpiry:
    def test_idle_mapping_expires(self):
        table = make_table()
        m = table.create(MappingPolicy.ENDPOINT_INDEPENDENT, IpProtocol.UDP, PRIV, S, idle_timeout=20.0)
        table.scheduler.run_until(25.0)
        assert table.lookup_inbound(IpProtocol.UDP, m.public.port) is None
        assert table.mappings_expired == 1

    def test_activity_defers_expiry(self):
        table = make_table()
        m = table.create(MappingPolicy.ENDPOINT_INDEPENDENT, IpProtocol.UDP, PRIV, S, idle_timeout=20.0)
        table.scheduler.run_until(15.0)
        m.note_outbound(S, table.scheduler.now)  # refresh at t=15
        table.scheduler.run_until(30.0)
        assert table.lookup_inbound(IpProtocol.UDP, m.public.port) is m
        table.scheduler.run_until(40.0)
        assert table.lookup_inbound(IpProtocol.UDP, m.public.port) is None

    def test_expired_port_becomes_reallocatable(self):
        table = make_table()
        m = table.create(MappingPolicy.ENDPOINT_INDEPENDENT, IpProtocol.UDP, PRIV, S, idle_timeout=10.0)
        port = m.public.port
        table.scheduler.run_until(15.0)
        table._next_port = port  # force the allocator to retry the slot
        m2 = table.create(MappingPolicy.ENDPOINT_INDEPENDENT, IpProtocol.UDP, Endpoint("10.0.0.2", 1), S, 10.0)
        assert m2.public.port == port

    def test_tcp_close_schedules_removal(self):
        table = make_table()
        m = table.create(MappingPolicy.ENDPOINT_INDEPENDENT, IpProtocol.TCP, PRIV, S, idle_timeout=3600.0)
        m.observe_tcp_flags(TcpFlags.FIN, outbound=True, now=0.0)
        assert m.closing_since is None  # only one FIN so far
        m.observe_tcp_flags(TcpFlags.FIN, outbound=False, now=1.0)
        assert m.closing_since == 1.0
        table.schedule_close(m, linger=2.0)
        table.scheduler.run_until(5.0)
        assert len(table) == 0

    def test_rst_marks_closing(self):
        table = make_table()
        m = table.create(MappingPolicy.ENDPOINT_INDEPENDENT, IpProtocol.TCP, PRIV, S, 3600.0)
        m.observe_tcp_flags(TcpFlags.RST, outbound=False, now=2.0)
        assert m.tcp_rst_seen and m.closing_since == 2.0

    @pytest.mark.parametrize("outbound", [True, False])
    def test_close_tracking_matches_intflag_reference(self, outbound):
        """All 32 values of the five low flag bits, against the operator
        definitions the int mask tests replaced."""
        for value in range(32):
            flags = TcpFlags(value)
            table = make_table()
            m = table.create(MappingPolicy.ENDPOINT_INDEPENDENT, IpProtocol.TCP, PRIV, S, 3600.0)
            m.tcp_fin_outbound = not outbound  # the other side already closed
            m.tcp_fin_inbound = outbound
            before = (m.tcp_fin_outbound, m.tcp_fin_inbound)
            m.observe_tcp_flags(flags, outbound=outbound, now=7.0)
            rst, fin = bool(flags & TcpFlags.RST), bool(flags & TcpFlags.FIN)
            assert m.tcp_rst_seen is rst
            assert (m.tcp_fin_outbound, m.tcp_fin_inbound) == ((True, True) if fin else before)
            assert m.closing_since == (7.0 if rst or fin else None)

    def test_remove_cancels_timer(self):
        table = make_table()
        m = table.create(MappingPolicy.ENDPOINT_INDEPENDENT, IpProtocol.UDP, PRIV, S, 20.0)
        table.remove(m)
        table.scheduler.run_until(60.0)  # must not blow up
        assert len(table) == 0


class TestReset:
    def test_reset_clears_everything(self):
        table = make_table()
        table.create(MappingPolicy.ENDPOINT_INDEPENDENT, IpProtocol.UDP, PRIV, S, 20.0)
        table.create(
            MappingPolicy.ENDPOINT_INDEPENDENT, IpProtocol.UDP,
            Endpoint("10.0.0.2", 4321), S, 20.0,
        )
        table.reset()
        assert len(table) == 0
        assert table.mappings_lost_to_reset == 2
        assert table.lookup_inbound(IpProtocol.UDP, 62000) is None
        assert not table.has_conflicting_private_port(Endpoint("10.0.0.9", 4321))
        table.scheduler.run_until(60.0)
        assert table.mappings_expired == 0  # a reboot is not an expiry

    def test_reset_rebases_port_allocation(self):
        table = make_table()
        table.create(MappingPolicy.ENDPOINT_INDEPENDENT, IpProtocol.UDP, PRIV, S, 60)
        table.reset(port_base=63000)
        m = table.create(MappingPolicy.ENDPOINT_INDEPENDENT, IpProtocol.UDP, PRIV, S, 60)
        assert m.public.port == 63000  # old 62000 hole is gone for good
