"""Pool-generation safety suite for :data:`repro.netsim.packet.PACKET_POOL`.

The free-list recycler is only allowed to be *observably inert*: every
acquire reassigns every field, release bumps the generation stamp so a
holder can always detect reuse, ``stow()`` survives recycling by
construction, poison mode turns any stale access into a loud error, and
``disable()`` collapses the acquire fast path back to plain allocation
without invalidating the module-level ``_pool_free`` aliases the hot
constructors hold.  Recycling itself only ever happens from the link's
batch drain, so an attached flight recorder (which takes deliveries off
the batch) must also stop recycling entirely; and the drain recycles only
on the holder's own word — ``receive()`` returned ``True`` or the node
declares ``consumes_packets``.
"""

import pytest

from repro.netsim import packet as packet_module
from repro.netsim.addresses import Endpoint
from repro.netsim.link import LAN_LINK
from repro.netsim.network import Network
from repro.netsim.packet import PACKET_POOL, IpProtocol, udp_packet
from repro.transport.stack import attach_stack


@pytest.fixture(autouse=True)
def _pool_guard():
    """Snapshot and restore the process-wide pool's knobs around each test."""
    prior_enabled = PACKET_POOL.enabled
    prior_poison = PACKET_POOL.debug_poison
    prior_max = PACKET_POOL.max_free
    PACKET_POOL.enable()
    PACKET_POOL.debug_poison = False
    # Guarantee release headroom even if earlier tests filled the list.
    PACKET_POOL.max_free = max(prior_max, PACKET_POOL.free + 64)
    yield
    PACKET_POOL.debug_poison = prior_poison
    PACKET_POOL.max_free = prior_max
    if prior_enabled:
        PACKET_POOL.enable()
    else:
        PACKET_POOL.disable()


def _packet(payload: bytes = b"hello"):
    return udp_packet(Endpoint("10.0.0.1", 1111), Endpoint("10.0.0.2", 2222), payload)


def _echo_net(seed: int = 5):
    """Two hosts on one plain LAN link — the minimal consuming-delivery path."""
    net = Network(seed=seed)
    link = net.create_link("lan", LAN_LINK)
    a = net.add_host("A", ip="10.0.0.1", network="10.0.0.0/24", link=link)
    b = net.add_host("B", ip="10.0.0.2", network="10.0.0.0/24", link=link)
    attach_stack(a)
    attach_stack(b)
    echo = b.stack.udp.socket(9)
    echo.on_datagram = echo.sendto
    return net, a, b


class TestGenerationStamps:
    def test_release_bumps_generation(self):
        packet = _packet()
        stamp = packet.gen
        PACKET_POOL.release(packet)
        assert packet.gen == stamp + 1

    def test_holder_detects_recycling_via_stamp(self):
        packet = _packet()
        stamp = packet.gen
        PACKET_POOL.release(packet)
        reused = _packet(b"other")
        assert reused is packet  # the carcass really came back from the pool
        assert reused.gen != stamp  # ... and the snapshot detects it

    def test_acquire_reassigns_every_field(self):
        packet = _packet(b"first")
        old_id = packet.packet_id
        PACKET_POOL.release(packet)
        reused = _packet(b"second")
        assert reused is packet
        assert reused.payload == b"second"
        assert reused.src == Endpoint("10.0.0.1", 1111)
        assert reused.packet_id != old_id  # ids always come fresh off the counter
        assert reused.tcp is None and reused.icmp is None

    def test_max_free_caps_the_list(self):
        packets = [_packet() for _ in range(6)]
        PACKET_POOL.max_free = PACKET_POOL.free + 2
        stamps = [packet.gen for packet in packets]
        for packet in packets:
            PACKET_POOL.release(packet)
        assert PACKET_POOL.free == PACKET_POOL.max_free
        # The first two releases land; overflow releases are no-ops — the
        # generation stamp stays put so stale holders see no false bump.
        assert [p.gen - s for p, s in zip(packets, stamps)] == [1, 1, 0, 0, 0, 0]


class TestStowSafety:
    def test_stow_survives_recycling(self):
        packet = _packet(b"keep-me")
        kept = packet.stow()
        PACKET_POOL.release(packet)
        _packet(b"overwritten")  # reuses the released carcass
        assert kept is not packet
        assert kept.payload == b"keep-me"
        assert kept.dst == Endpoint("10.0.0.2", 2222)

    def test_poisoned_release_fails_loud(self):
        PACKET_POOL.debug_poison = True
        packet = _packet(b"doomed")
        PACKET_POOL.release(packet)
        with pytest.raises(RuntimeError, match="recycled"):
            len(packet.payload)
        with pytest.raises(RuntimeError, match="recycled"):
            packet.src.port
        with pytest.raises(RuntimeError, match="recycled"):
            bytes(packet.dst)

    def test_poisoned_carcass_is_fully_rehabilitated_on_acquire(self):
        PACKET_POOL.debug_poison = True
        packet = _packet(b"doomed")
        PACKET_POOL.release(packet)
        reused = _packet(b"fresh")
        assert reused is packet
        assert reused.payload == b"fresh"
        assert reused.src.port == 1111  # no poison survives reassignment


class TestEnableDisable:
    def test_disable_empties_free_list_and_stops_recycling(self):
        PACKET_POOL.release(_packet())
        assert PACKET_POOL.free > 0
        PACKET_POOL.disable()
        assert PACKET_POOL.free == 0
        released = PACKET_POOL.released
        doomed = _packet()
        PACKET_POOL.release(doomed)
        assert PACKET_POOL.released == released  # release is a no-op
        assert doomed.gen == 0

    def test_disabled_acquire_is_plain_allocation(self):
        PACKET_POOL.disable()
        first = _packet()
        second = _packet()
        assert first is not second
        assert first.gen == 0 and second.gen == 0

    def test_disable_keeps_hot_constructor_aliases_valid(self):
        # udp_packet / Packet.copy read the module-level ``_pool_free`` alias;
        # disable() must clear the *same* list object, never rebind it.
        PACKET_POOL.disable()
        assert packet_module._pool_free is PACKET_POOL._free
        PACKET_POOL.enable()
        PACKET_POOL.release(_packet())
        assert packet_module._pool_free is PACKET_POOL._free
        assert len(packet_module._pool_free) == PACKET_POOL.free


class TestRecyclingGates:
    def test_plain_echo_run_recycles(self):
        net, a, b = _echo_net()
        sock = a.stack.udp.socket(8)
        sock.on_datagram = lambda payload, src: None
        before = PACKET_POOL.released
        for i in range(40):
            net.scheduler.call_at(i * 0.001, sock.sendto, b"x", Endpoint("10.0.0.2", 9))
        net.run_until(2.0)
        assert PACKET_POOL.released > before

    def test_flight_recorder_disables_recycling(self):
        # Flight attachment turns the fast path off; with no fast-path drain
        # there is no release site, so recycling must stop entirely.
        net, a, b = _echo_net()
        net.attach_flight()
        sock = a.stack.udp.socket(8)
        sock.on_datagram = lambda payload, src: None
        before = PACKET_POOL.released
        for i in range(40):
            net.scheduler.call_at(i * 0.001, sock.sendto, b"x", Endpoint("10.0.0.2", 9))
        net.run_until(2.0)
        assert PACKET_POOL.released == before


class TestRecycleLicence:
    """The drain recycles iff ``receive(...) is True`` or the receiver
    ``consumes_packets`` — nothing a generic handler returns can license it."""

    @pytest.mark.parametrize("answer", [None, 1, "yes", [0]])
    def test_generic_handler_is_never_recycled(self, answer):
        PACKET_POOL.debug_poison = True
        net, a, b = _echo_net()
        stowed = []

        def handler(packet):
            stowed.append((packet, packet.gen))
            return answer

        b.register_protocol(IpProtocol.UDP, handler)
        sock = a.stack.udp.socket(8)
        before = PACKET_POOL.released
        for i in range(10):
            net.scheduler.call_at(i * 0.0001, sock.sendto, b"%d" % i, Endpoint("10.0.0.2", 9))
        net.run_until(1.0)
        assert PACKET_POOL.released == before
        assert [p.payload for p, _ in stowed] == [b"%d" % i for i in range(10)]
        assert all(p.gen == gen and p.dst.port == 9 for p, gen in stowed)

    def test_socket_deliveries_recycle_across_bind_and_close_in_flight(self):
        # The licence is the delivery's own answer, so what else happened to
        # the receiving host's bindings while the datagram flew is irrelevant.
        net, a, b = _echo_net()
        sock = a.stack.udp.socket(8)
        sock.on_datagram = lambda payload, src: None
        for _ in range(3):
            sock.sendto(b"x", Endpoint("10.0.0.2", 9))
        net.scheduler.call_at(0.0002, lambda: b.stack.udp.socket(10).close())
        before = PACKET_POOL.released
        net.run_until(1.0)
        assert sock.datagrams_received == 3
        assert PACKET_POOL.released - before == 6  # 3 at the echo + 3 echoes

    def test_released_counts_socket_deliveries_plus_nat_hops(self):
        from tests.test_nat_device import S_EP, build

        net, nat, client, server = build()
        echo = server.stack.udp.socket(1234)
        echo.on_datagram = echo.sendto
        sock = client.stack.udp.socket(4321)
        sock.on_datagram = lambda payload, src: None
        before = PACKET_POOL.released
        for i in range(10):
            net.scheduler.call_at(i * 0.001, sock.sendto, b"x", S_EP)
        net.run_until(1.0)
        deliveries = echo.datagrams_received + sock.datagrams_received
        assert deliveries == 20 and nat.packets_received == 20
        assert PACKET_POOL.released - before == deliveries + nat.packets_received


class TestDrainBooks:
    def test_raising_handler_keeps_pool_and_link_books(self):
        net, a, b = _echo_net()
        link = net.links["lan"]
        calls = []

        def on_datagram(payload, src):
            calls.append(payload)
            if len(calls) == 3:
                raise RuntimeError("application bug")

        b.stack.udp.bound_ports[(None, 9)].on_datagram = on_datagram
        sock = a.stack.udp.socket(8)
        for i in range(3):  # same tick: one coalesced batch
            sock.sendto(b"%d" % i, Endpoint("10.0.0.2", 9))
        assert len(link._batches) == 1
        released, free = PACKET_POOL.released, PACKET_POOL.free
        with pytest.raises(RuntimeError):
            net.run_until(1.0)
        assert calls == [b"0", b"1", b"2"]
        assert PACKET_POOL.free - free == 2  # the two that were delivered
        assert PACKET_POOL.released - released == PACKET_POOL.free - free
        assert not link._batches  # the spent batch left the link's books
        assert net.scheduler.pending == 0
