"""Fault injection (repro.netsim.faults) and the recovery machinery it exercises:
link flaps, burst loss, duplication, reordering, NAT reboots, server restarts
and kills, automatic re-punch, and auto-re-registration."""

import pytest

from repro.core.protocol import TRANSPORT_TCP, TRANSPORT_UDP
from repro.core.tcp_punch import TcpPunchConfig
from repro.core.udp_punch import PunchConfig
from repro.netsim.addresses import Endpoint
from repro.netsim.faults import (
    DEFAULT_FLAP_SECONDS,
    FAULT_LINK_FLAP,
    FAULT_NAT_REBOOT,
    FAULT_SERVER_KILL,
    FAULT_SERVER_REVIVE,
    FaultEvent,
    FaultInjector,
    FaultPlan,
)
from repro.netsim.link import LinkProfile
from repro.netsim.network import Network
from repro.netsim.packet import IpProtocol, udp_packet
from repro.scenarios import build_public_pair, build_two_nats

from tests.chaos import trace_fingerprint
from tests.conftest import repunch_on_break, wire_tap


def _pair(profile=None, seed=1):
    net = Network(seed=seed)
    link = net.create_link("l", profile)
    a = net.add_host("a", ip="10.0.0.1", network="10.0.0.0/24", link=link)
    b = net.add_host("b", ip="10.0.0.2", network="10.0.0.0/24", link=link)
    return net, link, a, b


def _blast(net, a, count, spacing=0.01, start=0.0):
    for i in range(count):
        net.scheduler.call_at(
            start + i * spacing,
            a.send,
            udp_packet(Endpoint("10.0.0.1", 1), Endpoint("10.0.0.2", 2)),
        )


class TestLinkProfileKnobs:
    def test_validation(self):
        with pytest.raises(ValueError):
            LinkProfile(burst_enter=1.5)
        with pytest.raises(ValueError):
            LinkProfile(burst_enter=0.1)  # burst_exit must be > 0 too
        with pytest.raises(ValueError):
            LinkProfile(duplicate=-0.1)
        with pytest.raises(ValueError):
            LinkProfile(reorder=0.5)  # needs reorder_delay > 0

    def test_defaults_draw_no_rng(self):
        """All fault knobs default off: the seeded packet stream must be
        byte-identical to a profile that never heard of them."""

        def arrivals(profile):
            net, link, a, b = _pair(profile, seed=11)
            got = []
            b.register_protocol(IpProtocol.UDP, lambda p: got.append(net.now))
            _blast(net, a, 50)
            net.run()
            return got

        plain = arrivals(LinkProfile(latency=0.05, jitter=0.02, loss=0.1))
        knobby = arrivals(
            LinkProfile(
                latency=0.05, jitter=0.02, loss=0.1,
                burst_enter=0.0, duplicate=0.0, reorder=0.0,
            )
        )
        assert plain == knobby


def _send_from(a, port):
    a.send(udp_packet(Endpoint("10.0.0.1", port), Endpoint("10.0.0.2", 2)))


def _flap_drop_ports(net):
    """Source ports of the flap-dropped packets, in flight-record order."""
    return [
        int(e.attrs["packet"].split(" -> ")[0].rpartition(":")[2])
        for e in net.flight.events()
        if e.kind == "link.drop" and e.attrs["reason"] == "flap-drop"
    ]


class TestLinkUpDown:
    # Both delivery routes: a coalesced batch (plain profile) and one timer
    # per packet (any fault knob, or a flight recorder, leaves the fast path).
    @pytest.mark.parametrize("route", ["batched", "jitter", "flight"])
    def test_down_drops_new_and_in_flight(self, route):
        profile = LinkProfile(latency=0.5, jitter=0.1 if route == "jitter" else 0.0)
        net, link, a, b = _pair(profile)
        if route == "flight":
            net.attach_flight()
        assert link._fast is (route == "batched")
        got = []
        b.register_protocol(IpProtocol.UDP, got.append)
        a.send(udp_packet(Endpoint("10.0.0.1", 1), Endpoint("10.0.0.2", 2)))
        net.scheduler.call_at(0.2, link.down)  # packet still on the wire
        net.scheduler.call_at(0.3, a.send,
                              udp_packet(Endpoint("10.0.0.1", 1), Endpoint("10.0.0.2", 2)))
        net.run()
        assert got == []
        assert link.packets_dropped == 2
        assert link.flap_drops == 2
        assert not link._up
        assert net.scheduler.pending == 0

    def test_down_drops_per_packet_deliveries_then_batches_in_order(self):
        """A link holding both kinds of pending delivery at ``down()`` drops
        the per-packet ones first, in send order, then each batch in the
        order it was opened."""
        plain, jittery = LinkProfile(latency=0.5), LinkProfile(latency=0.5, jitter=0.3)
        net, link, a, b = _pair(plain, seed=5)
        got = []
        b.register_protocol(IpProtocol.UDP, got.append)
        at = net.scheduler.call_at
        at(0.0, _send_from, a, 1)
        at(0.0, _send_from, a, 2)  # first batch: 1, 2
        at(0.1, setattr, link, "profile", jittery)
        at(0.1, _send_from, a, 3)
        at(0.1, _send_from, a, 4)  # per-packet timers
        at(0.2, setattr, link, "profile", plain)
        at(0.2, _send_from, a, 5)  # second batch
        at(0.3, setattr, link, "profile", jittery)
        at(0.3, _send_from, a, 6)  # a per-packet timer younger than a batch
        at(0.4, net.attach_flight)  # records the drops; pending timers stay
        at(0.45, link.down)
        net.run()
        assert got == []
        assert _flap_drop_ports(net) == [3, 4, 6, 1, 2, 5]
        assert link.flap_drops == 6
        assert net.scheduler.pending == 0

    def test_down_inside_a_batch_drops_its_undelivered_rest(self):
        net, link, a, b = _pair(LinkProfile(latency=0.5))
        got = []

        def on_udp(packet):
            got.append(packet.src.port)
            link.down()

        b.register_protocol(IpProtocol.UDP, on_udp)
        for port in (1, 2, 3):  # same tick: one batch
            _send_from(a, port)
        net.attach_flight()
        net.run()
        assert got == [1]
        assert _flap_drop_ports(net) == [2, 3]
        assert link.flap_drops == 2
        assert net.scheduler.pending == 0

    def test_up_restores_delivery(self):
        net, link, a, b = _pair(LinkProfile(latency=0.1))
        got = []
        b.register_protocol(IpProtocol.UDP, got.append)
        link.down()
        link.down()  # idempotent
        link.up()
        a.send(udp_packet(Endpoint("10.0.0.1", 1), Endpoint("10.0.0.2", 2)))
        net.run()
        assert len(got) == 1

    def test_burst_loss_clusters_drops(self):
        profile = LinkProfile(
            latency=0.01, burst_enter=0.05, burst_exit=0.3, burst_loss=1.0
        )
        net, link, a, b = _pair(profile, seed=7)
        delivered = []
        b.register_protocol(IpProtocol.UDP, lambda p: delivered.append(p))
        _blast(net, a, 500)
        net.run()
        assert link.burst_drops > 0
        assert len(delivered) + link.burst_drops == 500
        # The Gilbert-Elliott model must drop in runs, not uniformly: with
        # burst_loss=1.0 a drop's successor is a drop with p=1-burst_exit.
        assert link.burst_drops >= 10

    def test_duplication_delivers_twice(self):
        net, link, a, b = _pair(LinkProfile(latency=0.01, duplicate=1.0), seed=3)
        got = []
        b.register_protocol(IpProtocol.UDP, got.append)
        a.send(udp_packet(Endpoint("10.0.0.1", 1), Endpoint("10.0.0.2", 2)))
        net.run()
        assert len(got) == 2
        assert link.duplicates_delivered == 1

    def test_duplicate_charged_against_bandwidth(self):
        """A duplicated datagram is a real wire packet: it waits behind the
        original in the transmit queue and pays its own serialization charge
        (a 28-byte UDP header at 2240 bps = 0.1 s on the wire each)."""
        profile = LinkProfile(latency=0.01, duplicate=1.0, bandwidth_bps=2240.0)
        net, link, a, b = _pair(profile, seed=3)
        arrivals = []
        b.register_protocol(IpProtocol.UDP, lambda p: arrivals.append(net.now))
        a.send(udp_packet(Endpoint("10.0.0.1", 1), Endpoint("10.0.0.2", 2)))
        net.run()
        # Original: latency + its own 0.1 s serialization.  Duplicate: one
        # extra latency behind the original, plus the 0.1 s queue wait for
        # the wire to free up, plus its own 0.1 s charge.
        assert arrivals == [pytest.approx(0.11), pytest.approx(0.22)]
        assert link.packets_sent == 2
        assert link.bytes_sent == 56  # both copies charged, 28 bytes each

    def test_duplicate_tail_drops_like_any_packet(self):
        """With a tail-drop queue bound tighter than the original's wire
        occupancy, the duplicate's queue wait exceeds the bound and it is
        dropped — a duplicate is not exempt from the queue model."""
        profile = LinkProfile(
            latency=0.01,
            duplicate=1.0,
            bandwidth_bps=2240.0,
            max_queue_delay=0.05,
        )
        net, link, a, b = _pair(profile, seed=3)
        got = []
        b.register_protocol(IpProtocol.UDP, got.append)
        a.send(udp_packet(Endpoint("10.0.0.1", 1), Endpoint("10.0.0.2", 2)))
        net.run()
        assert len(got) == 1  # only the original made it
        assert link.queue_drops == 1
        assert link.duplicates_delivered == 0

    def test_flap_resets_gilbert_elliott_state(self):
        """A link flap tears down the segment's physical state; the
        Gilbert-Elliott chain must restart in the good state instead of
        resuming a pre-flap loss burst."""
        profile = LinkProfile(
            latency=0.01, burst_enter=1.0, burst_exit=0.001, burst_loss=1.0
        )
        net, link, a, b = _pair(profile, seed=3)
        a.send(udp_packet(Endpoint("10.0.0.1", 1), Endpoint("10.0.0.2", 2)))
        net.run()
        assert link._ge_bad  # burst_enter=1.0: the first packet entered the burst
        link.down()
        assert not link._ge_bad
        # up() must also clear it, independently of down(): stale bad state
        # while the link is down must not survive the restart.
        link._ge_bad = True
        link.up()
        assert not link._ge_bad

    def test_reorder_delays_marked_packets(self):
        net, link, a, b = _pair(LinkProfile(latency=0.01, reorder=1.0, reorder_delay=0.5))
        arrivals = []
        b.register_protocol(IpProtocol.UDP, lambda p: arrivals.append(net.now))
        a.send(udp_packet(Endpoint("10.0.0.1", 1), Endpoint("10.0.0.2", 2)))
        net.run()
        assert arrivals == [pytest.approx(0.51)]
        assert link.packets_reordered == 1

    def test_reordering_lets_later_packets_overtake(self):
        profile = LinkProfile(latency=0.01, reorder=0.3, reorder_delay=0.5)
        net, link, a, b = _pair(profile, seed=5)
        order = []
        b.register_protocol(IpProtocol.UDP, lambda p: order.append(p.payload))
        for i in range(20):
            net.scheduler.call_at(
                i * 0.05, a.send,
                udp_packet(Endpoint("10.0.0.1", 1), Endpoint("10.0.0.2", 2),
                           b"%02d" % i),
            )
        net.run()
        assert link.packets_reordered > 0
        assert len(order) == 20
        assert order != sorted(order)  # at least one packet was overtaken


class TestFaultPlan:
    def test_event_validation(self):
        with pytest.raises(ValueError):
            FaultEvent(-1.0, FAULT_NAT_REBOOT, "NAT-A")
        with pytest.raises(ValueError):
            FaultEvent(1.0, "meteor-strike", "earth")

    def test_tuple_entries_and_iteration(self):
        plan = FaultPlan([
            (1.0, "link-down", "l"),
            (2.0, "link-up", "l"),
            FaultEvent(3.0, FAULT_LINK_FLAP, "l", 0.5),
        ])
        assert len(plan.events) == 3
        assert [e.fault for e in plan.events] == ["link-down", "link-up", "link-flap"]
        assert plan.events[1] == FaultEvent(2.0, "link-up", "l")

    def test_scheduled_flap_fires_and_recovers(self):
        net, link, a, b = _pair(LinkProfile(latency=0.01))
        got = []
        b.register_protocol(IpProtocol.UDP, got.append)
        injector = FaultPlan([(1.0, "link-flap", "l", 2.0)]).schedule(net)
        _blast(net, a, 1, start=1.5)   # mid-flap: dropped
        _blast(net, a, 1, start=3.5)   # after recovery: delivered
        net.run()
        assert len(got) == 1
        assert link.flap_drops == 1
        assert [e.fault for e in injector.injected] == ["link-flap"]
        assert net.metrics.counter("faults.injected", fault="link-flap").value == 1

    def test_default_flap_duration(self):
        net, link, a, b = _pair(LinkProfile(latency=0.01))
        FaultPlan([(1.0, "link-flap", "l")]).schedule(net)
        net.run_until(1.0 + DEFAULT_FLAP_SECONDS / 2)
        assert not link._up
        net.run_until(1.0 + DEFAULT_FLAP_SECONDS + 0.1)
        assert link._up

    def test_unknown_targets_raise_at_fire_time(self):
        net, link, a, b = _pair()
        FaultPlan([(1.0, "link-down", "nope")]).schedule(net)
        with pytest.raises(KeyError):
            net.run()
        net2, *_ = _pair()
        FaultPlan([(1.0, "server-restart", "S")]).schedule(net2)
        with pytest.raises(KeyError):
            net2.run()

    def test_injector_repr(self):
        net, *_ = _pair()
        injector = FaultInjector(net)
        assert "injected=0" in repr(injector)


class TestNatReboot:
    def test_reboot_clears_mappings_and_shifts_ports(self):
        sc = build_two_nats(seed=21)
        sc.register_all_udp()
        nat = sc.nats["A"]
        assert len(nat.table) > 0
        old_base = nat.table.port_base
        nat.reset_state()
        assert len(nat.table) == 0
        assert nat.reboots == 1
        assert nat.table.port_base == old_base + nat.REBOOT_PORT_SHIFT
        assert nat.table.mappings_lost_to_reset > 0

    def test_reboot_counts_in_metrics(self):
        sc = build_two_nats(seed=22)
        sc.register_all_udp()
        sc.inject_faults(FaultPlan([(5.0, FAULT_NAT_REBOOT, "A")]))
        sc.run_for(6.0)
        snap = sc.net.metrics.snapshot()
        assert sc.nats["A"].reboots == 1
        assert sc.net.metrics.counter("nat.reboots", node="NAT-A").value == 1

    def test_scenario_label_and_device_name_both_resolve(self):
        sc = build_two_nats(seed=23)
        sc.register_all_udp()
        sc.inject_faults(
            FaultPlan([(1.0, FAULT_NAT_REBOOT, "A"), (2.0, FAULT_NAT_REBOOT, "NAT-B")])
        )
        sc.run_for(3.0)
        assert sc.nats["A"].reboots == 1
        assert sc.nats["B"].reboots == 1


class TestServerRestart:
    def test_keepalive_draws_not_registered_and_client_reregisters(self):
        sc = build_two_nats(seed=31)
        sc.register_all_udp()
        a = sc.clients["A"]
        a.start_server_keepalives(interval=2.0)
        sc.inject_faults(FaultPlan([(5.0, "server-restart", "S")]))
        sc.run_for(4.9)
        assert sc.server.registration(1, TRANSPORT_UDP) is not None
        sc.run_for(0.2)  # restart fires
        assert sc.server.registration(1, TRANSPORT_UDP) is None
        assert sc.server.restarts == 1
        # Next keepalive -> NOT_REGISTERED -> automatic re-registration.
        sc.wait_for(lambda: sc.server.registration(1, TRANSPORT_UDP) is not None, 10.0)
        sc.run_for(1.0)  # let the Registered reply make it back to A
        assert a.udp_registered
        assert a.metrics.counter("client.reregistrations").value >= 1

    def test_auto_reregister_can_be_disabled(self):
        sc = build_two_nats(seed=32)
        sc.register_all_udp()
        a = sc.clients["A"]
        a.auto_reregister = False
        a.start_server_keepalives(interval=2.0)
        sc.inject_faults(FaultPlan([(3.0, "server-restart", "S")]))
        sc.run_for(20.0)
        assert sc.server.registration(1, TRANSPORT_UDP) is None

    @pytest.mark.parametrize("outage", ["restart", "kill-revive"])
    def test_tcp_registration_heals_after_server_outage(self, outage):
        """S drops every control connection (restart) or is gone for a while
        (kill, then revive): the server-keepalive tick re-dials the errored
        control connection until S answers, and TCP connects work again."""
        sc = build_two_nats(seed=7)
        sc.register_all_tcp()
        for c in sc.clients.values():
            c.start_server_keepalives(interval=1.0)
        sc.run_for(2.0)
        if outage == "restart":
            sc.server.restart()
            sc.wait_for(lambda: not any(c.tcp_registered for c in sc.clients.values()), 5.0)
        else:
            sc.server.stop()
            sc.run_for(5.0)
            assert not any(c.tcp_registered for c in sc.clients.values())
            sc.server.start()
        sc.wait_for(lambda: all(c.tcp_registered for c in sc.clients.values()), 10.0)
        assert sc.server.registration(1, TRANSPORT_TCP) is not None
        assert sc.server.registration(2, TRANSPORT_TCP) is not None
        for c in sc.clients.values():
            assert c.control_reconnects >= 1
        result = {}
        sc.clients["B"].on_peer_stream = lambda s: result.setdefault("b", s)
        sc.clients["A"].connect_tcp(
            2,
            on_stream=lambda s: result.setdefault("a", s),
            on_failure=lambda e: result.setdefault("failure", e),
        )
        sc.wait_for(lambda: ("a" in result and "b" in result) or "failure" in result, 60.0)
        assert "a" in result and "b" in result, result.get("failure")


class TestServerKill:
    """S dies outright; what never went through it keeps working, and the
    clients find S again once it is revived."""

    def test_keepalive_acks_are_not_stray(self):
        """S acks every keepalive; the client drops the ack without counting
        it as stray traffic."""
        sc = build_two_nats(seed=303)
        sc.register_all_udp()
        for c in sc.clients.values():
            c.start_server_keepalives(interval=1.0)
        sc.run_for(10.0)
        for c in sc.clients.values():
            assert sc.server.registration(c.client_id, TRANSPORT_UDP).keepalives >= 9
            assert c.stray_messages == 0

    def test_server_kill_and_revive_faults_heal_udp_registration(self):
        """server-kill / server-revive as scripted faults: keepalives fall on
        silence while S is dead, then draw NOT_REGISTERED from the revived S
        and the clients re-register there."""
        sc = build_two_nats(seed=306)
        sc.register_all_udp()
        for c in sc.clients.values():
            c.start_server_keepalives(interval=1.0)
        injector = sc.inject_faults(
            FaultPlan([
                (3.0, FAULT_SERVER_KILL, "S"),
                (20.0, FAULT_SERVER_REVIVE, "S"),
            ])
        )
        sc.run_until(19.0)
        assert sc.server.stopped
        assert sc.server.registration(1, TRANSPORT_UDP) is None
        sc.run_until(30.0)
        assert [e.fault for e in injector.injected] == [
            FAULT_SERVER_KILL,
            FAULT_SERVER_REVIVE,
        ]
        assert not sc.server.stopped
        for c in sc.clients.values():
            assert sc.server.registration(c.client_id, TRANSPORT_UDP) is not None
            assert c.udp_registered

    def test_punched_udp_session_survives_server_kill(self):
        sc = build_two_nats(seed=310)
        config = PunchConfig(keepalive_interval=1.0, broken_after_missed=5)
        for c in sc.clients.values():
            c.punch_config = config
        sc.register_all_udp()
        for c in sc.clients.values():
            c.start_server_keepalives(interval=1.0)
        sessions = {}
        sc.clients["B"].on_peer_session = lambda s: sessions.setdefault("b", s)
        sc.clients["A"].connect_udp(
            2, on_session=lambda s: sessions.setdefault("a", s), config=config
        )
        sc.wait_for(lambda: "a" in sessions and "b" in sessions, 20.0)
        sc.server.stop()
        sc.run_for(10.0)
        # The punched path never touched S: the session outlived it.
        assert sessions["a"].alive and sessions["b"].alive
        got = []
        sessions["b"].on_data = got.append
        sessions["a"].send(b"still here")
        sc.run_for(2.0)
        assert got == [b"still here"]

    def test_punched_tcp_stream_survives_server_kill(self):
        sc = build_two_nats(seed=311)
        sc.register_all_tcp()
        sc.register_all_udp()
        for c in sc.clients.values():
            c.start_server_keepalives(interval=1.0)
        result = {}
        sc.clients["B"].on_peer_stream = lambda s: result.setdefault("b", s)
        sc.clients["A"].connect_tcp(
            2,
            on_stream=lambda s: result.setdefault("a", s),
            on_failure=lambda e: result.setdefault("failure", e),
        )
        sc.wait_for(lambda: ("a" in result and "b" in result) or "failure" in result, 60.0)
        assert "a" in result and "b" in result, result.get("failure")
        sc.server.stop()
        sc.run_for(10.0)
        # The control connections died with S; the punched stream did not.
        # The stream shares its NAT mapping with the control connection (one
        # local port, §4.1), and the NAT closes that mapping on S's RST: the
        # keepalive tick's re-dial toward S is what re-opens it.
        assert not any(c.tcp_registered for c in sc.clients.values())
        assert not result["a"].closed and not result["b"].closed
        got_a, got_b = [], []
        result["a"].on_data = got_a.append
        result["b"].on_data = got_b.append
        result["a"].send(b"tcp survived")
        result["b"].send(b"indeed")
        sc.run_for(2.0)
        assert got_b == [b"tcp survived"] and got_a == [b"indeed"]


class TestRelaySendFailures:
    def test_relay_error_fires_metric_and_callback(self):
        """S restarts and loses B's registration: A's next relayed payload
        draws a structured RelayError instead of blackholing."""
        sc = build_two_nats(seed=320)
        sc.register_all_udp()
        relay = sc.clients["A"].open_relay(2)
        errors = []
        relay.on_error = errors.append
        sc.server.restart()  # amnesia; sockets stay bound
        relay.send(b"into the void")
        sc.wait_for(lambda: errors, 5.0)
        assert relay.send_failures == 1
        assert "unreachable" in str(errors[0])
        assert sc.clients["A"].metrics.counter("relay.send_failures").value == 1
        assert sc.server.relay_send_failures == 1

    def test_relay_error_does_not_disturb_other_sessions(self):
        sc = build_two_nats(seed=321)
        sc.register_all_udp()
        relay = sc.clients["A"].open_relay(2)
        sc.server.restart()
        relay.send(b"bounced")
        sc.run_for(2.0)
        # Only the session's own counter moved; no pending connects were
        # failed, and the client is still considered registered until a
        # keepalive says otherwise.
        assert relay.send_failures == 1
        assert sc.clients["A"].stray_messages == 0


class TestConnectTcpDeadline:
    def test_connect_tcp_fails_in_bounded_time_when_s_silent(self):
        """Parity with connect_udp: S never answering the ConnectRequest must
        fail the attempt within the configured timeout, not hang forever."""
        sc = build_public_pair(seed=330)
        sc.register_all_tcp()
        sc.server.stop()
        failures = []
        started = sc.scheduler.now
        sc.clients["A"].connect_tcp(
            2,
            on_stream=lambda s: failures.append("unexpected-stream"),
            on_failure=failures.append,
            config=TcpPunchConfig(timeout=5.0),
        )
        sc.wait_for(lambda: failures, 30.0)
        assert "timed out" in str(failures[0])
        assert sc.scheduler.now - started == pytest.approx(5.0, abs=1.5)


class TestEndToEndRecovery:
    """§3.6: the library detects a dead session; re-punching on demand is
    the application's, from ``on_broken``."""

    CONFIG = PunchConfig(keepalive_interval=1.0, broken_after_missed=3)

    def _punched(self, seed, config=CONFIG):
        sc = build_two_nats(seed=seed, flight=True)
        for c in sc.clients.values():
            c.punch_config = config
        sc.register_all_udp()
        for c in sc.clients.values():
            # Server keepalives cut a fresh NAT mapping after a reboot, so
            # S learns A's new public endpoint (reg.endpoint_moves).
            c.start_server_keepalives(interval=1.0)
        sessions = {}
        sc.clients["B"].on_peer_session = lambda s: sessions.setdefault("b", s)
        sc.clients["A"].connect_udp(2, on_session=lambda s: sessions.setdefault("a", s))
        sc.wait_for(lambda: "a" in sessions and "b" in sessions, 20.0)
        return sc, sessions["a"]

    def test_nat_reboot_breaks_then_repunch_heals(self):
        """The application route end to end: a mid-session NAT reboot kills
        the hole, keepalive decay fires ``on_broken``, the application calls
        ``connect_udp``, and the new lock-in lands in
        punch.udp.lock_in_seconds."""
        sc, first = self._punched(seed=41)
        a = sc.clients["A"]
        replacement = {}

        def on_broken():
            replacement["broken_at"] = sc.scheduler.now
            a.connect_udp(2, on_session=lambda s: replacement.setdefault("new", s))

        first.on_broken = on_broken
        hist = sc.net.metrics.histogram("punch.udp.lock_in_seconds")
        locks_before = hist.count
        reboot_at = sc.scheduler.now + 2.0
        sc.inject_faults(FaultPlan([(reboot_at, FAULT_NAT_REBOOT, "A")]))

        sc.wait_for(lambda: "new" in replacement, 60.0)
        healed = replacement["new"]
        assert healed is not first
        assert healed.alive and first.broken
        # Detection takes broken_after_missed silent keepalive intervals.
        assert replacement["broken_at"] - reboot_at >= 3.0
        assert sc.server.endpoint_moves >= 1
        assert sc.nats["A"].reboots == 1
        assert hist.count > locks_before  # recovery latency was observed
        assert a.sessions[2] is healed

        # The healed hole carries data both ways (B may lock in a beat later).
        b = sc.clients["B"]
        sc.wait_for(lambda: 1 in b.sessions and b.sessions[1].alive, 10.0)
        got = []
        peer_side = b.sessions[1]
        peer_side.on_data = got.append
        healed.send(b"back from the dead")
        sc.run_for(2.0)
        assert got == [b"back from the dead"]

    def test_repunch_gives_up_after_budget(self):
        """Every re-punch fails in bounded time, so an application's budget
        runs out: two tries with backoff, then it stops asking."""
        config = PunchConfig(keepalive_interval=1.0, broken_after_missed=2, timeout=2.0)
        sc, first = self._punched(seed=42, config=config)
        gave_up = []
        repunch_on_break(
            first, on_session=lambda s: pytest.fail("re-punched across a dead backbone"),
            attempts=2, backoff=0.25, cap=1.0, on_give_up=lambda: gave_up.append(True),
        )
        # Sever both realms from the backbone: nothing can ever re-punch.
        sc.net.links["backbone"].down()
        sc.run_for(120.0)
        assert gave_up == [True]
        assert not first.alive
        connects = [a for a in sc.net.flight.attempts.values() if a.name == "connect.udp"]
        assert [a.outcome for a in connects] == ["connected", "timeout", "timeout"]

    def test_library_detects_but_never_repunches(self):
        """A session breaks with no ``on_broken`` hook: the break is
        recorded, and no new connect opens — no punch, no lookup at S."""
        sc, first = self._punched(seed=43)
        flight, server = sc.net.flight, sc.server.metrics

        def lookups():
            return (
                server.counter_value("rendezvous.lookup.hits"),
                server.counter_value("rendezvous.lookup.misses"),
            )

        def connects():
            return [a for a in flight.attempts.values() if a.name == "connect.udp"]

        def punches():
            # Every UDP punch started: the finished ones by outcome counter,
            # the running ones in the puncher books.
            reg = sc.net.metrics
            running = sum(len(c._punch_books["udp"]) for c in sc.clients.values())
            return (
                reg.counter_value("punch.udp.succeeded")
                + reg.counter_value("punch.udp.failed")
                + running
            )

        connects_before, lookups_before = connects(), lookups()
        punches_before = punches()
        sc.inject_faults(FaultPlan([(sc.scheduler.now + 1.0, FAULT_NAT_REBOOT, "A")]))
        sc.run_for(60.0)
        assert first.broken and not first.alive
        assert any(e.kind == "session.broken" for e in flight.events())
        assert sc.server.endpoint_moves >= 1  # S could have served a lookup
        assert connects() == connects_before
        assert punches() == punches_before
        assert lookups() == lookups_before
        assert 2 not in sc.clients["A"].sessions


class TestFaultedDeterminism:
    def _faulted_trace(self, seed):
        profile = LinkProfile(
            latency=0.02, jitter=0.01, loss=0.02,
            burst_enter=0.02, burst_exit=0.3, burst_loss=1.0,
            duplicate=0.05, reorder=0.05, reorder_delay=0.05,
        )
        config = PunchConfig(keepalive_interval=1.0, broken_after_missed=3)
        sc = build_two_nats(seed=seed, backbone_profile=profile)
        with wire_tap(sc.net) as records:
            for c in sc.clients.values():
                c.punch_config = config
                c.register_udp(max_tries=8)
            sc.wait_for(lambda: all(c.udp_registered for c in sc.clients.values()), 15.0)
            for c in sc.clients.values():
                c.start_server_keepalives(interval=1.0)
            done = {}
            sc.clients["A"].connect_udp(2, on_session=lambda s: done.setdefault("s", s))
            sc.scheduler.run_while(lambda: not done, sc.scheduler.now + 20.0)
            if done:  # the application re-punches up to three times after a break
                repunch_on_break(done["s"], lambda _s: None, attempts=3, backoff=0.5, cap=8.0)
            sc.inject_faults(
                FaultPlan([
                    (sc.scheduler.now + 1.0, "link-flap", "backbone", 0.5),
                    (sc.scheduler.now + 4.0, FAULT_NAT_REBOOT, "A"),
                    (sc.scheduler.now + 12.0, "server-restart", "S"),
                ])
            )
            sc.run_for(30.0)
        return trace_fingerprint(records)

    def test_same_seed_same_faulted_wire_trace(self):
        assert self._faulted_trace(2718) == self._faulted_trace(2718)

    def test_different_seeds_diverge_under_faults(self):
        assert self._faulted_trace(1) != self._faulted_trace(2)
