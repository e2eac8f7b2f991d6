"""Rendezvous server: registration, endpoint exchange, relay, errors."""

import pytest

from repro.core.protocol import TRANSPORT_TCP, TRANSPORT_UDP
from repro.scenarios import build_public_pair, build_two_nats
from repro.util.errors import ReproError


class TestUdpRegistration:
    def test_server_records_both_endpoints(self):
        sc = build_two_nats(seed=1)
        sc.register_all_udp()
        reg_a = sc.server.registration(1, TRANSPORT_UDP)
        assert str(reg_a.private_ep) == "10.0.0.1:4321"
        assert str(reg_a.public_ep) == "155.99.25.11:62000"
        assert reg_a.behind_nat

    def test_public_client_endpoints_identical(self):
        """§3.1: no NAT => private and public endpoints are the same."""
        sc = build_public_pair(seed=2)
        sc.register_all_udp()
        reg = sc.server.registration(1, TRANSPORT_UDP)
        assert reg.public_ep == reg.private_ep
        assert not reg.behind_nat
        assert sc.clients["A"].behind_nat_udp is False

    def test_client_learns_its_public_endpoint(self):
        sc = build_two_nats(seed=3)
        sc.register_all_udp()
        assert str(sc.clients["A"].udp_public) == "155.99.25.11:62000"
        assert sc.clients["A"].behind_nat_udp is True

    def test_reregistration_updates(self):
        sc = build_two_nats(seed=4)
        sc.register_all_udp()
        first = sc.server.registration(1, TRANSPORT_UDP).public_ep
        sc.clients["A"].register_udp()
        sc.run_for(2.0)
        assert sc.server.registration(1, TRANSPORT_UDP).public_ep == first

    def test_registration_retries_cover_loss(self):
        from repro.netsim.link import LinkProfile
        from repro.scenarios.topologies import ScenarioBuilder

        # A very lossy backbone: retries must still get us registered.
        sc = build_two_nats(seed=5, backbone_profile=LinkProfile(latency=0.01, loss=0.4))
        for c in sc.clients.values():
            c.register_udp(max_tries=10)
        sc.wait_for(lambda: all(c.udp_registered for c in sc.clients.values()), 15.0)


class TestKeepalive:
    def test_keepalive_refreshes_last_seen(self):
        sc = build_two_nats(seed=6)
        sc.register_all_udp()
        a = sc.clients["A"]
        a.start_server_keepalives(interval=5.0)
        sc.run_for(16.0)
        reg = sc.server.registration(1, TRANSPORT_UDP)
        assert reg.keepalives >= 3
        assert reg.last_seen > reg.registered_at
        a.stop_server_keepalives()
        before = reg.keepalives
        sc.run_for(20.0)
        assert sc.server.registration(1, TRANSPORT_UDP).keepalives == before


class TestConnectExchange:
    def test_both_sides_receive_endpoints(self):
        sc = build_two_nats(seed=7)
        sc.register_all_udp()
        got = {}
        sc.clients["B"].on_peer_session = lambda s: got.setdefault("b", s)
        sc.clients["A"].connect_udp(2, on_session=lambda s: got.setdefault("a", s))
        sc.wait_for(lambda: "a" in got and "b" in got, 15.0)
        assert got["a"].peer_id == 2
        assert got["b"].peer_id == 1
        assert got["a"].nonce == got["b"].nonce  # shared pairing nonce

    def test_unknown_peer_fails(self):
        sc = build_two_nats(seed=8)
        sc.register_all_udp()
        failures = []
        sc.clients["A"].connect_udp(99, on_session=lambda s: None,
                                    on_failure=failures.append)
        sc.wait_for(lambda: failures, 10.0)
        assert "not registered" in str(failures[0])
        assert sc.server.errors_sent == 1

    def test_connect_before_registration_raises(self):
        sc = build_two_nats(seed=9)
        with pytest.raises(ReproError):
            sc.clients["A"].connect_udp(2, on_session=lambda s: None)

    def test_existing_session_returned_immediately(self):
        sc = build_two_nats(seed=10)
        sc.register_all_udp()
        got = []
        sc.clients["A"].connect_udp(2, on_session=got.append)
        sc.wait_for(lambda: got, 15.0)
        requests_before = sc.server.connect_requests
        sc.clients["A"].connect_udp(2, on_session=got.append)
        sc.run_for(1.0)
        assert len(got) == 2 and got[0] is got[1]
        assert sc.server.connect_requests == requests_before  # no new exchange


class TestConnectDeadline:
    @pytest.mark.parametrize("transport", ["udp", "tcp"])
    def test_settled_requests_deadline_spares_the_next_request(self, transport):
        """A request's deadline timer is never cancelled; once that request
        is settled it must not fail a later request to the same peer."""
        from repro.core.tcp_punch import TcpPunchConfig
        from repro.core.udp_punch import PunchConfig
        from repro.util.errors import TimeoutError_

        sc = build_two_nats(seed=3)
        a = sc.clients["A"]
        if transport == "udp":
            sc.register_all_udp()
            connect, config = a.connect_udp, PunchConfig(timeout=10.0)
        else:
            sc.register_all_tcp()
            connect, config = a.connect_tcp, TcpPunchConfig(timeout=10.0)
        channels, failures = [], []
        connect(2, channels.append, config=config)  # t = 0: deadline armed for t = 10
        sc.wait_for(lambda: channels, 5.0)
        sc.run_until(5.0)
        channels[0].close()
        sc.run_until(6.0)
        sc.server._handle_connect = lambda *args, **kwargs: None  # S goes silent
        connect(2, channels.append,
                lambda error: failures.append((sc.scheduler.now, error)), config=config)
        sc.run_until(15.9)
        assert failures == []  # not at t = 10, the first request's deadline
        sc.run_until(16.1)
        assert len(failures) == 1 and isinstance(failures[0][1], TimeoutError_)
        assert failures[0][0] == pytest.approx(16.0)


class TestTcpRegistration:
    def test_tcp_registration_records_connection_endpoint(self):
        sc = build_two_nats(seed=11)
        sc.register_all_tcp()
        reg = sc.server.registration(1, TRANSPORT_TCP)
        assert str(reg.public_ep) == "155.99.25.11:62000"
        assert str(reg.private_ep) == "10.0.0.1:4321"

    def test_udp_and_tcp_registrations_independent(self):
        sc = build_two_nats(seed=12)
        sc.register_all_udp()
        assert sc.server.registration(1, TRANSPORT_TCP) is None
        sc.register_all_tcp()
        assert sc.server.registration(1, TRANSPORT_TCP) is not None


class TestRelay:
    def test_relay_round_trip_udp(self):
        sc = build_two_nats(seed=13)
        sc.register_all_udp()
        a, b = sc.clients["A"], sc.clients["B"]
        echoes = []

        def on_session(s):
            s.on_data = lambda d: s.send(b"echo:" + d)

        b.on_relay_session = on_session
        relay = a.open_relay(2)
        got = []
        relay.on_data = got.append
        relay.send(b"abc")
        sc.run_for(2.0)
        assert got == [b"echo:abc"]
        assert relay.bytes_sent == 3
        assert relay.bytes_received == 8
        assert sc.server.relayed_messages == 2
        assert sc.server.relayed_bytes == 11

    def test_relay_over_tcp_control(self):
        sc = build_two_nats(seed=14)
        sc.register_all_tcp()
        a, b = sc.clients["A"], sc.clients["B"]
        got = []
        b.on_relay_session = lambda s: setattr(s, "on_data", got.append)
        relay = a.open_relay(2, TRANSPORT_TCP)
        relay.send(b"framed over control conns")
        sc.run_for(2.0)
        assert got == [b"framed over control conns"]

    def test_relay_to_unregistered_peer_dropped(self):
        sc = build_two_nats(seed=15)
        sc.register_all_udp()
        relay = sc.clients["A"].open_relay(99)
        relay.send(b"nowhere")
        sc.run_for(1.0)
        assert sc.server.relayed_messages == 0

    def test_relay_always_works_behind_symmetric_nats(self):
        """§2.2: relaying is the fallback that works on any NAT."""
        from repro.nat import behavior as B

        sc = build_two_nats(seed=16, behavior_a=B.SYMMETRIC_RANDOM,
                            behavior_b=B.SYMMETRIC_RANDOM)
        sc.register_all_udp()
        got = []
        sc.clients["B"].on_relay_session = lambda s: setattr(s, "on_data", got.append)
        sc.clients["A"].open_relay(2).send(b"through S")
        sc.run_for(2.0)
        assert got == [b"through S"]

    def test_closed_relay_rejects_send(self):
        sc = build_two_nats(seed=17)
        sc.register_all_udp()
        relay = sc.clients["A"].open_relay(2)
        relay.close()
        with pytest.raises(ValueError):
            relay.send(b"x")
        fresh = sc.clients["A"].open_relay(2)
        assert fresh is not relay


# -- carrier x transport -------------------------------------------------------

#: Server-to-client control messages the carrier tests look for (punch
#: traffic the endpoint exchange kicks off is not their subject).
_CONTROL_REPLIES = ("PeerEndpoints", "RendezvousError", "RelayError",
                    "ReverseExpect", "ReverseConnect")


def _carrier_rig(seed):
    """Two NATed clients registered on both carriers, every control message
    each receives logged as ``(where, channel, message type)``; ``aux`` is a
    second UDP socket on A's host, so a datagram sent from it has a source
    that is *not* A's registered public endpoint."""
    from repro.core import protocol

    sc = build_two_nats(seed=seed)
    sc.register_all_udp()
    sc.register_all_tcp()
    log = []

    def note(where, channel, message):
        name = type(message).__name__
        if name in _CONTROL_REPLIES:
            log.append((where, channel, name))

    for name, client in sc.clients.items():
        def on_udp(data, src, name=name, inner=client.udp_socket.on_datagram):
            note(name, "udp", protocol.try_decode(data))
            inner(data, src)

        def on_tcp(message, name=name, inner=client._dispatch_server_tcp):
            note(name, "tcp", message)
            inner(message)

        client.udp_socket.on_datagram = on_udp
        client._dispatch_server_tcp = on_tcp
    aux = sc.clients["A"].host.stack.udp.socket(5000)
    aux.on_datagram = lambda data, src: note("A-aux", "udp", protocol.try_decode(data))

    def send(carrier, message):
        if carrier == "udp":
            aux.sendto(protocol.encode(message), sc.server.endpoint)
        else:
            sc.clients["A"]._send_server_tcp(message)
        sc.run_for(0.5)
        return sorted(log)

    return sc, send


class TestCarrierCrossProduct:
    """A reply leaves on the channel its *transport* names; the carrier the
    request arrived on is used only when it is that kind of channel."""

    @pytest.mark.parametrize("carrier,transport,expected", [
        # Same kind: the requester's copy answers the datagram's source /
        # the control connection the request came in on.
        ("udp", TRANSPORT_UDP, [("A-aux", "udp"), ("B", "udp")]),
        ("tcp", TRANSPORT_TCP, [("A", "tcp"), ("B", "tcp")]),
        # Mixed: the carrier cannot bear the reply, so the requester's copy
        # falls back to its registration on the other plane.
        ("tcp", TRANSPORT_UDP, [("A", "udp"), ("B", "udp")]),
        ("udp", TRANSPORT_TCP, [("A", "tcp"), ("B", "tcp")]),
    ])
    def test_connect_request(self, carrier, transport, expected):
        from repro.core.protocol import ConnectRequest

        sc, send = _carrier_rig(seed=21)
        got = send(carrier, ConnectRequest(requester_id=1, target_id=2, transport=transport))
        assert got == [(where, channel, "PeerEndpoints") for where, channel in expected]
        assert sc.server.errors_sent == 0

    @pytest.mark.parametrize("carrier,transport,expected", [
        ("udp", TRANSPORT_UDP, ("A-aux", "udp")),
        ("tcp", TRANSPORT_TCP, ("A", "tcp")),
        # An error answers the request itself, whatever transport it named.
        ("tcp", TRANSPORT_UDP, ("A", "tcp")),
        ("udp", TRANSPORT_TCP, ("A-aux", "udp")),
    ])
    def test_connect_request_unknown_target(self, carrier, transport, expected):
        from repro.core.protocol import ConnectRequest

        sc, send = _carrier_rig(seed=22)
        got = send(carrier, ConnectRequest(requester_id=1, target_id=99, transport=transport))
        assert got == [expected + ("RendezvousError",)]
        assert sc.server.errors_sent == 1

    @pytest.mark.parametrize("carrier,expected", [
        ("udp", ("A-aux", "udp")),
        ("tcp", ("A", "tcp")),
    ])
    def test_relay_to_unknown_target(self, carrier, expected):
        from repro.core.protocol import RelayPayload

        sc, send = _carrier_rig(seed=23)
        got = send(carrier, RelayPayload(sender=1, target=99, payload=b"x"))
        assert got == [expected + ("RelayError",)]
        assert sc.server.relay_send_failures == 1
        assert sc.server.relayed_messages == 0

    @pytest.mark.parametrize("carrier,expected", [
        ("udp", ("A-aux", "udp")),
        ("tcp", ("A", "tcp")),
    ])
    def test_reverse_request_unregistered_peer(self, carrier, expected):
        from repro.core.protocol import ReverseRequest

        sc, send = _carrier_rig(seed=24)
        got = send(carrier, ReverseRequest(requester_id=1, target_id=99))
        assert got == [expected + ("RendezvousError",)]

    @pytest.mark.parametrize("carrier", ["udp", "tcp"])
    def test_reverse_request_rides_control_connections(self, carrier):
        """Reversal is TCP-plane signalling even when asked for by datagram."""
        from repro.core.protocol import ReverseRequest

        sc, send = _carrier_rig(seed=25)
        got = send(carrier, ReverseRequest(requester_id=1, target_id=2))
        assert got == [("A", "tcp", "ReverseExpect"), ("B", "tcp", "ReverseConnect")]
