"""TURN-style relaying (§2.2): allocations, permissions, expiry."""

import pytest

from repro.core.turn import TurnClient, TurnServer
from repro.nat import behavior as B
from repro.nat.device import NatDevice
from repro.netsim.addresses import Endpoint
from repro.netsim.link import BACKBONE_LINK, LAN_LINK
from repro.netsim.network import Network
from repro.transport.stack import attach_stack


def build_turn_world(seed=1, behavior=B.WELL_BEHAVED, lifetime=600.0):
    """TURN server + two NATed clients."""
    net = Network(seed=seed)
    backbone = net.create_link("backbone", BACKBONE_LINK)
    relay_host = net.add_host("relay", ip="30.0.0.1", network="0.0.0.0/0", link=backbone)
    attach_stack(relay_host, rng=net.rng.child("relay"))
    server = TurnServer(relay_host, lifetime=lifetime)
    clients = {}
    for index, (label, pub) in enumerate(
        [("A", "155.99.25.11"), ("B", "138.76.29.7")], start=1
    ):
        nat = NatDevice(f"NAT-{label}", net.scheduler, behavior,
                        rng=net.rng.child(f"nat{label}"))
        net.add_node(nat)
        nat.set_wan(pub, "0.0.0.0/0", backbone)
        lan = net.create_link(f"lan-{label}", LAN_LINK)
        nat.add_lan(f"10.0.{index}.254", f"10.0.{index}.0/24", lan)
        host = net.add_host(label, ip=f"10.0.{index}.1", network=f"10.0.{index}.0/24",
                            link=lan, gateway=f"10.0.{index}.254")
        attach_stack(host, rng=net.rng.child(label))
        clients[label] = TurnClient(host, server.endpoint, client_id=index)
    return net, server, clients


def allocate_both(net, clients):
    endpoints = {}
    for label, client in clients.items():
        client.allocate(lambda ep, l=label: endpoints.setdefault(l, ep))
    net.scheduler.run_while(lambda: len(endpoints) < 2, 10.0)
    assert len(endpoints) == 2
    return endpoints


def test_allocation_returns_public_relay_endpoint():
    net, server, clients = build_turn_world()
    endpoints = allocate_both(net, clients)
    assert str(endpoints["A"].ip) == "30.0.0.1"
    assert str(endpoints["B"].ip) == "30.0.0.1"
    assert endpoints["A"].port != endpoints["B"].port
    assert server.allocations_created == 2


def test_relayed_exchange_between_nated_peers():
    net, server, clients = build_turn_world()
    endpoints = allocate_both(net, clients)
    got = {"A": [], "B": []}
    clients["A"].on_data = lambda src, d: got["A"].append((str(src), d))
    clients["B"].on_data = lambda src, d: got["B"].append((str(src), d))
    # Both install permissions by sending first (TURN semantics).
    clients["A"].send(endpoints["B"], b"a->b")
    clients["B"].send(endpoints["A"], b"b->a")
    net.run_until(net.now + 2)
    # First messages may be dropped for missing permissions; retry.
    clients["A"].send(endpoints["B"], b"a->b 2")
    clients["B"].send(endpoints["A"], b"b->a 2")
    net.run_until(net.now + 2)
    assert any(d == b"a->b 2" for _, d in got["B"])
    assert any(d == b"b->a 2" for _, d in got["A"])
    # Peer-visible source is the peer's relay endpoint, not its NAT mapping.
    assert got["B"][-1][0] == str(endpoints["A"])


def test_permissions_block_unsolicited_inbound():
    net, server, clients = build_turn_world()
    endpoints = allocate_both(net, clients)
    got = []
    clients["A"].on_data = lambda src, d: got.append(d)
    # B never sent via its relay toward A's relay, and A never sent toward
    # B either — B's direct message to A's relay endpoint is unsolicited.
    stranger = net.nodes["relay"]
    probe_sock = clients["B"].socket
    # B sends RAW bytes straight at A's relay endpoint (not via TurnSend).
    probe_sock.sendto(b"unsolicited", endpoints["A"])
    net.run_until(net.now + 2)
    assert got == []
    assert server.rejected_inbound == 1


def test_permissions_open_after_outbound():
    net, server, clients = build_turn_world()
    endpoints = allocate_both(net, clients)
    got = []
    clients["A"].on_data = lambda src, d: got.append((str(src), d))
    # A sends toward B's *NAT-mapped* address? No: A installs permission for
    # B's relay endpoint by sending to it once.
    clients["A"].send(endpoints["B"], b"permission opener")
    net.run_until(net.now + 1)
    clients["B"].send(endpoints["A"], b"now allowed")
    net.run_until(net.now + 2)
    assert any(d == b"now allowed" for _, d in got)


def test_allocation_refresh_and_expiry():
    net, server, clients = build_turn_world(lifetime=30.0)
    endpoints = allocate_both(net, clients)
    # A refreshes; B does not.
    a = clients["A"]
    a._refresh_interval = 10.0
    a._schedule_refresh()
    net.run_until(net.now + 65.0)
    assert server.allocations_expired >= 1
    owners = {alloc.client_id for alloc in server.allocations.values()}
    assert owners == {1}


def test_reallocation_is_idempotent():
    net, server, clients = build_turn_world()
    first = allocate_both(net, clients)
    again = {}
    clients["A"].allocate(lambda ep: again.setdefault("A", ep))
    net.scheduler.run_while(lambda: "A" not in again, 5.0)
    assert again["A"] == first["A"]
    assert server.allocations_created == 2  # no duplicate allocation


def test_allocate_answers_every_waiting_caller_in_order():
    """Two requests before the first TurnAllocated: neither is forgotten."""
    net, server, clients = build_turn_world()
    fired = []
    clients["A"].allocate(lambda ep: fired.append(("first", ep)))
    clients["A"].allocate(lambda ep: fired.append(("second", ep)))
    net.run_until(net.now + 2)
    relay = clients["A"].relay_endpoint
    assert fired == [("first", relay), ("second", relay)]
    assert server.allocations_created == 1


def test_turn_works_behind_symmetric_nats():
    """The §2.2 guarantee relaying exists for: it must work even where hole
    punching cannot."""
    net, server, clients = build_turn_world(seed=3, behavior=B.SYMMETRIC_RANDOM)
    endpoints = allocate_both(net, clients)
    got = []
    clients["B"].on_data = lambda src, d: got.append(d)
    clients["B"].send(endpoints["A"], b"open")  # permission both ways
    clients["A"].send(endpoints["B"], b"via relay")
    net.run_until(net.now + 2)
    assert b"via relay" in got


class TestTurnPairViaPeerClient:
    """connect_via_turn: TURN-to-TURN channels between PeerClients."""

    def _world(self, seed=5, behavior=B.SYMMETRIC_RANDOM, peers=2):
        from repro.core.turn import TurnServer
        from repro.scenarios.topologies import ScenarioBuilder, Scenario

        builder = ScenarioBuilder(seed=seed)
        server = builder.add_server()
        relay_host = builder.add_public_host("relay", "30.0.0.1")
        turn_server = TurnServer(relay_host)
        clients = {}
        for index, (label, pub, prefix) in enumerate(
            [("A", "155.99.25.11", "10.0.0.0/24"), ("B", "138.76.29.7", "10.1.1.0/24"),
             ("C", "99.4.8.15", "10.2.2.0/24")][:peers],
            start=1,
        ):
            nat, lan, gw = builder.add_nat(label, pub, prefix, behavior)
            host = builder.add_client_host(
                label, prefix.replace("0/24", "1"), prefix, lan, gw
            )
            clients[label] = builder.make_client(host, index)
        sc = Scenario(net=builder.net, server=server, clients=clients)
        for c in clients.values():
            c.enable_turn(turn_server.endpoint)
        sc.register_all_udp()
        return sc, turn_server

    def test_turn_pair_defeats_double_symmetric(self):
        """Punching cannot traverse symmetric-random x symmetric-random,
        but the TURN pair channel can (§2.2: relaying always works)."""
        sc, turn_server = self._world()
        a, b = sc.clients["A"], sc.clients["B"]
        result = {}
        b.on_turn_session = lambda s: result.setdefault("b", s)
        a.connect_via_turn(2, on_session=lambda s: result.setdefault("a", s),
                           on_failure=lambda e: result.setdefault("fail", e))
        sc.wait_for(lambda: ("a" in result and "b" in result) or "fail" in result, 30.0)
        assert "a" in result and "b" in result, result.get("fail")
        got = {"a": [], "b": []}
        result["a"].on_data = got["a"].append
        result["b"].on_data = got["b"].append
        result["a"].send(b"through two relays")
        result["b"].send(b"and back")
        sc.run_for(2.0)
        assert got["b"] == [b"through two relays"]
        assert got["a"] == [b"and back"]
        # Both sides hold allocations; the data really crossed the relay.
        assert turn_server.allocations_created == 2

    def test_back_to_back_connects_on_a_fresh_client_both_complete(self):
        """Both requests wait on the same first allocation."""
        sc, turn_server = self._world(seed=9, peers=3)
        a = sc.clients["A"]
        sessions, failures = {}, []
        a.connect_via_turn(2, on_session=lambda s: sessions.setdefault(2, s),
                           on_failure=failures.append)
        a.connect_via_turn(3, on_session=lambda s: sessions.setdefault(3, s),
                           on_failure=failures.append)
        sc.wait_for(lambda: len(sessions) == 2 or failures, 30.0)
        assert sorted(sessions) == [2, 3], failures

    def test_turn_pair_source_is_peer_relay(self):
        sc, turn_server = self._world(seed=6)
        a, b = sc.clients["A"], sc.clients["B"]
        result = {}
        b.on_turn_session = lambda s: result.setdefault("b", s)
        a.connect_via_turn(2, on_session=lambda s: result.setdefault("a", s))
        sc.wait_for(lambda: "a" in result and "b" in result, 30.0)
        assert str(result["a"].peer_relay.ip) == "30.0.0.1"
        assert str(result["b"].peer_relay.ip) == "30.0.0.1"
        assert result["a"].peer_relay != result["b"].peer_relay

    def test_turn_connect_requires_enable(self):
        from repro.scenarios import build_two_nats
        from repro.util.errors import ReproError

        sc = build_two_nats(seed=7)
        sc.register_all_udp()
        with pytest.raises(ReproError):
            sc.clients["A"].connect_via_turn(2, on_session=lambda s: None)

    def test_turn_connect_times_out_without_peer_turn(self):
        from repro.core.turn import TurnServer
        from repro.scenarios import build_two_nats

        sc = build_two_nats(seed=8)
        relay_host = sc.net.add_host("relay", ip="30.0.0.1", network="0.0.0.0/0",
                                     link=sc.net.links["backbone"])
        from repro.transport.stack import attach_stack
        attach_stack(relay_host)
        turn_server = TurnServer(relay_host)
        sc.clients["A"].enable_turn(turn_server.endpoint)  # B has no TURN
        sc.register_all_udp()
        failures = []
        sc.clients["A"].connect_via_turn(2, on_session=lambda s: None,
                                         on_failure=failures.append, timeout=5.0)
        sc.wait_for(lambda: failures, 15.0)
        assert "timed out" in str(failures[0])
