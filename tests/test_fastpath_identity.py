"""Identity suite for the statistical link fast path.

The fast path (``Link._fast``, gated by :meth:`Link._refresh_fast_path`) must
be *observably inert*: flipping the class-wide ``Link.fast_path_enabled``
switch off may change only wall-clock time, never a single observable — not
a delivery time, not a counter, not a flight-recorder event.  This suite
pins that property three ways:

* the six ``--explain`` post-mortem scenarios, byte-identical flight
  timelines and rendered verdicts either way;
* the NAT echo workload (the ``nat_packets_per_second`` bench topology),
  identical arrival timelines and counters either way;
* a plain-profile echo run whose flight recorder attaches mid-run, so the
  gate flips while batches are in flight — the arrival timeline and the
  flight log must match a run that never used the fast path at all.

The packet pool (:data:`repro.netsim.packet.PACKET_POOL`) is held to the
same standard along a second axis: every scenario above must also be
byte-identical with recycling on versus off (``TestPoolingIdentity``).
"""

import contextlib

import pytest

from repro.analysis.explain import SCENARIOS, explain_scenario
from repro.nat import behavior as B
from repro.nat.device import NatDevice
from repro.netsim.addresses import Endpoint
from repro.netsim.link import LAN_LINK, Link, LinkProfile
from repro.netsim.network import Network
from repro.netsim.packet import PACKET_POOL
from repro.obs.attribution import render_verdict
from repro.obs.flight_export import to_jsonl
from repro.transport.stack import attach_stack


@contextlib.contextmanager
def _fast_path(enabled: bool):
    prior = Link.fast_path_enabled
    Link.fast_path_enabled = enabled
    try:
        yield
    finally:
        Link.fast_path_enabled = prior


@contextlib.contextmanager
def _pool(enabled: bool):
    prior = PACKET_POOL.enabled
    if enabled:
        PACKET_POOL.enable()
    else:
        PACKET_POOL.disable()
    try:
        yield
    finally:
        if prior:
            PACKET_POOL.enable()
        else:
            PACKET_POOL.disable()


def _build_echo(seed: int = 1):
    """The bench_packets topology: client behind one NAT, echo server."""
    net = Network(seed=seed)
    backbone = net.create_link("backbone")
    server = net.add_host("S", ip="18.181.0.31", network="0.0.0.0/0", link=backbone)
    attach_stack(server)
    nat = NatDevice("NAT", net.scheduler, B.WELL_BEHAVED, rng=net.rng.child("n"))
    net.add_node(nat)
    nat.set_wan("155.99.25.11", "0.0.0.0/0", backbone)
    lan = net.create_link("lan", LAN_LINK)
    nat.add_lan("10.0.0.254", "10.0.0.0/24", lan)
    client = net.add_host(
        "C", ip="10.0.0.1", network="10.0.0.0/24", link=lan, gateway="10.0.0.254"
    )
    attach_stack(client)
    echo = server.stack.udp.socket(1234)
    echo.on_datagram = echo.sendto
    return net, backbone, lan, nat, client, server


class TestFastPathGate:
    def test_engages_on_plain_profile_only(self):
        net = Network(seed=1)
        plain = net.create_link("plain", LAN_LINK)
        lossy = net.create_link("lossy", LinkProfile(latency=0.01, loss=0.1))
        shaped = net.create_link(
            "shaped", LinkProfile(latency=0.01, bandwidth_bps=1e6)
        )
        assert plain._fast
        assert not lossy._fast
        assert not shaped._fast

    def test_invalidated_by_flight_not_by_flap(self):
        """A flap leaves the gate alone: ``transmit`` tests link state
        before it, so a down link drops on either route."""
        net = Network(seed=1)
        link = net.create_link("l", LAN_LINK)
        assert link._fast
        link.down()
        assert link._fast
        link.up()
        assert link._fast
        net.attach_flight()
        assert not link._fast

    def test_class_switch_disables(self):
        net = Network(seed=1)
        link = net.create_link("l", LAN_LINK)
        with _fast_path(False):
            link._refresh_fast_path()
            assert not link._fast
        link._refresh_fast_path()
        assert link._fast


class TestExplainScenarioIdentity:
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_flight_timeline_identical_either_path(self, name):
        def run(enabled):
            with _fast_path(enabled):
                recorder, verdicts = explain_scenario(name, seed=7)
            return to_jsonl(recorder), [render_verdict(v) for v in verdicts]

        fast_jsonl, fast_verdicts = run(True)
        slow_jsonl, slow_verdicts = run(False)
        assert fast_verdicts == slow_verdicts
        assert fast_jsonl == slow_jsonl  # byte-identical timeline


class TestEchoWorkloadIdentity:
    @staticmethod
    def _run(packets: int = 200):
        net, backbone, lan, nat, client, server = _build_echo()
        arrivals = []
        sock = client.stack.udp.socket(4321)
        sock.on_datagram = lambda d, src: arrivals.append((net.now, d, str(src)))
        dest = Endpoint("18.181.0.31", 1234)
        # Half the datagrams burst at t=0 (coalesce into one batch per link),
        # half staggered onto distinct ticks (one batch each) — both append
        # rules get exercised.
        for i in range(packets // 2):
            sock.sendto(b"%04d" % i, dest)
        for i in range(packets // 2, packets):
            net.scheduler.call_at(i * 0.0001, sock.sendto, b"%04d" % i, dest)
        net.run_until(5.0)
        assert len(arrivals) == packets
        return {
            "arrivals": arrivals,
            "events_fired": net.scheduler.events_fired,
            "lan": (lan.packets_sent, lan.bytes_sent, lan.sent_by_proto),
            "backbone": (
                backbone.packets_sent,
                backbone.bytes_sent,
                backbone.sent_by_proto,
            ),
            "nat": (
                nat.translations_out,
                nat.translations_in,
                nat.packets_received,
                nat.packets_dropped,
            ),
            "client": (client.packets_received, client.packets_dropped),
            "server": (server.packets_received, server.packets_dropped),
        }

    def test_observables_identical_either_path(self):
        with _fast_path(True):
            fast = self._run()
        with _fast_path(False):
            slow = self._run()
        assert fast == slow


class TestPoolingIdentity:
    """Packet recycling must be observably inert, like the fast path itself.

    ``disable()`` empties the free list, collapsing acquire to plain
    allocation; packet ids come off the global counter either way, so the
    pooled and unpooled runs must agree on every observable.
    """

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_explain_timeline_identical_pooled_or_not(self, name):
        def run(pooled):
            with _pool(pooled):
                recorder, verdicts = explain_scenario(name, seed=7)
            return to_jsonl(recorder), [render_verdict(v) for v in verdicts]

        pooled_jsonl, pooled_verdicts = run(True)
        plain_jsonl, plain_verdicts = run(False)
        assert pooled_verdicts == plain_verdicts
        assert pooled_jsonl == plain_jsonl  # byte-identical timeline

    def test_echo_observables_identical_pooled_or_not(self):
        with _pool(True):
            pooled = TestEchoWorkloadIdentity._run()
        with _pool(False):
            plain = TestEchoWorkloadIdentity._run()
        assert pooled == plain

    def test_pooled_echo_recycles_even_under_poison(self):
        # Non-vacuousness witness for the identity above: the pooled echo
        # run really does recycle, and stays correct with poison mode
        # arming every recycled carcass to explode on stale access.
        prior = PACKET_POOL.debug_poison
        PACKET_POOL.debug_poison = True
        try:
            with _pool(True):
                before = PACKET_POOL.released
                TestEchoWorkloadIdentity._run()
                assert PACKET_POOL.released > before
        finally:
            PACKET_POOL.debug_poison = prior


class TestMidRunGateFlip:
    @staticmethod
    def _run(packets: int = 120):
        net, backbone, lan, nat, client, server = _build_echo()
        arrivals, gates = [], []
        sock = client.stack.udp.socket(4321)
        sock.on_datagram = lambda d, src: arrivals.append((net.now, d))
        dest = Endpoint("18.181.0.31", 1234)
        # Every tenth datagram also goes to a LAN address nobody owns: the
        # lan link drops it, which the flight log records once attached.
        dark = Endpoint("10.0.0.99", 1234)
        for i in range(packets):
            net.scheduler.call_at(i * 0.0005, sock.sendto, b"%04d" % i, dest)
            if i % 10 == 0:
                net.scheduler.call_at(i * 0.0005, sock.sendto, b"dark", dark)
        # The recorder attaches mid-traffic: on the fast-path run it flips
        # every link's gate at this instant, with batches still in flight.
        net.scheduler.call_at(0.03, lambda: gates.append(backbone._fast))
        net.scheduler.call_at(0.03, net.attach_flight)
        net.scheduler.call_at(0.03, lambda: gates.append(backbone._fast))
        net.run_until(5.0)
        assert len(arrivals) == packets
        return arrivals, to_jsonl(net.flight), gates

    def test_arrivals_identical_either_path(self):
        with _fast_path(True):
            fast_arrivals, fast_log, fast_gates = self._run()
        with _fast_path(False):
            slow_arrivals, slow_log, slow_gates = self._run()
        assert fast_gates == [True, False]  # the flip happened mid-run
        assert slow_gates == [False, False]
        assert fast_arrivals == slow_arrivals
        assert '"link.drop"' in fast_log  # the log is not vacuous
        assert fast_log == slow_log
