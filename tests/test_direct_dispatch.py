"""Mid-run binding perturbations: batched vs per-packet delivery identity.

Every packet leaves a link through ``receiver.receive()``; the fast gate
only picks whether the delivery rides a coalesced batch or its own timer.
Any binding change — transport stack detach/attach, socket close/rebind, a
NAT reboot — must therefore produce observables identical to a run with
``Link.fast_path_enabled`` off.

Every scenario here perturbs bindings *mid-run*: packets are already in
flight when the binding changes, so a delivery that resolved its target
anywhere but at fire time would mis-deliver.  Each test asserts
fast-vs-slow observable identity plus a non-vacuousness witness that the
perturbation really bit.
"""

import contextlib

from repro.nat import behavior as B
from repro.nat.device import NatDevice
from repro.netsim.addresses import Endpoint
from repro.netsim.link import LAN_LINK, Link
from repro.netsim.network import Network
from repro.transport.stack import attach_stack
from tests.conftest import detach_stack

PACKETS = 80
SEND_SPACING = 0.0005  # 80 datagrams over 40ms; perturbations land mid-stream


@contextlib.contextmanager
def _fast_path(enabled: bool):
    prior = Link.fast_path_enabled
    Link.fast_path_enabled = enabled
    try:
        yield
    finally:
        Link.fast_path_enabled = prior


def _build(seed: int = 1, serve: bool = True):
    """The NAT echo topology; ``serve=False`` leaves the server stackless."""
    net = Network(seed=seed)
    backbone = net.create_link("backbone")
    server = net.add_host("S", ip="18.181.0.31", network="0.0.0.0/0", link=backbone)
    nat = NatDevice("NAT", net.scheduler, B.WELL_BEHAVED, rng=net.rng.child("n"))
    net.add_node(nat)
    nat.set_wan("155.99.25.11", "0.0.0.0/0", backbone)
    lan = net.create_link("lan", LAN_LINK)
    nat.add_lan("10.0.0.254", "10.0.0.0/24", lan)
    client = net.add_host(
        "C", ip="10.0.0.1", network="10.0.0.0/24", link=lan, gateway="10.0.0.254"
    )
    attach_stack(client)
    echo = None
    if serve:
        attach_stack(server)
        echo = server.stack.udp.socket(1234)
        echo.on_datagram = echo.sendto
    return net, backbone, lan, nat, client, server, echo


def _run_until_slices(net):
    while net.now < 5.0:
        net.run_until(min(5.0, net.now + 0.0007))


def _run_while(net):
    net.scheduler.run_while(lambda: True, 5.0)


#: Every scenario is driven both ways: deadline slices that cut the packet
#: stream at arbitrary instants, and the predicate loop (one predicate check
#: per event, so coalesced batches are entered one delivery at a time).
DRIVERS = (_run_until_slices, _run_while)


def _run(perturb=None, serve: bool = True, drive=_run_until_slices):
    net, backbone, lan, nat, client, server, echo = _build(serve=serve)
    arrivals = []
    sock = client.stack.udp.socket(4321)
    sock.on_datagram = lambda data, src: arrivals.append((net.now, data, str(src)))
    dest = Endpoint("18.181.0.31", 1234)
    for i in range(PACKETS):
        net.scheduler.call_at(i * SEND_SPACING, sock.sendto, b"%04d" % i, dest)
    if perturb is not None:
        perturb(net, nat, client, server, echo)
    drive(net)
    observables = {
        "arrivals": arrivals,
        "now": net.now,
        "events_fired": net.scheduler.events_fired,
        "lan": (lan.packets_sent, lan.bytes_sent, lan.packets_dropped),
        "backbone": (
            backbone.packets_sent,
            backbone.bytes_sent,
            backbone.packets_dropped,
        ),
        "nat": (
            nat.translations_out,
            nat.translations_in,
            nat.packets_received,
            nat.packets_dropped,
            nat.reboots,
        ),
        "server": (server.packets_received, server.packets_dropped),
        "client": (client.packets_received, client.packets_dropped),
        "client_udp": (
            client.stack.udp.datagrams_sent,
            client.stack.udp.datagrams_received,
        ),
    }
    if getattr(server, "stack", None) is not None:
        observables["server_udp"] = (
            server.stack.udp.datagrams_received,
            server.stack.udp.packets_dropped,
        )
    return observables


def _both(perturb=None, serve: bool = True):
    """Run the scenario on the fast path and the slow path under each
    driver; assert identity."""
    runs = []
    for enabled in (True, False):
        with _fast_path(enabled):
            runs.extend(_run(perturb, serve=serve, drive=drive) for drive in DRIVERS)
    assert all(run == runs[0] for run in runs[1:])
    return runs[0]


class TestStackDetachMidRun:
    def test_cached_entries_fall_back_and_drop(self):
        def perturb(net, nat, client, server, echo):
            net.scheduler.call_at(0.02, detach_stack, server)

        obs = _both(perturb)
        # Echoes before the detach arrived; datagrams after it drop at the
        # (now handler-less) host instead of landing in the detached stack.
        assert 0 < len(obs["arrivals"]) < PACKETS
        assert obs["server"][1] > 0


class TestStackAttachMidRun:
    def test_never_valid_entries_refresh_after_attach(self):
        # Until the stack attaches, datagrams drop at the handler-less
        # host; the ones in flight when it attaches land in the new socket.
        def perturb(net, nat, client, server, echo):
            def attach():
                attach_stack(server)
                fresh = server.stack.udp.socket(1234)
                fresh.on_datagram = fresh.sendto

            net.scheduler.call_at(0.02, attach)

        obs = _both(perturb, serve=False)
        assert 0 < len(obs["arrivals"]) < PACKETS
        assert obs["server"][1] > 0  # the pre-attach datagrams dropped


class TestSocketCloseRebindMidRun:
    def test_close_drops_then_rebind_resumes(self):
        def perturb(net, nat, client, server, echo):
            net.scheduler.call_at(0.015, echo.close)

            def rebind():
                fresh = server.stack.udp.socket(1234)
                fresh.on_datagram = fresh.sendto

            net.scheduler.call_at(0.03, rebind)

        obs = _both(perturb)
        assert 0 < len(obs["arrivals"]) < PACKETS
        assert obs["server_udp"][1] > 0  # closed-window datagrams hit the demux drop
        assert obs["arrivals"][-1][0] > 0.03  # traffic resumed on the new socket


class TestNatRebootMidRun:
    def test_reboot_drops_stale_sessions_then_recovers(self):
        def perturb(net, nat, client, server, echo):
            net.scheduler.call_at(0.02, nat.reset_state)

        obs = _both(perturb)
        assert obs["nat"][4] == 1  # the reboot really happened
        # Replies in flight toward the pre-reboot public mapping die
        # unmatched; the next outbound datagram rebuilds a mapping on the
        # shifted port range and the echo stream resumes.
        assert 0 < len(obs["arrivals"]) < PACKETS
        assert obs["arrivals"][-1][0] > 0.02

