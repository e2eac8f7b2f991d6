"""Property-based tests on core invariants (hypothesis)."""

import functools

from hypothesis import example, given, settings, strategies as st

from repro.nat.mapping import NatTable, mapping_key
from repro.nat.policy import MappingPolicy, PortAllocation
from repro.netsim.addresses import Endpoint, is_private
from repro.netsim.clock import Scheduler
from repro.netsim.packet import IpProtocol
from repro.transport.tcp import SEQ_MOD, seq_add, seq_diff, seq_ge
from repro.util.rng import SeededRng

public_ips = st.integers(0x01000000, 0x09FFFFFF)  # 1.0.0.0 - 9.255.255.255
ports = st.integers(1, 0xFFFF)
remote_endpoints = st.builds(Endpoint, public_ips, ports)


def fresh_table(allocation=PortAllocation.SEQUENTIAL):
    return NatTable(
        scheduler=Scheduler(),
        public_ip="155.99.25.11",
        allocation=allocation,
        port_base=62000,
        rng=SeededRng(7, "prop"),
    )


@given(st.lists(remote_endpoints, min_size=1, max_size=30))
@settings(max_examples=50)
def test_cone_nat_single_public_endpoint_for_any_destinations(remotes):
    """§5.1 invariant: a cone NAT maps one private endpoint to exactly one
    public endpoint no matter the destination sequence."""
    table = fresh_table()
    private = Endpoint("10.0.0.1", 4321)
    publics = set()
    for remote in remotes:
        mapping = table.lookup_outbound(
            MappingPolicy.ENDPOINT_INDEPENDENT, IpProtocol.UDP, private, remote
        )
        if mapping is None:
            mapping = table.create(
                MappingPolicy.ENDPOINT_INDEPENDENT, IpProtocol.UDP, private, remote, 60
            )
        mapping.note_outbound(remote, 0.0)
        publics.add(mapping.public)
    assert len(publics) == 1


@given(st.lists(remote_endpoints, min_size=1, max_size=30, unique=True))
@settings(max_examples=50)
def test_symmetric_nat_unique_public_ports_per_destination(remotes):
    """Symmetric mappings never collide: distinct destinations get distinct
    live public ports."""
    table = fresh_table()
    private = Endpoint("10.0.0.1", 4321)
    publics = []
    for remote in remotes:
        mapping = table.lookup_outbound(
            MappingPolicy.ADDRESS_AND_PORT_DEPENDENT, IpProtocol.UDP, private, remote
        )
        if mapping is None:
            mapping = table.create(
                MappingPolicy.ADDRESS_AND_PORT_DEPENDENT, IpProtocol.UDP, private, remote, 60
            )
        publics.append(mapping.public.port)
    assert len(set(publics)) == len(remotes)


@given(st.lists(remote_endpoints, min_size=2, max_size=20, unique=True))
@settings(max_examples=50)
def test_inbound_lookup_is_inverse_of_creation(remotes):
    table = fresh_table(PortAllocation.RANDOM)
    private = Endpoint("10.0.0.1", 4321)
    for remote in remotes:
        mapping = table.create(
            MappingPolicy.ADDRESS_AND_PORT_DEPENDENT, IpProtocol.UDP, private, remote, 60
        )
        assert table.lookup_inbound(IpProtocol.UDP, mapping.public.port) is mapping


@given(remote_endpoints, remote_endpoints)
def test_mapping_key_policy_semantics(r1, r2):
    private = Endpoint("10.0.0.1", 4321)
    ei1 = mapping_key(MappingPolicy.ENDPOINT_INDEPENDENT, IpProtocol.UDP, private, r1)
    ei2 = mapping_key(MappingPolicy.ENDPOINT_INDEPENDENT, IpProtocol.UDP, private, r2)
    assert ei1 == ei2  # destination never matters
    adp1 = mapping_key(MappingPolicy.ADDRESS_AND_PORT_DEPENDENT, IpProtocol.UDP, private, r1)
    adp2 = mapping_key(MappingPolicy.ADDRESS_AND_PORT_DEPENDENT, IpProtocol.UDP, private, r2)
    assert (adp1 == adp2) == (r1 == r2)  # injective in the destination
    ad1 = mapping_key(MappingPolicy.ADDRESS_DEPENDENT, IpProtocol.UDP, private, r1)
    ad2 = mapping_key(MappingPolicy.ADDRESS_DEPENDENT, IpProtocol.UDP, private, r2)
    assert (ad1 == ad2) == (r1.ip == r2.ip)


@given(st.lists(st.floats(min_value=0.0, max_value=100.0, allow_nan=False), max_size=40))
@settings(max_examples=60)
def test_scheduler_fires_in_nondecreasing_time_order(delays):
    s = Scheduler()
    fired = []
    for delay in delays:
        s.call_later(delay, lambda d=delay: fired.append(s.now))
    s.run()
    assert fired == sorted(fired)
    assert len(fired) == len(delays)


@given(st.integers(0, SEQ_MOD - 1), st.integers(0, 2**16))
def test_seq_arithmetic_add_diff_inverse(seq, n):
    assert seq_diff(seq_add(seq, n), seq) == n
    assert seq_ge(seq_add(seq, n), seq)


@given(st.integers(0, SEQ_MOD - 1), st.integers(1, 2**30))
def test_seq_ge_antisymmetric_within_window(seq, n):
    later = seq_add(seq, n)
    assert seq_ge(later, seq)
    assert not seq_ge(seq, later)


@given(st.integers(0, 0xFFFFFFFF))
def test_private_address_classification_consistent(value):
    from repro.netsim.addresses import IPv4Address, PRIVATE_NETWORKS

    addr = IPv4Address(value)
    assert is_private(addr) == any(addr in net for net in PRIVATE_NETWORKS)


@given(
    st.lists(st.binary(min_size=1, max_size=60), min_size=1, max_size=15),
    st.integers(0, 1000),
)
@settings(max_examples=40, deadline=None)
def test_tcp_delivers_any_payload_sequence_in_order(payloads, seed):
    """End-to-end TCP stream property: arbitrary payloads arrive intact and
    in order over a clean link."""
    from tests.conftest import make_lan_pair, run_until

    net, a, b = make_lan_pair(seed=seed)
    accepted = []
    b.stack.tcp.listen(80, on_accept=accepted.append)
    client = a.stack.tcp.connect(Endpoint("192.0.2.2", 80))
    run_until(net, lambda: accepted)
    got = []
    accepted[0].on_data = got.append
    for payload in payloads:
        client.send(payload)
    net.run_until(net.now + 10)
    assert b"".join(got) == b"".join(payloads)


# -- one event loop: how a run is sliced between drivers changes nothing -----

SLICED_UNTIL = 2.0  # generated driver slices stop here ...
SLICED_END = 4.0  # ... and one run_until carries every run to the same end

driver_ops = st.one_of(
    st.just(("step",)),
    st.tuples(st.just("run"), st.integers(1, 40)),
    st.tuples(st.just("while"), st.integers(1, 6), st.floats(0.0, 0.05)),
    st.tuples(st.just("until"), st.floats(0.0, 0.05)),
)


def _drive_echo_and_punch(ops):
    """One seeded network carrying a NAT echo stream and a UDP hole punch,
    driven by *ops* up to SLICED_UNTIL and by one ``run_until`` from there.

    LAN B jitters, so its packets are one timer each while the other links
    coalesce deliveries into batches; four echo datagrams leave per tick, so
    ``step()`` and small ``run`` budgets stop in the middle of a batch.
    """
    from repro.netsim.link import LinkProfile
    from repro.netsim.packet import PACKET_POOL
    from repro.scenarios import build_two_nats

    prior = PACKET_POOL.enabled, PACKET_POOL.debug_poison
    PACKET_POOL.disable()  # empty free list: every run starts from the same pool
    PACKET_POOL.enable()
    PACKET_POOL.debug_poison = True
    released_before = PACKET_POOL.released
    try:
        sc = build_two_nats(seed=11)
        sched = sc.scheduler
        sc.net.links["lan-B"].profile = LinkProfile(latency=0.0005, jitter=0.0002)
        arrivals = []

        echo = sc.hosts["S"].stack.udp.socket(7)
        echo.on_datagram = echo.sendto
        sock = sc.hosts["A"].stack.udp.socket(5555)
        sock.on_datagram = lambda data, src: arrivals.append((sched.now, "echo", data))
        echo_at = Endpoint("18.181.0.31", 7)
        for tick in range(int(SLICED_END / 0.025)):
            for n in range(4):
                sched.call_at(tick * 0.025, sock.sendto, b"%d.%d" % (tick, n), echo_at)

        def on_session(session):
            session.on_data = lambda data: arrivals.append((sched.now, "peer", data))
            for n in range(10):
                sched.call_later(0.02 * n, session.send, b"hello %d" % n)

        def on_peer_session(session):
            session.on_data = session.send

        sc.clients["B"].on_peer_session = on_peer_session
        for client in sc.clients.values():
            client.register_udp()
        sched.call_at(
            0.5,
            lambda: sc.clients["A"].connect_udp(
                2,
                on_session=on_session,
                on_failure=lambda err: arrivals.append((sched.now, "failed", err)),
            ),
        )

        clock = [sched.now]
        for op in ops:
            if sched.now >= SLICED_UNTIL:
                break
            if op[0] == "step":
                sched.step()
            elif op[0] == "run":
                sched.run(max_events=op[1], strict=False)
            elif op[0] == "while":
                target = len(arrivals) + op[1]
                sched.run_while(lambda: len(arrivals) < target, sched.now + op[2])
            else:
                sched.run_until(sched.now + op[1])
            clock.append(sched.now)
        sched.run_until(SLICED_END)
        assert clock == sorted(clock)
        return {
            "arrivals": arrivals,
            "now": sched.now,
            "events": (sched.events_fired, sched.events_cancelled),
            "links": {
                name: (link.packets_sent, link.bytes_sent, link.packets_dropped)
                for name, link in sc.net.links.items()
            },
            "nats": {
                label: (
                    nat.translations_out,
                    nat.translations_in,
                    nat.packets_received,
                    nat.packets_dropped,
                )
                for label, nat in sc.nats.items()
            },
            "udp": {
                label: (
                    host.packets_received,
                    host.stack.udp.datagrams_sent,
                    host.stack.udp.datagrams_received,
                    host.stack.udp.packets_dropped,
                )
                for label, host in sc.hosts.items()
            },
            "pool_released": PACKET_POOL.released - released_before,
        }
    finally:
        PACKET_POOL.debug_poison = prior[1]
        PACKET_POOL.disable()  # drop the poisoned carcasses
        if prior[0]:
            PACKET_POOL.enable()


@functools.lru_cache(maxsize=None)
def _single_run_until():
    """The reference run: no slices, one ``run_until`` to SLICED_END."""
    return _drive_echo_and_punch(())


@given(st.lists(driver_ops, max_size=60))
@example([("run", 7)] * 40)
@example([("step",)] * 60)
@example([("while", 1, 0.05)] * 40)
@settings(max_examples=25, deadline=None)
def test_driver_slicing_is_unobservable(ops):
    """Any interleaving of ``step`` / ``run`` / ``run_while`` / ``run_until``
    slices is the same simulation as a single ``run_until``: same arrival
    timeline, counters, event count, final clock and — because every driver
    delivers through the same route — the same packets recycled, with
    recycled packets poisoned so a stale reference would raise."""
    reference = _single_run_until()
    assert any(tag == "peer" for _, tag, _ in reference["arrivals"])
    assert reference["pool_released"] > 0
    assert _drive_echo_and_punch(ops) == reference


# -- owner-cleared memos: emptying them at any moment changes nothing --------

memo_ops = st.one_of(
    st.tuples(st.just("send"), st.integers(0, 1), st.sampled_from((7, 8))),
    st.tuples(st.just("route"), st.sampled_from(("NAT", "C")), st.booleans()),
    st.tuples(st.just("advance"), st.floats(0.01, 40.0)),
    st.just(("reset",)),
)


def _drive_nat_echo(ops, scrub):
    """Two clients on one private port behind a NAT with a 20 s UDP timeout
    and the §6.3 downgrade, echoing off a public server, under *ops*.  With
    *scrub* every routing and mapping memo in the network is emptied before
    every op — which must be unobservable, because a memo only ever holds
    what a fresh lookup would return."""
    from repro.nat.behavior import WELL_BEHAVED
    from repro.transport.stack import attach_stack
    from tests.test_nat_device import build

    behavior = WELL_BEHAVED.but(udp_timeout=20.0, per_port_conflict_downgrade=True)
    net, nat, client, server = build(behavior, seed=5)
    other = net.add_host("C2", ip="10.0.0.2", network="10.0.0.0/24",
                         link=net.links["lan"], gateway="10.0.0.254")
    attach_stack(other, rng=net.rng.child("c2"))
    arrivals, socks = [], []
    for port in (7, 8):
        echo = server.stack.udp.socket(port)
        echo.on_datagram = lambda d, src, echo=echo: (
            arrivals.append((net.now, "S", d, src)), echo.sendto(d, src))
    for i, host in enumerate((client, other)):
        sock = host.stack.udp.socket(4321)
        sock.on_datagram = lambda d, src, i=i: arrivals.append((net.now, i, d, src))
        socks.append(sock)
    nodes = {"NAT": (nat, "lan0"), "C": (client, "eth0")}

    for n, op in enumerate(ops):
        if scrub:
            for node in net.nodes.values():
                node.routing.closures.clear()
            nat.table.outbound_memo.clear()
        if op[0] == "send":
            socks[op[1]].sendto(b"%d" % n, Endpoint("18.181.0.31", op[2]))
            net.run_until(net.now + 0.05)  # there and back again
        elif op[0] == "route":
            node, interface = nodes[op[1]]
            if op[2]:  # an on-link route to nowhere shadowing the default
                node.routing.add("18.181.0.31/32", interface)
            else:
                node.routing.remove("18.181.0.31/32")
        elif op[0] == "advance":
            net.run_until(net.now + op[1])
        else:
            nat.reset_state()
    net.run_until(net.now + 1.0)
    return {
        "arrivals": arrivals,
        "nat": (nat.translations_out, nat.translations_in, nat.packets_received,
                nat.packets_forwarded, nat.packets_dropped, nat.drops_by_reason,
                nat.table.mappings_created, nat.table.mappings_expired),
        "table": [(m.proto, m.private, m.public, sorted(map(str, m.remotes)),
                   m.packets_out, m.packets_in) for m in nat.table.mappings],
        "links": {name: (link.packets_sent, link.packets_dropped)
                  for name, link in net.links.items()},
        "hosts": {name: (node.packets_received, node.packets_dropped)
                  for name, node in net.nodes.items()},
    }


@given(st.lists(memo_ops, max_size=40))
@example([("send", 0, 7), ("route", "NAT", True), ("send", 0, 7), ("route", "NAT", False),
          ("send", 0, 7), ("send", 1, 7), ("send", 0, 7), ("advance", 30.0),
          ("send", 0, 7), ("reset",), ("send", 0, 7)])
@settings(max_examples=60, deadline=None)
def test_emptying_memos_is_unobservable(ops):
    """Route add/remove, mapping expiry, the §6.3 downgrade and reboots all
    empty the memos they feed, so emptying every memo before every step as
    well gives the same arrivals, counters and NAT table."""
    assert _drive_nat_echo(ops, scrub=False) == _drive_nat_echo(ops, scrub=True)


# -- one wire-to-receiver route: bindings may change under packets in flight --

binding_ops = st.one_of(
    st.tuples(st.just("send"), st.integers(1, 4), st.booleans()),
    st.tuples(st.just("advance"), st.sampled_from((0.0004, 0.004, 0.011, 0.025, 0.2))),
    st.sampled_from([("close",), ("rebind",), ("detach",), ("attach",),
                     ("iface",), ("host",)]),
)


def _drive_binding_churn(ops, fast):
    """A NATed client streaming at a public echo server while the server's
    socket, stack, interfaces and segment change — never waiting for the
    wire to empty first — under *ops*, with the link fast gate *fast* and
    recycled packets poisoned.  Every delivery looks its target up when it
    fires, so the batch/per-packet timing choice must be unobservable."""
    from repro.netsim.link import Link
    from repro.netsim.packet import PACKET_POOL
    from repro.transport.stack import attach_stack
    from tests.conftest import detach_stack
    from tests.test_nat_device import build

    prior = Link.fast_path_enabled, PACKET_POOL.debug_poison
    Link.fast_path_enabled, PACKET_POOL.debug_poison = fast, True
    try:
        net, nat, client, server = build(seed=5)
        backbone = net.links["backbone"]
        arrivals, extra_ips = [], []

        def bind_echo():
            echo = server.stack.udp.socket(1234)
            echo.on_datagram = lambda d, src: (
                arrivals.append((net.now, "S", d, str(src))), echo.sendto(d, src))
            return echo

        echo = bind_echo()
        sock = client.stack.udp.socket(4321)
        sock.on_datagram = lambda d, src: arrivals.append((net.now, "C", d, str(src)))
        for n, op in enumerate(ops):
            if op[0] == "send":
                ip = extra_ips[-1] if op[2] and extra_ips else "18.181.0.31"
                for k in range(op[1]):
                    sock.sendto(b"%d.%d" % (n, k), Endpoint(ip, 1234))
            elif op[0] == "advance":
                net.run_until(net.now + op[1])
            elif op[0] == "close" and echo is not None:
                echo.close()
                echo = None
            elif op[0] == "rebind" and echo is None and server.stack is not None:
                echo = bind_echo()
            elif op[0] == "detach" and server.stack is not None:
                detach_stack(server)
                echo = None
            elif op[0] == "attach" and server.stack is None:
                attach_stack(server, rng=net.rng.child("s%d" % n))
            elif op[0] == "iface":
                extra_ips.append("18.181.1.%d" % (len(extra_ips) + 1))
                server.add_interface("eth%d" % len(extra_ips), extra_ips[-1],
                                     "18.181.1.0/24", backbone)
            elif op[0] == "host":
                attach_stack(net.add_host("H%d" % n, ip="18.181.2.%d" % (n + 1),
                                          network="0.0.0.0/0", link=backbone))
        net.run_until(net.now + 1.0)
        return {
            "arrivals": arrivals,
            "events_fired": net.scheduler.events_fired,
            "nat": (nat.translations_out, nat.translations_in,
                    nat.packets_received, nat.packets_dropped, nat.drops_by_reason),
            "links": {name: (link.packets_sent, link.bytes_sent, link.packets_dropped)
                      for name, link in net.links.items()},
            "nodes": {name: (node.packets_received, node.packets_dropped)
                      for name, node in net.nodes.items()},
            "stacks": {name: (node.stack.udp.datagrams_sent,
                              node.stack.udp.datagrams_received,
                              node.stack.udp.packets_dropped)
                       for name, node in net.nodes.items()
                       if getattr(node, "stack", None) is not None},
        }
    finally:
        Link.fast_path_enabled, PACKET_POOL.debug_poison = prior


@given(st.lists(binding_ops, max_size=40))
@example([("send", 4, False), ("advance", 0.011), ("close",), ("advance", 0.011),
          ("send", 2, False), ("rebind",), ("advance", 0.025), ("send", 3, False),
          ("advance", 0.011), ("detach",), ("advance", 0.011), ("attach",),
          ("send", 2, False), ("advance", 0.025), ("rebind",), ("send", 2, False),
          ("iface",), ("send", 2, True), ("host",), ("advance", 0.011),
          ("send", 1, False)])
@settings(max_examples=60, deadline=None)
def test_binding_churn_in_flight_is_route_independent(ops):
    """Socket close/rebind, stack detach/attach, a new interface and a new
    host on the segment, all with packets on the wire: batched and
    per-packet delivery give identical arrivals, counters and event count."""
    assert _drive_binding_churn(ops, fast=True) == _drive_binding_churn(ops, fast=False)


# -- TCP: the cumulative-ACK prefix pop against the filter it replaced ---------

def _filtering_ack_queue(self, ack):
    """``TcpConnection._ack_queue`` as it was: every queued entry filtered
    through ``seq_ge(ack, end)`` on every ACK.  Kept as the reference."""
    if not seq_ge(ack, self.snd_una):
        return
    self.snd_una = ack
    before = len(self._queue)
    self._queue = [
        e for e in self._queue if not seq_ge(ack, seq_add(e.seq, e.length))
    ]
    if len(self._queue) != before:
        self._cancel_rtx_timer()
        self._arm_rtx_timer()
    if not self._queue:
        self._on_all_acked()


def _connection_with_queue(iss, syn, sizes, fin, state):
    """A connection whose retransmit queue holds [SYN] DATA* [FIN], queued the
    way the send paths queue them (in ``snd_nxt`` order), RTO timer armed."""
    from repro.transport.tcp import TcpConnection, _QueuedSegment, _SegmentKind
    from tests.conftest import make_lan_pair

    net, a, _b = make_lan_pair()
    stack = a.stack.tcp
    conn = TcpConnection(stack, Endpoint("192.0.2.1", 4000), Endpoint("192.0.2.9", 80),
                         iss=iss, passive=False)
    stack._connections[(conn.local._key, conn.remote._key)] = conn
    stack._bind_port_internal(conn.local.port)
    conn.rcv_nxt = 1
    kinds = ([_SegmentKind.SYN] if syn else []) + [_SegmentKind.DATA] * len(sizes)
    kinds += [_SegmentKind.FIN] if fin else []
    payloads = ([b""] if syn else []) + [bytes(size) for size in sizes] + ([b""] if fin else [])
    for kind, payload in zip(kinds, payloads):
        entry = _QueuedSegment(kind, conn.snd_nxt, payload)
        entry.tries = 1
        conn._queue.append(entry)
        conn.snd_nxt = seq_add(conn.snd_nxt, entry.length)
    conn.state = state
    conn._arm_rtx_timer()
    return net, conn


def _ack_observables(net, conn):
    timer = conn._rtx_timer
    return (
        [(e.kind, e.seq, e.length) for e in conn._queue],
        conn.snd_una,
        conn.state,
        None if timer is None else (timer.when, timer.active),
        net.scheduler.events_cancelled,
        conn._time_wait_timer is not None,
        len(conn.stack.connections),
    )


_closing_states = st.sampled_from(["ESTABLISHED", "FIN_WAIT_1", "CLOSING", "LAST_ACK", "SYN_RCVD"])
#: An ACK as (queue boundary it refers to, signed byte offset from it): exact,
#: partial (inside a segment), old (before ``snd_una``), beyond ``snd_nxt``.
_ack_points = st.tuples(st.integers(0, 9), st.sampled_from([0, 0, 0, -1, 1, -700, 700, -70_000, 70_000]))


@given(
    iss=st.integers(SEQ_MOD - 65_536, SEQ_MOD - 1) | st.integers(0, 65_536),
    syn=st.booleans(),
    sizes=st.lists(st.sampled_from([1, 2, 536, 4096, 30_000]), max_size=8),
    fin=st.booleans(),
    state=_closing_states,
    acks=st.lists(_ack_points, min_size=1, max_size=12),
)
@example(iss=SEQ_MOD - 10, syn=False, sizes=[4096, 4096], fin=True, state="FIN_WAIT_1",
         acks=[(1, 0), (1, 0), (2, -1), (0, -1), (3, 0)])  # exact, dup, partial, old, all
@example(iss=SEQ_MOD - 1, syn=True, sizes=[1], fin=True, state="LAST_ACK", acks=[(3, 0), (3, 0)])
@example(iss=5, syn=False, sizes=[536] * 8, fin=False, state="CLOSING", acks=[(4, 1), (8, 70_000)])
@settings(max_examples=150, deadline=None)
def test_ack_prefix_pop_matches_the_filter_it_replaced(iss, syn, sizes, fin, state, acks):
    from repro.transport.tcp import TcpState

    state = TcpState[state]
    net_new, new = _connection_with_queue(iss, syn, sizes, fin, state)
    net_old, old = _connection_with_queue(iss, syn, sizes, fin, state)
    boundaries = [new.snd_una] + [seq_add(e.seq, e.length) for e in new._queue]
    assert _ack_observables(net_new, new) == _ack_observables(net_old, old)
    for index, offset in acks:
        ack = seq_add(boundaries[index % len(boundaries)], offset)
        new._ack_queue(ack)
        _filtering_ack_queue(old, ack)
        assert _ack_observables(net_new, new) == _ack_observables(net_old, old)
        for net in (net_new, net_old):
            net.run_until(net.now + 0.05)  # re-armed timers sit at distinct deadlines
