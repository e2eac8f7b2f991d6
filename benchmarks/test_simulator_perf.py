"""Simulator performance: events/second and packets/second.

Not a paper artifact — these benches track the substrate's own speed so
regressions in the hot paths (scheduler heap, link delivery, NAT
translation) are visible.  The 380-device Table 1 fleet leans on these.
"""

import collections
import contextlib
import enum
import os
import random
import sys
import time

import pytest

from repro.nat import behavior as B
from repro.nat.device import NatDevice
from repro.netsim.addresses import Endpoint
from repro.netsim.clock import Scheduler
from repro.netsim.link import LAN_LINK
from repro.netsim.network import Network
from repro.obs.profile import RunProfiler
from repro.transport.stack import attach_stack


def _udp_echo_workload(metrics_enabled: bool = True, packets: int = 2_000):
    """The NAT echo round-trip workload: client -> NAT -> server and back.

    Returns ``(net, received)`` so callers can profile the run or check the
    echo count.
    """
    net = Network(seed=1, metrics_enabled=metrics_enabled)
    backbone = net.create_link("backbone")
    server = net.add_host("S", ip="18.181.0.31", network="0.0.0.0/0", link=backbone)
    attach_stack(server)
    nat = NatDevice("NAT", net.scheduler, B.WELL_BEHAVED, rng=net.rng.child("n"))
    net.add_node(nat)
    nat.set_wan("155.99.25.11", "0.0.0.0/0", backbone)
    lan = net.create_link("lan", LAN_LINK)
    nat.add_lan("10.0.0.254", "10.0.0.0/24", lan)
    client = net.add_host("C", ip="10.0.0.1", network="10.0.0.0/24", link=lan,
                          gateway="10.0.0.254")
    attach_stack(client)
    echo = server.stack.udp.socket(1234)
    echo.on_datagram = lambda d, src: echo.sendto(d, src)
    received = []
    sock = client.stack.udp.socket(4321)
    sock.on_datagram = lambda d, src: received.append(d)
    for _ in range(packets):
        sock.sendto(b"x" * 32, Endpoint("18.181.0.31", 1234))
    net.run_until(10.0)
    return net, received


def test_scheduler_event_throughput(benchmark):
    def run():
        s = Scheduler()
        count = {"n": 0}

        def tick():
            count["n"] += 1
            if count["n"] < 10_000:
                s.call_later(0.001, tick)

        s.call_later(0.0, tick)
        s.run(max_events=20_000)
        return count["n"]

    events = benchmark(run)
    assert events == 10_000


def test_udp_packet_throughput_through_nat(benchmark):
    """End-to-end packets through a NAT: host -> NAT -> server and back."""

    def run():
        net = Network(seed=1)
        backbone = net.create_link("backbone")
        server = net.add_host("S", ip="18.181.0.31", network="0.0.0.0/0", link=backbone)
        attach_stack(server)
        nat = NatDevice("NAT", net.scheduler, B.WELL_BEHAVED, rng=net.rng.child("n"))
        net.add_node(nat)
        nat.set_wan("155.99.25.11", "0.0.0.0/0", backbone)
        lan = net.create_link("lan", LAN_LINK)
        nat.add_lan("10.0.0.254", "10.0.0.0/24", lan)
        client = net.add_host("C", ip="10.0.0.1", network="10.0.0.0/24", link=lan,
                              gateway="10.0.0.254")
        attach_stack(client)
        echo = server.stack.udp.socket(1234)
        echo.on_datagram = lambda d, src: echo.sendto(d, src)
        received = []
        sock = client.stack.udp.socket(4321)
        sock.on_datagram = lambda d, src: received.append(d)
        for i in range(2_000):
            sock.sendto(b"x" * 32, Endpoint("18.181.0.31", 1234))
        net.run_until(10.0)
        return len(received)

    echoed = benchmark(run)
    assert echoed == 2_000


def test_tcp_bulk_transfer_throughput(benchmark):
    """256 kB over simulated TCP (segmentation, acks, reassembly)."""
    from tests.conftest import make_lan_pair, run_until

    def run():
        net, a, b = make_lan_pair(seed=3)
        accepted = []
        b.stack.tcp.listen(80, on_accept=accepted.append)
        client = a.stack.tcp.connect(Endpoint("192.0.2.2", 80))
        run_until(net, lambda: accepted)
        total = {"n": 0}
        accepted[0].on_data = lambda d: total.__setitem__("n", total["n"] + len(d))
        chunk = bytes(1024)
        for _ in range(256):
            client.send(chunk)
        net.run_until(net.now + 30)
        return total["n"]

    transferred = benchmark(run)
    assert transferred == 256 * 1024


def test_run_profiler_record_shape():
    """RunProfiler degrades to zero rates when idle and emits a complete
    BENCH record."""
    net = Network(seed=1, metrics_enabled=True)
    with RunProfiler(network=net) as idle:
        pass  # nothing ran: rates must degrade to zero, not divide by zero
    assert idle.events == 0 and idle.packets == 0
    assert idle.events_per_second == 0.0 or idle.wall_seconds > 0
    record = idle.to_dict()
    for key in ("wall_seconds", "events", "packets", "events_per_second",
                "packets_per_second", "time_dilation", "virtual_seconds"):
        assert key in record
    assert RunProfiler(network=Network(seed=1)).events_per_second == 0.0


def test_profiler_wraps_active_run():
    """Profiling the active simulation stretch yields positive rates."""
    net = Network(seed=1, metrics_enabled=True)
    backbone = net.create_link("backbone")
    server = net.add_host("S", ip="18.181.0.31", network="0.0.0.0/0", link=backbone)
    attach_stack(server)
    client = net.add_host("C", ip="18.181.0.32", network="0.0.0.0/0", link=backbone)
    attach_stack(client)
    echo = server.stack.udp.socket(1234)
    echo.on_datagram = lambda d, src: echo.sendto(d, src)
    got = []
    sock = client.stack.udp.socket(4321)
    sock.on_datagram = lambda d, src: got.append(d)
    for _ in range(1_000):
        sock.sendto(b"y" * 32, Endpoint("18.181.0.31", 1234))
    with RunProfiler(network=net) as prof:
        net.run_until(10.0)
    assert len(got) == 1_000
    assert prof.events > 0 and prof.packets > 0
    assert prof.events_per_second > 0 and prof.packets_per_second > 0
    assert prof.time_dilation > 0


@contextlib.contextmanager
def _counting_calls():
    """Count Python-level calls under a ``sys.setprofile`` hook.

    Yields ``(calls, edges)``: calls per callee code object, and per
    ``(caller code, callee code)`` pair.  Calls into C show up in ``edges``
    only, as ``(caller code, qualified name)`` — ``"Struct.pack"``.  Counts,
    not clocks — the same on a laptop and on a shared CI runner.
    """
    calls, edges = collections.Counter(), collections.Counter()

    def hook(frame, event, arg):
        if event == "call":
            calls[frame.f_code] += 1
            if frame.f_back is not None:
                edges[frame.f_back.f_code, frame.f_code] += 1
        elif event == "c_call":
            edges[frame.f_code, arg.__qualname__] += 1

    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        yield calls, edges
    finally:
        sys.setprofile(previous)


def test_survey_route_cost_guard():
    """The Table 1 survey route stays off the overheads PR 13 removed.

    One ``check_device``: no ``enum`` flag operators at all (TCP flag tests
    are int mask compares, unions are module constants), at most one
    ``Enum.__hash__`` per inbound segment from ``handle_segment`` (the static
    state table; the per-call dict cost nine), and only the generators that
    actually draw get seeded (the eager constructor seeded 13).  A 2-vendor
    fleet walks ``canonical_json`` once per distinct (behaviour, config).
    """
    from repro.cache import fingerprint
    from repro.natcheck import fleet
    from repro.transport.tcp import TcpConnection

    spec = fleet.VENDOR_SPECS[0]
    behavior, config = fleet.device_behavior(spec, 0), fleet.device_config(spec, 0)
    assert config.run_tcp
    with _counting_calls() as (calls, edges):
        report = fleet.check_device(behavior, config, seed=7)
    assert report.tcp_punch_ok is not None  # the TCP phases really ran

    flag_ops = {
        code.co_name: n
        for code, n in calls.items()
        if code.co_filename == enum.__file__
        and code.co_name in ("__and__", "__or__", "__xor__", "__invert__")
    }
    assert flag_ops == {}
    segments = calls[TcpConnection.handle_segment.__code__]
    assert segments > 10
    hashes = edges[TcpConnection.handle_segment.__code__, enum.Enum.__hash__.__code__]
    assert hashes <= segments
    assert calls[random.Random.seed.__code__] <= 6

    specs = fleet.VENDOR_SPECS[:2]
    distinct = {
        fleet.device_fingerprint(
            fleet.device_behavior(spec, index), fleet.device_config(spec, index), 7
        ).core
        for spec in specs
        for index in range(spec.population)
    }
    fingerprint._payload_memo.clear()
    with _counting_calls() as (calls, _edges):
        fleet.run_fleet(specs, seed=7, workers=1, cache=False)
    assert calls[fingerprint.canonical_json.__code__] == len(distinct)
    assert len(distinct) < sum(spec.population for spec in specs) / 4


def test_session_route_cost_guard():
    """The session route stays off the per-message re-derivations PR 17 removed.

    On one established pair pushing 4 KiB writes, an ACK costs the same
    number of Python frames with 64 segments in flight as with 4 (the
    retransmit queue pops its acknowledged prefix; the filter it replaced
    walked every entry, four frames each), TCP demux hashes and compares
    ints (no ``Endpoint.__hash__`` / ``__eq__`` frame under
    ``handle_packet``), ``tcp_packet`` runs no dataclass ``__init__`` /
    ``__post_init__``, and a ``SessionData`` crosses the codec in one
    ``Struct.pack`` and one ``Struct.unpack_from``.
    """
    from repro.core import protocol
    from repro.netsim.packet import Packet, TcpHeader
    from repro.transport.tcp import TcpConnection, TcpStack
    from tests.conftest import make_lan_pair, run_until

    def drain(in_flight: int):
        net, a, b = make_lan_pair(seed=3)
        accepted = []
        b.stack.tcp.listen(80, on_accept=accepted.append)
        client = a.stack.tcp.connect(Endpoint("192.0.2.2", 80))
        run_until(net, lambda: accepted and client.established)
        chunk = bytes(4096)
        for _ in range(in_flight):
            client.send(chunk)
        assert len(client._queue) == in_flight
        with _counting_calls() as (calls, edges):
            net.run_until(net.now + 5)
        assert not client._queue and accepted[0].bytes_received == in_flight * len(chunk)
        # Data segments carry ACK too, so both ends process one per segment.
        assert calls[TcpConnection._ack_queue.__code__] == 2 * in_flight
        return calls, edges

    few, _ = drain(4)
    calls, edges = drain(64)
    per_ack_few = sum(few.values()) / 4
    per_ack_many = sum(calls.values()) / 64
    # Equal but for the run's fixed frames, which spread over fewer ACKs in
    # the short run; walking the queue would add ~130 frames to the long one.
    assert abs(per_ack_many - per_ack_few) <= 4

    demux = TcpStack.handle_packet.__code__
    assert calls[demux] == 2 * 64
    assert edges[demux, Endpoint.__hash__.__code__] == 0
    assert edges[demux, Endpoint.__eq__.__code__] == 0
    for dataclass_frame in (Packet.__init__, Packet.__post_init__, TcpHeader.__init__):
        assert calls[dataclass_frame.__code__] == 0

    def struct_calls(edges):
        found = collections.Counter()
        for (_caller, callee), n in edges.items():
            if isinstance(callee, str) and callee.startswith("Struct."):
                found[callee] += n
        return found

    message = protocol.SessionData(sender=7, receiver=9, nonce=2**40 + 5, payload=b"d" * 512)
    with _counting_calls() as (_calls, edges):
        wire = protocol.encode(message)
    assert struct_calls(edges) == {"Struct.pack": 1}
    with _counting_calls() as (_calls, edges):
        decoded = protocol.decode(wire)
    assert struct_calls(edges) == {"Struct.unpack_from": 1}
    assert decoded == message


def test_registry_route_cost_guard():
    """The registration route does its work without helper frames around it.

    On a healthy ring ``ShardedRegistry`` places a peer inline (no
    ``ShardRing.owner_index`` frame per register / touch / lookup); a wheel
    opens a bucket with ``_file`` once and appends every later entry, on
    ``add`` and when a tick re-files N same-interval entries; a sweep
    re-files M live entries with no per-entry call; and reading
    ``Scheduler.now`` runs no Python frame.
    """
    from repro.core.registry import (
        KeepaliveWheel,
        RegistrationTable,
        RegistryConfig,
        ShardedRegistry,
        ShardRing,
    )
    from repro.core.rendezvous import Registration

    public, private = Endpoint("155.99.25.11", 4321), Endpoint("10.0.0.1", 4321)
    peers = range(2, 402, 2)
    records = [Registration(cid, public, private, 0.0, 0.0) for cid in peers]

    sched = Scheduler()
    registry = ShardedRegistry(
        lambda: sched.now,
        [Endpoint(f"18.181.{i}.31", 3478) for i in range(8)],
        RegistryConfig(ttl=30.0, sweep_granularity=5.0),
    )
    with _counting_calls() as (calls, _edges):
        for cid, record in zip(peers, records):
            registry.register(cid, record)
        for cid in peers:
            assert registry.touch(cid)
            assert registry.lookup(cid) is registry.shard_for(cid)[cid]
    assert calls[RegistrationTable.register.__code__] == len(peers)
    assert calls[ShardRing.owner_index.__code__] == 0
    registry.ring.mark_down(3)  # only a downed shard sends placement to the ring
    with _counting_calls() as (calls, _edges):
        registry.lookup(peers[0])
    assert calls[ShardRing.owner_index.__code__] == 1

    wheel = KeepaliveWheel(sched, granularity=1.0)
    fired = []
    with _counting_calls() as (calls, _edges):
        for cid in peers:
            wheel.add(10.0, fired.append, cid)
    assert calls[KeepaliveWheel._file.__code__] == 1
    with _counting_calls() as (calls, _edges):
        sched.run_until(11.0)  # the one tick: every entry fires and re-files
    assert fired == list(peers)
    assert calls[KeepaliveWheel._fire.__code__] == 1
    assert calls[KeepaliveWheel._file.__code__] <= 1

    table = RegistrationTable(lambda: sched.now, ttl=10.0, sweep_granularity=5.0)
    for cid, record in zip(peers, records):
        table.register(cid, record)  # all due in the bucket swept at t = 15
    for record in records:
        record.last_seen = 12.0  # refreshed: the sweep re-files every one
    sweep = RegistrationTable.sweep.__code__
    with _counting_calls() as (calls, edges):
        assert table.sweep(15.0) == []
    assert len(table._buckets) == 1 and len(table) == len(peers)
    frames = sum(
        n for (caller, callee), n in edges.items()
        if caller is sweep and not isinstance(callee, str)
    )
    assert frames <= 2  # the batch-size histogram, not one per entry

    with _counting_calls() as (calls, _edges):
        reads = [sched.now for _ in range(100)]
    assert reads == [sched.now] * 100
    assert all(n < 100 for n in calls.values())


def test_private_port_conflict_check_scales_flat():
    """has_conflicting_private_port must be O(1) in table size.

    §6.3's per-port conflict downgrade runs this check on every outbound
    packet, so an O(n) scan makes busy NATs quadratic.  With the private-port
    owner index the probe cost must stay flat as the table grows 32x; the
    generous 6x bound (plus absolute slack) only fails if the check degrades
    back to a full-table scan (~32x).
    """
    from repro.nat.mapping import NatTable
    from repro.nat.policy import MappingPolicy, PortAllocation
    from repro.netsim.packet import IpProtocol
    from repro.util.rng import SeededRng

    def build_table(mappings: int) -> NatTable:
        table = NatTable(
            scheduler=Scheduler(),
            public_ip="155.99.25.11",
            allocation=PortAllocation.SEQUENTIAL,
            port_base=2000,
            rng=SeededRng(1, "bench"),
        )
        for i in range(mappings):
            table.create(
                MappingPolicy.ENDPOINT_INDEPENDENT,
                IpProtocol.UDP,
                Endpoint(f"10.0.{i // 250}.{i % 250 + 1}", 10_000 + i),
                Endpoint("18.181.0.31", 1234),
                idle_timeout=3600.0,
            )
        return table

    def probe_time(table: NatTable, rounds: int = 2_000) -> float:
        probe = Endpoint("10.0.99.99", 10_000)  # conflicts with mapping 0
        assert table.has_conflicting_private_port(probe)
        best = float("inf")
        for _ in range(3):
            started = time.perf_counter()
            for _ in range(rounds):
                table.has_conflicting_private_port(probe)
            best = min(best, time.perf_counter() - started)
        return best

    small = probe_time(build_table(200))
    large = probe_time(build_table(6_400))
    assert large <= small * 6 + 0.01, (
        f"conflict check degraded with table size: "
        f"200 mappings={small:.5f}s 6400 mappings={large:.5f}s"
    )


@pytest.mark.skipif(
    (os.cpu_count() or 1) < 4,
    reason="four workers need four cores to show 1.5x: the serial fleet is "
    "~0.5 s, so on fewer cores pool start-up dominates",
)
def test_parallel_fleet_speedup():
    """run_fleet(workers=4) must beat serial by >= 1.5x on hosts with a core
    per worker.

    The fleet is embarrassingly parallel (each device an isolated
    simulation), so anything below 1.5x at four workers means the pool is
    serialising somewhere — oversized pickles, chunking gone degenerate, or
    a lock on the progress path.

    cache=False: with fingerprint dedup on, only ~18 distinct simulations
    remain and pool overhead dominates — this benchmark measures the
    per-device parallel path, so it must run every device individually.
    """
    from repro.natcheck.fleet import run_fleet

    def timed(workers: int) -> float:
        best = float("inf")
        for _ in range(2):
            started = time.perf_counter()
            run_fleet(seed=42, workers=workers, cache=False)
            best = min(best, time.perf_counter() - started)
        return best

    timed(4)  # warm the pool/import path before measuring
    serial = timed(1)
    parallel = timed(4)
    assert parallel * 1.5 <= serial, (
        f"parallel fleet too slow: serial={serial:.3f}s parallel={parallel:.3f}s "
        f"(speedup {serial / parallel:.2f}x, need >=1.5x)"
    )


def test_metrics_overhead_within_bounds():
    """Instrumentation must stay cheap: metrics-on within 25% of metrics-off.

    The collector design keeps hot paths at plain attribute increments, so
    the expected overhead is ~0; the 1.25x bound plus absolute slack absorbs
    scheduler jitter on shared CI hardware.
    """

    def timed(metrics_enabled: bool) -> float:
        best = float("inf")
        for _ in range(3):
            started = time.perf_counter()
            _, received = _udp_echo_workload(metrics_enabled=metrics_enabled)
            elapsed = time.perf_counter() - started
            assert len(received) == 2_000
            best = min(best, elapsed)
        return best

    timed(True)  # warm caches before measuring
    disabled = timed(False)
    enabled = timed(True)
    assert enabled <= disabled * 1.25 + 0.05, (
        f"metrics overhead too high: enabled={enabled:.4f}s disabled={disabled:.4f}s"
    )
