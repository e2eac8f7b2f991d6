"""(C) probes: small isolated measurements of each layer's public API.

Each probe builds the smallest topology that exercises one layer, runs a
fixed amount of work three times and reports the median cost per unit.  They
are diagnostics that say *which* layer's unit cost moved; the end-to-end
numbers say whether it mattered.  Inputs (payload sizes, message corpus) are
sampled from the workload being traced.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Sequence

from repro.core import protocol
from repro.core.registry import RegistryConfig, ShardedRegistry
from repro.core.rendezvous import Registration
from repro.nat.behavior import WELL_BEHAVED
from repro.nat.device import NatDevice
from repro.netsim.addresses import Endpoint
from repro.netsim.clock import Scheduler
from repro.netsim.link import BACKBONE_LINK, LAN_LINK, LinkProfile
from repro.netsim.network import Network
from repro.transport.stack import attach_stack

from stats import median

ROUNDS = 3

#: The lossy probe's profile: every per-packet branch of the slow path taken.
LOSSY = LinkProfile(
    latency=0.0005, jitter=0.0002, loss=0.05, burst_enter=0.01, burst_exit=0.25,
    burst_loss=0.6, duplicate=0.01, reorder=0.02, reorder_delay=0.001,
)


def _median_of(rounds: int, measure: Callable[[], float]) -> float:
    return median([measure() for _ in range(rounds)])


# -- netsim ---------------------------------------------------------------------


def clock_ns_per_event(events: int = 20_000) -> float:
    def once() -> float:
        scheduler = Scheduler()
        fired = [0]

        def tick() -> None:
            fired[0] += 1
            if fired[0] < events:
                scheduler.call_later(0.001, tick)

        scheduler.call_later(0.0, tick)
        started = time.perf_counter()
        scheduler.run(max_events=events * 2)
        wall = time.perf_counter() - started
        if fired[0] != events:
            raise RuntimeError("clock probe: timer chain broke")
        return 1e9 * wall / events

    return _median_of(ROUNDS, once)


def link_ns_per_packet(sizes: Sequence[int], profile: LinkProfile, packets: int = 8_000) -> float:
    def once() -> float:
        net = Network(seed=1)
        wire = net.create_link("wire", profile)
        sender = net.add_host("A", ip="10.0.0.1", network="10.0.0.0/24", link=wire)
        attach_stack(sender)
        receiver = net.add_host("B", ip="10.0.0.2", network="10.0.0.0/24", link=wire)
        attach_stack(receiver)
        received = [0]

        def sink(_data: bytes, _src: Endpoint) -> None:
            received[0] += 1

        receiver.stack.udp.socket(1234).on_datagram = sink
        sock = sender.stack.udp.socket(4321)
        dest = Endpoint("10.0.0.2", 1234)
        payloads = [b"x" * size for size in sizes]
        for i in range(packets):
            sock.sendto(payloads[i % len(payloads)], dest)
        started = time.perf_counter()
        net.run_until(1.0)
        wall = time.perf_counter() - started
        if profile is LAN_LINK and received[0] != packets:
            raise RuntimeError("link probe: plain link lost packets")
        return 1e9 * wall / packets

    return _median_of(ROUNDS, once)


def nat_ns_per_translation(sizes: Sequence[int], packets: int = 4_000) -> float:
    def once() -> float:
        net = Network(seed=1)
        backbone = net.create_link("backbone")
        server = net.add_host("S", ip="18.181.0.31", network="0.0.0.0/0", link=backbone)
        attach_stack(server)
        nat = NatDevice("NAT", net.scheduler, WELL_BEHAVED, rng=net.rng.child("n"))
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
        received = [0]

        def sink(_data: bytes, _src: Endpoint) -> None:
            received[0] += 1

        sock = client.stack.udp.socket(4321)
        sock.on_datagram = sink
        dest = Endpoint("18.181.0.31", 1234)
        payloads = [b"x" * size for size in sizes]
        for i in range(packets):
            sock.sendto(payloads[i % len(payloads)], dest)
        started = time.perf_counter()
        net.run_until(30.0)
        wall = time.perf_counter() - started
        translations = nat.translations_out + nat.translations_in
        if received[0] != packets or translations != 2 * packets:
            raise RuntimeError("nat probe: echoes went missing")
        return 1e9 * wall / translations

    return _median_of(ROUNDS, once)


# -- transport ------------------------------------------------------------------


def _two_public_hosts():
    net = Network(seed=1)
    backbone = net.create_link("backbone", BACKBONE_LINK)
    a = net.add_host("A", ip="18.181.0.31", network="0.0.0.0/0", link=backbone)
    attach_stack(a)
    b = net.add_host("B", ip="18.181.0.32", network="0.0.0.0/0", link=backbone)
    attach_stack(b)
    return net, a, b


def tcp_us_per_connection(connections: int = 150) -> float:
    """connect + 1 KiB + close, one after another, between two public hosts."""

    def once() -> float:
        net, a, b = _two_public_hosts()
        payload = b"k" * 1024
        delivered = [0]

        def on_accept(conn) -> None:
            def on_data(data: bytes) -> None:
                delivered[0] += len(data)

            conn.on_data = on_data
            conn.on_close = conn.close

        b.stack.tcp.listen(1234, on_accept=on_accept)
        remote = Endpoint("18.181.0.32", 1234)

        def dial() -> None:
            def connected(conn) -> None:
                conn.send(payload)
                conn.close()

            a.stack.tcp.connect(remote, on_connected=connected)

        for i in range(connections):
            net.scheduler.call_later(0.05 * i, dial)
        started = time.perf_counter()
        net.run_until(0.05 * connections + 5.0)
        wall = time.perf_counter() - started
        if delivered[0] != connections * len(payload):
            raise RuntimeError("tcp probe: connections did not all deliver")
        return 1e6 * wall / connections

    return _median_of(ROUNDS, once)


def tcp_ns_per_segment(segments: int = 2_000, size: int = 4096) -> float:
    """Bulk segments on one established connection, paced two per virtual
    millisecond like the data-plane workload (about twenty in flight): the
    unacknowledged-segment queue's depth is part of the per-segment cost."""

    def once() -> float:
        net, a, b = _two_public_hosts()
        delivered = [0]

        def on_accept(conn) -> None:
            def on_data(data: bytes) -> None:
                delivered[0] += len(data)

            conn.on_data = on_data

        b.stack.tcp.listen(1234, on_accept=on_accept)
        chunk = b"s" * size
        box = []
        a.stack.tcp.connect(Endpoint("18.181.0.32", 1234), on_connected=box.append)
        net.run_until(1.0)
        conn = box[0]

        def burst(left: int) -> None:
            conn.send(chunk)
            conn.send(chunk)
            if left > 2:
                net.scheduler.call_later(0.001, burst, left - 2)

        net.scheduler.call_later(0.0, burst, segments)
        started = time.perf_counter()
        net.run_until(1.0 + 0.001 * segments / 2 + 2.0)
        wall = time.perf_counter() - started
        if delivered[0] != segments * size:
            raise RuntimeError("tcp probe: bulk stream incomplete")
        return 1e9 * wall / segments

    return _median_of(ROUNDS, once)


# -- core -------------------------------------------------------------------------


def base_protocol_corpus() -> list:
    """The rendezvous control messages every workload's peers exchange."""
    public = Endpoint("155.99.25.11", 62000)
    private = Endpoint("10.0.0.1", 4321)
    p = protocol
    return [
        p.Register(client_id=7, private_ep=private),
        p.Registered(client_id=7, public_ep=public, private_ep=private),
        p.Keepalive(client_id=7),
        p.KeepaliveAck(client_id=7),
        p.ConnectRequest(requester_id=7, target_id=9, transport=p.TRANSPORT_UDP),
        p.PeerEndpoints(peer_id=9, public_ep=public, private_ep=private, nonce=2**40 + 5,
                        transport=p.TRANSPORT_UDP, role=p.PeerEndpoints.ROLE_REQUESTER),
    ]


def session_protocol_corpus(payload_sizes: Sequence[int], chunk: int) -> list:
    """Control messages plus the punch and data messages of a session, with
    the workload's own payload sizes."""
    p = protocol
    nonce = 2**40 + 5
    corpus = base_protocol_corpus() + [
        p.Punch(sender=7, receiver=9, nonce=nonce),
        p.PunchAck(sender=9, receiver=7, nonce=nonce),
        p.Hello(sender=7, receiver=9, nonce=nonce),
        p.StreamData(sender=7, payload=b"c" * chunk),
    ]
    corpus.extend(
        p.SessionData(sender=7, receiver=9, nonce=nonce, payload=b"d" * size)
        for size in payload_sizes
    )
    return corpus


def protocol_ns(corpus: list, loops: int = 300) -> Dict[str, float]:
    encoded = [protocol.encode(message) for message in corpus]
    if [protocol.decode(data) for data in encoded] != corpus:
        raise RuntimeError("protocol probe: corpus does not round-trip")
    encode, decode = protocol.encode, protocol.decode

    def encode_once() -> float:
        started = time.perf_counter()
        for _ in range(loops):
            for message in corpus:
                encode(message)
        return 1e9 * (time.perf_counter() - started) / (loops * len(corpus))

    def decode_once() -> float:
        started = time.perf_counter()
        for _ in range(loops):
            for data in encoded:
                decode(data)
        return 1e9 * (time.perf_counter() - started) / (loops * len(encoded))

    return {
        "core.protocol.probe_ns_per_encode": _median_of(ROUNDS, encode_once),
        "core.protocol.probe_ns_per_decode": _median_of(ROUNDS, decode_once),
    }


def registry_ns(peers: int = 20_000) -> Dict[str, float]:
    public = Endpoint("155.99.25.11", 4321)
    private = Endpoint("10.0.0.1", 4321)
    samples: Dict[str, List[float]] = {"register": [], "refresh": [], "lookup": []}
    for _ in range(ROUNDS):
        registry = ShardedRegistry(
            lambda: 0.0,
            [Endpoint(f"18.181.{i}.31", 3478) for i in range(8)],
            RegistryConfig(ttl=30.0, sweep_granularity=5.0),
        )
        entries = [Registration(cid, public, private, 0.0, 0.0) for cid in range(peers)]
        register, lookup = registry.register, registry.lookup
        started = time.perf_counter()
        shards = [register(cid, entries[cid]) for cid in range(peers)]
        samples["register"].append(1e9 * (time.perf_counter() - started) / peers)
        refreshers = [shard.refresh for shard in registry.shards]
        started = time.perf_counter()
        for cid, shard in enumerate(shards):
            refreshers[shard](cid)
        samples["refresh"].append(1e9 * (time.perf_counter() - started) / peers)
        started = time.perf_counter()
        found = sum(1 for cid in range(peers) if lookup(cid) is not None)
        samples["lookup"].append(1e9 * (time.perf_counter() - started) / peers)
        if found != peers:
            raise RuntimeError("registry probe: lookups missed live peers")
    return {
        f"core.registry.probe_ns_per_{name}": median(values)
        for name, values in samples.items()
    }


def run_all(payload_sizes: Sequence[int], corpus: list, smoke: bool) -> Dict[str, float]:
    """Every probe, keyed by catalogue name.  Smoke mode shrinks the work so
    the whole set runs in a fraction of a second."""
    k = 10 if smoke else 1
    out = {
        "netsim.clock.probe_ns_per_event": clock_ns_per_event(20_000 // k),
        "netsim.link.probe_ns_per_packet": link_ns_per_packet(payload_sizes, LAN_LINK, 8_000 // k),
        "netsim.link.probe_ns_per_packet_lossy": link_ns_per_packet(payload_sizes, LOSSY, 8_000 // k),
        "nat.device.probe_ns_per_translation": nat_ns_per_translation(payload_sizes, 4_000 // k),
        "transport.tcp.probe_us_per_connection": tcp_us_per_connection(150 // k),
        "transport.tcp.probe_ns_per_segment": tcp_ns_per_segment(2_000 // k),
    }
    out.update(protocol_ns(corpus, 300 // k))
    out.update(registry_ns(20_000 // k))
    return out
