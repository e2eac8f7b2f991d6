"""``session_dataplane``: established sessions under sustained traffic.

Set-up builds one topology of ``PAIRS`` NATed pairs, registers everyone and
punches one UDP session and one TCP stream per pair.  The timed repetitions
then only move data over those sessions through ``run_until``: every virtual
millisecond each pair's requester sends a burst of UDP datagrams (sizes drawn
by seed from 32 / 512 / 1400 B) that the responder echoes, and writes 4 KiB
chunks into the TCP stream, which the responder hashes.  One op is one
application payload delivered intact: an echoed datagram that matches what
was sent, or a 4 KiB chunk covered by a matching SHA-256.

This is where the batched drain, direct dispatch, the packet pool and the
forwarding memos do their work; topology construction and punching are paid
in ``setup_s`` only.
"""

from __future__ import annotations

import hashlib
import random
import time
from collections import deque
from typing import List

from repro.nat.behavior import WELL_BEHAVED
from repro.scenarios.topologies import ScenarioBuilder

from simcounts import delta, network_counts
from workloads import RepResult, Workload, add_natted_client

PAIRS = 16
PAYLOAD_SIZES = (32, 512, 1400)
CHUNK = 4 * 1024
#: Virtual seconds between bursts.
TICK = 0.001
#: Per pair and tick: datagrams sent and TCP chunks written.
UDP_BURST = 6
TCP_BURST = 2
#: Ticks per repetition, sized so one repetition takes a little over a second
#: at the commit that defined the benchmark.
TICKS = 200
#: Distinct payloads per size class; the corpus is cycled through.
CORPUS_PER_SIZE = 64
#: After the last burst, long enough for everything in flight to land.
DRAIN = 0.5


class _Pair:
    __slots__ = (
        "session", "stream", "in_flight", "sent_sha", "received_sha",
        "udp_ok", "udp_bad", "chunks", "digest_reply",
    )

    def __init__(self) -> None:
        self.session = None
        self.stream = None
        self.in_flight: deque = deque()
        self.sent_sha = None
        self.received_sha = None
        self.udp_ok = 0
        self.udp_bad = 0
        self.chunks = 0
        self.digest_reply = None


class SessionDataplane(Workload):
    name = "session_dataplane"

    def __init__(self, seed: int, smoke: bool) -> None:
        super().__init__(seed, smoke)
        self.pairs_n = 2 if smoke else PAIRS
        self.ticks = 20 if smoke else TICKS

    def payload_sizes(self) -> List[int]:
        return list(PAYLOAD_SIZES)

    def protocol_corpus(self) -> list:
        from probes import session_protocol_corpus  # traced pass only

        return session_protocol_corpus(PAYLOAD_SIZES, CHUNK)

    # -- set-up: corpus, topology, punched sessions ---------------------------------

    def setup(self, spans) -> None:
        rng = random.Random(f"{self.seed}/{self.name}")
        self.corpus = {
            size: [rng.randbytes(size) for _ in range(CORPUS_PER_SIZE)]
            for size in PAYLOAD_SIZES
        }
        self.chunks = [rng.randbytes(CHUNK) for _ in range(CORPUS_PER_SIZE)]
        # One schedule per repetition slot, shared by all pairs and all
        # repetitions: which payload goes out at (tick, slot).
        self.udp_schedule = [
            [self.corpus[rng.choice(PAYLOAD_SIZES)][rng.randrange(CORPUS_PER_SIZE)]
             for _ in range(UDP_BURST)]
            for _ in range(self.ticks)
        ]
        self.tcp_schedule = [
            [self.chunks[rng.randrange(CORPUS_PER_SIZE)] for _ in range(TCP_BURST)]
            for _ in range(self.ticks)
        ]
        peer_ids = rng.sample(range(1, 2**31), 2 * self.pairs_n)

        with spans.span("scenarios.build", "dataplane"):
            builder = ScenarioBuilder(seed=rng.randrange(2**31))
            builder.add_server()
            clients = [
                add_natted_client(builder, i, peer_id, WELL_BEHAVED)
                for i, peer_id in enumerate(peer_ids)
            ]
        self.net = builder.net
        scheduler = self.net.scheduler
        self.pairs = [_Pair() for _ in range(self.pairs_n)]

        with spans.span("phase.register", "dataplane"):
            for i, client in enumerate(clients):
                scheduler.call_later(0.005 * i, client.register_udp)
                scheduler.call_later(0.005 * i + 0.002, client.register_tcp)
            self.net.run_for(2.0)
        if not all(c.udp_registered and c.tcp_registered for c in clients):
            raise RuntimeError("session_dataplane: registration did not complete")

        with spans.span("phase.punch", "dataplane"):
            for k, pair in enumerate(self.pairs):
                requester, responder = clients[2 * k], clients[2 * k + 1]
                responder.on_peer_session = self._echo_back
                responder.on_peer_stream = lambda stream, p=pair: self._hash_stream(p, stream)
                scheduler.call_later(
                    0.005 * k, requester.connect_udp, responder.client_id,
                    lambda session, p=pair: self._udp_up(p, session),
                )
                scheduler.call_later(
                    0.005 * k + 0.002, requester.connect_tcp, responder.client_id,
                    lambda stream, p=pair: self._tcp_up(p, stream),
                )
            self.net.run_for(5.0)
        if not all(p.session is not None and p.stream is not None for p in self.pairs):
            raise RuntimeError("session_dataplane: punching did not complete")
        self.clients = clients  # keep the topology alive

    @staticmethod
    def _echo_back(session) -> None:
        session.on_data = session.send

    @staticmethod
    def _hash_stream(pair: _Pair, stream) -> None:
        def on_data(payload: bytes) -> None:
            if len(payload) == 1:  # end-of-repetition marker: reply the digest
                stream.send(pair.received_sha.digest())
                pair.received_sha = hashlib.sha256()
            else:
                pair.received_sha.update(payload)

        pair.received_sha = hashlib.sha256()
        stream.on_data = on_data

    def _udp_up(self, pair: _Pair, session) -> None:
        pair.session = session
        session.on_data = lambda payload, p=pair: self._echoed(p, payload)

    @staticmethod
    def _tcp_up(pair: _Pair, stream) -> None:
        pair.stream = stream

        def on_data(payload: bytes) -> None:
            pair.digest_reply = payload

        stream.on_data = on_data

    @staticmethod
    def _echoed(pair: _Pair, payload: bytes) -> None:
        # Plain links deliver in order and lose nothing, so the echo of the
        # oldest datagram in flight is the only acceptable arrival.
        if pair.in_flight and payload == pair.in_flight.popleft():
            pair.udp_ok += 1
        else:
            pair.udp_bad += 1

    # -- one repetition ----------------------------------------------------------------

    def _burst(self, tick: int) -> None:
        udp = self.udp_schedule[tick]
        tcp = self.tcp_schedule[tick]
        for pair in self.pairs:
            send = pair.session.send
            in_flight = pair.in_flight
            for payload in udp:
                in_flight.append(payload)
                send(payload)
            write = pair.stream.send
            sha = pair.sent_sha
            for chunk in tcp:
                sha.update(chunk)
                write(chunk)
            pair.chunks += len(tcp)
        if tick + 1 < self.ticks:
            self.net.scheduler.call_later(TICK, self._burst, tick + 1)
        else:
            for pair in self.pairs:
                pair.stream.send(b"\x00")  # ask the responder for its digest

    def repetition(self, spans) -> RepResult:
        result = RepResult(nodes_built=len(self.net.nodes))  # built in set-up
        net = self.net
        started = time.perf_counter()
        before = network_counts(net)
        result.untimed_s += time.perf_counter() - started
        for pair in self.pairs:
            pair.in_flight.clear()
            pair.sent_sha = hashlib.sha256()
            pair.udp_ok = pair.udp_bad = pair.chunks = 0
            pair.digest_reply = None

        with spans.span("phase.data", "dataplane"):
            net.scheduler.call_later(TICK, self._burst, 0)
            net.run_until(net.now + TICK * self.ticks + DRAIN)

        started = time.perf_counter()
        for k, pair in enumerate(self.pairs):
            sent = UDP_BURST * self.ticks
            stream_ok = pair.digest_reply == pair.sent_sha.digest()
            result.ops += sent + pair.chunks
            result.failed += (sent - pair.udp_ok) + (0 if stream_ok else pair.chunks)
            if pair.udp_bad or pair.in_flight:
                result.errors.append(
                    f"pair {k}: {pair.udp_bad} corrupt and {len(pair.in_flight)} missing echoes"
                )
            if not stream_ok:
                result.errors.append(f"pair {k}: TCP stream SHA-256 mismatch")
            result.outcomes.append(
                [k, pair.udp_ok, pair.chunks, pair.sent_sha.hexdigest(), stream_ok]
            )
        result.counts = delta(network_counts(net), before)
        result.untimed_s += time.perf_counter() - started
        return result
