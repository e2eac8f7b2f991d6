"""Links: L2 segments connecting node interfaces.

A :class:`Link` models either a point-to-point wire or a small broadcast
segment (a home LAN behind a NAT).  Delivery is next-hop-addressed: the
sending node resolves the next-hop IP (its routing decision) and the link
delivers to whichever attached interface owns that IP — an ARP-free
simplification that preserves everything the paper's scenarios need,
including "stray traffic reaches the wrong host with the same private IP"
(§3.4): two *different* links can each have a host at 10.1.1.3.

Latency, jitter, and loss come from a :class:`LinkProfile`; all randomness is
drawn from the owning network's seeded RNG, so runs are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.netsim.addresses import IPv4Address
from repro.netsim.clock import Scheduler, Timer
from repro.netsim.packet import PACKET_POOL, IpProtocol, Packet
from repro.util.rng import SeededRng

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.netsim.node import Node


@dataclass(frozen=True)
class LinkProfile:
    """Propagation characteristics of a link.

    Attributes:
        latency: one-way delay in seconds.
        jitter: maximum extra uniform random delay in seconds.
        loss: independent per-packet drop probability in [0, 1].
        bandwidth_bps: serialization rate in bits/second; None = infinite.
            With a finite rate the link models a FIFO transmit queue: each
            packet occupies the wire for ``size*8/bandwidth`` seconds and
            later packets wait their turn (this is what makes "relaying
            consumes the server's bandwidth", §2.2, measurable).
        max_queue_delay: tail-drop threshold — a packet that would wait
            longer than this in the transmit queue is dropped.  None = an
            unbounded queue.
        burst_enter: per-packet probability of the Gilbert-Elliott loss model
            transitioning from the good state into the bad (bursty) state.
            0 (default) disables the model entirely — no extra RNG draws, so
            existing seeds replay unchanged.
        burst_exit: per-packet probability of leaving the bad state.  Must be
            positive when ``burst_enter`` is, or a burst would never end.
        burst_loss: drop probability while in the bad state (the good state
            uses the independent ``loss`` field).
        duplicate: per-packet probability of delivering a second copy — the
            duplicated datagram a hole-punching protocol must tolerate.
        reorder: per-packet probability of delaying a packet by an extra
            ``reorder_delay`` seconds, letting later packets overtake it.
        reorder_delay: the extra delay applied to reordered packets.
    """

    latency: float = 0.010
    jitter: float = 0.0
    loss: float = 0.0
    bandwidth_bps: Optional[float] = None
    max_queue_delay: Optional[float] = None
    burst_enter: float = 0.0
    burst_exit: float = 0.0
    burst_loss: float = 1.0
    duplicate: float = 0.0
    reorder: float = 0.0
    reorder_delay: float = 0.0

    def __post_init__(self) -> None:
        # Every bound is written ``not (x >= bound)`` so NaN fails it too.
        if not (self.latency >= 0 and self.jitter >= 0):
            raise ValueError("latency/jitter must be non-negative")
        for name in ("loss", "burst_enter", "burst_exit", "burst_loss",
                     "duplicate", "reorder"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} probability out of range: {value}")
        if self.burst_enter > 0 and self.burst_exit <= 0:
            raise ValueError("burst_enter requires a positive burst_exit")
        if self.reorder > 0 and self.reorder_delay <= 0:
            raise ValueError("reorder requires a positive reorder_delay")
        if not (self.reorder_delay >= 0):
            raise ValueError("reorder_delay must be non-negative")
        if self.bandwidth_bps is not None and not (self.bandwidth_bps > 0):
            raise ValueError("bandwidth_bps must be positive")
        if self.max_queue_delay is not None and not (self.max_queue_delay >= 0):
            raise ValueError("max_queue_delay must be non-negative")


#: Typical last-mile consumer link.
CONSUMER_LINK = LinkProfile(latency=0.015, jitter=0.005)
#: Low-latency LAN segment.
LAN_LINK = LinkProfile(latency=0.0005)
#: Well-connected server uplink.
BACKBONE_LINK = LinkProfile(latency=0.005)


class Link:
    """An L2 segment with one or more attached node interfaces."""

    #: Class-wide switch for the statistical fast path.  The fast-path
    #: identity suite flips it off to prove the fast path is behaviourally
    #: inert, and the tests' wire tap flips it off while it captures (the
    #: per-packet route never recycles a packet a capture still holds);
    #: everything else leaves it on.
    fast_path_enabled = True

    def __init__(
        self,
        scheduler: Scheduler,
        name: str = "link",
        profile: Optional[LinkProfile] = None,
        rng: Optional[SeededRng] = None,
    ) -> None:
        self.scheduler = scheduler
        self.name = name
        self._profile = profile or LinkProfile()
        self._rng = rng or SeededRng(0, f"link/{name}")
        #: FlightRecorder set by ``Network.attach_flight``; None (the
        #: default) keeps every drop site to a single attribute test.
        self._flight = None
        #: Attached node per interface IP, keyed by the raw 32-bit address
        #: value: int probes hash at C speed, IPv4Address probes pay a
        #: Python-level ``__hash__`` call per packet.
        self._owner_values: Dict[int, "Node"] = {}
        self._busy_until = 0.0
        self._up = True
        self._ge_bad = False  # Gilbert-Elliott state: currently in a burst?
        #: The coalesced-delivery timer (fast path only; see
        #: Scheduler.call_later_batched) that same-tick transmits append
        #: (sender, receiver, packet) triples to.  A packet in flight is
        #: booked nowhere but on the scheduler: :meth:`down` finds this
        #: link's pending timers there.
        self._open_batch: Optional[Timer] = None
        #: Scheduler tick at which ``_open_batch`` was created.  While the
        #: batch stays open the latency is constant (``_refresh_fast_path``
        #: closes it on any profile change), so ``_open_tick == now`` is
        #: equivalent to the full ``batch.when == now + latency`` compare.
        self._open_tick = -1.0
        self.packets_dropped = 0
        self.queue_drops = 0
        self.flap_drops = 0
        self.burst_drops = 0
        self.duplicates_delivered = 0
        self.packets_reordered = 0
        self.bytes_sent = 0
        #: Per-protocol sent / lost counts indexed by ``wire_index`` (a list
        #: index per packet, no enum hashing); the owning network's
        #: collector reads the dict views below at snapshot time.
        self._sent: List[int] = [0] * len(IpProtocol)
        self._lost: List[int] = [0] * len(IpProtocol)
        self._refresh_fast_path()

    @property
    def packets_sent(self) -> int:
        """Total packets placed on the wire.

        Derived from the per-protocol counts — every wire path bumps
        exactly one, so the transmit hot path pays one count write instead
        of two and this read-rare total sums at snapshot time.
        """
        return sum(self._sent)

    # -- statistical fast path ---------------------------------------------------

    @property
    def profile(self) -> LinkProfile:
        return self._profile

    @profile.setter
    def profile(self, value: LinkProfile) -> None:
        self._profile = value
        self._refresh_fast_path()

    def set_flight(self, flight) -> None:
        """Attach (or detach, with None) a flight recorder."""
        self._flight = flight
        self._refresh_fast_path()

    def _refresh_fast_path(self) -> None:
        """Re-evaluate the once-per-change gate for the per-packet fast path.

        The fast path is legal exactly when every per-packet branch of the
        slow path is statically known to be a no-op: no flight recorder and
        a plain profile (no loss, burst, jitter, bandwidth, duplication, or
        reordering).  Zero-valued fault knobs draw no RNG on the slow path
        either (pinned by ``test_defaults_draw_no_rng``), so both paths
        consume identical RNG streams — the fast path is observably inert.
        Link state is no term: :meth:`transmit` tests ``_up`` before the
        gate.

        Called from ``__init__``, the ``profile`` setter and
        :meth:`set_flight`; see docs/performance.md for the invalidation
        matrix.
        """
        p = self._profile
        self._fast = (
            self.fast_path_enabled
            and self._flight is None
            and p.bandwidth_bps is None
            and not (
                p.loss or p.jitter or p.burst_enter or p.duplicate or p.reorder
            )
        )
        self._fast_latency = p.latency
        # Close any open coalescing batch: the tick-equality append check in
        # ``transmit`` assumes the latency has not changed since the batch
        # was created, and every latency-changing event funnels through here.
        self._open_batch = None

    @property
    def sent_by_proto(self) -> Dict[IpProtocol, int]:
        """Per-protocol sent counts (protocols actually seen only)."""
        return {p: n for p, n in zip(IpProtocol, self._sent) if n}

    @property
    def lost_by_proto(self) -> Dict[IpProtocol, int]:
        """Per-protocol loss counts (protocols actually seen only)."""
        return {p: n for p, n in zip(IpProtocol, self._lost) if n}

    def attach(self, node: "Node", ip) -> None:
        """Attach *node*'s interface at *ip* to this segment."""
        address = IPv4Address(ip)
        if address._value in self._owner_values:
            raise ValueError(f"duplicate IP {address} on link {self.name}")
        self._owner_values[address._value] = node

    # -- link state (fault injection) -------------------------------------------

    def down(self) -> None:
        """Take the segment down: in-flight packets are dropped and further
        transmissions fail until :meth:`up`.  Idempotent.  The Gilbert-
        Elliott burst chain is reset: a carrier loss tears down whatever
        channel condition caused the burst, so the segment must not come
        back "mid-burst" from pre-flap traffic.

        The drops go per-packet deliveries first, then batches, each kind
        in scheduling order, and a batch from its next undelivered item."""
        if not self._up:
            return
        self._up = False
        self._ge_bad = False
        self._open_batch = None
        callbacks = (self._deliver, self._drain_batch)
        pending = sorted(
            (timer._items is not None, seq, timer)
            for _, seq, timer in self.scheduler._heap
            if timer._callback in callbacks and timer.active
        )
        for _, _, timer in pending:
            timer.cancel()
            items = timer._items
            for sender, receiver, packet in (
                [timer._args] if items is None else items[timer._inext:]
            ):
                self._drop(packet, sender, receiver, "flap-drop")
                self.flap_drops += 1

    def up(self) -> None:
        """Bring the segment back; the transmit queue restarts empty and the
        Gilbert-Elliott chain restarts in the good state."""
        if self._up:
            return
        self._up = True
        self._busy_until = 0.0
        self._ge_bad = False

    def transmit(self, packet: Packet, sender: "Node", next_hop_ip) -> bool:
        """Send *packet* toward the attached interface owning *next_hop_ip*.

        Returns True if delivery was scheduled; False if the next hop does not
        exist on this segment or the packet was lost.  Both cases are silent
        on the wire — exactly how a datagram to a non-existent private host
        behaves in the paper's §3.4 scenario.
        """
        try:
            nh_value = next_hop_ip._value
        except AttributeError:  # next hop given as str/int/bytes
            nh_value = IPv4Address(next_hop_ip)._value
        if not self._up:
            self._drop(packet, sender, None, "link-down")
            self.flap_drops += 1
            return False
        receiver = self._owner_values.get(nh_value)
        if receiver is None or receiver is sender:
            self._drop(packet, sender, None, "no-next-hop")
            return False
        # The gate (see _refresh_fast_path) picks only how the delivery is
        # timed: a coalesced batch when every fault/flight branch of
        # ``_wire_one`` is proven a no-op, a per-packet timer otherwise.
        if self._fast:
            proto = packet.proto
            self.bytes_sent += proto.header_bytes + len(packet.payload)
            self._sent[proto.wire_index] += 1
            scheduler = self.scheduler
            batch = self._open_batch
            if (
                batch is None
                or batch._bseq != scheduler._seq
                or batch._fired
                or self._open_tick != scheduler.now
            ):
                batch = scheduler.call_later_batched(
                    self._fast_latency, self._drain_batch
                )
                self._open_batch = batch
                self._open_tick = scheduler.now
            # Either the batch is new, or no timer was created since its own,
            # so this delivery would have drawn the very next sequence number
            # at the same deadline — appending preserves fire order exactly.
            batch._items.append((sender, receiver, packet))
            return True
        if not self._wire_one(packet, sender, receiver, 0.0, dup=False):
            return False
        profile = self._profile
        if profile.duplicate and self._rng.chance(profile.duplicate):
            # A duplicated datagram trails its original by one extra latency
            # and is charged/checked like any other wire packet: it takes its
            # own loss and burst draws, pays the serialization charge, and
            # can tail-drop — a duplicate is not exempt from the link model.
            self._wire_one(packet, sender, receiver, profile.latency, dup=True)
        return True

    def _wire_one(
        self,
        packet: Packet,
        sender: "Node",
        receiver: "Node",
        extra_delay: float,
        dup: bool,
    ) -> bool:
        """Put one packet (original or duplicate copy) on the wire: fault
        draws, bandwidth charge, and delivery scheduling.  Returns True if a
        delivery was scheduled."""
        profile = self._profile
        if profile.loss and self._rng.chance(profile.loss):
            self._drop(packet, sender, receiver, "lost")
            self._lost[packet.proto.wire_index] += 1
            return False
        if profile.burst_enter and self._ge_burst_drops(packet):
            self._drop(packet, sender, receiver, "burst-lost")
            self.burst_drops += 1
            self._lost[packet.proto.wire_index] += 1
            return False
        delay = profile.latency + extra_delay
        if profile.jitter:
            delay += self._rng.uniform(0.0, profile.jitter)
        if profile.bandwidth_bps is not None:
            now = self.scheduler.now
            queue_wait = max(0.0, self._busy_until - now)
            if (
                profile.max_queue_delay is not None
                and queue_wait > profile.max_queue_delay
            ):
                self._drop(packet, sender, receiver, "queue-drop")
                self.queue_drops += 1
                return False
            serialization = packet.size * 8 / profile.bandwidth_bps
            self._busy_until = now + queue_wait + serialization
            delay += queue_wait + serialization
        if profile.reorder and self._rng.chance(profile.reorder):
            delay += profile.reorder_delay
            self.packets_reordered += 1
        if dup:
            self.duplicates_delivered += 1
        proto = packet.proto
        self.bytes_sent += proto.header_bytes + len(packet.payload)
        self._sent[proto.wire_index] += 1
        self.scheduler.call_later(delay, self._deliver, sender, receiver, packet)
        return True

    def _drain_batch(self, batch: Timer, limit: int) -> None:
        """Fire up to *limit* queued deliveries of *batch* (the scheduler's
        event loop calls this when the batch comes due; see
        :meth:`Scheduler.call_later_batched`).

        Every item goes through the receiver's ``receive()`` — the same
        route the per-packet timer takes (:meth:`_deliver`).  The
        packet is recycled into the pool when whoever held it says it kept
        no reference: ``receive()`` returned ``True`` (a UDP socket
        delivery) or the receiver declares ``consumes_packets`` (NAT
        devices).  Release stamps the generation, so stale references are
        detectable, and drops the payload and headers, so the free list
        keeps no application data alive (see :class:`PacketPool`).
        """
        items = batch._items
        pool = PACKET_POOL
        free = (
            pool._free
            if pool.enabled and len(pool._free) < pool.max_free
            else None
        )
        poison = pool.debug_poison
        released = 0
        i = batch._inext
        stop = i + limit
        try:
            # len() is re-read every pass: a same-instant transmit on a
            # zero-latency link may append to this batch while it fires.
            while i < stop and i < len(items):
                batch._inext = i + 1
                _, receiver, packet = items[i]
                if (
                    receiver.receive(packet, self) is True
                    or receiver.consumes_packets
                ) and free is not None:
                    if poison:
                        pool.release(packet)  # counts itself
                    else:
                        packet.payload = b""
                        packet.tcp = packet.icmp = None
                        packet.gen += 1
                        free.append(packet)
                        released += 1
                if batch._cancelled:
                    # Cancelled mid-drain: this link went down inside a
                    # delivery callback and flap-dropped the rest.
                    break
                i = batch._inext
        finally:
            # Also when a delivery callback raises: the packets already on
            # the free list stay counted.
            pool.released += released

    def _ge_burst_drops(self, packet: Packet) -> bool:
        """Advance the Gilbert-Elliott two-state chain one packet and report
        whether the bad state claims this packet."""
        profile = self._profile
        if self._ge_bad:
            if self._rng.chance(profile.burst_exit):
                self._ge_bad = False
        elif self._rng.chance(profile.burst_enter):
            self._ge_bad = True
        return self._ge_bad and self._rng.chance(profile.burst_loss)

    def _deliver(self, sender: "Node", receiver: "Node", packet: Packet) -> None:
        receiver.receive(packet, self)

    def _drop(self, packet: Packet, sender: "Node", receiver, reason: str) -> None:
        """Count and flight-record one packet this link dropped (the flight
        test is a no-op whenever the fast gate holds)."""
        self.packets_dropped += 1
        if self._flight is not None:
            self._flight.packet_event(
                "link.drop", packet, link=self.name, reason=reason
            )

    def __repr__(self) -> str:
        return f"Link({self.name!r}, attached={len(self._owner_values)})"
