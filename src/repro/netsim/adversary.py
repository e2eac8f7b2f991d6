"""Adversarial workloads: scripted attacks against live NAT scenarios.

Fault injection (:mod:`repro.netsim.faults`, and the chaos soak built on it
in ``tests/chaos.py``) models networks that are unreliable but honest.  This
module models networks that are *hostile*, following the ReDAN attack
taxonomy (arXiv 2410.21984) against the paper's hole-punched sessions:

=====================  ======================================================
``exhaustion-flood``   :class:`ExhaustionFlood` — a host behind (or in front
                       of) the NAT churns fresh ``NatTable`` allocations until
                       translation memory / the dynamic port range is gone,
                       starving legitimate punches.  Defense:
                       ``NatBehavior.max_mappings_per_host`` quotas.
``spoofed-rst``        :class:`SpoofedRstInjector` — an off-path public host
                       forges the peer's source endpoint and sweeps guessed
                       public ports with RST segments (and optionally ICMP
                       errors) to tear down established punched sessions.
                       Defense: ``NatBehavior.rst_seq_validation`` /
                       ``icmp_validation`` plus the TCP stack's
                       ``rst_seq_validation``.
``port-prediction``    :class:`PortPredictionRacer` — a host behind the same
                       sequential-allocation symmetric NAT races the
                       legitimate peer by burning predicted ports during the
                       punch window (§5.1's prediction assumption turned into
                       an attack surface).  Defense: per-host quotas (the
                       racer is refused before the counter advances) or
                       ``PortAllocation.RANDOM``.
=====================  ======================================================

Attackers are deterministic: every port/sequence draw comes from a child of
the network's seeded RNG and every burst fires off the shared virtual clock,
so an attacked run replays byte-identically — the same property the fault
injector has.

Composition with the fault layer is structural: an attacker exposes
``start()`` / ``stop()``, the exact actor protocol
:class:`~repro.netsim.faults.FaultPlan` drives via ``server-kill`` /
``server-revive`` targets, so a plan can switch attacks on and off mid-run
next to link flaps and NAT reboots::

    attacker = ExhaustionFlood(net, host=mole, nat=nat_a)
    plan = FaultPlan([(5.0, "server-kill", "flood"), ...])
    scenario.inject_faults(plan, extra_targets={"flood": attacker})

Every burst is recorded context-free in the flight recorder
(``kind="attack"``), so the attribution rules in
:mod:`repro.obs.attribution` can match attacks to the connect/session
attempts whose windows they land in (the ``mapping-exhausted`` and
``spoofed-reset`` taxonomy categories).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

from repro.netsim.addresses import Endpoint, IPv4Address
from repro.netsim.node import Host
from repro.netsim.packet import (
    IcmpError,
    IcmpType,
    IpProtocol,
    Packet,
    TcpFlags,
    tcp_packet,
    udp_packet,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.nat.device import NatDevice
    from repro.netsim.network import Network

#: A flood destination nobody answers (TEST-NET-3): packets die on the
#: backbone, but the mapping was already allocated by then.
DARK_ADDRESS = "203.0.113.1"
#: First source port a churning attacker burns; it wraps back here.
_SRC_PORT_BASE = 20000
#: Where the placement helpers put an attacker: inside the NAT's first LAN,
#: and on the public backbone (TEST-NET-2).
_LAN_ATTACKER_IP = "10.0.0.66"
_WAN_ATTACKER_IP = "198.51.100.66"
#: Public ports a spoofer sweeps, upward from the target NAT's port base.
_SWEEP_WIDTH = 32

FAMILY_EXHAUSTION = "exhaustion-flood"
FAMILY_SPOOFED_RST = "spoofed-rst"
FAMILY_PORT_PREDICTION = "port-prediction"


class Attacker:
    """Base class: a deterministic, clock-driven traffic source.

    Subclasses implement :meth:`_burst` (one volley of attack packets).
    ``start()``/``stop()`` make an attacker a valid ``server-kill`` /
    ``server-revive`` target for :class:`~repro.netsim.faults.FaultPlan`.
    """

    family = "abstract"

    def __init__(
        self,
        net: "Network",
        name: str,
        interval: float = 0.25,
        burst: int = 32,
    ) -> None:
        self.net = net
        self.name = name
        self.interval = interval
        self.burst = burst
        self.rng = net.rng.child(f"adversary/{name}")
        self.active = False
        self.packets_sent = 0
        self.bursts_fired = 0
        self._timer = None
        self._attempt = None

    # -- lifecycle (FaultPlan actor protocol) --------------------------------

    def start(self) -> None:
        """Begin attacking now; idempotent."""
        if self.active:
            return
        self.active = True
        flight = self.net.flight
        if flight is not None and self._attempt is None:
            # Own causal context: forged packets are stamped with this
            # attempt, so their downstream drops attribute to the *attack*,
            # not to whichever victim attempt happens to overlap in time.
            saved = flight.scheduler.context
            self._attempt = flight.attempt(
                f"attack.{self.family}", attacker=self.name
            )
            flight.scheduler.context = saved
        self._schedule()

    def stop(self) -> None:
        """Cease fire; idempotent, restartable."""
        self.active = False
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        flight = self.net.flight
        if flight is not None and self._attempt is not None:
            flight.finish(self._attempt, "stopped", packets=self.packets_sent)
            self._attempt = None

    def arm(self, start: float, duration: Optional[float] = None) -> "Attacker":
        """Schedule ``start()`` at absolute virtual time *start* (and
        ``stop()`` after *duration*, if given); chainable."""
        self.net.scheduler.call_at(start, self.start)
        if duration is not None:
            self.net.scheduler.call_at(start + duration, self.stop)
        return self

    # -- machinery -----------------------------------------------------------

    def _schedule(self) -> None:
        self._timer = self.net.scheduler.call_later(self.interval, self._tick)

    def _tick(self) -> None:
        if not self.active:
            return
        sent = self._burst()
        self.packets_sent += sent
        self.bursts_fired += 1
        self.net.metrics.counter("attack.bursts", family=self.family).inc()
        flight = self.net.flight
        if flight is not None:
            # Context-free, like fault events: an attack burst is evidence
            # for every attempt whose window it lands in.
            flight.record_global(
                "attack",
                family=self.family,
                attacker=self.name,
                packets=sent,
                **self._burst_tags(),
            )
        self._schedule()

    def _burst(self) -> int:  # pragma: no cover - abstract
        raise NotImplementedError

    def _burst_tags(self) -> dict:
        return {}

    def _launch(self, host: Host, packet: Packet) -> None:
        """Inject one forged packet, flow-stamped with the attack attempt."""
        if self._attempt is not None:
            packet.flow = self._attempt.id
        host.send(packet)

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}({self.name}, active={self.active}, "
            f"sent={self.packets_sent})"
        )


class _ChurnAttacker(Attacker):
    """Shared machinery for attacks that burn NAT allocations: UDP datagrams
    from ever-fresh source ports (and slowly rotating destinations, so even
    symmetric tables see a new key per packet)."""

    def __init__(
        self,
        net: "Network",
        host: Host,
        nat: "NatDevice",
        name: str,
        interval: float = 0.25,
        burst: int = 32,
    ) -> None:
        super().__init__(net, name, interval=interval, burst=burst)
        self.host = host
        self.nat = nat
        self.remote_ip = IPv4Address(DARK_ADDRESS)
        self._src_ip = host.interfaces["eth0"].ip
        self._src_port = _SRC_PORT_BASE
        self._dst_port = 40000

    def _burst(self) -> int:
        src_ip = self._src_ip
        remote_ip = self.remote_ip
        for _ in range(self.burst):
            src = Endpoint(src_ip, self._src_port)
            self._src_port += 1
            if self._src_port > 0xFFFF:
                # Wrap onto a fresh destination port so the churned keys stay
                # distinct for cone *and* symmetric tables.
                self._src_port = _SRC_PORT_BASE
                self._dst_port += 1
            self._launch(
                self.host, udp_packet(src, Endpoint(remote_ip, self._dst_port))
            )
        return self.burst

    def _burst_tags(self) -> dict:
        return {"target": self.nat.name}


class ExhaustionFlood(_ChurnAttacker):
    """Mapping-table exhaustion flood (ReDAN family 1).

    Behind the NAT (the usual placement — an untrusted app or compromised
    box in the private realm), every datagram from a fresh source port burns
    one ``NatTable`` allocation; against a box with finite
    ``table_capacity`` the table fills and legitimate punches start dying
    with ``table-exhausted`` drops.  A per-host quota
    (``max_mappings_per_host``) caps the damage at the attacker's quota.

    Attach the attacking host with :func:`attach_lan_attacker`; in-front
    placement (a public host hammering the NAT's WAN address) exercises the
    inbound drop path instead — inbound traffic never allocates state, which
    is itself an invariant the soak asserts.
    """

    family = FAMILY_EXHAUSTION


class PortPredictionRacer(_ChurnAttacker):
    """Port-prediction race (ReDAN family 3, §5.1 inverted).

    On a sequential-allocation symmetric NAT the next public port is
    predictable — that is exactly what the legitimate peer's punch relies
    on.  A co-resident attacker churning allocations during the punch window
    advances the allocator past every predicted candidate, so the peer's
    probes land on dead ports.  With a per-host quota the racer is refused
    *before* the allocator advances (the quota check precedes port
    allocation), so predictions hold; ``PortAllocation.RANDOM`` removes the
    predictability altogether (and with it, symmetric punchability).
    """

    family = FAMILY_PORT_PREDICTION


class SpoofedRstInjector(Attacker):
    """Off-path spoofed RST / ICMP injection (ReDAN family 2).

    The attacker sits on the public backbone, forges the victim's *peer* as
    the source endpoint (so the packet passes address/port-restricted
    inbound filtering) and sweeps guessed public ports on the target NAT
    with RST segments carrying attacker-chosen sequence numbers.  An
    unhardened NAT forwards the RST (and begins its close-linger teardown);
    an unhardened TCP stack honours any RST — the punched stream dies.

    With ``NatBehavior.rst_seq_validation`` the NAT only forwards RSTs whose
    sequence number matches the last ACK the private host sent
    (``rst-invalid`` drops otherwise); with the stack's
    ``rst_seq_validation`` a forged RST must also hit ``rcv_nxt`` exactly.

    With ``spoof_icmp=True`` each burst also forges ICMP errors quoting the
    guessed mapping as ``original_src`` and *known_remote* as
    ``original_dst`` (the well-known rendezvous endpoint — the one remote an
    off-path attacker can always name).  ``NatBehavior.icmp_validation``
    drops quotes for remotes the mapping never contacted (``icmp-invalid``);
    the stack's ``icmp_validation`` downgrades ICMP in SYN_SENT to a soft
    error.
    """

    family = FAMILY_SPOOFED_RST

    def __init__(
        self,
        net: "Network",
        host: Host,
        nat: "NatDevice",
        forged_src: Endpoint,
        spoof_icmp: bool = False,
        known_remote: Optional[Endpoint] = None,
    ) -> None:
        super().__init__(net, "spoofer", interval=0.1, burst=16)
        self.host = host
        self.nat = nat
        self.forged_src = forged_src
        self.spoof_icmp = spoof_icmp
        self.known_remote = known_remote if known_remote is not None else forged_src
        self._target_ip = nat.public_ip
        base = nat.behavior.port_base
        self.sweep_ports: List[int] = [
            ((base + offset - 1) & 0xFFFF) + 1 for offset in range(_SWEEP_WIDTH)
        ]
        self._sweep_idx = 0

    def _burst(self) -> int:
        sent = 0
        for _ in range(self.burst):
            port = self.sweep_ports[self._sweep_idx % len(self.sweep_ports)]
            self._sweep_idx += 1
            dst = Endpoint(self._target_ip, port)
            # Off-path: the 32-bit sequence number is a guess.
            rst = tcp_packet(
                self.forged_src,
                dst,
                TcpFlags.RST,
                seq=self.rng.randint(0, 0xFFFFFFFF),
            )
            self._launch(self.host, rst)
            sent += 1
            if self.spoof_icmp:
                icmp = Packet(
                    proto=IpProtocol.ICMP,
                    src=Endpoint(self.host.interfaces["eth0"].ip, 0),
                    dst=Endpoint(self._target_ip, 0),
                    icmp=IcmpError(
                        icmp_type=IcmpType.PORT_UNREACHABLE,
                        original_proto=IpProtocol.TCP,
                        original_src=dst,
                        original_dst=self.known_remote,
                    ),
                )
                self._launch(self.host, icmp)
                sent += 1
        return sent

    def _burst_tags(self) -> dict:
        return {
            "target": self.nat.name,
            "forged_src": str(self.forged_src),
            "icmp": self.spoof_icmp,
        }


# ---------------------------------------------------------------------------
# Placement helpers
# ---------------------------------------------------------------------------


def attach_lan_attacker(net: "Network", nat: "NatDevice") -> Host:
    """Attach a raw host ``mole`` to *nat*'s private realm (no transport
    stack — the attacker speaks packets, not sockets).  Returns the host."""
    lan = nat.interfaces["lan0"]
    return net.add_host(
        "mole", ip=_LAN_ATTACKER_IP, network=str(lan.network), link=lan.link, gateway=lan.ip
    )


def attach_wan_attacker(net: "Network", backbone) -> Host:
    """Attach a raw public host ``offpath`` (the off-path spoofing position)."""
    return net.add_host("offpath", ip=_WAN_ATTACKER_IP, network="0.0.0.0/0", link=backbone)
