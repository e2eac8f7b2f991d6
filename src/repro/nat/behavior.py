"""NatBehavior: the full knob bundle for one NAT device, plus presets."""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from repro.nat.policy import (
    FilteringPolicy,
    MappingPolicy,
    PortAllocation,
    TcpRefusalPolicy,
)

#: The paper's running example allocates public ports from 62000 (Figure 5).
DEFAULT_PORT_BASE = 62000


@dataclass(frozen=True)
class NatBehavior:
    """Every behavioural axis of a simulated NAT (paper §5, §6.3).

    Attributes:
        mapping: translation-table keying (§5.1).  Cone =
            ``ENDPOINT_INDEPENDENT``; symmetric = ``ADDRESS_AND_PORT_DEPENDENT``.
        filtering: inbound filter applied to existing mappings.
        tcp_refusal: reaction to unsolicited inbound TCP SYNs (§5.2).
        port_allocation: public-port selection for new mappings.
        port_base: first port for sequential allocation.
        hairpin: whether a packet sent from the private side to one of the
            NAT's own public mappings is looped back (§3.5 / §5.4).
        hairpin_filters: if True, hairpin traffic is subjected to the inbound
            filter as if it had arrived on the public side — the simplistic
            "any traffic at my public ports is untrusted" behaviour §6.3
            suspects exists; it makes hairpin tests fail pessimistically.
        mangles_payload: if True, the NAT blindly rewrites 4-byte payload
            spans equal to the packet's private source IP (§5.3).
        udp_timeout: idle seconds before a UDP mapping is dropped (§3.6 —
            "some NATs have timeouts as short as 20 seconds").
        tcp_established_timeout: idle lifetime for established TCP mappings.
        tcp_close_linger: seconds a TCP mapping survives after observed close.
        refresh_on_inbound: whether inbound traffic refreshes the UDP idle
            timer (outbound always does).
        per_session_timers: §3.6's "many NATs associate UDP idle timers with
            individual UDP sessions": a remote whose session idles past
            ``udp_timeout`` stops passing the inbound filter even while the
            mapping survives on other sessions' traffic.  This is why
            keep-alives to S do not keep peer holes open.
        per_port_conflict_downgrade: §6.3's third anomaly — the NAT translates
            consistently until two private hosts use the same private port
            number, then degrades those mappings to symmetric behaviour.
        tcp_mapping: per-protocol override of ``mapping`` for TCP sessions
            (real NATs sometimes translate UDP consistently but TCP
            symmetrically, or vice versa — Table 1's UDP and TCP columns are
            independent).  None means "same as ``mapping``".
        hairpin_udp / hairpin_tcp: per-protocol overrides of ``hairpin``
            (Table 1 reports UDP and TCP hairpin support separately).
        table_capacity: total live mappings the box's translation memory can
            hold (None = unbounded).  Real consumer NATs run out of table
            long before they run out of 64k ports — this is what a ReDAN
            mapping-exhaustion flood actually exhausts.  At capacity, new
            outbound sessions are refused (packet dropped, ``table-exhausted``).
        max_mappings_per_host: hardening quota — live mappings any single
            private host may own (None = no quota).  A flooding LAN host hits
            its quota and its further outbound sessions are refused (packet
            dropped, ``quota-exceeded``); legitimate hosts keep allocating.
        rst_seq_validation: hardening — the NAT only honours (forwards and
            tears down state for) an inbound TCP RST whose sequence number
            matches the last ACK the private host sent out through the
            mapping; off-path spoofed RSTs with guessed sequence numbers are
            dropped (``rst-invalid``) and do not kill the mapping.
        icmp_validation: hardening — inbound ICMP errors must quote not just
            a live public mapping but a remote endpoint the private host has
            actually contacted through it; spoofed ICMP aimed at a guessed
            public port is dropped (``icmp-invalid``).
    """

    mapping: MappingPolicy = MappingPolicy.ENDPOINT_INDEPENDENT
    filtering: FilteringPolicy = FilteringPolicy.ADDRESS_AND_PORT
    tcp_refusal: TcpRefusalPolicy = TcpRefusalPolicy.DROP
    port_allocation: PortAllocation = PortAllocation.SEQUENTIAL
    port_base: int = DEFAULT_PORT_BASE
    hairpin: bool = False
    hairpin_filters: bool = False
    mangles_payload: bool = False
    udp_timeout: float = 120.0
    tcp_established_timeout: float = 3600.0
    tcp_close_linger: float = 2.0
    refresh_on_inbound: bool = True
    per_session_timers: bool = True
    per_port_conflict_downgrade: bool = False
    tcp_mapping: Optional[MappingPolicy] = None
    hairpin_udp: Optional[bool] = None
    hairpin_tcp: Optional[bool] = None
    table_capacity: Optional[int] = None
    max_mappings_per_host: Optional[int] = None
    rst_seq_validation: bool = False
    icmp_validation: bool = False

    # -- per-protocol resolution ---------------------------------------------

    def mapping_for(self, proto) -> MappingPolicy:
        """Effective mapping policy for a transport protocol."""
        from repro.netsim.packet import IpProtocol

        if proto is IpProtocol.TCP and self.tcp_mapping is not None:
            return self.tcp_mapping
        return self.mapping

    def hairpin_for(self, proto) -> bool:
        """Effective hairpin support for a transport protocol."""
        from repro.netsim.packet import IpProtocol

        if proto is IpProtocol.UDP and self.hairpin_udp is not None:
            return self.hairpin_udp
        if proto is IpProtocol.TCP and self.hairpin_tcp is not None:
            return self.hairpin_tcp
        return self.hairpin

    # -- derived properties the evaluation cares about -------------------------

    @property
    def is_cone(self) -> bool:
        """Consistent (identity-preserving) endpoint translation (§5.1)."""
        return self.mapping is MappingPolicy.ENDPOINT_INDEPENDENT

    @property
    def udp_punch_friendly(self) -> bool:
        """Ground truth for 'supports UDP hole punching' (Table 1 column 1)."""
        return self.mapping is MappingPolicy.ENDPOINT_INDEPENDENT

    @property
    def tcp_punch_friendly(self) -> bool:
        """Ground truth for 'supports TCP hole punching' (Table 1 column 3):
        consistent translation AND no active rejection of unsolicited SYNs.

        The refusal policy only matters when the filter actually refuses
        something: a full-cone (or unfiltered) NAT accepts unsolicited SYNs,
        so it is punch-friendly regardless of its configured refusal mode.
        """
        tcp_mapping = self.tcp_mapping if self.tcp_mapping is not None else self.mapping
        if tcp_mapping is not MappingPolicy.ENDPOINT_INDEPENDENT:
            return False
        if self.filtering in (FilteringPolicy.NONE, FilteringPolicy.ENDPOINT_INDEPENDENT):
            return True
        return self.tcp_refusal is TcpRefusalPolicy.DROP

    def but(self, **changes) -> "NatBehavior":
        """A copy with the given fields replaced (test/fleet convenience)."""
        return replace(self, **changes)


#: A fully P2P-friendly consumer NAT: cone mapping, port-restricted filter,
#: silent SYN drop.  The paper's "well-behaved NAT".
WELL_BEHAVED = NatBehavior()

#: Well-behaved and additionally hairpin-capable (needed for §3.5 multi-level).
HAIRPIN_CAPABLE = NatBehavior(hairpin=True)

#: Full-cone: endpoint-independent mapping *and* filtering.
FULL_CONE = NatBehavior(filtering=FilteringPolicy.ENDPOINT_INDEPENDENT)

#: Classic symmetric NAT (§5.1): per-destination mappings, punching fails.
SYMMETRIC = NatBehavior(
    mapping=MappingPolicy.ADDRESS_AND_PORT_DEPENDENT,
    filtering=FilteringPolicy.ADDRESS_AND_PORT,
)

#: Symmetric with sequential ports: port prediction (§5.1) can beat it.
SYMMETRIC_PREDICTABLE = SYMMETRIC.but(port_allocation=PortAllocation.SEQUENTIAL)

#: Symmetric with random ports: port prediction fails.
SYMMETRIC_RANDOM = SYMMETRIC.but(port_allocation=PortAllocation.RANDOM)

#: Cone NAT that actively RSTs unsolicited SYNs (§5.2's slow-but-workable case).
RST_SENDER = NatBehavior(tcp_refusal=TcpRefusalPolicy.RST)

#: Cone NAT that sends ICMP errors for unsolicited SYNs.
ICMP_SENDER = NatBehavior(tcp_refusal=TcpRefusalPolicy.ICMP)

#: Cone NAT that does not filter inbound traffic at all (§6.1.2 note).
UNFILTERED = NatBehavior(filtering=FilteringPolicy.NONE)

#: The §5.3 payload-mangling misbehaviour.
PAYLOAD_MANGLER = NatBehavior(mangles_payload=True)

#: Aggressively short UDP idle timeout (§3.6's 20-second NATs).
SHORT_TIMEOUT = NatBehavior(udp_timeout=20.0)

#: ReDAN-hardened consumer NAT: finite table with a per-host quota, RST
#: sequence validation, and strict ICMP endpoint validation.  All axes are
#: punch-neutral — only adversarial traffic ever notices them.
HARDENED = NatBehavior(
    table_capacity=2048,
    max_mappings_per_host=64,
    rst_seq_validation=True,
    icmp_validation=True,
)
