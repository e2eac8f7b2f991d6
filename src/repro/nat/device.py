"""NAT devices: NAPT (the paper's default assumption).

A :class:`NatDevice` is a router with one WAN interface and one or more LAN
interfaces.  Traffic arriving on a LAN interface and routed toward the WAN is
source-translated through the :class:`~repro.nat.mapping.NatTable`; traffic
arriving on the WAN addressed to the NAT's public IP is destination-translated
back — or refused per the configured policies.  Hairpin translation (§3.5)
loops LAN-originated packets addressed to the NAT's own public endpoints back
onto the LAN with **both** endpoints rewritten, exactly as the paper describes
for NAT C in Figure 6.
"""

from __future__ import annotations

from typing import Optional

from repro.netsim.addresses import Endpoint, IPv4Address
from repro.netsim.clock import Scheduler
from repro.netsim.link import Link
from repro.netsim.node import Interface, Router
from repro.netsim.packet import (
    ACK_BIT,
    RST_ACK,
    RST_BIT,
    IcmpError,
    IcmpType,
    IpProtocol,
    Packet,
    icmp_error_for,
    tcp_packet,
)
from repro.nat.behavior import NatBehavior
from repro.nat.mapping import NatMapping, NatTable, QuotaExceeded, TableExhausted
from repro.obs.metrics import Counter
from repro.nat.policy import FilteringPolicy, MappingPolicy, TcpRefusalPolicy
from repro.util.errors import RoutingError
from repro.util.rng import SeededRng


class NatDevice(Router):
    """A NAPT device (outbound NAT translating entire session endpoints).

    Wire it with :meth:`set_wan` (public side) and :meth:`add_lan` (private
    side), then hosts on the LAN use the LAN interface IP as their default
    gateway.

    Statistics counters (``translations_out``, ``translations_in``,
    ``inbound_refused``, ``hairpin_forwarded``, ...) feed the benches.
    """

    forwards_packets = True
    #: Every path through :meth:`receive` either drops the packet or emits a
    #: *fresh clone* (translation, forward, hairpin, ICMP rebuild) — the
    #: delivered object itself is never stowed, so the drain loop may
    #: recycle it into the packet pool after receive() returns.
    consumes_packets = True

    def __init__(
        self,
        name: str,
        scheduler: Scheduler,
        behavior: Optional[NatBehavior] = None,
        rng: Optional[SeededRng] = None,
    ) -> None:
        super().__init__(name, scheduler)
        self._wan_iface: Optional[Interface] = None
        self._wan_link: Optional[Link] = None
        self._cached_public_ip: Optional[IPv4Address] = None
        #: Raw 32-bit value of the public IP for the per-packet "is this
        #: addressed to us / is this a hairpin" compares (int equality is
        #: C-level; IPv4Address equality is a Python call per packet).
        self._public_value: Optional[int] = None
        self.behavior = behavior or NatBehavior()
        self._rng = rng or SeededRng(0, f"nat/{name}")
        self._wan_name: Optional[str] = None
        self.table: Optional[NatTable] = None
        #: Hot alias of ``table._by_public`` (set by :meth:`set_wan`): the
        #: index is mutated in place — including across :meth:`reboot`,
        #: which resets it with ``clear()`` — so the inbound per-packet
        #: probe pays one attribute hop instead of two.
        self._by_public: dict = {}
        #: Alias of ``table.outbound_memo``, same pattern: the table empties
        #: it in place on every create/remove/reset.
        self._out_memo: dict = {}
        self.translations_out = 0
        self.translations_in = 0
        self.inbound_refused = 0
        self.inbound_unmatched = 0
        self.hairpin_forwarded = 0
        self.hairpin_refused = 0
        self.payloads_mangled = 0
        self.reboots = 0
        # Pre-bound drop counters, one handle per reason (no-mapping,
        # filtered, icmp-unmatched, no-route, ttl-expired, hairpin-refused,
        # table-exhausted, quota-exceeded, rst-invalid, icmp-invalid);
        # feeds the ``nat.drops`` metric via :attr:`drops_by_reason`.
        self._drop_handles: dict = {}
        #: Pre-bound ``nat.table.exhausted`` handle (satellite metric for the
        #: exhaustion-flood attack; lazily bound like the drop handles).
        self._exhausted_handle: Optional[Counter] = None

    # -- behavior-derived per-packet constants -----------------------------------

    @property
    def behavior(self) -> NatBehavior:
        return self._behavior

    @behavior.setter
    def behavior(self, value: NatBehavior) -> None:
        self._behavior = value
        self._refresh_behavior_cache()

    def _refresh_behavior_cache(self) -> None:
        """Precompute every per-packet decision that depends only on the
        (immutable) behavior profile, so the translate path reads plain
        attributes instead of re-deriving policies per packet."""
        b = self._behavior
        self._mapping_by_proto = {p: b.mapping_for(p) for p in IpProtocol}
        filtering = b.filtering
        self._filter_open = filtering in (
            FilteringPolicy.NONE,
            FilteringPolicy.ENDPOINT_INDEPENDENT,
        )
        self._filter_by_port = filtering is FilteringPolicy.ADDRESS_AND_PORT
        self._conflict_downgrade = b.per_port_conflict_downgrade
        self._mangles = b.mangles_payload
        self._refresh_inbound = b.refresh_on_inbound
        self._session_timers = b.per_session_timers
        self._udp_timeout = b.udp_timeout
        self._rst_validate = b.rst_seq_validation
        self._icmp_validate = b.icmp_validation
        # Hardening axes live on the table (where allocation decisions run);
        # mirror them whenever the behavior changes.  getattr: the behavior
        # property assigns before __init__ creates self.table.
        table = getattr(self, "table", None)
        if table is not None:
            table.capacity = b.table_capacity
            table.max_per_host = b.max_mappings_per_host
            table.quota_eviction = b.quota_eviction
            # The mapping policy is half of what the outbound memo answers.
            table.outbound_memo.clear()

    def _count_drop(self, reason: str) -> None:
        handle = self._drop_handles.get(reason)
        if handle is None:
            handle = self._drop_handles[reason] = Counter(
                "nat.drops", (("node", self.name), ("reason", reason))
            )
        handle.inc()

    def _flight_drop(self, packet: Packet, reason: str, refusal: Optional[str] = None) -> None:
        """Flight-record a drop verdict (drop paths only, never translate)."""
        flight = self.flight
        if flight is not None:
            if refusal is None:
                flight.packet_event("nat.drop", packet, node=self.name, reason=reason)
            else:
                flight.packet_event(
                    "nat.drop", packet, node=self.name, reason=reason, refusal=refusal
                )

    @property
    def drops_by_reason(self) -> dict:
        """Why packets died here (reason -> count)."""
        return {reason: h.value for reason, h in self._drop_handles.items()}

    def _drop_unallocatable(self, packet: Packet, exc: Exception) -> None:
        """A new outbound session could not get a mapping: clean drop with
        the exhaustion/quota reason instead of an unhandled AddressError."""
        self.packets_dropped += 1
        if isinstance(exc, QuotaExceeded):
            reason = "quota-exceeded"
        else:
            reason = "table-exhausted"
            handle = self._exhausted_handle
            if handle is None:
                handle = self._exhausted_handle = Counter(
                    "nat.table.exhausted", (("node", self.name),)
                )
            handle.inc()
        self._count_drop(reason)
        self._flight_drop(packet, reason)

    # -- wiring -----------------------------------------------------------------

    def set_wan(self, ip, network, link: Link, gateway=None) -> Interface:
        """Attach the public-side interface and create the translation table."""
        if self._wan_name is not None:
            raise RoutingError(f"{self.name}: WAN already configured")
        interface = self.add_interface("wan", ip, network, link)
        self._wan_name = "wan"
        self._wan_iface = interface
        # Identity shortcut for receive(); left unset when another interface
        # already claimed the link (first interface wins arrival
        # classification, same as the _iface_by_link scan order).
        if self._iface_by_link.get(interface.link) is interface:
            self._wan_link = interface.link
        self._cached_public_ip = interface.ip
        self._public_value = interface.ip._value
        if gateway is not None:
            self.routing.add_default("wan", gateway)
        self.table = NatTable(
            scheduler=self.scheduler,
            public_ip=interface.ip,
            allocation=self.behavior.port_allocation,
            port_base=self.behavior.port_base,
            rng=self._rng.child("ports"),
            capacity=self.behavior.table_capacity,
            max_per_host=self.behavior.max_mappings_per_host,
            quota_eviction=self.behavior.quota_eviction,
        )
        self._by_public = self.table._by_public
        self._out_memo = self.table.outbound_memo
        return interface

    def add_lan(self, ip, network, link: Link, name: str = "lan0") -> Interface:
        """Attach a private-side interface."""
        return self.add_interface(name, ip, network, link)

    @property
    def wan_interface(self) -> Interface:
        if self._wan_name is None:
            raise RoutingError(f"{self.name}: WAN not configured")
        return self.interfaces[self._wan_name]

    @property
    def public_ip(self) -> IPv4Address:
        return self.wan_interface.ip

    # -- fault injection ----------------------------------------------------------

    #: Port-base offset applied per reboot so post-reboot mappings land on
    #: visibly different public ports (wraps back into the dynamic range).
    REBOOT_PORT_SHIFT = 1000

    def reset_state(self, port_base: Optional[int] = None) -> None:
        """Simulate a NAT reboot: the translation table is cleared, expiry
        timers are cancelled, and the port allocator restarts from a bumped
        base — the consumer-NAT "lost its state" event (§3.6) that silently
        breaks every punched hole through this device.
        """
        if self.table is None:
            raise RoutingError(f"{self.name}: WAN not configured")
        self.reboots += 1
        if port_base is None:
            port_base = self.table.port_base + self.REBOOT_PORT_SHIFT
            if port_base > 0xFFFF - self.REBOOT_PORT_SHIFT:
                port_base = self.behavior.port_base
        mappings_lost = len(self.table)
        self.table.reset(port_base=port_base)
        if self.flight is not None:
            # Context-free: the reboot breaks every session through this
            # device, so attribution matches it to attempts by time window.
            self.flight.record_global(
                "nat.reboot",
                node=self.name,
                port_base=port_base,
                mappings_lost=mappings_lost,
            )

    # -- data path ----------------------------------------------------------------

    def receive(self, packet: Packet, link: Link) -> None:
        """Per-packet entry point: WAN-side inbound translation, then the
        LAN-side triage (hairpin, outbound translation, LAN transit)."""
        self.packets_received += 1
        if link is self._wan_link:
            dst = packet.dst
            if dst.ip._value != self._public_value:
                # Transit traffic not addressed to us: plain routing (an ISP
                # NAT also routes its public subnet).
                self.forward(packet, self.wan_interface.link)
                return
            proto = packet.proto
            if proto is IpProtocol.ICMP:
                self._inbound_icmp(packet)
                return
            mapping = self._by_public.get(proto.wire_index << 16 | dst.port)
            if mapping is None:
                self.inbound_unmatched += 1
                self._count_drop("no-mapping")
                self._flight_drop(packet, "no-mapping", self._refuse(packet))
                return
            if not self._filter_permits(mapping, packet.src):
                self.inbound_refused += 1
                self._count_drop("filtered")
                self._flight_drop(packet, "filtered", self._refuse(packet))
                return
            # RFC 5961-style RST hardening: an inbound RST is honoured only
            # if its sequence number matches the last ACK the private host
            # sent out through this mapping — an off-path attacker who forged
            # the peer's endpoint (beating the filter) still has to guess a
            # live 32-bit sequence number.  Dropped spoofs never refresh
            # activity, never reach the host, and never close the mapping.
            if (
                self._rst_validate
                and proto is IpProtocol.TCP
                and packet.tcp.flags._value_ & RST_BIT
                and mapping.last_ack_out is not None
                and packet.tcp.seq != mapping.last_ack_out
            ):
                self.inbound_refused += 1
                self._count_drop("rst-invalid")
                self._flight_drop(packet, "rst-invalid")
                return
            if packet.ttl <= 1:
                self.packets_dropped += 1
                self._count_drop("ttl-expired")
                self._flight_drop(packet, "ttl-expired")
                return
            mapping.note_inbound(self.scheduler.now, self._refresh_inbound, packet.src)
            translated = packet.copy()
            translated.dst = mapping.private
            translated.ttl = packet.ttl - 1
            if proto is IpProtocol.TCP:
                mapping.observe_tcp_flags(packet.tcp.flags, outbound=False, now=self.scheduler.now)
                if mapping.closing_since is not None:
                    self.table.schedule_close(mapping, self.behavior.tcp_close_linger)
            self.translations_in += 1
            self._emit(translated)
            return
        arrival = self._iface_by_link.get(link)
        if arrival is None:
            self.packets_dropped += 1
            return
        dst_ip = packet.dst.ip
        if dst_ip._value == self._public_value:
            self._hairpin(packet)
            return
        closure = self._fwd_cache.get(dst_ip._value) or self._resolve(dst_ip)
        if closure is None:
            self.packets_dropped += 1
            self._count_drop("no-route")
            self._flight_drop(packet, "no-route")
        elif closure[2] is self._wan_iface:
            self._translate_outbound(packet, closure)
        else:
            # LAN-to-LAN transit: plain forwarding, no translation.
            self.forward(packet, arrival.link)

    # -- outbound (LAN -> WAN) ------------------------------------------------------

    def _effective_policy(self, proto: IpProtocol, private: Endpoint) -> MappingPolicy:
        """Per-protocol policy, plus the §6.3 downgrade: same private port
        used by two private hosts degrades translation to symmetric."""
        if (
            self._conflict_downgrade
            and self.table.has_conflicting_private_port(private)
        ):
            return MappingPolicy.ADDRESS_AND_PORT_DEPENDENT
        return self._mapping_by_proto[proto]

    def _obtain_mapping(self, proto: IpProtocol, private: Endpoint, remote: Endpoint) -> NatMapping:
        policy = self._effective_policy(proto, private)
        mapping = self.table.lookup_outbound(policy, proto, private, remote)
        if mapping is None:
            timeout = (
                self.behavior.udp_timeout
                if proto is IpProtocol.UDP
                else self.behavior.tcp_established_timeout
            )
            mapping = self.table.create(policy, proto, private, remote, timeout)
            if self.flight is not None:
                # The decision attribution cares about: which mapping rule
                # bound this private endpoint to which public port, and for
                # which remote.  Divergent publics for one private endpoint
                # are the symmetric-mapping evidence.
                self.flight.record(
                    "nat.map",
                    node=self.name,
                    proto=proto.value,
                    private=str(private),
                    public=str(mapping.public),
                    remote=str(remote),
                    policy=policy.value,
                )
        return mapping

    def _translate_outbound(self, packet: Packet, closure: tuple) -> None:
        """Source-translate a LAN packet whose route (*closure*, resolved by
        the caller) leaves through the WAN, and transmit it there."""
        proto = packet.proto
        if proto is IpProtocol.ICMP:
            self.forward(packet, self.wan_interface.link)
            return
        if packet.ttl <= 1:
            self.packets_dropped += 1
            self._count_drop("ttl-expired")
            self._flight_drop(packet, "ttl-expired")
            return
        src = packet.src
        dst = packet.dst
        cache_key = (proto.wire_index, src._key, dst._key)
        mapping = self._out_memo.get(cache_key)
        if mapping is None:
            try:
                mapping = self._obtain_mapping(proto, src, dst)
            except (QuotaExceeded, TableExhausted) as exc:
                self._drop_unallocatable(packet, exc)
                return
            # After _obtain_mapping: a create() inside it emptied the memo.
            self._out_memo[cache_key] = mapping
        now = self.scheduler.now
        mapping.note_outbound(dst, now)
        translated = packet.copy()
        translated.src = mapping.public
        translated.ttl = packet.ttl - 1
        if self._mangles and translated.payload:
            translated.payload = self._mangle(
                translated.payload, src.ip, mapping.public.ip
            )
        if proto is IpProtocol.TCP:
            if self._rst_validate and packet.tcp.flags._value_ & ACK_BIT:
                mapping.last_ack_out = packet.tcp.ack
            mapping.observe_tcp_flags(packet.tcp.flags, outbound=True, now=now)
            if mapping.closing_since is not None:
                self.table.schedule_close(mapping, self.behavior.tcp_close_linger)
        self.translations_out += 1
        closure[0].transmit(translated, self, closure[1])

    def _mangle(self, payload: bytes, private_ip: IPv4Address, public_ip: IPv4Address) -> bytes:
        """§5.3: blindly rewrite 4-byte spans equal to the private source IP,
        as a payload-scanning NAT would translate an embedded address."""
        needle = private_ip.packed
        if needle not in payload:
            return payload
        self.payloads_mangled += 1
        return payload.replace(needle, public_ip.packed)

    # -- inbound (WAN -> LAN) ------------------------------------------------------

    def _filter_permits(self, mapping: NatMapping, remote: Endpoint) -> bool:
        if self._filter_open:
            return True
        if self._session_timers and mapping.proto is IpProtocol.UDP:
            # §3.6: idle timers run per session, not per mapping.
            return mapping.permits(
                remote, self._filter_by_port, self.scheduler.now, self._udp_timeout
            )
        return mapping.permits(remote, self._filter_by_port)

    def _inbound_icmp(self, packet: Packet) -> None:
        """Translate an ICMP error about one of our mapped sessions back to
        the private host that owns the session."""
        error = packet.icmp
        mapping = self.table.lookup_inbound(error.original_proto, error.original_src.port)
        if mapping is None or error.original_src != mapping.public:
            self.inbound_unmatched += 1
            self._count_drop("icmp-unmatched")
            self._flight_drop(packet, "icmp-unmatched")
            return
        if self._icmp_validate and not mapping.permits(
            error.original_dst, by_port=True
        ):
            # Strict mode: the quoted inner packet must name a remote the
            # private host actually contacted through this mapping — a
            # spoofed ICMP error aimed at a guessed public port quotes a
            # destination the mapping never talked to.
            self.inbound_refused += 1
            self._count_drop("icmp-invalid")
            self._flight_drop(packet, "icmp-invalid")
            return
        translated = packet.copy()
        translated.ttl = packet.ttl - 1
        translated.dst = Endpoint(mapping.private.ip, 0)
        # copy() shares the ICMP body, so rebuild it instead of mutating.
        translated.icmp = IcmpError(
            icmp_type=error.icmp_type,
            original_proto=error.original_proto,
            original_src=mapping.private,
            original_dst=error.original_dst,
        )
        self.translations_in += 1
        self._emit(translated)

    # -- refusal (paper §5.2) --------------------------------------------------------

    def _refuse(self, packet: Packet) -> str:
        """Apply the unsolicited-traffic policy.  UDP is always dropped
        silently; TCP SYNs may provoke a RST or ICMP error.  Returns the
        action taken (``"drop"``/``"rst"``/``"icmp"``) so drop sites can
        flight-record which refusal the peer actually observed."""
        if packet.proto is not IpProtocol.TCP or not packet.tcp.is_syn_only:
            return "drop"
        policy = self.behavior.tcp_refusal
        if policy is TcpRefusalPolicy.RST:
            rst = tcp_packet(
                packet.dst,
                packet.src,
                RST_ACK,
                seq=0,
                ack=(packet.tcp.seq + 1) % (1 << 32),
            )
            self._emit(rst)
            return "rst"
        if policy is TcpRefusalPolicy.ICMP:
            self._emit(icmp_error_for(packet, IcmpType.ADMIN_PROHIBITED, self.public_ip))
            return "icmp"
        return "drop"

    # -- hairpin (paper §3.5 / §5.4) -----------------------------------------------------

    def _hairpin(self, packet: Packet) -> None:
        """LAN-originated packet addressed to one of our public endpoints."""
        if packet.proto is IpProtocol.ICMP:
            self.packets_dropped += 1
            return
        # TTL check first, mirroring _translate_outbound: a packet that is
        # going to die must not create mappings or refresh filter state.
        if packet.ttl <= 1:
            self.packets_dropped += 1
            self._count_drop("ttl-expired")
            self._flight_drop(packet, "ttl-expired")
            return
        if not self.behavior.hairpin_for(packet.proto):
            self.hairpin_refused += 1
            self._count_drop("hairpin-refused")
            self._flight_drop(packet, "hairpin-refused", self._refuse(packet))
            return
        dst_mapping = self.table.lookup_inbound(packet.proto, packet.dst.port)
        if dst_mapping is None:
            self.hairpin_refused += 1
            self._count_drop("hairpin-refused")
            self._flight_drop(packet, "hairpin-refused", self._refuse(packet))
            return
        # Source-translate the sender exactly as if the packet left the WAN.
        try:
            src_mapping = self._obtain_mapping(packet.proto, packet.src, packet.dst)
        except (QuotaExceeded, TableExhausted) as exc:
            self._drop_unallocatable(packet, exc)
            return
        src_mapping.note_outbound(packet.dst, self.scheduler.now)
        if self.behavior.hairpin_filters and not self._filter_permits(
            dst_mapping, src_mapping.public
        ):
            # §6.3: simplistic NATs treat traffic at public ports as untrusted
            # regardless of origin.
            self.hairpin_refused += 1
            self._count_drop("hairpin-refused")
            self._flight_drop(packet, "hairpin-refused", self._refuse(packet))
            return
        dst_mapping.note_inbound(self.scheduler.now, self.behavior.refresh_on_inbound)
        translated = packet.copy()
        translated.ttl = packet.ttl - 1
        translated.src = src_mapping.public
        translated.dst = dst_mapping.private
        if packet.proto is IpProtocol.TCP:
            src_mapping.observe_tcp_flags(packet.tcp.flags, outbound=True, now=self.scheduler.now)
            dst_mapping.observe_tcp_flags(packet.tcp.flags, outbound=False, now=self.scheduler.now)
        self.hairpin_forwarded += 1
        self._emit(translated)

