"""NAT translation table: mappings, permitted-remote sets, and idle expiry.

A :class:`NatMapping` binds one private endpoint (plus, for non-cone
policies, a destination qualifier) to one public endpoint on the NAT.  The
set of remote endpoints the private host has contacted outbound through the
mapping drives inbound filtering; lazy timers (expiry checks rescheduled
against ``last_activity``) implement UDP idle timeouts (§3.6) and TCP
close-linger without per-packet timer churn.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.netsim.addresses import Endpoint, IPv4Address
from repro.netsim.clock import Scheduler, Timer
from repro.netsim.packet import FIN_BIT, RST_BIT, IpProtocol, TcpFlags
from repro.nat.policy import MappingPolicy, PortAllocation, QuotaPolicy
from repro.util.errors import AddressError
from repro.util.rng import SeededRng


class TableExhausted(AddressError):
    """The NAT cannot allocate another mapping: translation memory or the
    dynamic port range is gone (the ReDAN exhaustion-flood end state)."""


class QuotaExceeded(AddressError):
    """One private host hit its per-host mapping quota
    (:class:`~repro.nat.policy.QuotaPolicy.REFUSE` hardening)."""


#: Dynamic (allocatable) public port range — sequential and random allocation
#: both draw from [1024, 65535].
DYNAMIC_PORT_MIN = 1024
DYNAMIC_PORT_MAX = 65535
DYNAMIC_PORT_SPAN = DYNAMIC_PORT_MAX - DYNAMIC_PORT_MIN + 1

# A mapping key: (proto wire index, private endpoint, destination qualifier),
# every component a plain int (or None) so key hashing runs entirely at C
# speed — this dict is probed once per outbound packet.  Endpoints are folded
# to ``ip_value * 65536 + port``; the qualifier is None for cone NATs, the
# remote IP value tagged with bit 48 for address-dependent mapping (the tag
# keeps a bare address from ever colliding with a folded endpoint), and the
# folded remote endpoint for symmetric mapping.
MappingKey = Tuple[int, int, Optional[int]]

#: Tag bit distinguishing an address qualifier from an endpoint qualifier
#: (folded endpoints occupy at most 48 bits).
_ADDR_QUALIFIER_TAG = 1 << 48


def mapping_key(
    policy: MappingPolicy,
    proto: IpProtocol,
    private: Endpoint,
    remote: Endpoint,
) -> MappingKey:
    """Build the table key for *policy* (§5.1)."""
    private_key = private._key
    if policy is MappingPolicy.ENDPOINT_INDEPENDENT:
        return (proto.wire_index, private_key, None)
    if policy is MappingPolicy.ADDRESS_DEPENDENT:
        return (proto.wire_index, private_key, remote.ip._value | _ADDR_QUALIFIER_TAG)
    return (proto.wire_index, private_key, remote._key)


def _last_activity(mapping: "NatMapping") -> float:
    return mapping.last_activity


class NatMapping:
    """One live translation entry."""

    def __init__(
        self,
        proto: IpProtocol,
        private: Endpoint,
        public: Endpoint,
        key: MappingKey,
        created_at: float,
    ) -> None:
        self.proto = proto
        self.private = private
        self.public = public
        self.key = key
        self.created_at = created_at
        self.last_activity = created_at
        #: Remote endpoints contacted outbound -> last activity time, keyed
        #: by the folded int ``ip_value * 65536 + port`` (C-speed hashing on
        #: the per-packet update; the address half is recoverable as
        #: ``key >> 16``).  This drives inbound filtering AND per-session
        #: idle expiry (§3.6: "many NATs associate UDP idle timers with
        #: individual UDP sessions, so sending keep-alives on one session
        #: will not keep other sessions active").
        self._remote_activity: Dict[int, float] = {}
        # TCP lifetime observation (paper §4 intro: the TCP state machine
        # gives NATs a standard way to learn session lifetime).
        self.tcp_fin_outbound = False
        self.tcp_fin_inbound = False
        self.tcp_rst_seen = False
        self.closing_since: Optional[float] = None
        #: Last ACK number the private host sent outbound (RST-hardened NATs
        #: only honour inbound RSTs whose seq matches it — RFC 5961-style).
        self.last_ack_out: Optional[int] = None
        self.packets_out = 0
        self.packets_in = 0

    @property
    def remotes(self) -> Set[Endpoint]:
        """Remote endpoints contacted outbound through this mapping."""
        return {
            Endpoint(key >> 16, key & 0xFFFF) for key in self._remote_activity
        }

    def permits(
        self,
        remote: Endpoint,
        by_port: bool,
        now: Optional[float] = None,
        session_timeout: Optional[float] = None,
    ) -> bool:
        """Inbound filter check against the permitted-remote set.

        With *now* and *session_timeout* given, per-session idle expiry
        applies (§3.6): a remote whose session has been idle longer than the
        timeout no longer passes the filter even though the mapping lives.
        """
        activity = self._remote_activity
        if by_port:
            last = activity.get(remote._key)
            if last is None:
                return False
            return now is None or session_timeout is None or now - last <= session_timeout
        remote_ip = remote.ip._value
        for key, last in activity.items():
            if key >> 16 == remote_ip and (
                now is None or session_timeout is None or now - last <= session_timeout
            ):
                return True
        return False

    def note_outbound(self, remote: Endpoint, now: float) -> None:
        self._remote_activity[remote._key] = now
        self.last_activity = now
        self.packets_out += 1

    def note_inbound(self, now: float, refresh: bool, remote: Optional[Endpoint] = None) -> None:
        self.packets_in += 1
        if refresh:
            self.last_activity = now
            if remote is not None:
                key = remote._key
                activity = self._remote_activity
                if key in activity:
                    activity[key] = now

    def observe_tcp_flags(self, flags: TcpFlags, outbound: bool, now: float) -> None:
        """Track close signals so the table can expire dead TCP sessions."""
        bits = flags._value_
        if bits & RST_BIT:
            self.tcp_rst_seen = True
            self.closing_since = now
        if bits & FIN_BIT:
            if outbound:
                self.tcp_fin_outbound = True
            else:
                self.tcp_fin_inbound = True
            if self.tcp_fin_outbound and self.tcp_fin_inbound:
                self.closing_since = now

    def __repr__(self) -> str:
        return (
            f"NatMapping({self.proto.value} {self.private} => {self.public}, "
            f"remotes={len(self.remotes)})"
        )


class NatTable:
    """The translation table of one NAT device.

    Owns port allocation on the NAT's public IP and lazy expiry timers.
    """

    def __init__(
        self,
        scheduler: Scheduler,
        public_ip,
        allocation: PortAllocation,
        port_base: int,
        rng: Optional[SeededRng] = None,
        on_expire: Optional[Callable[[NatMapping], None]] = None,
        capacity: Optional[int] = None,
        max_per_host: Optional[int] = None,
        quota_eviction: QuotaPolicy = QuotaPolicy.REFUSE,
    ) -> None:
        self.scheduler = scheduler
        self.public_ip = IPv4Address(public_ip)
        self.allocation = allocation
        self.port_base = port_base
        self._rng = rng or SeededRng(0, "nat-table")
        self._on_expire = on_expire
        #: Translation-memory bound (None = unbounded) and per-host quota —
        #: the ReDAN hardening axes, mirrored from NatBehavior by NatDevice.
        self.capacity = capacity
        self.max_per_host = max_per_host
        self.quota_eviction = quota_eviction
        self._by_key: Dict[MappingKey, NatMapping] = {}
        #: Public-port index keyed by ``proto.wire_index << 16 | port`` (one
        #: int, C-speed hashing — probed once per inbound packet).
        self._by_public: Dict[int, NatMapping] = {}
        #: Outbound-mapping memo the owning NatDevice fills: (proto wire
        #: index, folded private endpoint, folded remote endpoint) -> the
        #: live mapping that flow translates through.  :meth:`create`,
        #: :meth:`remove` and :meth:`reset` empty it — the only events that
        #: can change a lookup's answer, including the §6.3
        #: conflict-downgrade state, which only moves when mappings come
        #: or go.
        self.outbound_memo: Dict[Tuple[int, int, int], NatMapping] = {}
        #: Bumped on every :meth:`reset`.  Expiry/close timers capture the
        #: generation they were armed under and no-op if it moved — a rebooted
        #: NAT can never fire stale (possibly attacker-induced) evictions into
        #: the new table generation, even if a post-reboot mapping reuses the
        #: same key and public port.
        self.generation = 0
        self._next_port = port_base
        self._timers: Dict[MappingKey, Timer] = {}
        #: private port -> {owner private IP -> live mapping count}.  Kept in
        #: sync by create/remove so the §6.3 per-port conflict check is O(1)
        #: per packet instead of a scan over the whole table.
        self._private_port_owners: Dict[int, Dict[IPv4Address, int]] = {}
        #: proto wire index -> count of in-use ports from the dynamic range.
        #: This is the O(1) exhaustion check: when it hits DYNAMIC_PORT_SPAN
        #: the allocator raises immediately instead of scanning 64k ports.
        self._dynamic_in_use: Dict[int, int] = {}
        #: private IP value -> {key -> mapping} for quota accounting and
        #: O(host's mappings) oldest-first eviction.
        self._by_host: Dict[int, Dict[MappingKey, NatMapping]] = {}
        self.mappings_created = 0
        self.mappings_expired = 0
        self.mappings_lost_to_reset = 0
        #: Allocation attempts refused because table memory / the port range
        #: was gone (drives the ``nat.table.exhausted`` metric).
        self.exhaustions = 0
        self.quota_refusals = 0
        self.quota_evictions = 0

    # -- port allocation -------------------------------------------------------

    def _port_free(self, proto: IpProtocol, port: int) -> bool:
        return (
            proto.wire_index << 16 | port
        ) not in self._by_public and 0 < port <= 0xFFFF

    def _allocate_port(self, proto: IpProtocol, private: Endpoint) -> int:
        if self.allocation is PortAllocation.PRESERVING and self._port_free(
            proto, private.port
        ):
            return private.port
        # O(1) exhaustion check: _dynamic_in_use mirrors exactly the ports the
        # loops below may return, so "count == span" means no scan (random: no
        # draw sequence, sequential: no walk) can succeed — refuse cleanly
        # instead of spinning the whole range per doomed allocation.
        if self._dynamic_in_use.get(proto.wire_index, 0) >= DYNAMIC_PORT_SPAN:
            self.exhaustions += 1
            raise TableExhausted(
                f"NAT public ports exhausted ({self.allocation.value}): "
                f"all {DYNAMIC_PORT_SPAN} dynamic {proto.value} ports in use"
            )
        if self.allocation is PortAllocation.RANDOM:
            for _ in range(4096):
                port = self._rng.randint(DYNAMIC_PORT_MIN, DYNAMIC_PORT_MAX)
                if self._port_free(proto, port):
                    return port
            self.exhaustions += 1
            raise TableExhausted("NAT public ports exhausted (random)")
        # SEQUENTIAL (also the PRESERVING fallback): the paper's NATs hand out
        # 62000, 62001, ... predictably (§5.1 port prediction relies on this).
        # The free-count check above guarantees this walk terminates.
        while True:
            port = self._next_port
            self._next_port += 1
            if self._next_port > DYNAMIC_PORT_MAX:
                self._next_port = DYNAMIC_PORT_MIN
            if self._port_free(proto, port):
                return port

    # -- lookup / creation ----------------------------------------------------------

    def lookup_outbound(
        self,
        policy: MappingPolicy,
        proto: IpProtocol,
        private: Endpoint,
        remote: Endpoint,
    ) -> Optional[NatMapping]:
        return self._by_key.get(mapping_key(policy, proto, private, remote))

    def create(
        self,
        policy: MappingPolicy,
        proto: IpProtocol,
        private: Endpoint,
        remote: Endpoint,
        idle_timeout: float,
    ) -> NatMapping:
        """Allocate a new mapping for an outbound session.

        Raises :class:`TableExhausted` when translation memory
        (``capacity``) or the dynamic port range is gone, and
        :class:`QuotaExceeded` when *private*'s host is over its per-host
        quota under :class:`~repro.nat.policy.QuotaPolicy.REFUSE`.
        """
        key = mapping_key(policy, proto, private, remote)
        host_key = private.ip._value
        if self.max_per_host is not None:
            owned = self._by_host.get(host_key)
            if owned is not None and len(owned) >= self.max_per_host:
                if self.quota_eviction is QuotaPolicy.EVICT_OLDEST:
                    oldest = min(owned.values(), key=_last_activity)
                    self.quota_evictions += 1
                    self.remove(oldest)
                else:
                    self.quota_refusals += 1
                    raise QuotaExceeded(
                        f"host {private.ip} over mapping quota "
                        f"({self.max_per_host})"
                    )
        if self.capacity is not None and len(self._by_key) >= self.capacity:
            self.exhaustions += 1
            raise TableExhausted(
                f"NAT mapping table full ({self.capacity} entries)"
            )
        port = self._allocate_port(proto, private)
        mapping = NatMapping(
            proto=proto,
            private=private,
            public=Endpoint(self.public_ip, port),
            key=key,
            created_at=self.scheduler.now,
        )
        self._by_key[key] = mapping
        self._by_public[proto.wire_index << 16 | port] = mapping
        owners = self._private_port_owners.setdefault(private.port, {})
        owners[private.ip] = owners.get(private.ip, 0) + 1
        self._by_host.setdefault(host_key, {})[key] = mapping
        if DYNAMIC_PORT_MIN <= port <= DYNAMIC_PORT_MAX:
            wire = proto.wire_index
            self._dynamic_in_use[wire] = self._dynamic_in_use.get(wire, 0) + 1
        self.mappings_created += 1
        self.outbound_memo.clear()
        self._arm_expiry(mapping, idle_timeout)
        return mapping

    def mappings_for_host(self, private_ip) -> int:
        """Live mappings owned by one private host (quota introspection)."""
        owned = self._by_host.get(IPv4Address(private_ip)._value)
        return len(owned) if owned else 0

    def lookup_inbound(self, proto: IpProtocol, public_port: int) -> Optional[NatMapping]:
        return self._by_public.get(proto.wire_index << 16 | public_port)

    def has_conflicting_private_port(self, private: Endpoint) -> bool:
        """True if another private host already maps the same private port
        (the §6.3 downgrade trigger).  O(1) via the private-port index."""
        owners = self._private_port_owners.get(private.port)
        if not owners:
            return False
        return any(ip != private.ip for ip in owners)

    def _unindex_private(self, private: Endpoint) -> None:
        owners = self._private_port_owners.get(private.port)
        if owners is None:
            return
        count = owners.get(private.ip, 0) - 1
        if count > 0:
            owners[private.ip] = count
        else:
            owners.pop(private.ip, None)
            if not owners:
                del self._private_port_owners[private.port]

    # -- expiry ------------------------------------------------------------------

    def _arm_expiry(self, mapping: NatMapping, idle_timeout: float) -> None:
        deadline = mapping.last_activity + idle_timeout
        existing = self._timers.get(mapping.key)
        if existing is not None:
            existing.cancel()
        self._timers[mapping.key] = self.scheduler.call_at(
            max(deadline, self.scheduler.now),
            self._check_expiry,
            mapping,
            idle_timeout,
            self.generation,
        )

    def _check_expiry(
        self, mapping: NatMapping, idle_timeout: float, generation: int
    ) -> None:
        """Lazy expiry: if activity happened since arming, re-arm; else drop."""
        if generation != self.generation:
            return  # armed before a reset; never touch the new generation
        if self._by_key.get(mapping.key) is not mapping:
            return  # already removed
        if mapping.closing_since is not None:
            self.remove(mapping)
            return
        idle_for = self.scheduler.now - mapping.last_activity
        if idle_for + 1e-9 >= idle_timeout:
            self.remove(mapping)
            self.mappings_expired += 1
            return
        self._arm_expiry(mapping, idle_timeout)

    def schedule_close(self, mapping: NatMapping, linger: float) -> None:
        """TCP session observed closing: drop the mapping after *linger*."""
        timer = self._timers.get(mapping.key)
        if timer is not None:
            timer.cancel()
        self._timers[mapping.key] = self.scheduler.call_later(
            linger, self._close_now, mapping, self.generation
        )

    def _close_now(self, mapping: NatMapping, generation: int) -> None:
        if generation != self.generation:
            return
        if self._by_key.get(mapping.key) is mapping:
            self.remove(mapping)

    def remove(self, mapping: NatMapping) -> None:
        existing = self._by_key.pop(mapping.key, None)
        self._by_public.pop(
            mapping.proto.wire_index << 16 | mapping.public.port, None
        )
        self.outbound_memo.clear()
        timer = self._timers.pop(mapping.key, None)
        if timer is not None:
            timer.cancel()
        if existing is not None:
            self._unindex_private(existing.private)
            owned = self._by_host.get(existing.private.ip._value)
            if owned is not None:
                owned.pop(existing.key, None)
                if not owned:
                    del self._by_host[existing.private.ip._value]
            port = existing.public.port
            if DYNAMIC_PORT_MIN <= port <= DYNAMIC_PORT_MAX:
                wire = existing.proto.wire_index
                count = self._dynamic_in_use.get(wire, 0) - 1
                if count > 0:
                    self._dynamic_in_use[wire] = count
                else:
                    self._dynamic_in_use.pop(wire, None)
        if self._on_expire is not None:
            self._on_expire(mapping)

    def reset(self, port_base: Optional[int] = None) -> None:
        """Forget all translation state — the NAT rebooted.

        Every mapping is dropped without firing ``on_expire`` (the box lost
        power; nothing ran), every expiry timer is cancelled, and the port
        allocator restarts from *port_base* (default: the existing base), so
        sessions re-created after the reboot land on fresh public ports —
        the classic consumer-NAT state loss the paper's keepalive discussion
        (§3.6) presupposes.
        """
        self.mappings_lost_to_reset += len(self._by_key)
        for timer in self._timers.values():
            timer.cancel()
        self._timers.clear()
        self._by_key.clear()
        self._by_public.clear()
        self._private_port_owners.clear()
        self._by_host.clear()
        self._dynamic_in_use.clear()
        self.outbound_memo.clear()
        # New table generation: any timer armed before this instant —
        # including attacker-induced quota evictions and close lingers whose
        # Timer handles leaked out of _timers via re-arming races — becomes a
        # guaranteed no-op even if it still fires.
        self.generation += 1
        if port_base is not None:
            self.port_base = port_base
        self._next_port = self.port_base

    # -- introspection -----------------------------------------------------------

    @property
    def mappings(self) -> List[NatMapping]:
        return list(self._by_key.values())

    def __len__(self) -> int:
        return len(self._by_key)
