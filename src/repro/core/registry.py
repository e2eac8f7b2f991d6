"""Sharded, batch-sweeping registration plane for the rendezvous servers.

The paper's rendezvous server S (§3.1) is trivially correct at the scale of
its examples — a handful of clients, one dict, one keepalive timer each.  The
ROADMAP north star ("millions of users") needs the same observable behaviour
at 1M+ live registrations in one simulation, which rules out two things the
naive design does per peer:

* **one ``Scheduler`` timer per registration** for TTL expiry — a million
  heap entries churned on every keepalive refresh; and
* **one server owning every registration** — a single Python dict is fine,
  but every lookup, sweep, and handover then serialises through one host.

This module supplies the scalable plane:

:class:`RegistrationTable`
    One shard's registration store.  Dict-compatible (so existing code and
    tests that iterate ``server.udp_clients`` keep working verbatim), with
    optional TTL + LRU eviction.  Expiry uses *timer-wheel buckets* on the
    virtual clock: registrations are filed under coarse deadline buckets and
    a single repeating sweep timer retires whole buckets at once.  Keepalive
    refreshes are O(1) — they update ``last_seen`` and the LRU order only;
    the wheel re-files the entry lazily when its old bucket comes due.  With
    no TTL and no size bound configured the table degenerates to a plain
    dict: no sweep timer is ever scheduled and event traces stay
    byte-identical to the unsharded design.

:class:`ShardRing`
    Deterministic peer-id → shard mapping over an ordered server pool (the
    PR 3 failover server list doubles as the ring).  ``crc32`` keyed like
    :func:`repro.netsim.device_seed` so placement is stable under
    ``PYTHONHASHSEED``.  Downed shards are probed past linearly, which is
    what makes lookups during a shard failover land on the successor that
    adopted (or will re-learn) the registrations.

:class:`ShardedRegistry`
    Ring + tables in one object — the shape the scale bench drives directly.

:class:`KeepaliveWheel`
    The client-side dual: any number of keepalive loops share one scheduler
    timer per wheel tick instead of one timer per peer.

Metric names (pre-bound, virtual-time histograms):

* ``rendezvous.lookup.hits`` / ``rendezvous.lookup.misses`` — counters
* ``rendezvous.lookup.age`` — histogram, virtual seconds since the looked-up
  registration's ``last_seen`` (how stale the state we hand out is)
* ``rendezvous.evictions{reason=ttl|lru}`` — counters
* ``rendezvous.sweep.batch_size`` — histogram, entries examined per sweep
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple
from zlib import crc32

from repro.netsim.addresses import Endpoint
from repro.obs.metrics import MetricsRegistry

EvictionHandler = Callable[[object, str], None]

#: A peer id's 4 placement bytes: the same as ``int.to_bytes(4, "big")``,
#: without the method lookup and keyword parsing per call.
_pack_u32 = struct.Struct(">I").pack


def shard_of(peer_id: int, num_shards: int) -> int:
    """Deterministic home shard for *peer_id* (stable across interpreters)."""
    return crc32(_pack_u32(peer_id & 0xFFFFFFFF)) % num_shards


@dataclass(frozen=True)
class RegistryConfig:
    """Eviction policy knobs for a registration table.

    The defaults are deliberately inert: no TTL, no size bound.  A table
    built from a default config behaves exactly like the plain dict it
    replaced — no sweep timer, no reordering — which is what keeps the
    small-scale scenario traces byte-identical.

    Attributes:
        ttl: virtual seconds a registration survives without a refresh
            (Register or Keepalive).  ``None`` disables expiry.
        sweep_granularity: width of one timer-wheel bucket; also the period
            of the shared sweep timer.  Coarser buckets mean fewer scheduler
            events and slightly later expiry (an entry outlives its deadline
            by at most one granularity).
        max_entries: LRU bound per shard; ``None`` means unbounded.
    """

    ttl: Optional[float] = None
    sweep_granularity: float = 5.0
    max_entries: Optional[int] = None


class RegistrationTable:
    """One shard's registrations: a dict with TTL + LRU eviction bolted on.

    The dict protocol (``len``/``iter``/``get``/``[]``/``items``/``clear``)
    matches how ``RendezvousServer`` and its tests already use the plain
    tables, so this is a drop-in replacement.  ``__setitem__`` routes
    through :meth:`register` so direct assignment stays policy-correct.

    Recency is tracked with the dict itself (Python dicts preserve insertion
    order; re-inserting moves to the back), so LRU costs one pop + one set.
    TTL deadlines live in coarse wheel buckets keyed by
    ``floor(deadline / granularity) + 1``; :meth:`sweep` retires every due
    bucket in one pass.  A refreshed entry found in a due bucket is simply
    re-filed under its *real* deadline — refreshes never touch the wheel
    eagerly, which is the whole trick: keepalives are O(1) attribute work
    instead of cancel + reschedule on a million-entry timer heap.

    Filing invariant (TTL tables): every live id has exactly one *live
    filing* — one occurrence in one bucket that the sweep will act on.
    Removing an id (``del``, LRU eviction) leaves its filing behind as an
    *orphan*; ``_orphans[id]`` counts them, and only while that count is
    non-zero does ``_armed[id]`` name the bucket holding the id's live
    filing (absent when the id is not live), so the sweep can tell the two
    apart: a filing of an id with orphans in any other bucket is an orphan
    and consumes one count.  An id that was never removed while filed
    appears in neither map — with no removals both stay empty.
    """

    __slots__ = (
        "ttl",
        "max_entries",
        "granularity",
        "on_evict",
        "sweeps",
        "evicted_ttl",
        "evicted_lru",
        "_now",
        "_tracking",
        "_entries",
        "_armed",
        "_orphans",
        "_buckets",
        "_sweep_timer",
        "_hits",
        "_misses",
        "_ttl_evictions",
        "_lru_evictions",
        "_age_hist",
        "_sweep_hist",
    )

    def __init__(
        self,
        now_fn: Callable[[], float],
        ttl: Optional[float] = None,
        max_entries: Optional[int] = None,
        sweep_granularity: float = 5.0,
        metrics: Optional[MetricsRegistry] = None,
        on_evict: Optional[EvictionHandler] = None,
    ) -> None:
        if sweep_granularity <= 0:
            raise ValueError("sweep_granularity must be positive")
        if ttl is not None and ttl <= 0:
            raise ValueError("ttl must be positive (or None for no expiry)")
        if max_entries is not None and max_entries < 1:
            raise ValueError("max_entries must be at least 1 (or None for unbounded)")
        self._now = now_fn
        self.ttl = ttl
        self.max_entries = max_entries
        self.granularity = sweep_granularity
        self.on_evict = on_evict
        self._tracking = ttl is not None or max_entries is not None
        self._entries: Dict[int, object] = {}
        #: client id -> orphan filings it has in the wheel (see the class
        #: docstring); an id leaves the map when the sweep has met them all.
        self._orphans: Dict[int, int] = {}
        #: client id -> bucket of its live filing, kept only for ids that
        #: have orphans.
        self._armed: Dict[int, int] = {}
        self._buckets: Dict[int, List[int]] = {}
        self._sweep_timer = None
        self.sweeps = 0
        self.evicted_ttl = 0
        self.evicted_lru = 0
        metrics = metrics or MetricsRegistry(enabled=False)
        self._hits = metrics.counter("rendezvous.lookup.hits")
        self._misses = metrics.counter("rendezvous.lookup.misses")
        self._ttl_evictions = metrics.counter("rendezvous.evictions", reason="ttl")
        self._lru_evictions = metrics.counter("rendezvous.evictions", reason="lru")
        self._age_hist = metrics.histogram("rendezvous.lookup.age", unit="s")
        self._sweep_hist = metrics.histogram("rendezvous.sweep.batch_size", unit="entries")

    # -- dict protocol (drop-in for the old plain tables) -----------------------

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[int]:
        return iter(self._entries)

    def __contains__(self, client_id: object) -> bool:
        return client_id in self._entries

    def __getitem__(self, client_id: int):
        return self._entries[client_id]

    def __setitem__(self, client_id: int, entry) -> None:
        self.register(client_id, entry)

    def __delitem__(self, client_id: int) -> None:
        del self._entries[client_id]
        if self.ttl is not None:
            self._strand(client_id)

    def get(self, client_id: int, default=None):
        return self._entries.get(client_id, default)

    def keys(self):
        return self._entries.keys()

    def values(self):
        return self._entries.values()

    def items(self):
        return self._entries.items()

    def clear(self) -> None:
        self._entries.clear()
        self._orphans.clear()
        self._armed.clear()
        self._buckets.clear()

    # -- registration lifecycle --------------------------------------------------

    def register(self, client_id: int, entry) -> None:
        """Insert (or replace) a registration; O(1).

        A replaced entry keeps its id's wheel slot — the sweep re-files it
        from the fresh ``last_seen`` when the old bucket comes due.  At
        capacity the least-recently-refreshed entry is evicted first, which
        can never be a peer with a live keepalive: every refresh moves the
        peer to the back of the order.  Recency bookkeeping (move-to-end,
        capacity checks) only runs when a size bound exists — a TTL-only
        table registers with one dict store plus one wheel filing.
        """
        entries = self._entries
        if not self._tracking:
            entries[client_id] = entry
            return
        filed = client_id in entries  # a live id already has its live filing
        if self.max_entries is not None:
            if filed:
                del entries[client_id]
            elif len(entries) >= self.max_entries:
                self._evict_lru()
        entries[client_id] = entry
        if self.ttl is not None and not filed:
            try:
                last_seen = entry.last_seen
            except AttributeError:
                last_seen = self._now()
            index = int((last_seen + self.ttl) / self.granularity) + 1
            if self._orphans and client_id in self._orphans:
                self._armed[client_id] = index
            bucket = self._buckets.get(index)
            if bucket is None:
                self._buckets[index] = [client_id]
            else:
                bucket.append(client_id)

    def touch(self, client_id: int) -> None:
        """Refresh recency after the caller updated ``entry.last_seen``; O(1).

        Deliberately does *not* re-file the wheel bucket — the sweep does
        that lazily from the real ``last_seen`` — and only moves the entry
        to the back of the recency order when a size bound makes recency
        matter.  A keepalive against a TTL-only table is pure attribute
        work; against a bounded table it costs two dict operations.
        """
        if self.max_entries is None:
            return
        entry = self._entries.pop(client_id, None)
        if entry is not None:
            self._entries[client_id] = entry

    def refresh(self, client_id: int) -> bool:
        """The whole server-side keepalive in one call; O(1).

        ``last_seen := now`` plus the recency move (when bounded) — what a
        shard does when a keepalive lands on it, with the entry lookup,
        stamp, and reorder fused so a million keepalives a second stay
        cheap.  Returns ``False`` for unknown ids so callers can answer
        ``NOT_REGISTERED``.
        """
        entries = self._entries
        entry = entries.get(client_id)
        if entry is None:
            return False
        entry.last_seen = self._now()
        if self.max_entries is not None:
            del entries[client_id]
            entries[client_id] = entry
        return True

    def lookup(self, client_id: int):
        """Metered lookup: counts hit/miss and records the entry's staleness."""
        entry = self._entries.get(client_id)
        if entry is None:
            self._misses.inc()
            return None
        self._hits.inc()
        self._age_hist.observe(self._now() - entry.last_seen)
        return entry

    def adopt(self, registrations: Dict[int, object]) -> int:
        """Bulk import for warm failover: O(n) inserts, zero timer churn.

        Entries the table already holds are kept — the local observation is
        fresher than the predecessor's export.  Returns how many were
        adopted.
        """
        adopted = 0
        for client_id, entry in registrations.items():
            if client_id not in self._entries:
                self.register(client_id, entry)
                adopted += 1
        return adopted

    # -- timer wheel -------------------------------------------------------------

    def _strand(self, client_id: int) -> None:
        """Account for the live filing a just-removed id leaves in the wheel."""
        orphans = self._orphans
        orphans[client_id] = orphans.get(client_id, 0) + 1
        self._armed.pop(client_id, None)

    def _evict_lru(self) -> None:
        client_id = next(iter(self._entries))
        entry = self._entries.pop(client_id)
        if self.ttl is not None:
            self._strand(client_id)
        self.evicted_lru += 1
        self._lru_evictions.inc()
        if self.on_evict is not None:
            self.on_evict(entry, "lru")

    def sweep(self, now: Optional[float] = None) -> List[object]:
        """Retire every due wheel bucket; returns the evicted entries.

        Entries refreshed since they were filed are re-filed under their
        real deadline (the lazy half of the wheel); entries whose deadline
        has truly passed are evicted with reason ``ttl``.
        """
        if self.ttl is None:
            return []
        if now is None:
            now = self._now()
        ttl = self.ttl
        granularity = self.granularity
        entries = self._entries
        orphans = self._orphans
        armed = self._armed
        buckets = self._buckets
        current = int(now / granularity)
        due = [index for index in buckets if index <= current]
        evicted: List[object] = []
        examined = 0
        for index in sorted(due):
            for client_id in buckets.pop(index):
                if orphans and client_id in orphans and armed.get(client_id) != index:
                    # An orphan: the id was removed while filed here.
                    if orphans[client_id] > 1:
                        orphans[client_id] -= 1
                    else:
                        del orphans[client_id]
                        armed.pop(client_id, None)
                    continue
                entry = entries.get(client_id)
                if entry is None:
                    armed.pop(client_id, None)
                    continue  # filed but no longer held: nothing to expire
                examined += 1
                try:
                    deadline = entry.last_seen + ttl
                except AttributeError:
                    # Nothing to refresh, so not refreshed since it was filed.
                    deadline = now
                if deadline > now:
                    # Re-file under the real deadline.  +1 so a bucket only
                    # comes due strictly after every deadline filed in it
                    # has passed; the target is never one of the due ones.
                    target = int(deadline / granularity) + 1
                    if orphans and client_id in orphans:
                        armed[client_id] = target
                    bucket = buckets.get(target)
                    if bucket is None:
                        buckets[target] = [client_id]
                    else:
                        bucket.append(client_id)
                else:
                    del entries[client_id]
                    if orphans:
                        armed.pop(client_id, None)
                    evicted.append(entry)
        self.sweeps += 1
        self._sweep_hist.observe(float(examined))
        if evicted:
            self.evicted_ttl += len(evicted)
            self._ttl_evictions.inc(len(evicted))
            if self.on_evict is not None:
                for entry in evicted:
                    self.on_evict(entry, "ttl")
        return evicted

    def start_sweeps(self, scheduler) -> None:
        """Drive :meth:`sweep` from one repeating timer on *scheduler*.

        A no-op without a TTL — a table with no expiry policy must add zero
        events to the simulation.
        """
        if self.ttl is None or self._sweep_timer is not None:
            return
        self._sweep_timer = scheduler.call_later(self.granularity, self._sweep_tick, scheduler)

    def _sweep_tick(self, scheduler) -> None:
        self.sweep()
        self._sweep_timer = scheduler.call_later(self.granularity, self._sweep_tick, scheduler)

    def stop_sweeps(self) -> None:
        if self._sweep_timer is not None:
            self._sweep_timer.cancel()
            self._sweep_timer = None

    def __repr__(self) -> str:
        return (
            f"RegistrationTable(live={len(self._entries)}, ttl={self.ttl}, "
            f"max_entries={self.max_entries}, sweeps={self.sweeps})"
        )


class ShardRing:
    """Deterministic peer-id → owning-server mapping over an ordered pool.

    The ring is one shared object: every server in the pool (and any code
    that needs placement, like the scenario builders) holds a reference to
    the *same* ring, so marking a shard down is immediately visible
    everywhere.  ``owner_index`` probes linearly past downed shards, which
    sends redirects-under-failover to the successor that adopts the downed
    shard's registrations.
    """

    __slots__ = ("endpoints", "_down")

    def __init__(self, endpoints: Sequence[Endpoint]) -> None:
        if not endpoints:
            raise ValueError("ShardRing needs at least one endpoint")
        self.endpoints: List[Endpoint] = list(endpoints)
        self._down: set = set()

    def __len__(self) -> int:
        return len(self.endpoints)

    def home_index(self, peer_id: int) -> int:
        """The shard that owns *peer_id* when every server is up."""
        return shard_of(peer_id, len(self.endpoints))

    def owner_index(self, peer_id: int) -> int:
        """The live shard responsible for *peer_id* right now.

        Healthy-pool fast path: with nothing down (the steady state, and
        the one the million-peer bench hammers) this is one crc32 and a
        modulo — no probe loop, no extra frame through ``home_index``.
        :class:`ShardedRegistry` computes that healthy index itself and
        calls here only while a shard is down.
        """
        down = self._down
        index = crc32(_pack_u32(peer_id & 0xFFFFFFFF)) % len(self.endpoints)
        if not down:
            return index
        for _ in range(len(self.endpoints)):
            if index not in down:
                return index
            index = (index + 1) % len(self.endpoints)
        return self.home_index(peer_id)  # whole pool down: nothing better

    def owner(self, peer_id: int) -> Endpoint:
        return self.endpoints[self.owner_index(peer_id)]

    def index_of(self, endpoint: Endpoint) -> Optional[int]:
        try:
            return self.endpoints.index(endpoint)
        except ValueError:
            return None

    def mark_down(self, index: int) -> None:
        self._down.add(index)

    def mark_up(self, index: int) -> None:
        self._down.discard(index)

    def is_down(self, index: int) -> bool:
        return index in self._down

    def alive_indices(self) -> List[int]:
        return [i for i in range(len(self.endpoints)) if i not in self._down]

    def __repr__(self) -> str:
        return f"ShardRing(shards={len(self.endpoints)}, down={sorted(self._down)})"


class ShardedRegistry:
    """A pool of :class:`RegistrationTable` shards behind one :class:`ShardRing`.

    This is the registration plane as one object — what the
    ``rendezvous_scale`` bench drives directly (no packets, just the data
    structures every packet handler sits on), and a convenient backing store
    for tests that care about placement rather than wire behaviour.
    """

    def __init__(
        self,
        now_fn: Callable[[], float],
        endpoints: Sequence[Endpoint],
        config: Optional[RegistryConfig] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.config = config or RegistryConfig()
        self.ring = ShardRing(endpoints)
        self.shards: List[RegistrationTable] = [
            RegistrationTable(
                now_fn,
                ttl=self.config.ttl,
                max_entries=self.config.max_entries,
                sweep_granularity=self.config.sweep_granularity,
                metrics=metrics,
            )
            for _ in endpoints
        ]
        #: Shards in the pool; the pool never resizes, so this is the
        #: healthy-ring modulus.
        self._count = len(self.shards)

    # Each operation places the peer inline (ShardRing.owner_index's
    # healthy-pool fast path, without its frame) and asks the ring only
    # while a shard is down.

    def shard_for(self, peer_id: int) -> RegistrationTable:
        ring = self.ring
        if ring._down:
            index = ring.owner_index(peer_id)
        else:
            index = crc32(_pack_u32(peer_id & 0xFFFFFFFF)) % self._count
        return self.shards[index]

    def register(self, peer_id: int, entry) -> int:
        """Place *entry* on its owning shard; returns the shard index."""
        ring = self.ring
        if ring._down:
            index = ring.owner_index(peer_id)
        else:
            index = crc32(_pack_u32(peer_id & 0xFFFFFFFF)) % self._count
        self.shards[index].register(peer_id, entry)
        return index

    def touch(self, peer_id: int) -> bool:
        """Keepalive refresh: the owning shard's :meth:`RegistrationTable.refresh`."""
        ring = self.ring
        if ring._down:
            index = ring.owner_index(peer_id)
        else:
            index = crc32(_pack_u32(peer_id & 0xFFFFFFFF)) % self._count
        return self.shards[index].refresh(peer_id)

    def lookup(self, peer_id: int):
        ring = self.ring
        if ring._down:
            index = ring.owner_index(peer_id)
        else:
            index = crc32(_pack_u32(peer_id & 0xFFFFFFFF)) % self._count
        return self.shards[index].lookup(peer_id)

    @property
    def live(self) -> int:
        return sum(len(shard) for shard in self.shards)

    @property
    def total_sweeps(self) -> int:
        return sum(shard.sweeps for shard in self.shards)

    @property
    def total_evicted_ttl(self) -> int:
        return sum(shard.evicted_ttl for shard in self.shards)

    def start_sweeps(self, scheduler) -> None:
        for shard in self.shards:
            shard.start_sweeps(scheduler)

    def stop_sweeps(self) -> None:
        for shard in self.shards:
            shard.stop_sweeps()

    def __repr__(self) -> str:
        return f"ShardedRegistry(shards={len(self.shards)}, live={self.live})"


class _WheelEntry:
    """Handle for one registrant on a :class:`KeepaliveWheel`."""

    __slots__ = ("callback", "args", "interval", "cancelled")

    def __init__(
        self, callback: Callable[..., None], interval: float, args: tuple = ()
    ) -> None:
        self.callback = callback
        self.args = args
        self.interval = interval
        self.cancelled = False

    def cancel(self) -> None:
        self.cancelled = True


class KeepaliveWheel:
    """Shared periodic driver: one scheduler timer per tick, any fan-out.

    The per-peer pattern (``client.start_server_keepalives`` scheduling its
    own ``call_later`` loop) costs one live heap entry per peer forever.
    The wheel files every registrant due in the same coarse tick under one
    bucket and fires them from a single timer, so a million keepalive loops
    cost the scheduler ``ttl / granularity``-ish events per period instead
    of a million.
    """

    def __init__(self, scheduler, granularity: float = 1.0) -> None:
        if granularity <= 0:
            raise ValueError("granularity must be positive")
        self.scheduler = scheduler
        self.granularity = granularity
        self._buckets: Dict[int, List[_WheelEntry]] = {}
        self.registrants = 0
        self.ticks_fired = 0

    def add(
        self, interval: float, callback: Callable[..., None], *args: object
    ) -> _WheelEntry:
        """Run ``callback(*args)`` roughly every *interval* virtual seconds.

        "Roughly": fires are quantised to wheel ticks, so a callback lands
        at most one granularity late — the same trade every kernel timer
        wheel makes.  Extra positional *args* ride on the entry (the
        ``call_later`` convention), so a million registrants can share one
        callback function instead of a million closures.  *interval* must
        be positive: a non-positive one would re-file into an already-due
        bucket on every fire and never let the clock move.
        """
        if not interval > 0:  # NaN included
            raise ValueError(f"interval must be positive, got {interval!r}")
        entry = _WheelEntry(callback, interval, args)
        self.registrants += 1
        index = int((self.scheduler.now + interval) / self.granularity) + 1
        bucket = self._buckets.get(index)
        if bucket is None:
            self._file(index, entry)
        else:
            bucket.append(entry)
        return entry

    def _file(self, index: int, entry: _WheelEntry) -> List[_WheelEntry]:
        """Open bucket *index* with *entry* as its first entry and arm the
        bucket's timer; returns the bucket.  Later entries append to it."""
        bucket = self._buckets[index] = [entry]
        delay = max(0.0, index * self.granularity - self.scheduler.now)
        self.scheduler.call_later(delay, self._fire, index)
        return bucket

    def iter_entries(self) -> Iterator[_WheelEntry]:
        """Every filed entry, bucket order (cancelled ones still pending
        lazy removal included) — handy for bulk shutdown."""
        for bucket in self._buckets.values():
            for entry in bucket:
                yield entry

    def _fire(self, index: int) -> None:
        entries = self._buckets.pop(index, ())
        self.ticks_fired += 1
        now = self.scheduler.now
        granularity = self.granularity
        buckets = self._buckets
        # interval -> the bucket this tick re-files it into.  Every entry
        # of one interval lands in the same bucket, so the index arithmetic
        # and the bucket probe run once per distinct interval; the cached
        # bucket stays filed, since only its own tick removes it.
        targets: Dict[float, List[_WheelEntry]] = {}
        for entry in entries:
            if entry.cancelled:
                self.registrants -= 1
                continue
            entry.callback(*entry.args)
            interval = entry.interval
            bucket = targets.get(interval)
            if bucket is None:
                next_index = int((now + interval) / granularity) + 1
                bucket = buckets.get(next_index)
                if bucket is None:
                    targets[interval] = self._file(next_index, entry)
                    continue
                targets[interval] = bucket
            bucket.append(entry)


def attach_shard_ring(servers: Iterable) -> ShardRing:
    """Wire a server pool into one shared :class:`ShardRing`.

    Builds the ring from each server's well-known endpoint (in pool order —
    the same order a failover server list uses) and points every server's
    ``shard_ring``/``shard_index`` at it.  Returns the ring.
    """
    pool = list(servers)
    ring = ShardRing([server.endpoint for server in pool])
    for index, server in enumerate(pool):
        server.shard_ring = ring
        server.shard_index = index
    return ring
