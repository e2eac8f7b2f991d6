"""The scale-out registration plane: TTL tables, sharding, a keepalive wheel.

The paper's rendezvous server S (§3.1) keeps one record per client: a
handful of clients, one dict, one keepalive timer each.  S here does the
same with two plain dicts (:mod:`repro.core.rendezvous`).  This module is
the plane the ``rendezvous_churn`` workload and the scale bench drive with
no packets at all, where two things the naive design does per peer would
not scale:

* **one ``Scheduler`` timer per registration** for TTL expiry — a million
  heap entries churned on every keepalive refresh; and
* **one dict holding every registration** — every lookup and sweep then
  walks one structure.

:class:`RegistrationTable`
    One shard's registration store with TTL expiry.  Expiry uses
    *timer-wheel buckets* on the virtual clock: registrations are filed
    under coarse deadline buckets and a single repeating sweep timer retires
    whole buckets at once.  Keepalive refreshes are O(1) — they update
    ``last_seen`` only; the wheel re-files the entry lazily when its old
    bucket comes due.

:class:`ShardedRegistry`
    A fixed number of tables; each peer id lives on table :func:`shard_of`
    — ``crc32`` like :func:`repro.cache.mix_seed`, so placement is stable
    under ``PYTHONHASHSEED`` — and nothing ever moves it.

:class:`KeepaliveWheel`
    The client-side dual: any number of keepalive loops share one scheduler
    timer per wheel tick instead of one timer per peer.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence
from zlib import crc32

from repro.netsim.addresses import Endpoint

#: A peer id's 4 placement bytes: the same as ``int.to_bytes(4, "big")``,
#: without the method lookup and keyword parsing per call.
_pack_u32 = struct.Struct(">I").pack


def shard_of(peer_id: int, num_shards: int) -> int:
    """Deterministic home shard for *peer_id* (stable across interpreters)."""
    return crc32(_pack_u32(peer_id & 0xFFFFFFFF)) % num_shards


@dataclass(frozen=True)
class RegistryConfig:
    """Expiry policy for the tables of a :class:`ShardedRegistry`.

    Attributes:
        ttl: virtual seconds a registration survives without a refresh
            (Register or Keepalive).
        sweep_granularity: width of one timer-wheel bucket; also the period
            of the shared sweep timer.  Coarser buckets mean fewer scheduler
            events and slightly later expiry (an entry outlives its deadline
            by at most one granularity).
    """

    ttl: float
    sweep_granularity: float = 5.0


class RegistrationTable:
    """One shard's registrations, expired by TTL through a timer wheel.

    TTL deadlines live in coarse wheel buckets keyed by
    ``floor(deadline / granularity) + 1``; :meth:`sweep` retires every due
    bucket in one pass.  A refreshed entry found in a due bucket is simply
    re-filed under its *real* deadline — refreshes never touch the wheel
    eagerly, which is the whole trick: keepalives are O(1) attribute work
    instead of cancel + reschedule on a million-entry timer heap.

    Only the sweep removes an id, and it removes the filing it retires, so
    every live id is filed exactly once: :meth:`register` files a new id,
    a replaced entry keeps its id's filing, and the sweep either re-files or
    evicts each id it meets.
    """

    __slots__ = (
        "ttl",
        "granularity",
        "sweeps",
        "evicted_ttl",
        "_now",
        "_entries",
        "_buckets",
        "_sweep_timer",
    )

    #: Registrations evicted for recency: always 0, a table has no size bound.
    evicted_lru = 0

    def __init__(
        self,
        now_fn: Callable[[], float],
        ttl: float,
        sweep_granularity: float = 5.0,
    ) -> None:
        if not (sweep_granularity > 0):  # NaN included
            raise ValueError("sweep_granularity must be positive")
        if not (ttl > 0):  # NaN included
            raise ValueError("ttl must be positive")
        self._now = now_fn
        self.ttl = ttl
        self.granularity = sweep_granularity
        self._entries: Dict[int, object] = {}
        self._buckets: Dict[int, List[int]] = {}
        self._sweep_timer = None
        self.sweeps = 0
        self.evicted_ttl = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __getitem__(self, client_id: int):
        return self._entries[client_id]

    def get(self, client_id: int):
        return self._entries.get(client_id)

    # -- registration lifecycle --------------------------------------------------

    def register(self, client_id: int, entry) -> None:
        """Insert (or replace) a registration; O(1).

        A new id is filed under the bucket of its deadline.  A replaced
        entry keeps its id's filing — the sweep re-files it from the fresh
        ``last_seen`` when the old bucket comes due.
        """
        entries = self._entries
        filed = client_id in entries  # a live id already has its filing
        entries[client_id] = entry
        if not filed:
            index = int((entry.last_seen + self.ttl) / self.granularity) + 1
            bucket = self._buckets.get(index)
            if bucket is None:
                self._buckets[index] = [client_id]
            else:
                bucket.append(client_id)

    def refresh(self, client_id: int) -> bool:
        """The whole server-side keepalive in one call; O(1).

        ``last_seen := now`` — what a shard does when a keepalive lands on
        it, with the entry lookup and stamp fused so a million keepalives a
        second stay cheap.  Returns ``False`` for unknown ids so callers can
        answer ``NOT_REGISTERED``.
        """
        entry = self._entries.get(client_id)
        if entry is None:
            return False
        entry.last_seen = self._now()
        return True

    # -- timer wheel -------------------------------------------------------------

    def sweep(self, now: Optional[float] = None) -> List[object]:
        """Retire every due wheel bucket; returns the evicted entries.

        Entries refreshed since they were filed are re-filed under their
        real deadline (the lazy half of the wheel); entries whose deadline
        has truly passed are evicted.
        """
        if now is None:
            now = self._now()
        ttl = self.ttl
        granularity = self.granularity
        entries = self._entries
        buckets = self._buckets
        current = int(now / granularity)
        due = [index for index in buckets if index <= current]
        evicted: List[object] = []
        for index in sorted(due):
            for client_id in buckets.pop(index):
                entry = entries[client_id]
                deadline = entry.last_seen + ttl
                if deadline > now:
                    # Re-file under the real deadline.  +1 so a bucket only
                    # comes due strictly after every deadline filed in it
                    # has passed; the target is never one of the due ones.
                    target = int(deadline / granularity) + 1
                    bucket = buckets.get(target)
                    if bucket is None:
                        buckets[target] = [client_id]
                    else:
                        bucket.append(client_id)
                else:
                    del entries[client_id]
                    evicted.append(entry)
        self.sweeps += 1
        self.evicted_ttl += len(evicted)
        return evicted

    def start_sweeps(self, scheduler) -> None:
        """Drive :meth:`sweep` from one repeating timer on *scheduler*."""
        if self._sweep_timer is not None:
            return
        self._sweep_timer = scheduler.call_later(self.granularity, self._sweep_tick, scheduler)

    def _sweep_tick(self, scheduler) -> None:
        self.sweep()
        self._sweep_timer = scheduler.call_later(self.granularity, self._sweep_tick, scheduler)

    def __repr__(self) -> str:
        return (
            f"RegistrationTable(live={len(self._entries)}, ttl={self.ttl}, "
            f"sweeps={self.sweeps})"
        )


class ShardedRegistry:
    """A fixed pool of :class:`RegistrationTable` shards, one per endpoint.

    This is the registration plane as one object — what the
    ``rendezvous_churn`` workload and the ``rendezvous_scale`` bench drive
    directly (no packets, just the data structures a packet handler sits
    on).  Every operation places the peer on ``shards[shard_of(peer_id,
    len(shards))]``, computed inline so a register, touch or lookup costs
    no extra frame.
    """

    def __init__(
        self,
        now_fn: Callable[[], float],
        endpoints: Sequence[Endpoint],
        config: RegistryConfig,
    ) -> None:
        if not endpoints:
            raise ValueError("ShardedRegistry needs at least one endpoint")
        self.shards: List[RegistrationTable] = [
            RegistrationTable(
                now_fn,
                ttl=config.ttl,
                sweep_granularity=config.sweep_granularity,
            )
            for _ in endpoints
        ]
        #: Shards in the pool; the pool never resizes.
        self._count = len(self.shards)

    def shard_for(self, peer_id: int) -> RegistrationTable:
        return self.shards[crc32(_pack_u32(peer_id & 0xFFFFFFFF)) % self._count]

    def register(self, peer_id: int, entry) -> int:
        """Place *entry* on its shard; returns the shard index."""
        index = crc32(_pack_u32(peer_id & 0xFFFFFFFF)) % self._count
        self.shards[index].register(peer_id, entry)
        return index

    def touch(self, peer_id: int) -> bool:
        """Keepalive refresh: the peer's shard's :meth:`RegistrationTable.refresh`."""
        return self.shards[crc32(_pack_u32(peer_id & 0xFFFFFFFF)) % self._count].refresh(peer_id)

    def lookup(self, peer_id: int):
        return self.shards[crc32(_pack_u32(peer_id & 0xFFFFFFFF)) % self._count].get(peer_id)

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

    def __repr__(self) -> str:
        return f"ShardedRegistry(shards={len(self.shards)}, live={self.live})"



class _WheelEntry:
    """Handle for one registrant on a :class:`KeepaliveWheel`."""

    __slots__ = ("callback", "arg", "interval")

    def __init__(
        self, callback: Callable[[object], None], interval: float, arg: object
    ) -> None:
        self.callback: Optional[Callable[[object], None]] = callback
        self.arg = arg
        self.interval = interval

    def cancel(self) -> None:
        self.callback = None


class KeepaliveWheel:
    """Shared periodic driver: one scheduler timer per tick, any fan-out.

    The per-peer pattern (``client.start_server_keepalives`` scheduling its
    own ``call_later`` loop) costs one live heap entry per peer forever.
    The wheel files every registrant due in the same coarse tick under one
    bucket and fires them from a single timer, so a million keepalive loops
    cost the scheduler ``ttl / granularity``-ish events per period instead
    of a million.  A registrant is one callback with one argument, its id,
    so the wheel keeps one small object per registrant.
    """

    def __init__(self, scheduler, granularity: float = 1.0) -> None:
        if not (granularity > 0):  # NaN included
            raise ValueError("granularity must be positive")
        self.scheduler = scheduler
        self.granularity = granularity
        self._buckets: Dict[int, List[_WheelEntry]] = {}
        self.registrants = 0

    def add(
        self, interval: float, callback: Callable[[object], None], arg: object
    ) -> _WheelEntry:
        """Run ``callback(arg)`` roughly every *interval* virtual seconds.

        "Roughly": fires are quantised to wheel ticks, so a callback lands
        at most one granularity late — the same trade every kernel timer
        wheel makes.  *arg* is the registrant's id and rides on the entry,
        so a million registrants can share one callback function instead of
        a million closures.  *interval* must be positive: a non-positive one
        would re-file into an already-due bucket on every fire and never let
        the clock move.
        """
        if not interval > 0:  # NaN included
            raise ValueError(f"interval must be positive, got {interval!r}")
        entry = _WheelEntry(callback, interval, arg)
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
        now = self.scheduler.now
        granularity = self.granularity
        buckets = self._buckets
        # interval -> the bucket this tick re-files it into.  Every entry
        # of one interval lands in the same bucket, so the index arithmetic
        # and the bucket probe run once per distinct interval; the cached
        # bucket stays filed, since only its own tick removes it.
        targets: Dict[float, List[_WheelEntry]] = {}
        for entry in entries:
            callback = entry.callback
            if callback is None:
                self.registrants -= 1
                continue
            try:
                callback(entry.arg)
            except BaseException:
                # As with one timer per registrant: the raising loop ends,
                # and the rest of this tick fires at this same instant when
                # the run resumes.
                self.registrants -= 1
                rest = entries[entries.index(entry) + 1:]
                if rest:
                    self._file(index, rest[0]).extend(rest[1:])
                raise
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

