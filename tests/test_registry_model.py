"""The registration table against models (ROADMAP "Model-based correctness" (3)).

One hypothesis state machine drives a TTL-only, an LRU-only and a TTL + LRU
:class:`~repro.core.registry.RegistrationTable` through every operation the
servers and the sharded plane use — register (stamped now or earlier),
replace, ``del``, re-register, ``refresh``, stamp-and-``touch``, clock
advances, ``sweep``, ``clear`` — and checks three things after every step:

(a) **differential** — :class:`ParentRegistrationTable`, the table as it was
    before its wheel index went sparse (a dense ``_armed: id -> bucket`` map
    written on every filing), kept here as the reference (less the methods
    the table has since dropped), returns
    the same ``sweep()`` lists, counters, ``on_evict`` calls, iteration order
    and wheel buckets;
(b) **oracle** — a plain dict of ``id -> last_seen``: nothing is evicted
    before ``last_seen + ttl``, everything is gone by the first sweep at or
    after the bucket boundary above that deadline, and the LRU victim is the
    least recently registered-or-refreshed id;
(c) **structure** — the filing / orphan invariant in the table's docstring.

The machine's entries carry ``last_seen``: the reference's ``sweep()`` raises
``AttributeError`` on an entry without one (fixed in the table itself and
tested in ``test_registry.py``).

Below the machine: :class:`~repro.core.rendezvous.Registration` keeps the
dataclass's observable behaviour without its ``__dict__``, and a byte ceiling
on what one registration costs the plane.
"""

from __future__ import annotations

import collections
import copy
import gc
import pickle
import tracemalloc
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.core.registry import RegistrationTable, RegistryConfig, ShardedRegistry
from repro.core.rendezvous import Registration
from repro.netsim.addresses import Endpoint
from repro.obs.metrics import MetricsRegistry

EvictionHandler = Callable[[object, str], None]


# -- the reference: the parent commit's table, class renamed, nothing else -------


class ParentRegistrationTable:
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
        self._now = now_fn
        self.ttl = ttl
        self.max_entries = max_entries
        self.granularity = sweep_granularity
        self.on_evict = on_evict
        self._tracking = ttl is not None or max_entries is not None
        self._entries: Dict[int, object] = {}
        #: client id -> wheel bucket the id is currently filed under.  Every
        #: live id appears in exactly one bucket; stale bucket residues are
        #: recognised (armed index mismatch) and skipped by the sweep.
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
        self._armed.pop(client_id, None)

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
        if self.max_entries is not None:
            if client_id in entries:
                del entries[client_id]
            elif len(entries) >= self.max_entries:
                self._evict_lru()
        entries[client_id] = entry
        if self.ttl is not None:
            armed = self._armed
            if client_id not in armed:
                try:
                    last_seen = entry.last_seen
                except AttributeError:
                    last_seen = self._now()
                index = int((last_seen + self.ttl) / self.granularity) + 1
                armed[client_id] = index
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

    # -- timer wheel -------------------------------------------------------------

    def _bucket_index(self, deadline: float) -> int:
        # +1 so a bucket only comes due strictly after every deadline filed
        # in it has passed; the sweep re-checks real deadlines anyway.
        return int(deadline / self.granularity) + 1

    def _arm(self, client_id: int, deadline: float) -> None:
        index = self._bucket_index(deadline)
        self._armed[client_id] = index
        bucket = self._buckets.get(index)
        if bucket is None:
            self._buckets[index] = [client_id]
        else:
            bucket.append(client_id)

    def _evict_lru(self) -> None:
        client_id = next(iter(self._entries))
        entry = self._entries.pop(client_id)
        self._armed.pop(client_id, None)
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
        current = int(now / self.granularity)
        due = [index for index in self._buckets if index <= current]
        evicted: List[object] = []
        examined = 0
        for index in sorted(due):
            for client_id in self._buckets.pop(index):
                if self._armed.get(client_id) != index:
                    continue  # stale residue: deleted or re-filed meanwhile
                entry = self._entries.get(client_id)
                if entry is None:
                    del self._armed[client_id]
                    continue
                examined += 1
                deadline = entry.last_seen + self.ttl
                if deadline > now:
                    self._arm(client_id, deadline)
                else:
                    del self._entries[client_id]
                    del self._armed[client_id]
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

    def __repr__(self) -> str:
        return (
            f"RegistrationTable(live={len(self._entries)}, ttl={self.ttl}, "
            f"max_entries={self.max_entries}, sweeps={self.sweeps})"
        )


# -- the machine -----------------------------------------------------------------

GRANULARITY = 5.0
#: Not a multiple of the granularity, so deadlines straddle bucket boundaries.
TTL = 12.0
#: Few ids, so the same id is removed and re-registered again and again.
IDS = st.integers(0, 7)
#: Clock steps: same tick, inside one bucket, across one, across a whole TTL.
STEPS = st.sampled_from([0.0, 0.5, 2.5, 5.0, 7.5, 13.0]) | st.floats(0.0, 20.0)
#: How long ago an aged registration was last seen: fresher *and* staler than
#: the registration it may replace, some already past the TTL.
AGES = st.sampled_from([0.0, 3.0, 11.0, 12.5]) | st.floats(0.0, 20.0)


class Entry:
    """A registration stand-in; ``serial`` tells a replacement from the original."""

    __slots__ = ("cid", "serial", "last_seen")

    def __init__(self, cid: int, serial: int, last_seen: float) -> None:
        self.cid = cid
        self.serial = serial
        self.last_seen = last_seen

    def key(self):
        return (self.cid, self.serial, self.last_seen)


def keys(entries) -> list:
    return [entry.key() for entry in entries]


class TableMachine(RuleBasedStateMachine):
    ttl: Optional[float] = None
    max_entries: Optional[int] = None

    def __init__(self) -> None:
        super().__init__()
        self.now = 0.0
        self.serial = 0
        #: ``on_evict`` calls as ``(entry key, reason)``: the table's, the reference's.
        self.calls = ([], [])
        self.table, self.ref = (
            cls(
                lambda: self.now,
                ttl=self.ttl,
                max_entries=self.max_entries,
                sweep_granularity=GRANULARITY,
                on_evict=lambda entry, reason, log=log: log.append((entry.key(), reason)),
            )
            for cls, log in zip((RegistrationTable, ParentRegistrationTable), self.calls)
        )
        self.tables = (self.table, self.ref)
        #: The oracle: id -> last_seen, in the order a dict that moves
        #: refreshed ids to the back (bounded tables only) would hold them.
        self.model: Dict[int, float] = {}
        #: Whether a live id left the table by ``del`` or LRU eviction (its
        #: wheel filing stays behind) since the last ``clear``.
        self.removed_while_filed = False

    # -- model bookkeeping --

    def _model_store(self, cid: int, last_seen: float) -> Optional[int]:
        """Apply one ``register`` to the oracle; returns the LRU victim, if any."""
        victim = None
        if self.max_entries is not None:
            if cid in self.model:
                del self.model[cid]
            elif len(self.model) >= self.max_entries:
                victim = next(iter(self.model))
                del self.model[victim]
                self.removed_while_filed |= self.ttl is not None
        self.model[cid] = last_seen
        return victim

    def _model_refresh(self, cid: int) -> None:
        if self.max_entries is not None:
            del self.model[cid]
        self.model[cid] = self.now

    def _register(self, cid: int, last_seen: float) -> None:
        self.serial += 1
        before = len(self.calls[0])
        for table in self.tables:
            table.register(cid, Entry(cid, self.serial, last_seen))
        victim = self._model_store(cid, last_seen)
        evictions = [(key[0], reason) for key, reason in self.calls[0][before:]]
        assert evictions == ([] if victim is None else [(victim, "lru")])

    def _delete(self, cid: int) -> None:
        for table in self.tables:
            del table[cid]
        del self.model[cid]
        self.removed_while_filed |= self.ttl is not None

    # -- rules --

    @rule(cid=IDS)
    def register(self, cid):
        """A new id, a live one (replaced in place) or a removed one (re-filed)."""
        self._register(cid, self.now)

    @rule(cid=IDS)
    def delete(self, cid):
        if cid in self.model:
            self._delete(cid)
        else:
            for table in self.tables:
                with pytest.raises(KeyError):
                    del table[cid]

    @rule(cid=IDS, times=st.integers(1, 3))
    def unregister_and_reregister(self, cid, times):
        """Same tick, same bucket, possibly several orphans for one id."""
        for _ in range(times):
            if cid in self.model:
                self._delete(cid)
            self._register(cid, self.now)

    @rule(cid=IDS)
    def refresh(self, cid):
        known = cid in self.model
        assert [table.refresh(cid) for table in self.tables] == [known, known]
        if known:
            self._model_refresh(cid)

    @rule(cid=IDS)
    def stamp_and_touch(self, cid):
        """The servers' keepalive handlers: store ``last_seen``, then ``touch``."""
        for table in self.tables:
            entry = table.get(cid)
            if entry is not None:
                entry.last_seen = self.now
            table.touch(cid)
        if cid in self.model:
            self._model_refresh(cid)

    @rule(cid=IDS, age=AGES)
    def register_aged(self, cid, age):
        """A registration whose ``last_seen`` is already in the past: it is
        filed in the bucket of its real deadline, which may already be due.
        Only for ids the table does not hold: a replacement keeps the live
        id's filing (see ``register``), so it is never staler than the entry
        it replaces."""
        if cid not in self.model:
            self._register(cid, max(0.0, self.now - age))

    @rule(dt=STEPS)
    def advance(self, dt):
        self.now += dt

    @rule(explicit_now=st.booleans())
    def sweep(self, explicit_now):
        now = self.now
        evicted = [keys(table.sweep(now if explicit_now else None)) for table in self.tables]
        assert evicted[0] == evicted[1]
        if self.ttl is None:
            assert evicted[0] == []
            return
        for cid, _serial, last_seen in evicted[0]:
            assert self.model.pop(cid) == last_seen
            assert last_seen + self.ttl <= now, "evicted before its deadline"
        swept_through = int(now / GRANULARITY)
        for cid, last_seen in self.model.items():
            assert int((last_seen + self.ttl) / GRANULARITY) + 1 > swept_through, (
                f"id {cid} outlived the first sweep past its deadline's bucket boundary"
            )

    @precondition(lambda self: len(self.model) >= 3)
    @rule()
    def clear(self):
        for table in self.tables:
            table.clear()
        self.model.clear()
        self.removed_while_filed = False

    @rule()
    def drain(self):
        """Every keepalive stops; one sweep past the last deadline empties it all."""
        if self.ttl is None:
            return
        self.now += self.ttl + 2 * GRANULARITY
        self.sweep(explicit_now=False)
        table = self.table
        assert not self.model and len(table) == 0
        assert not table._buckets and not table._orphans and not table._armed

    def teardown(self):
        self.drain()
        self.agree()

    # -- checked after every rule --

    @invariant()
    def agree(self):
        table, ref, model = self.table, self.ref, self.model
        # (a) the parent's table
        assert list(table) == list(ref)
        assert keys(table.values()) == keys(ref.values())
        assert (table.sweeps, table.evicted_ttl, table.evicted_lru) == (
            ref.sweeps, ref.evicted_ttl, ref.evicted_lru
        )
        assert self.calls[0] == self.calls[1]
        assert table._buckets == ref._buckets
        # (b) the dict
        assert list(table) == list(model)
        assert [entry.last_seen for entry in table.values()] == list(model.values())
        if self.max_entries is not None:
            assert len(table) <= self.max_entries
        # (c) filings, orphans and the sparse index
        orphans, armed = table._orphans, table._armed
        filings = collections.Counter(
            cid for bucket in table._buckets.values() for cid in bucket
        )
        if self.ttl is None:
            assert not filings and not orphans and not armed
            return
        for cid in set(filings) | set(model) | set(orphans):
            assert filings[cid] - orphans.get(cid, 0) == (cid in model), (
                f"id {cid}: {filings[cid]} filings, {orphans.get(cid, 0)} orphans, "
                f"live={cid in model}"
            )
        assert all(count >= 1 for count in orphans.values())
        assert set(armed) == set(orphans) & set(model)
        for cid, index in armed.items():
            assert cid in table._buckets[index] and ref._armed[cid] == index
        if not self.removed_while_filed:
            assert not orphans and not armed


class TtlOnlyMachine(TableMachine):
    ttl = TTL


class LruOnlyMachine(TableMachine):
    max_entries = 4


class TtlAndLruMachine(TableMachine):
    ttl = TTL
    max_entries = 4


_machine_settings = settings(max_examples=60, stateful_step_count=40, deadline=None)
TtlOnlyMachine.TestCase.settings = _machine_settings
LruOnlyMachine.TestCase.settings = _machine_settings
TtlAndLruMachine.TestCase.settings = _machine_settings
TestTtlOnlyTable = TtlOnlyMachine.TestCase
TestLruOnlyTable = LruOnlyMachine.TestCase
TestTtlAndLruTable = TtlAndLruMachine.TestCase


# -- Registration: the dataclass's behaviour, not its ``__dict__`` ----------------


@dataclass
class DataclassRegistration:
    """``Registration`` as the parent commit declared it."""

    __qualname__ = "Registration"

    client_id: int
    public_ep: Endpoint
    private_ep: Endpoint
    registered_at: float
    last_seen: float
    keepalives: int = 0


PUBLIC = Endpoint("155.99.25.11", 62000)
PRIVATE = Endpoint("10.0.0.1", 4321)
FIELDS = dict(
    client_id=7, public_ep=PUBLIC, private_ep=PRIVATE, registered_at=1.5, last_seen=2.5
)


def test_registration_constructs_like_the_dataclass():
    positional = Registration(7, PUBLIC, PRIVATE, 1.5, 2.5)
    assert positional == Registration(**FIELDS)
    assert positional.keepalives == 0
    assert Registration(7, PUBLIC, PRIVATE, 1.5, 2.5, 3).keepalives == 3
    assert Registration(keepalives=3, **FIELDS).keepalives == 3
    with pytest.raises(TypeError):
        Registration(7, PUBLIC, PRIVATE, 1.5)  # last_seen has no default
    with pytest.raises(TypeError):
        Registration(**FIELDS, nickname="alice")


def test_registration_repr_is_the_dataclass_string():
    for extra in ({}, {"keepalives": 4}):
        assert repr(Registration(**FIELDS, **extra)) == repr(
            DataclassRegistration(**FIELDS, **extra)
        )


def test_registration_compares_field_wise_and_is_unhashable():
    base = Registration(**FIELDS)
    assert base == Registration(**FIELDS) and not base != Registration(**FIELDS)
    for name, other in (
        ("client_id", 8),
        ("public_ep", PRIVATE),
        ("private_ep", PUBLIC),
        ("registered_at", 9.0),
        ("last_seen", 9.0),
    ):
        assert base != Registration(**{**FIELDS, name: other}), name
    assert base != Registration(**FIELDS, keepalives=1)
    # Another class with equal fields is not equal (the dataclass rule), and
    # the comparison defers instead of deciding: ``NotImplemented``.
    assert base != DataclassRegistration(**FIELDS)
    assert base.__eq__(tuple(FIELDS.values())) is NotImplemented
    with pytest.raises(TypeError):
        hash(base)


def test_registration_has_no_dict_and_round_trips():
    base = Registration(**FIELDS, keepalives=2)
    assert not hasattr(base, "__dict__")
    with pytest.raises(AttributeError):
        base.nickname = "alice"
    for clone in (copy.copy(base), copy.deepcopy(base), pickle.loads(pickle.dumps(base))):
        assert clone == base and clone is not base
    base.last_seen = 30.0  # what every keepalive does
    assert base.last_seen == 30.0


def test_registration_behind_nat():
    """Behind a NAT, S holds two different endpoints for the client (§3.1)."""
    behind = Registration(**FIELDS)
    assert behind.public_ep != behind.private_ep
    direct = Registration(7, PRIVATE, PRIVATE, 0.0, 0.0)
    assert direct.public_ep == direct.private_ep


# -- what one registration costs ---------------------------------------------------

#: 231 B with a ``__dict__`` record and the dense ``_armed``; 136 B on 3.11
#: with neither.  Object layouts move a few bytes between 3.10 and 3.12.
BYTES_PER_REGISTRATION_CEILING = 160


def test_bytes_per_registration_ceiling():
    """100 000 registrations on eight TTL shards, as the scale bench builds them."""
    peers = 100_000
    registry = ShardedRegistry(
        lambda: 0.0,
        [Endpoint(f"18.181.{i}.31", 3478) for i in range(8)],
        RegistryConfig(ttl=30.0, sweep_granularity=5.0),
    )
    ids = list(range(peers))  # the ids are the caller's, not the plane's
    register = registry.register
    gc.collect()
    already_tracing = tracemalloc.is_tracing()
    if not already_tracing:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for cid in ids:
            register(cid, Registration(cid, PUBLIC, PRIVATE, 0.0, 0.0))
        per_registration = (tracemalloc.get_traced_memory()[0] - before) / peers
    finally:
        if not already_tracing:
            tracemalloc.stop()
    assert registry.live == peers
    assert per_registration <= BYTES_PER_REGISTRATION_CEILING, per_registration
    assert not any(shard._armed or shard._orphans for shard in registry.shards)
