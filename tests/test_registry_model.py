"""The registration table against models (ROADMAP "Model-based correctness" (3)).

One hypothesis state machine drives a TTL
:class:`~repro.core.registry.RegistrationTable` through every operation the
sharded plane uses — register (stamped now or earlier), replace,
``refresh``, clock advances, ``sweep`` — and checks three things after
every step:

(a) **differential** — :class:`ParentRegistrationTable`, the table as it was
    before its wheel index went sparse (a dense ``_armed: id -> bucket`` map
    written on every filing), kept here as the reference (less the methods
    and options the table has since dropped), returns the same ``sweep()``
    lists, counters, entry order and wheel buckets;
(b) **oracle** — a plain dict of ``id -> last_seen``: nothing is evicted
    before ``last_seen + ttl``, and everything is gone by the first sweep at
    or after the bucket boundary above that deadline;
(c) **structure** — every live id is filed exactly once, and nothing else
    is filed.

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
from typing import Callable, Dict, List, Optional

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.core.registry import RegistrationTable, RegistryConfig, ShardedRegistry
from repro.core.rendezvous import Registration
from repro.netsim.addresses import Endpoint


# -- the reference: the dense-index table, class renamed -------------------------


class ParentRegistrationTable:
    """One shard's registrations: a dict with TTL eviction bolted on.

    TTL deadlines live in coarse wheel buckets keyed by
    ``floor(deadline / granularity) + 1``; :meth:`sweep` retires every due
    bucket in one pass.  A refreshed entry found in a due bucket is simply
    re-filed under its *real* deadline — refreshes never touch the wheel
    eagerly, which is the whole trick: keepalives are O(1) attribute work
    instead of cancel + reschedule on a million-entry timer heap.
    """

    __slots__ = (
        "ttl",
        "granularity",
        "sweeps",
        "evicted_ttl",
        "_now",
        "_entries",
        "_armed",
        "_buckets",
    )

    def __init__(
        self,
        now_fn: Callable[[], float],
        ttl: float,
        sweep_granularity: float = 5.0,
    ) -> None:
        if sweep_granularity <= 0:
            raise ValueError("sweep_granularity must be positive")
        self._now = now_fn
        self.ttl = ttl
        self.granularity = sweep_granularity
        self._entries: Dict[int, object] = {}
        #: client id -> wheel bucket the id is currently filed under.  Every
        #: live id appears in exactly one bucket; stale bucket residues are
        #: recognised (armed index mismatch) and skipped by the sweep.
        self._armed: Dict[int, int] = {}
        self._buckets: Dict[int, List[int]] = {}
        self.sweeps = 0
        self.evicted_ttl = 0

    # -- registration lifecycle --------------------------------------------------

    def register(self, client_id: int, entry) -> None:
        """Insert (or replace) a registration; O(1).

        A replaced entry keeps its id's wheel slot — the sweep re-files it
        from the fresh ``last_seen`` when the old bucket comes due.
        """
        self._entries[client_id] = entry
        armed = self._armed
        if client_id not in armed:
            index = int((entry.last_seen + self.ttl) / self.granularity) + 1
            armed[client_id] = index
            bucket = self._buckets.get(index)
            if bucket is None:
                self._buckets[index] = [client_id]
            else:
                bucket.append(client_id)

    def refresh(self, client_id: int) -> bool:
        """The whole server-side keepalive in one call; O(1)."""
        entry = self._entries.get(client_id)
        if entry is None:
            return False
        entry.last_seen = self._now()
        return True

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

    def sweep(self, now: Optional[float] = None) -> List[object]:
        """Retire every due wheel bucket; returns the evicted entries.

        Entries refreshed since they were filed are re-filed under their
        real deadline (the lazy half of the wheel); entries whose deadline
        has truly passed are evicted.
        """
        if now is None:
            now = self._now()
        current = int(now / self.granularity)
        due = [index for index in self._buckets if index <= current]
        evicted: List[object] = []
        for index in sorted(due):
            for client_id in self._buckets.pop(index):
                if self._armed.get(client_id) != index:
                    continue  # stale residue: re-filed meanwhile
                entry = self._entries.get(client_id)
                if entry is None:
                    del self._armed[client_id]
                    continue
                deadline = entry.last_seen + self.ttl
                if deadline > now:
                    self._arm(client_id, deadline)
                else:
                    del self._entries[client_id]
                    del self._armed[client_id]
                    evicted.append(entry)
        self.sweeps += 1
        self.evicted_ttl += len(evicted)
        return evicted


# -- the machine -----------------------------------------------------------------

GRANULARITY = 5.0
#: Not a multiple of the granularity, so deadlines straddle bucket boundaries.
TTL = 12.0
#: Few ids, so the same id expires and is registered again and again.
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


class TtlOnlyMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.now = 0.0
        self.serial = 0
        self.table, self.ref = (
            cls(lambda: self.now, ttl=TTL, sweep_granularity=GRANULARITY)
            for cls in (RegistrationTable, ParentRegistrationTable)
        )
        self.tables = (self.table, self.ref)
        #: The oracle: id -> last_seen, in registration order.
        self.model: Dict[int, float] = {}

    def _register(self, cid: int, last_seen: float) -> None:
        self.serial += 1
        for table in self.tables:
            table.register(cid, Entry(cid, self.serial, last_seen))
        self.model[cid] = last_seen

    # -- rules --

    @rule(cid=IDS)
    def register(self, cid):
        """A new id, a live one (replaced in place) or an expired one (re-filed)."""
        self._register(cid, self.now)

    @rule(cid=IDS)
    def refresh(self, cid):
        known = cid in self.model
        assert [table.refresh(cid) for table in self.tables] == [known, known]
        if known:
            self.model[cid] = self.now

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
        for cid, _serial, last_seen in evicted[0]:
            assert self.model.pop(cid) == last_seen
            assert last_seen + TTL <= now, "evicted before its deadline"
        swept_through = int(now / GRANULARITY)
        for cid, last_seen in self.model.items():
            assert int((last_seen + TTL) / GRANULARITY) + 1 > swept_through, (
                f"id {cid} outlived the first sweep past its deadline's bucket boundary"
            )

    @rule()
    def drain(self):
        """Every keepalive stops; one sweep past the last deadline empties it all."""
        self.now += TTL + 2 * GRANULARITY
        self.sweep(explicit_now=False)
        assert not self.model and len(self.table) == 0
        assert not self.table._buckets

    def teardown(self):
        self.drain()
        self.agree()

    # -- checked after every rule --

    @invariant()
    def agree(self):
        table, ref, model = self.table, self.ref, self.model
        # (a) the reference table
        assert keys(table._entries.values()) == keys(ref._entries.values())
        assert (table.sweeps, table.evicted_ttl, table.evicted_lru) == (
            ref.sweeps, ref.evicted_ttl, 0
        )
        assert table._buckets == ref._buckets
        # (b) the dict
        assert list(table._entries) == list(model)
        assert [entry.last_seen for entry in table._entries.values()] == list(model.values())
        # (c) every live id filed exactly once, nothing else filed
        filings = collections.Counter(
            cid for bucket in table._buckets.values() for cid in bucket
        )
        assert filings == collections.Counter(list(model))
        for cid, index in ref._armed.items():
            assert cid in table._buckets[index]


TtlOnlyMachine.TestCase.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None
)
TestTtlOnlyTable = TtlOnlyMachine.TestCase


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
