"""Unit tests for the sharded registration plane (repro.core.registry)."""

import heapq
from collections import defaultdict

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.registry import (
    KeepaliveWheel,
    RegistrationTable,
    RegistryConfig,
    ShardRing,
    ShardedRegistry,
    attach_shard_ring,
    shard_of,
)
from repro.netsim.addresses import Endpoint
from repro.netsim.clock import Scheduler
from repro.obs.metrics import MetricsRegistry


class Entry:
    """Minimal registration stand-in: the table only needs ``last_seen``."""

    def __init__(self, last_seen=0.0):
        self.last_seen = last_seen

    def __repr__(self):
        return f"Entry(last_seen={self.last_seen})"


def make_table(scheduler, **kwargs):
    return RegistrationTable(lambda: scheduler.now, **kwargs)


# -- plain mode (the drop-in dict) ------------------------------------------------


def test_plain_table_is_dict_compatible_and_timer_free():
    sched = Scheduler()
    table = make_table(sched)
    table[1] = Entry()
    table[2] = Entry()
    assert len(table) == 2
    assert set(table) == {1, 2}
    assert 1 in table and 3 not in table
    assert table.get(3) is None
    assert dict(table.items()).keys() == {1, 2}
    del table[1]
    assert set(table.keys()) == {2}
    table.clear()
    assert len(table) == 0
    # The inert policy must add zero events to the simulation.
    table.start_sweeps(sched)
    assert sched.pending == 0
    assert table.sweep() == []


def test_plain_table_preserves_insertion_order_on_reregistration():
    # The old dict kept a re-registered key in place; dict-identical behaviour
    # matters for trace identity of existing scenarios.
    sched = Scheduler()
    table = make_table(sched)
    table[1] = Entry()
    table[2] = Entry()
    table[1] = Entry()
    assert list(table) == [1, 2]


# -- TTL expiry via the sweep wheel ----------------------------------------------


def test_ttl_expiry_with_sweep_timer():
    sched = Scheduler()
    evicted = []
    table = make_table(
        sched, ttl=10.0, sweep_granularity=5.0, on_evict=lambda e, r: evicted.append((e, r))
    )
    table.register(1, Entry(last_seen=sched.now))
    table.start_sweeps(sched)
    assert sched.pending == 1  # exactly one sweep timer, regardless of entries
    sched.run_until(9.0)
    assert 1 in table
    sched.run_until(20.0)
    assert 1 not in table
    assert evicted == [(evicted[0][0], "ttl")]
    assert table.evicted_ttl == 1


def test_reregistration_resets_ttl():
    sched = Scheduler()
    table = make_table(sched, ttl=10.0, sweep_granularity=5.0)
    table.register(1, Entry(last_seen=0.0))
    sched.run_until(8.0)
    table.register(1, Entry(last_seen=8.0))  # re-register: fresh deadline
    table.start_sweeps(sched)
    sched.run_until(15.0)  # past the original deadline
    assert 1 in table
    # Expires at 18 + at most one sweep granularity of wheel slack.
    sched.run_until(25.0)
    assert 1 not in table


def test_keepalive_touch_defers_expiry_lazily():
    sched = Scheduler()
    table = make_table(sched, ttl=10.0, sweep_granularity=5.0)
    entry = Entry(last_seen=0.0)
    table.register(1, entry)
    table.start_sweeps(sched)
    for t in (6.0, 12.0, 18.0, 24.0):
        sched.run_until(t)
        entry.last_seen = sched.now  # what the server's keepalive handler does
        table.touch(1)
        assert 1 in table
    # Stop refreshing: gone within ttl + one bucket of slack.
    sched.run_until(24.0 + 10.0 + 5.0 + 0.1)
    assert 1 not in table
    assert table.sweeps > 0


def test_sweep_batches_whole_buckets():
    sched = Scheduler()
    table = make_table(sched, ttl=10.0, sweep_granularity=5.0)
    for cid in range(100):
        table.register(cid, Entry(last_seen=0.0))
    table.start_sweeps(sched)
    assert sched.pending == 1
    sched.run_until(16.0)
    assert len(table) == 0
    # All 100 expiries cost a handful of sweep events, not one event each.
    assert table.sweeps <= 4
    assert table.evicted_ttl == 100


def test_sweep_evicts_an_entry_without_last_seen():
    # ``register`` accepts an entry that has no ``last_seen`` (it is filed
    # from the clock); such an entry can never be refreshed, so the sweep
    # that retires its bucket must evict it, not crash on the attribute.
    sched = Scheduler()
    reasons = []
    table = make_table(
        sched, ttl=5.0, sweep_granularity=5.0, on_evict=lambda e, r: reasons.append((e, r))
    )
    table.register(1, "x")
    assert table.sweep(4.0) == [] and 1 in table
    assert table.sweep(10.0) == ["x"]
    assert 1 not in table and reasons == [("x", "ttl")] and table.evicted_ttl == 1


def test_ttl_only_lifecycle_leaves_the_wheel_index_empty():
    # Nothing here removes an id while it is filed, so the orphan count and
    # the bucket index kept for ids that have orphans are never written.
    sched = Scheduler()
    table = make_table(sched, ttl=10.0, sweep_granularity=5.0)
    table.start_sweeps(sched)
    for cid in range(50):
        table.register(cid, Entry(last_seen=sched.now))
    for t in (6.0, 12.0, 18.0):
        sched.run_until(t)
        for cid in range(0, 50, 2):
            assert table.refresh(cid)
        table.register(1, Entry(last_seen=sched.now))  # re-register a live id
        assert not table._armed and not table._orphans
    assert len(table) == 26
    sched.run_until(40.0)
    assert len(table) == 0 and table.evicted_ttl == 50
    assert not table._armed and not table._orphans and not table._buckets


def test_removed_ids_are_forgotten_once_their_filings_come_due():
    sched = Scheduler()
    table = make_table(sched, ttl=10.0, sweep_granularity=5.0)
    table.register(1, Entry(last_seen=0.0))
    del table[1]
    table.register(1, Entry(last_seen=0.0))  # same bucket as the orphan
    del table[1]
    assert table._orphans == {1: 2} and not table._armed
    sched.run_until(7.0)
    table.register(1, Entry(last_seen=7.0))  # live filing two buckets later
    assert table._armed == {1: 4}
    assert table.sweep(15.0) == [] and 1 in table  # both orphans met and dropped
    assert not table._orphans and not table._armed
    assert [e.last_seen for e in table.sweep(20.0)] == [7.0]
    assert not table._buckets


# -- LRU eviction ------------------------------------------------------------------


def test_lru_eviction_drops_least_recently_refreshed():
    sched = Scheduler()
    evicted = []
    table = make_table(sched, max_entries=3, on_evict=lambda e, r: evicted.append(r))
    table.register(1, Entry())
    table.register(2, Entry())
    table.register(3, Entry())
    table.touch(1)  # 1 is now most recent; 2 is the LRU
    table.register(4, Entry())
    assert set(table) == {1, 3, 4}
    assert evicted == ["lru"]
    assert table.evicted_lru == 1


def test_churn_never_evicts_peers_with_live_keepalives():
    sched = Scheduler()
    table = make_table(sched, max_entries=50)
    protected = list(range(10))
    for cid in protected:
        table.register(cid, Entry())
    for wave in range(1, 20):
        for cid in protected:
            table.touch(cid)  # live keepalives
        for i in range(10):
            table.register(1000 + wave * 10 + i, Entry())  # churn
        assert all(cid in table for cid in protected)
    assert len(table) == 50


# -- bulk adoption ----------------------------------------------------------------


def test_adopt_is_bulk_and_timerless():
    sched = Scheduler()
    table = make_table(sched, ttl=30.0, sweep_granularity=5.0)
    table.start_sweeps(sched)
    table.register(7, Entry(last_seen=0.0))
    pending_before = sched.pending
    incoming = {cid: Entry(last_seen=1.0) for cid in range(1000)}
    adopted = table.adopt(incoming)
    assert adopted == 999  # id 7 already present, kept
    assert table[7] is not incoming[7]
    assert sched.pending == pending_before  # zero per-entry timer churn
    assert len(table) == 1000


# -- the shard ring ----------------------------------------------------------------


def endpoints(n):
    return [Endpoint(f"18.181.0.{31 + i}", 1234) for i in range(n)]


def test_shard_ring_deterministic_placement():
    ring = ShardRing(endpoints(4))
    for peer_id in range(100):
        home = shard_of(peer_id, 4)
        assert ring.home_index(peer_id) == home
        assert ring.owner_index(peer_id) == home
        assert ring.owner(peer_id) == ring.endpoints[home]
    assert ring.index_of(Endpoint("18.181.0.32", 1234)) == 1
    assert ring.index_of(Endpoint("1.2.3.4", 9)) is None


def test_shard_ring_probes_past_down_shards():
    ring = ShardRing(endpoints(4))
    victim = next(p for p in range(100) if ring.home_index(p) == 2)
    ring.mark_down(2)
    assert ring.owner_index(victim) == 3
    ring.mark_down(3)
    assert ring.owner_index(victim) == 0  # wraps
    ring.mark_up(2)
    assert ring.owner_index(victim) == 2
    assert ring.alive_indices() == [0, 1, 2]


def test_sharded_registry_places_touches_and_sweeps():
    sched = Scheduler()
    registry = ShardedRegistry(
        lambda: sched.now,
        endpoints(4),
        RegistryConfig(ttl=10.0, sweep_granularity=5.0),
    )
    registry.start_sweeps(sched)
    assert sched.pending == 4  # one sweep timer per shard
    for cid in range(200):
        registry.register(cid, Entry(last_seen=sched.now))
    assert registry.live == 200
    assert registry.lookup(5).last_seen == 0.0
    sched.run_until(8.0)
    for cid in range(0, 200, 2):
        assert registry.touch(cid)
    assert not registry.touch(9999)
    sched.run_until(16.0)
    assert registry.live == 100  # untouched half expired
    sched.run_until(30.0)
    assert registry.live == 0


# -- keepalive wheel --------------------------------------------------------------


def test_keepalive_wheel_batches_many_loops_into_few_timers():
    sched = Scheduler()
    wheel = KeepaliveWheel(sched, granularity=1.0)
    fired = [0] * 200
    def make(i):
        return lambda: fired.__setitem__(i, fired[i] + 1)
    for i in range(200):
        wheel.add(10.0, make(i))
    # 200 loops due at the same tick share one bucket => one pending timer.
    assert sched.pending == 1
    sched.run_until(35.0)
    assert all(3 <= count <= 4 for count in fired)
    # ~3 rounds of 200 callbacks cost tens of scheduler events, not 600.
    assert sched.events_fired <= 10


def test_keepalive_wheel_cancel():
    sched = Scheduler()
    wheel = KeepaliveWheel(sched, granularity=1.0)
    fired = []
    handle = wheel.add(5.0, lambda: fired.append(sched.now))
    sched.run_until(7.0)
    assert len(fired) == 1
    handle.cancel()
    sched.run_until(30.0)
    assert len(fired) == 1


@pytest.mark.parametrize("interval", [-5.0, 0.0, float("nan")])
def test_keepalive_wheel_rejects_a_non_positive_interval(interval):
    # Filed at t = 10, a negative interval lands in an already-due bucket and
    # every fire re-files it into another one at delay 0: the clock never
    # moves again.  The event budget makes such a wheel fail, not hang.
    sched = Scheduler()
    sched.run_until(10.0)
    wheel = KeepaliveWheel(sched, granularity=1.0)
    fired = []
    with pytest.raises(ValueError, match="interval"):
        wheel.add(interval, fired.append, 1)
    assert wheel.registrants == 0 and sched.pending == 0
    sched.run(max_events=10_000, strict=False)
    assert not sched.last_run_exhausted and fired == [] and sched.now == 10.0


class _Registrant:
    __slots__ = ("callback", "args", "interval", "cancelled")

    def __init__(self, callback, interval, args):
        self.callback, self.interval, self.args = callback, interval, args
        self.cancelled = False

    def cancel(self):
        self.cancelled = True


class _ReferenceWheel:
    """What :class:`KeepaliveWheel` promises, one timer per registrant.

    A registrant added at *t* first fires at ``tick(t + interval)`` and each
    fire at *T* files the next at ``tick(T + interval)``, where ``tick(t) =
    (int(t / g) + 1) * g``; fires sharing a tick run in filing order.  A
    cancelled registrant stays filed until its tick comes, and only then
    stops counting as a registrant.  Also its own clock.
    """

    def __init__(self, granularity):
        self.granularity = granularity
        self.now = 0.0
        self.registrants = 0
        #: Every tick a filing ever targeted: one wheel bucket each.
        self.ticks = set()
        self._heap = []
        self._seq = 0

    def tick(self, t):
        return (int(t / self.granularity) + 1) * self.granularity

    def _file(self, registrant, t):
        when = self.tick(t + registrant.interval)
        self.ticks.add(when)
        self._seq += 1
        heapq.heappush(self._heap, (when, self._seq, registrant))

    def add(self, interval, callback, *args):
        registrant = _Registrant(callback, interval, args)
        self.registrants += 1
        self._file(registrant, self.now)
        return registrant

    def run_until(self, deadline):
        while self._heap and self._heap[0][0] <= deadline:
            when, _, registrant = heapq.heappop(self._heap)
            if registrant.cancelled:
                self.registrants -= 1
                continue
            self.now = when
            registrant.callback(*registrant.args)
            self._file(registrant, when)
        self.now = deadline


def _drive_wheel(wheel, clock, script, counts):
    """Run *script* against *wheel* on *clock* (anything with ``now`` and
    ``run_until``), then cancel every handle.  Returns the fire log
    ``[(time, id)]``, each id's ``(t_add, interval)``, and ``counts()`` as
    read after every advance."""
    log, meta, handles, actions, seen = [], [], [], {}, []

    def add(interval, action):
        cid = len(handles)
        meta.append((clock.now, interval))
        actions[cid] = action
        handles.append(wheel.add(interval, fire, cid))

    def fire(cid):
        log.append((clock.now, cid))
        action = actions.pop(cid, None)  # acts on its first fire only
        if action is None:
            return
        if action[0] == "cancel":
            handles[action[1] % len(handles)].cancel()
        elif action[0] == "cancel_self":
            handles[cid].cancel()
        else:  # an add; no interval means this entry's own, i.e. into the
            # bucket it is about to be re-filed under
            add(action[1] or meta[cid][1], None)

    for step in script:
        if step[0] == "add":
            add(step[1], step[2])
        elif step[0] == "cancel":
            if handles:
                handles[step[1] % len(handles)].cancel()
        else:
            clock.run_until(clock.now + step[1])
            seen.append(counts())
    for handle in handles:
        handle.cancel()
    return log, meta, seen


_INTERVALS = st.sampled_from([0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0])
_ACTIONS = st.one_of(
    st.none(),
    st.tuples(st.just("cancel"), st.integers(0, 63)),
    st.just(("cancel_self",)),
    st.tuples(st.just("add"), st.one_of(st.none(), _INTERVALS)),
)
_STEPS = st.one_of(
    st.tuples(st.just("add"), _INTERVALS, _ACTIONS),
    st.tuples(st.just("cancel"), st.integers(0, 63)),
    # Dyadic times, intervals and granularities keep every tick exact.
    st.tuples(st.just("advance"), st.integers(0, 24).map(lambda k: k / 8)),
)


@settings(max_examples=150, deadline=None)
@given(
    granularity=st.sampled_from([0.25, 0.5, 1.0]),
    script=st.lists(_STEPS, max_size=40),
)
def test_keepalive_wheel_matches_one_timer_per_registrant(granularity, script):
    sched = Scheduler()
    wheel = KeepaliveWheel(sched, granularity=granularity)
    log, meta, counts = _drive_wheel(
        wheel, sched, script,
        lambda: (sched.now, wheel.registrants, sched.events_fired, sched.pending),
    )
    reference = _ReferenceWheel(granularity)

    def reference_counts():
        # One scheduler event per bucket, i.e. per distinct tick targeted.
        fired = sum(1 for t in reference.ticks if t <= reference.now)
        return (reference.now, reference.registrants, fired, len(reference.ticks) - fired)

    expected, _, expected_counts = _drive_wheel(
        reference, reference, script, reference_counts
    )
    # The same callbacks at the same times in the same order: a tick fires
    # in filing order, callback-issued adds and cancels included.
    assert log == expected
    # Fire times follow the tick formula, registrant by registrant.
    fires = defaultdict(list)
    for t, cid in log:
        fires[cid].append(t)
    for cid, times in fires.items():
        t_add, interval = meta[cid]
        due = reference.tick(t_add + interval)
        for t in times:
            assert t == due
            due = reference.tick(t + interval)
    # Bucket events and lazily removed registrants, after every advance.
    assert counts == expected_counts
    # Every handle is cancelled now: one more pass over each bucket drops
    # them all and the wheel empties.
    sched.run(max_events=10_000)
    assert wheel.registrants == 0 and not wheel._buckets and sched.pending == 0
    assert sched.events_fired == len(reference.ticks)


# -- metrics -----------------------------------------------------------------------


def test_registry_metrics_names():
    sched = Scheduler()
    metrics = MetricsRegistry(now_fn=lambda: sched.now)
    table = make_table(sched, ttl=10.0, sweep_granularity=5.0, max_entries=2, metrics=metrics)
    table.register(1, Entry(last_seen=0.0))
    table.register(2, Entry(last_seen=0.0))
    table.register(3, Entry(last_seen=0.0))  # LRU-evicts 1
    assert table.lookup(2) is not None
    assert table.lookup(99) is None
    sched.run_until(16.0)
    table.sweep()
    counters = metrics.counters()
    assert counters["rendezvous.lookup.hits"] == 1
    assert counters["rendezvous.lookup.misses"] == 1
    assert counters["rendezvous.evictions{reason=lru}"] == 1
    assert counters["rendezvous.evictions{reason=ttl}"] == 2
    hists = metrics.histograms()
    assert hists["rendezvous.lookup.age"].count == 1
    assert hists["rendezvous.sweep.batch_size"].count == 1


def test_attach_shard_ring_wires_every_server():
    class FakeServer:
        def __init__(self, ip):
            self.endpoint = Endpoint(ip, 1234)
            self.shard_ring = None
            self.shard_index = None

    servers = [FakeServer(f"18.181.0.{31 + i}") for i in range(3)]
    ring = attach_shard_ring(servers)
    assert len(ring) == 3
    for index, server in enumerate(servers):
        assert server.shard_ring is ring
        assert server.shard_index == index
        assert ring.endpoints[index] == server.endpoint


def test_config_validation():
    sched = Scheduler()
    with pytest.raises(ValueError):
        RegistrationTable(lambda: sched.now, ttl=10.0, sweep_granularity=0.0)
    with pytest.raises(ValueError):
        ShardRing([])
    with pytest.raises(ValueError):
        KeepaliveWheel(sched, granularity=0.0)


@pytest.mark.parametrize(
    "policy",
    [{"max_entries": 0}, {"max_entries": -1}, {"ttl": 0}, {"ttl": 0.0}, {"ttl": -5.0}],
)
def test_policy_values_are_validated(policy):
    sched = Scheduler()
    with pytest.raises(ValueError):
        RegistrationTable(lambda: sched.now, **policy)
    # The sharded plane and the servers build their tables from a
    # RegistryConfig, so the same check covers them.
    with pytest.raises(ValueError):
        ShardedRegistry(lambda: sched.now, endpoints(2), RegistryConfig(**policy))


@pytest.mark.parametrize(
    "policy",
    [{}, {"ttl": None, "max_entries": None}, {"ttl": 0.5}, {"max_entries": 1},
     {"ttl": 30.0, "max_entries": 1000}],
)
def test_valid_policy_values_still_construct(policy):
    sched = Scheduler()
    table = RegistrationTable(lambda: sched.now, **policy)
    table.register(1, Entry())
    table.register(2, Entry())
    assert len(table) == min(2, policy.get("max_entries") or 2)
