"""Unit tests for the sharded registration plane (repro.core.registry) and
the rendezvous server's metered lookups."""

import heapq
import struct
import zlib
from collections import defaultdict

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.registry import (
    KeepaliveWheel,
    RegistrationTable,
    RegistryConfig,
    ShardedRegistry,
    shard_of,
)
from repro.netsim.addresses import Endpoint
from repro.netsim.clock import Scheduler
from repro.scenarios import build_two_nats


class Entry:
    """Minimal registration stand-in: the table only needs ``last_seen``."""

    def __init__(self, last_seen=0.0):
        self.last_seen = last_seen

    def __repr__(self):
        return f"Entry(last_seen={self.last_seen})"


def make_table(scheduler, **kwargs):
    return RegistrationTable(lambda: scheduler.now, **kwargs)


# -- TTL expiry via the sweep wheel ----------------------------------------------


def test_ttl_expiry_with_sweep_timer():
    sched = Scheduler()
    table = make_table(sched, ttl=10.0, sweep_granularity=5.0)
    table.register(1, Entry(last_seen=sched.now))
    table.start_sweeps(sched)
    assert sched.pending == 1  # exactly one sweep timer, regardless of entries
    sched.run_until(9.0)
    assert table.get(1) is not None
    sched.run_until(20.0)
    assert table.get(1) is None
    assert table.evicted_ttl == 1


def test_reregistration_resets_ttl():
    sched = Scheduler()
    table = make_table(sched, ttl=10.0, sweep_granularity=5.0)
    table.register(1, Entry(last_seen=0.0))
    sched.run_until(8.0)
    table.register(1, Entry(last_seen=8.0))  # re-register: fresh deadline
    table.start_sweeps(sched)
    sched.run_until(15.0)  # past the original deadline
    assert table.get(1) is not None
    # Expires at 18 + at most one sweep granularity of wheel slack.
    sched.run_until(25.0)
    assert table.get(1) is None


def test_keepalive_touch_defers_expiry_lazily():
    sched = Scheduler()
    table = make_table(sched, ttl=10.0, sweep_granularity=5.0)
    entry = Entry(last_seen=0.0)
    table.register(1, entry)
    table.start_sweeps(sched)
    for t in (6.0, 12.0, 18.0, 24.0):
        sched.run_until(t)
        entry.last_seen = sched.now  # a keepalive: the wheel is not touched
        assert table.get(1) is entry
    # Stop refreshing: gone within ttl + one bucket of slack.
    sched.run_until(24.0 + 10.0 + 5.0 + 0.1)
    assert table.get(1) is None
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


def test_ttl_only_lifecycle_leaves_the_wheel_index_empty():
    # Each live id is filed once: refreshes and re-registrations of a live
    # id add no filing, and the last sweep leaves no bucket behind.
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
        filings = [cid for bucket in table._buckets.values() for cid in bucket]
        assert sorted(filings) == sorted(table._entries)
    assert len(table) == 26
    sched.run_until(40.0)
    assert len(table) == 0 and table.evicted_ttl == 50
    assert not table._buckets


def test_churn_never_evicts_peers_with_live_keepalives():
    sched = Scheduler()
    table = make_table(sched, ttl=10.0, sweep_granularity=5.0)
    table.start_sweeps(sched)
    protected = list(range(10))
    for cid in protected:
        table.register(cid, Entry(last_seen=sched.now))
    for wave in range(1, 20):
        sched.run_until(wave * 4.0)
        for cid in protected:
            assert table.refresh(cid)  # live keepalives
        for i in range(10):
            table.register(1000 + wave * 10 + i, Entry(last_seen=sched.now))  # churn
        assert all(table.get(cid) is not None for cid in protected)
    # Only the churn of the last three waves is young enough to be live.
    assert len(table) == 40 and table.evicted_ttl == 160


# -- the sharded plane ------------------------------------------------------------


def endpoints(n):
    return [Endpoint(f"18.181.0.{31 + i}", 1234) for i in range(n)]


def test_sharded_registry_places_each_peer_on_its_shard_of():
    """Placement is ``shard_of``: the inline crc32 in every operation agrees
    with the reference, ids of 2**32 and up (and negative ones) included."""
    ids = [*range(300), 2**32 - 1, 2**32, 2**32 + 5, 2**40 + 3, 2**63 - 1, -1, -(2**33)]
    for shards in (1, 2, 3, 5, 8):
        registry = ShardedRegistry(lambda: 0.0, endpoints(shards), RegistryConfig(ttl=30.0))
        for peer_id in ids:
            home = registry.shards[shard_of(peer_id, shards)]
            assert registry.shard_for(peer_id) is home
            entry = Entry()
            assert registry.shards[registry.register(peer_id, entry)] is home
            assert registry.lookup(peer_id) is entry and home[peer_id] is entry


@given(shards=st.integers(1, 8), peer_id=st.integers(-(2**64), 2**64))
def test_sharded_registry_placement_is_the_reference_hash(shards, peer_id):
    """Every operation lands on the crc32 of the id's low 32 bits, big-endian,
    modulo the pool size — recomputed here without the registry's helpers."""
    home_index = zlib.crc32(struct.pack("!I", peer_id % 2**32)) % shards
    assert shard_of(peer_id, shards) == home_index
    registry = ShardedRegistry(lambda: 0.0, endpoints(shards), RegistryConfig(ttl=30.0))
    home = registry.shards[home_index]
    assert registry.shard_for(peer_id) is home
    entry = Entry()
    assert registry.register(peer_id, entry) == home_index
    assert registry.lookup(peer_id) is entry and home[peer_id] is entry
    assert registry.touch(peer_id)
    assert registry.live == 1


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
    def bump(i):
        fired[i] += 1
    for i in range(200):
        wheel.add(10.0, bump, i)
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
    handle = wheel.add(5.0, lambda _: fired.append(sched.now), None)
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
    __slots__ = ("callback", "arg", "interval", "cancelled")

    def __init__(self, callback, interval, arg):
        self.callback, self.interval, self.arg = callback, interval, arg
        self.cancelled = False

    def cancel(self):
        self.cancelled = True


class _ReferenceWheel:
    """What :class:`KeepaliveWheel` promises, one timer per registrant.

    A registrant added at *t* first fires at ``tick(t + interval)`` and each
    fire at *T* files the next at ``tick(T + interval)``, where ``tick(t) =
    (int(t / g) + 1) * g``; fires sharing a tick run in filing order.  A
    cancelled registrant stays filed until its tick comes, and only then
    stops counting as a registrant.  A registrant whose callback raises
    stops and leaves the count at once; the rest of its tick fires when the
    run resumes, from one more bucket event (``resumes``).  Also its own
    clock.
    """

    def __init__(self, granularity):
        self.granularity = granularity
        self.now = 0.0
        self.registrants = 0
        #: Every tick a filing ever targeted: one wheel bucket each.
        self.ticks = set()
        self.resumes = 0
        self._heap = []
        self._seq = 0

    def tick(self, t):
        return (int(t / self.granularity) + 1) * self.granularity

    def _file(self, registrant, t):
        when = self.tick(t + registrant.interval)
        self.ticks.add(when)
        self._seq += 1
        heapq.heappush(self._heap, (when, self._seq, registrant))

    def add(self, interval, callback, arg):
        registrant = _Registrant(callback, interval, arg)
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
            try:
                registrant.callback(registrant.arg)
            except Exception:
                self.registrants -= 1
                self.resumes += bool(self._heap) and self._heap[0][0] == when
                raise
            self._file(registrant, when)
        self.now = deadline


class _Raised(Exception):
    pass


def _drive_wheel(wheel, clock, script, counts):
    """Run *script* against *wheel* on *clock* (anything with ``now`` and
    ``run_until``), then cancel every handle.  An advance that a raising
    callback interrupts resumes to its deadline.  Returns the fire log
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
        elif action[0] == "raise":
            raise _Raised(cid)
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
            deadline = clock.now + step[1]
            while True:
                try:
                    clock.run_until(deadline)
                    break
                except _Raised:
                    pass
            seen.append(counts())
    for handle in handles:
        handle.cancel()
    return log, meta, seen


_INTERVALS = st.sampled_from([0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0])
_ACTIONS = st.one_of(
    st.none(),
    st.tuples(st.just("cancel"), st.integers(0, 63)),
    st.just(("cancel_self",)),
    st.just(("raise",)),
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
        # One scheduler event per bucket, i.e. per distinct tick targeted,
        # plus one per tick a raise interrupted.
        fired = sum(1 for t in reference.ticks if t <= reference.now)
        return (
            reference.now,
            reference.registrants,
            fired + reference.resumes,
            len(reference.ticks) - fired,
        )

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
    assert sched.events_fired == len(reference.ticks) + reference.resumes


def test_keepalive_wheel_a_raising_callback_stops_only_its_own_loop():
    sched = Scheduler()
    wheel = KeepaliveWheel(sched, granularity=1.0)
    fired = []

    def fire(cid):
        fired.append((sched.now, cid))
        if cid == 1 and len(fired) == 2:
            raise RuntimeError("once")

    for cid in range(3):
        wheel.add(2.0, fire, cid)  # all three on the tick at t = 3
    with pytest.raises(RuntimeError):
        sched.run_until(10.0)
    assert fired == [(3.0, 0), (3.0, 1)]
    sched.run_until(10.0)
    # The rest of the tick fires at the same instant once the run resumes;
    # the loop that raised is over and no longer counts.
    assert fired == [
        (3.0, 0), (3.0, 1), (3.0, 2), (6.0, 0), (6.0, 2), (9.0, 0), (9.0, 2)
    ]
    assert wheel.registrants == 2


# -- metrics -----------------------------------------------------------------------


def test_registry_metrics_names():
    """S meters the lookups a connect request makes: a hit per registered
    party, each with the registration's age, and a miss for an unknown
    target (after the requester's hit)."""
    sc = build_two_nats(seed=31)
    sc.register_all_udp()
    server, metrics = sc.server, sc.server.metrics
    got = []
    sc.clients["A"].connect_udp(2, on_session=got.append)
    sc.wait_for(lambda: got, 15.0)
    requests = server.connect_requests
    assert requests >= 1
    counters = metrics.counters()
    assert counters["rendezvous.lookup.hits"] == 2 * requests
    assert counters["rendezvous.lookup.misses"] == 0
    assert metrics.histograms()["rendezvous.lookup.age"].count == 2 * requests
    failures = []
    sc.clients["A"].connect_udp(99, on_session=got.append, on_failure=failures.append)
    sc.wait_for(lambda: failures, 10.0)
    unknown = server.connect_requests - requests
    assert unknown >= 1
    counters = metrics.counters()
    assert counters["rendezvous.lookup.misses"] == unknown
    assert counters["rendezvous.lookup.hits"] == 2 * requests + unknown
    assert metrics.histograms()["rendezvous.lookup.age"].count == 2 * requests + unknown
    assert not any(key.startswith(("rendezvous.evictions", "rendezvous.sweep"))
                   for key in (*counters, *metrics.histograms()))


def test_config_validation():
    sched = Scheduler()
    with pytest.raises(ValueError):
        RegistrationTable(lambda: sched.now, ttl=10.0, sweep_granularity=0.0)
    with pytest.raises(ValueError):
        ShardedRegistry(lambda: sched.now, [], RegistryConfig(ttl=10.0))
    with pytest.raises(ValueError):
        KeepaliveWheel(sched, granularity=0.0)


@pytest.mark.parametrize(
    "policy",
    [{"ttl": 0}, {"ttl": 0.0}, {"ttl": -5.0}, {"ttl": 10.0, "sweep_granularity": -1.0},
     {"ttl": float("nan")}],
)
def test_policy_values_are_validated(policy):
    sched = Scheduler()
    with pytest.raises(ValueError):
        RegistrationTable(lambda: sched.now, **policy)
    # The sharded plane builds its tables from a RegistryConfig, so the
    # same check covers it.
    with pytest.raises(ValueError):
        ShardedRegistry(lambda: sched.now, endpoints(2), RegistryConfig(**policy))


@pytest.mark.parametrize(
    "policy",
    [{"ttl": 0.5}, {"ttl": 30.0}, {"ttl": 30.0, "sweep_granularity": 1.0},
     {"ttl": 1e-3, "sweep_granularity": 1e-3}, {"ttl": 1e9, "sweep_granularity": 60.0}],
)
def test_valid_policy_values_still_construct(policy):
    sched = Scheduler()
    table = RegistrationTable(lambda: sched.now, **policy)
    table.register(1, Entry())
    table.register(2, Entry())
    assert len(table) == 2
