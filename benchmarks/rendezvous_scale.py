"""Million-peer rendezvous-plane scale bench (the ``rendezvous_scale`` record).

Drives :class:`repro.core.registry.ShardedRegistry` directly on one
virtual-time :class:`~repro.netsim.clock.Scheduler` — no sockets, no NAT
path — so the numbers isolate the registration plane itself: hash-shard
placement, wheel-bucketed TTL sweeps, and O(1) keepalive refresh.

Both designs replay the *same virtual-time script* at each population size:

1. **register** ``peers`` live :class:`~repro.core.rendezvous.Registration`
   entries and arm each peer's keepalive loop (timed →
   ``registrations_per_second``),
2. **refresh**: run the clock through a window that fires three keepalive
   rounds per peer; TTL sweeps run concurrently and must evict nothing
   (live keepalives are never dropped),
3. **lookup** (wheel side only — lookups are identical dict probes in both
   designs): sample random peer-id lookups, each timed with
   ``perf_counter_ns`` → p50/p95 microseconds,
4. **expire**: stop the keepalives and run the clock past the TTL; every
   peer must leave (timed → the sweep / expiry-drain cost).

The **wheel design** is the shipped plane: a :class:`KeepaliveWheel` fires
every peer's refresh from one shared timer per tick, and per-shard sweep
timers retire whole TTL buckets at once.  The **per-peer-timer baseline**
is the naive design the tentpole replaces: every peer owns a repeating
``call_later`` keepalive timer, every registration owns a ``call_later``
expiry timer, and every keepalive cancels + re-arms the expiry — so each
refresh is a scheduler event plus heap churn, and each expiry is its own
event.

The maintenance phases run with the garbage collector in its normal state
(unlike the packet benches, which quiesce it): per-peer timers allocate a
``Timer`` plus args tuple per operation and that collector pressure is
precisely part of the cost being measured.  Only the nanosecond-scale
lookup sampling quiesces the collector.

``maintenance_ops_per_second`` — registers + keepalive refreshes + TTL
expiries over the summed wall time of the timed phases — is the lifecycle
rate the ``speedup_vs_timer_baseline`` compares at 100k peers.

After every timed phase has finished, one *untimed* pass
(:func:`measure_plane_bytes`) registers 100k peers under ``tracemalloc`` and
reports what a peer costs in memory: ``table_bytes_per_registration`` (the
record plus its share of the shard's dict and sweep bucket) and
``wheel_bytes_per_registrant`` (the keepalive handle, which carries the
peer id itself, and its wheel bucket slot).  Allocated bytes do not depend
on the host's load, so ``check_regression.py`` holds them to 10 %.

Run standalone:  PYTHONPATH=src python benchmarks/rendezvous_scale.py [--quick]
"""

from __future__ import annotations

import contextlib
import gc
import random
import time
import tracemalloc
from typing import List, Optional

from repro.core.registry import KeepaliveWheel, RegistryConfig, ShardedRegistry
from repro.core.rendezvous import Registration
from repro.netsim.addresses import Endpoint
from repro.netsim.clock import Scheduler

#: Registration TTL in virtual seconds — the §3.1 soft-state lifetime the
#: sweep plane enforces.
TTL = 30.0
#: Wheel bucket width: one sweep event per shard per granularity.
SWEEP_GRANULARITY = 5.0
#: Virtual time between keepalive refreshes (must be < TTL).
KEEPALIVE_INTERVAL = 10.0
#: End of the keepalive window: six refresh rounds per peer — one virtual
#: minute of liveness.  Real sessions live hours, sending hundreds of
#: keepalives per registration, so this mix still *underweights* the
#: refresh path relative to production; the baseline comparison is
#: conservative.  (Wheel fires quantise one granularity late — t=11/22/…
#: vs the baseline's exact t=10/20/… — the one-bucket slack every timer
#: wheel trades.)
REFRESH_WINDOW = 65.0
REFRESH_ROUNDS = 6
#: Far enough past the window that the last refresh's TTL has lapsed and
#: every wheel bucket it filed has come due.
DRAIN_DEADLINE = REFRESH_WINDOW + TTL + 2 * SWEEP_GRANULARITY
LOOKUP_SAMPLES = 2_000
NUM_SHARDS = 8

QUICK_SIZES = (10_000, 100_000)
FULL_SIZES = (10_000, 100_000, 1_000_000)
#: The size both modes share; the gate metric and the baseline comparison
#: are taken here so quick CI runs and full refreshes gate the same number.
COMPARISON_SIZE = 100_000


@contextlib.contextmanager
def _quiesced_gc():
    """Collector off around the lookup sampling only (see module docstring)."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


@contextlib.contextmanager
def _frozen_corpus():
    """Move everything allocated so far (the pre-built registration corpus,
    the interpreter's own objects) into the collector's permanent
    generation for the duration of the timed phases.  Both designs run
    under the identical freeze, so collector passes measure each design's
    *own* allocation churn — per-peer ``Timer`` objects versus wheel
    buckets — rather than repeated scans of the shared million-entry
    corpus."""
    gc.collect()
    gc.freeze()
    try:
        yield
    finally:
        gc.unfreeze()


def _shard_endpoints(num_shards: int) -> List[Endpoint]:
    return [Endpoint(f"18.181.{i}.31", 3478) for i in range(num_shards)]


def _make_registrations(peers: int) -> List[Registration]:
    """Entries pre-built outside the timed windows: the bench measures the
    registration plane, not the record allocator — and both designs
    store the identical objects.  Endpoints are shared for the same reason."""
    public = Endpoint("155.99.25.11", 4321)
    private = Endpoint("10.0.0.1", 4321)
    return [Registration(cid, public, private, 0.0, 0.0) for cid in range(peers)]


def _percentile(sorted_values: List[int], q: float) -> float:
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1, round(q * (len(sorted_values) - 1)))
    return float(sorted_values[index])


def run_scale_workload(
    peers: int,
    num_shards: int = NUM_SHARDS,
    lookup_samples: int = LOOKUP_SAMPLES,
    seed: int = 42,
) -> dict:
    """The shipped plane: sharded tables, batched sweeps, keepalive wheel."""
    scheduler = Scheduler()
    registry = ShardedRegistry(
        lambda: scheduler.now,
        _shard_endpoints(num_shards),
        RegistryConfig(ttl=TTL, sweep_granularity=SWEEP_GRANULARITY),
    )
    registry.start_sweeps(scheduler)
    wheel = KeepaliveWheel(scheduler, granularity=1.0)
    registrations = _make_registrations(peers)
    # One bound ``refresh`` per shard, resolved at registration time — the
    # real flow: a client's keepalives arrive at its owning shard, which
    # stamps its local table directly; the ring hash happens once when the
    # registration is placed (and again only on a redirect).
    refreshers = [shard.refresh for shard in registry.shards]

    with _frozen_corpus():
        started = time.perf_counter()
        register = registry.register
        add = wheel.add
        for cid in range(peers):
            add(KEEPALIVE_INTERVAL, refreshers[register(cid, registrations[cid])], cid)
        register_wall = time.perf_counter() - started
        assert registry.live == peers
        live_peak = registry.live

        started = time.perf_counter()
        scheduler.run_until(REFRESH_WINDOW)
        refresh_wall = time.perf_counter() - started
        # Live keepalives must survive every sweep inside the window.
        assert registry.live == peers, "sweep evicted refreshed peers"
        refresh_events = scheduler.events_fired

        rng = random.Random(seed)
        sample_ids = [rng.randrange(peers) for _ in range(min(lookup_samples, peers))]
        latencies_ns = []
        lookup = registry.lookup
        with _quiesced_gc():
            for cid in sample_ids:
                t0 = time.perf_counter_ns()
                entry = lookup(cid)
                latencies_ns.append(time.perf_counter_ns() - t0)
                assert entry is not None
        latencies_ns.sort()

        started = time.perf_counter()
        # Shut the keepalive loops down (attribute flips; the wheel drops
        # the cancelled entries at their next tick) and drain to expiry.
        for entry in wheel.iter_entries():
            entry.cancel()
        scheduler.run_until(DRAIN_DEADLINE)
        expire_wall = time.perf_counter() - started
        assert registry.live == 0, "TTL sweep left silent peers registered"

    maintenance_ops = peers * (1 + REFRESH_ROUNDS) + peers  # registers + refreshes + expiries
    maintenance_wall = register_wall + refresh_wall + expire_wall
    return {
        "peers": peers,
        "shards": num_shards,
        "live_peak": live_peak,
        "registrations_per_second": peers / register_wall if register_wall > 0 else 0.0,
        "register_wall_seconds": register_wall,
        "refresh_wall_seconds": refresh_wall,
        "expire_wall_seconds": expire_wall,
        "maintenance_ops_per_second": (
            maintenance_ops / maintenance_wall if maintenance_wall > 0 else 0.0
        ),
        "lookup_p50_us": _percentile(latencies_ns, 0.50) / 1_000.0,
        "lookup_p95_us": _percentile(latencies_ns, 0.95) / 1_000.0,
        "lookup_samples": len(sample_ids),
        "sweeps": registry.total_sweeps,
        "evicted_ttl": registry.total_evicted_ttl,
        "refresh_scheduler_events": refresh_events,
        "scheduler_events": scheduler.events_fired,
    }


def measure_plane_bytes(peers: int = COMPARISON_SIZE, num_shards: int = NUM_SHARDS) -> dict:
    """Bytes the plane allocates per peer, by ``tracemalloc``; untimed.

    The registrations are built inside the traced window — S allocates one
    per Register it accepts — while the ids and the endpoints, which the
    caller owns, are built before it.  Tracing slows every allocation, so
    this must never share a process phase with a timed number.
    """
    scheduler = Scheduler()
    registry = ShardedRegistry(
        lambda: scheduler.now,
        _shard_endpoints(num_shards),
        RegistryConfig(ttl=TTL, sweep_granularity=SWEEP_GRANULARITY),
    )
    wheel = KeepaliveWheel(scheduler, granularity=1.0)
    refreshers = [shard.refresh for shard in registry.shards]
    public = Endpoint("155.99.25.11", 4321)
    private = Endpoint("10.0.0.1", 4321)
    ids = list(range(peers))
    placed = [0] * peers
    register, add = registry.register, wheel.add
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        for cid in ids:
            placed[cid] = register(cid, Registration(cid, public, private, 0.0, 0.0))
        table = tracemalloc.get_traced_memory()[0] - base
        for cid in ids:
            add(KEEPALIVE_INTERVAL, refreshers[placed[cid]], cid)
        wheel_bytes = tracemalloc.get_traced_memory()[0] - base - table
    finally:
        tracemalloc.stop()
    return {
        "table_bytes_per_registration": table / peers,
        "wheel_bytes_per_registrant": wheel_bytes / peers,
    }


def run_timer_baseline(peers: int) -> dict:
    """The per-peer-timer design the wheel replaces (same virtual script).

    One repeating keepalive timer per peer, one expiry timer per
    registration; every keepalive event cancels + re-arms the expiry and
    re-arms itself.  The cancelled timers sit in the heap until the
    scheduler's lazy compaction pays to drop them — all of that churn, and
    the one-event-per-expiry drain, is the cost being measured.
    """
    scheduler = Scheduler()
    entries: dict = {}
    expiry_timers: dict = {}
    keepalive_timers: dict = {}
    registrations = _make_registrations(peers)

    def expire(cid: int) -> None:
        entries.pop(cid, None)
        expiry_timers.pop(cid, None)

    def keepalive(cid: int) -> None:
        entry = entries.get(cid)
        if entry is None:
            return
        entry.last_seen = scheduler.now
        expiry_timers[cid].cancel()
        expiry_timers[cid] = scheduler.call_later(TTL, expire, cid)
        if scheduler.now + KEEPALIVE_INTERVAL <= REFRESH_WINDOW:
            keepalive_timers[cid] = scheduler.call_later(
                KEEPALIVE_INTERVAL, keepalive, cid
            )

    with _frozen_corpus():
        started = time.perf_counter()
        call_later = scheduler.call_later
        for cid in range(peers):
            entries[cid] = registrations[cid]
            expiry_timers[cid] = call_later(TTL, expire, cid)
            keepalive_timers[cid] = call_later(KEEPALIVE_INTERVAL, keepalive, cid)
        register_wall = time.perf_counter() - started
        assert len(entries) == peers

        started = time.perf_counter()
        scheduler.run_until(REFRESH_WINDOW)
        refresh_wall = time.perf_counter() - started
        assert len(entries) == peers
        refresh_events = scheduler.events_fired

        started = time.perf_counter()
        scheduler.run_until(DRAIN_DEADLINE)
        expire_wall = time.perf_counter() - started
        assert not entries, "per-peer expiry timers failed to drain"

    maintenance_ops = peers * (1 + REFRESH_ROUNDS) + peers
    maintenance_wall = register_wall + refresh_wall + expire_wall
    return {
        "peers": peers,
        "registrations_per_second": peers / register_wall if register_wall > 0 else 0.0,
        "register_wall_seconds": register_wall,
        "refresh_wall_seconds": refresh_wall,
        "expire_wall_seconds": expire_wall,
        "maintenance_ops_per_second": (
            maintenance_ops / maintenance_wall if maintenance_wall > 0 else 0.0
        ),
        "refresh_scheduler_events": refresh_events,
        "scheduler_events": scheduler.events_fired,
    }


def bench_rendezvous_scale(quick: bool = False) -> dict:
    """The ``rendezvous_scale`` record for ``BENCH_perf.json``.

    ``registrations_per_second`` (the regression-gate metric) and the
    timer-baseline speedup are both taken at the 100k size, which quick and
    full modes share; full mode adds the million-peer row demonstrating the
    plane holds 1M live registrations.
    """
    sizes = QUICK_SIZES if quick else FULL_SIZES
    rows = [run_scale_workload(peers) for peers in sizes]
    by_peers = {row["peers"]: row for row in rows}
    comparison = by_peers[COMPARISON_SIZE]
    baseline = run_timer_baseline(COMPARISON_SIZE)
    footprint = measure_plane_bytes()  # last: nothing timed runs under tracing
    speedup = (
        comparison["maintenance_ops_per_second"]
        / baseline["maintenance_ops_per_second"]
        if baseline["maintenance_ops_per_second"] > 0
        else 0.0
    )
    return {
        "ttl_seconds": TTL,
        "sweep_granularity_seconds": SWEEP_GRANULARITY,
        "keepalive_interval_seconds": KEEPALIVE_INTERVAL,
        "refresh_rounds": REFRESH_ROUNDS,
        "sizes": rows,
        "max_live_registrations": max(row["live_peak"] for row in rows),
        "registrations_per_second": comparison["registrations_per_second"],
        "lookup_p95_us": comparison["lookup_p95_us"],
        "timer_baseline_100k": baseline,
        "speedup_vs_timer_baseline": speedup,
        **footprint,
        "quick": quick,
    }


def main(argv: Optional[List[str]] = None) -> int:
    import argparse
    import json

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="skip the million-peer row (CI smoke mode)")
    args = parser.parse_args(argv)
    record = bench_rendezvous_scale(quick=args.quick)
    print(json.dumps(record, indent=2))
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(main())
