"""``rendezvous_churn``: the registration plane with writes beside reads.

``ShardedRegistry`` + ``KeepaliveWheel`` on a bare ``Scheduler``, as
``benchmarks/rendezvous_scale.py`` drives them — no sockets, no NAT, zero
packets — but with every kind of operation sharing the same virtual-time
rounds instead of running in separate phases:

* the population registers over the first ten virtual seconds;
* then, every 0.1 s for ``ROUNDS`` ten-second rounds, a batch of peers
  departs (their keepalives stop, so their TTL lapses ~30 s later), an equal
  batch of new peers registers, and a batch of connect-style lookups runs
  (requester + target; 5 % of targets were never registered);
* all the while the wheel refreshes every live peer once per interval and
  the per-shard sweeps retire expired buckets;
* finally every keepalive stops and the table must drain to zero.

One op is one registry operation: a register, a keepalive refresh, a lookup
or a TTL expiry.  Refreshes are issued by the wheel calling the shard's bound
``refresh`` directly (no driver frame in between), so the driver cannot count
them as they happen; the untimed warm-up repetition runs the identical script
with a counting callback and every later repetition reuses that exact count.
"""

from __future__ import annotations

import random
import time
from typing import List, Optional

from repro.core.registry import KeepaliveWheel, RegistryConfig, ShardedRegistry
from repro.core.rendezvous import Registration
from repro.netsim.addresses import Endpoint
from repro.netsim.clock import Scheduler

from workloads import RepResult, Workload

PEERS = 80_000
SHARDS = 8
TTL = 30.0
SWEEP_GRANULARITY = 5.0
KEEPALIVE_INTERVAL = 10.0
WHEEL_GRANULARITY = 1.0
ROUNDS = 6
#: Driver batches per ten-second round (one every 0.1 virtual seconds).
BATCHES_PER_ROUND = 100
BATCH_GAP = 10.0 / BATCHES_PER_ROUND
#: Share of the population that departs, and arrives, in each round.
CHURN = 0.10
#: Connects per round as a share of the population (two lookups each).
CONNECT_SHARE = 0.25
MISS_SHARE = 0.05


class _Batch:
    __slots__ = ("at", "arrive", "depart", "lookups", "misses")

    def __init__(self, at: float) -> None:
        self.at = at
        self.arrive: List[int] = []
        self.depart: List[int] = []
        self.lookups: List[int] = []
        self.misses: List[bool] = []


class RendezvousChurn(Workload):
    name = "rendezvous_churn"
    has_packets = False

    def __init__(self, seed: int, smoke: bool) -> None:
        super().__init__(seed, smoke)
        self.peers = 2_000 if smoke else PEERS
        self.rounds = 2 if smoke else ROUNDS
        self.refreshes: Optional[int] = None  # counted by the warm-up repetition

    def setup(self, spans) -> None:
        rng = random.Random(f"{self.seed}/{self.name}")
        per_batch = self.peers // BATCHES_PER_ROUND
        churn = max(1, int(self.peers * CHURN) // BATCHES_PER_ROUND)
        connects = max(1, int(self.peers * CONNECT_SHARE) // BATCHES_PER_ROUND)
        total_ids = self.peers + churn * BATCHES_PER_ROUND * self.rounds
        # Even ids register at some point; odd ids never do (the misses).
        ids = [2 * i for i in rng.sample(range(1, 2**30), total_ids)]
        never = [2 * i + 1 for i in rng.sample(range(1, 2**30), 4096)]
        fresh = iter(ids)
        live: List[int] = []  # peers with a running keepalive, in arrival order
        self.batches: List[_Batch] = []
        for k in range(1, BATCHES_PER_ROUND + 1):
            batch = _Batch(k * BATCH_GAP)
            batch.arrive = [next(fresh) for _ in range(per_batch)]
            live.extend(batch.arrive)
            self.batches.append(batch)
        for r in range(1, self.rounds + 1):
            for k in range(1, BATCHES_PER_ROUND + 1):
                batch = _Batch(10.0 * r + k * BATCH_GAP)
                # Departures: swap-remove random live peers (O(1) each).
                for _ in range(churn):
                    index = rng.randrange(len(live))
                    batch.depart.append(live[index])
                    live[index] = live[-1]
                    live.pop()
                for _ in range(connects):
                    batch.lookups.append(live[rng.randrange(len(live))])
                    batch.misses.append(False)
                    if rng.random() < MISS_SHARE:
                        batch.lookups.append(never[rng.randrange(len(never))])
                        batch.misses.append(True)
                    else:
                        batch.lookups.append(live[rng.randrange(len(live))])
                        batch.misses.append(False)
                batch.arrive = [next(fresh) for _ in range(churn)]
                live.extend(batch.arrive)
                self.batches.append(batch)
        self.registers = sum(len(b.arrive) for b in self.batches)
        self.lookups = sum(len(b.lookups) for b in self.batches)
        self.final_live = len(live)
        self.end_of_rounds = 10.0 * (self.rounds + 1)
        self.public = Endpoint("155.99.25.11", 4321)
        self.private = Endpoint("10.0.0.1", 4321)

    def repetition(self, spans) -> RepResult:
        result = RepResult()
        scheduler = Scheduler()
        registry = ShardedRegistry(
            lambda: scheduler.now,
            [Endpoint(f"18.181.{i}.31", 3478) for i in range(SHARDS)],
            RegistryConfig(ttl=TTL, sweep_granularity=SWEEP_GRANULARITY),
        )
        registry.start_sweeps(scheduler)
        wheel = KeepaliveWheel(scheduler, granularity=WHEEL_GRANULARITY)
        counting = self.refreshes is None
        refreshed = [0]
        if counting:
            def counted(refresh):
                def callback(cid: int) -> None:
                    refreshed[0] += 1
                    refresh(cid)
                return callback

            refreshers = [counted(shard.refresh) for shard in registry.shards]
        else:
            refreshers = [shard.refresh for shard in registry.shards]
        handles = {}
        looked_up: List[list] = []
        register, lookup, add = registry.register, registry.lookup, wheel.add
        public, private = self.public, self.private

        def run_batch(batch: _Batch) -> None:
            now = scheduler.now
            for cid in batch.depart:
                handles.pop(cid).cancel()
            if batch.lookups:
                looked_up.append(list(map(lookup, batch.lookups)))
            for cid in batch.arrive:
                shard = register(cid, Registration(cid, public, private, now, now))
                handles[cid] = add(KEEPALIVE_INTERVAL, refreshers[shard], cid)

        with spans.span("phase.data", "churn"):
            for batch in self.batches:
                scheduler.call_later(batch.at, run_batch, batch)
            scheduler.run_until(self.end_of_rounds)

        # -- untimed: every lookup answered correctly, nobody live was evicted --
        started = time.perf_counter()
        wrong = observed_misses = 0
        with_lookups = [b for b in self.batches if b.lookups]
        for batch, entries in zip(with_lookups, looked_up):
            for cid, miss, entry in zip(batch.lookups, batch.misses, entries):
                observed_misses += entry is None
                if miss:
                    wrong += entry is not None
                else:
                    wrong += entry is None or entry.client_id != cid
        missing = sum(
            1 for cid in handles if registry.shard_for(cid).get(cid) is None
        )
        if len(handles) != self.final_live:
            result.errors.append("driver bookkeeping: live set differs from the plan")
        if wrong:
            result.errors.append(f"{wrong} lookups returned the wrong answer")
        if missing:
            result.errors.append(f"{missing} peers with live keepalives were evicted")
        result.untimed_s += time.perf_counter() - started

        with spans.span("phase.data", "churn-drain"):
            for handle in handles.values():
                handle.cancel()
            scheduler.run_until(
                self.end_of_rounds + KEEPALIVE_INTERVAL + TTL + 3 * SWEEP_GRANULARITY
            )

        if counting:
            self.refreshes = refreshed[0]
        evicted = registry.total_evicted_ttl
        if registry.live != 0:
            result.errors.append(f"{registry.live} registrations survived the drain")
        if evicted != self.registers:
            result.errors.append(
                f"{evicted} TTL evictions for {self.registers} registrations"
            )
        result.ops = self.registers + self.lookups + self.refreshes + evicted
        result.failed = wrong + missing + registry.live
        result.outcomes = [
            self.registers, self.lookups, observed_misses, self.refreshes, evicted,
            registry.total_sweeps, scheduler.events_fired,
        ]
        counts = result.counts
        counts["netsim.clock.events"] = scheduler.events_fired
        counts["netsim.clock.events_cancelled"] = scheduler.events_cancelled
        counts["netsim.clock.max_queue_depth"] = scheduler.max_queue_depth
        counts["core.rendezvous.lookups"] = self.lookups
        counts["core.rendezvous.lookup_misses"] = observed_misses
        counts["core.registry.evictions_ttl"] = evicted
        counts["core.registry.evictions_lru"] = sum(s.evicted_lru for s in registry.shards)
        counts["core.registry.sweeps"] = registry.total_sweeps
        return result
