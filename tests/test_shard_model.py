"""Shard placement and handover against models (ROADMAP item 6(c)).

:class:`~repro.core.registry.ShardRing` is checked against a reference
probe: a peer belongs to the first live shard at or after its home shard,
cyclically, or to its home shard when the whole pool is down.

A hypothesis state machine then drives a
:class:`~repro.core.registry.ShardedRegistry` of one to eight shards through
``register`` / ``touch`` / ``lookup``, clock advances, and shard failures
and revivals, and checks it against one dict per shard.  A failure is a
planned handover, as ``RendezvousServer.handover_to`` followed by ``stop``
does it: the ring successor adopts the downed shard's registrations (keeping
its own where both hold an id), the downed shard forgets its own, and the
ring marks it down.  A revived shard comes back empty.
"""

from __future__ import annotations

from typing import Dict, List, Set

from hypothesis import given, settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro.core.registry import RegistryConfig, ShardedRegistry, ShardRing
from repro.core.rendezvous import Registration
from repro.netsim.addresses import Endpoint

PUBLIC = Endpoint("138.76.29.7", 31000)
PRIVATE = Endpoint("10.0.0.1", 4321)
#: The peer ids the machine registers and probes: enough to land on every
#: shard of an eight-shard pool.
PEERS = range(48)
MAX_SHARDS = 8


def endpoints(n: int) -> List[Endpoint]:
    return [Endpoint(f"18.181.0.{31 + i}", 1234) for i in range(n)]


def reference_owner(home: int, shards: int, down: Set[int]) -> int:
    """The first live shard at or after *home*, cyclically; *home* when
    every shard is down."""
    for step in range(shards):
        index = (home + step) % shards
        if index not in down:
            return index
    return home


@given(
    shards=st.integers(1, MAX_SHARDS),
    down=st.sets(st.integers(0, MAX_SHARDS - 1)),
    peer_id=st.integers(-(2**40), 2**40),
)
def test_owner_index_is_the_reference_probe(shards, down, peer_id):
    ring = ShardRing(endpoints(shards))
    home = ring.home_index(peer_id)
    assert 0 <= home < shards
    # The healthy-pool fast path hashes inline; it must agree with home_index.
    assert ring.owner_index(peer_id) == home
    down = {index for index in down if index < shards}
    for index in down:
        ring.mark_down(index)
    assert ring.owner_index(peer_id) == reference_owner(home, shards, down)
    assert ring.owner(peer_id) == ring.endpoints[ring.owner_index(peer_id)]
    assert ring.alive_indices() == [i for i in range(shards) if i not in down]


class ShardPlaneMachine(RuleBasedStateMachine):
    """A sharded registration plane under traffic, failures and revivals."""

    @initialize(shards=st.integers(1, MAX_SHARDS))
    def build(self, shards: int) -> None:
        self.now = 0.0
        self.shards = shards
        self.registry = ShardedRegistry(
            lambda: self.now, endpoints(shards), RegistryConfig(ttl=30.0, sweep_granularity=5.0)
        )
        self.down: Set[int] = set()
        #: What each shard should hold: id -> the registration object.
        self.oracle: List[Dict[int, Registration]] = [{} for _ in range(shards)]

    def owner(self, peer_id: int) -> int:
        return reference_owner(self.registry.ring.home_index(peer_id), self.shards, self.down)

    @rule(peer_id=st.sampled_from(PEERS))
    def register(self, peer_id: int) -> None:
        entry = Registration(peer_id, PUBLIC, PRIVATE, self.now, self.now)
        index = self.registry.register(peer_id, entry)
        assert index == self.owner(peer_id)
        self.oracle[index][peer_id] = entry

    @rule(peer_id=st.sampled_from(PEERS))
    def touch(self, peer_id: int) -> None:
        held = self.oracle[self.owner(peer_id)].get(peer_id)
        assert self.registry.touch(peer_id) is (held is not None)
        if held is not None:
            assert held.last_seen == self.now

    @rule(peer_id=st.sampled_from(PEERS))
    def lookup(self, peer_id: int) -> None:
        assert self.registry.lookup(peer_id) is self.oracle[self.owner(peer_id)].get(peer_id)

    @rule(seconds=st.floats(0.5, 20.0))
    def advance(self, seconds: float) -> None:
        self.now += seconds

    @rule(index=st.integers(0, MAX_SHARDS - 1))
    def fail_with_handover(self, index: int) -> None:
        index %= self.shards
        if index in self.down:
            return
        self.down.add(index)
        successor = reference_owner(index, self.shards, self.down)
        table = self.registry.shards[index]
        if successor != index:
            self.registry.shards[successor].adopt(dict(table.items()))
            for peer_id, entry in self.oracle[index].items():
                self.oracle[successor].setdefault(peer_id, entry)
        table.clear()
        self.oracle[index] = {}
        self.registry.ring.mark_down(index)

    @rule(index=st.integers(0, MAX_SHARDS - 1))
    def revive(self, index: int) -> None:
        index %= self.shards
        self.down.discard(index)
        self.registry.ring.mark_up(index)

    @invariant()
    def placement_matches_the_reference_probe(self) -> None:
        ring = self.registry.ring
        assert [ring.owner_index(p) for p in PEERS] == [self.owner(p) for p in PEERS]
        assert ring.alive_indices() == [i for i in range(self.shards) if i not in self.down]

    @invariant()
    def shards_hold_what_the_oracle_holds(self) -> None:
        for shard, expected in zip(self.registry.shards, self.oracle):
            assert shard.keys() == expected.keys()
            assert all(shard[peer_id] is entry for peer_id, entry in expected.items())
        assert self.registry.live == sum(map(len, self.oracle))


ShardPlaneMachine.TestCase.settings = settings(
    max_examples=80, stateful_step_count=40, deadline=None
)
TestShardPlane = ShardPlaneMachine.TestCase
