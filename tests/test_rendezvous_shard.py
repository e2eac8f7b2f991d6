"""Sharded rendezvous pool behaviour: redirects, cross-shard connects,
TTL sweeps at the server, handover state preservation, and failover."""

import pytest

from repro.core.protocol import Keepalive, TRANSPORT_UDP
from repro.core.registry import RegistryConfig
from repro.scenarios import build_sharded_pool, build_two_nats
from tests.conftest import handover


def _registered_pair(sc, timeout=10.0):
    A, B = sc.clients["A"], sc.clients["B"]
    A.register_udp()
    B.register_udp()
    sc.wait_for(lambda: A.udp_registered and B.udp_registered, timeout)
    return A, B


def test_register_follows_shard_redirect_to_owner():
    sc = build_sharded_pool(seed=7, num_shards=3)
    A, B = _registered_pair(sc)
    ring = sc.ring
    # Each client ends registered with (and pointed at) its ring owner.
    for client in (A, B):
        owner = ring.owner(client.client_id)
        assert client.server == owner
        owner_server = next(
            s for s in sc.servers.values() if s.endpoint == owner
        )
        assert client.client_id in owner_server.udp_clients
    # Ids live only on their owners — no duplicate registrations.
    total = sum(len(s.udp_clients) for s in sc.servers.values())
    assert total == 2
    # At least one of ids 1/2 hashes off the primary, so a redirect happened.
    redirects = sum(s.shard_redirects for s in sc.servers.values())
    assert redirects >= 1
    assert A.shard_redirects + B.shard_redirects == redirects


def test_keepalive_to_wrong_shard_redirects():
    sc = build_sharded_pool(seed=3, num_shards=3)
    A, _B = _registered_pair(sc)
    owner = sc.ring.owner(A.client_id)
    wrong = next(s for s in sc.servers.values() if s.endpoint != owner)
    before = wrong.shard_redirects
    A.server = wrong.endpoint  # aim the next keepalive at the wrong shard
    A._send_server_udp(Keepalive(client_id=A.client_id))
    sc.run_for(2.0)
    assert wrong.shard_redirects == before + 1
    assert A.server == owner  # redirect re-homed us
    assert A.udp_registered


def test_cross_shard_connect_establishes_session():
    sc = build_sharded_pool(seed=7, num_shards=3)
    A, B = _registered_pair(sc)
    # Ids 1 and 2 hash to different shards on a 3-ring (crc32: 2 and 0).
    assert sc.ring.owner_index(1) != sc.ring.owner_index(2)
    sessions = {}
    A.connect_udp(2, on_session=lambda s: sessions.setdefault("A", s))
    B.on_peer_session = lambda s: sessions.setdefault("B", s)
    sc.wait_for(lambda: "A" in sessions and "B" in sessions, 15.0)
    assert sessions["A"].alive and sessions["B"].alive
    assert sessions["A"].nonce == sessions["B"].nonce
    forwards = sum(s.shard_forwards for s in sc.servers.values())
    assert forwards >= 1  # the exchange crossed shards
    sc.run_for(20.0)
    assert sessions["A"].alive and sessions["B"].alive  # no punch restart


def test_connect_to_unknown_peer_across_shards_reports_error():
    sc = build_sharded_pool(seed=7, num_shards=3)
    A, _B = _registered_pair(sc)
    failures = []
    A.connect_udp(
        99,  # never registered; owned by some other shard or our own
        on_session=lambda s: failures.append("session!?"),
        on_failure=lambda reason: failures.append(reason),
    )
    sc.run_for(10.0)
    assert failures and failures[0] != "session!?"


def test_server_ttl_sweep_expires_silent_clients_and_allows_reregistration():
    sc = build_sharded_pool(
        seed=5, num_shards=1, registry_config=RegistryConfig(ttl=30.0, sweep_granularity=5.0)
    )
    A, B = _registered_pair(sc)
    A.start_server_keepalives(10.0)
    sc.run_for(60.0)
    server = sc.server
    assert A.client_id in server.udp_clients  # kept alive
    assert B.client_id not in server.udp_clients  # swept (reason ttl)
    assert server.udp_clients.evicted_ttl >= 1
    # B's next keepalive draws NOT_REGISTERED and auto-reregisters (§3.1).
    B._send_server_udp(Keepalive(client_id=B.client_id))
    sc.run_for(5.0)
    assert B.client_id in server.udp_clients


def test_handover_preserves_last_seen():
    sc = build_two_nats(seed=11, num_servers=2)
    A, B = _registered_pair(sc)
    sessions = {}
    A.connect_udp(2, on_session=lambda s: sessions.setdefault("A", s))
    sc.wait_for(lambda: "A" in sessions, 15.0)
    primary, successor = sc.servers["S"], sc.servers["S2"]
    exported = {
        cid: (reg.last_seen, reg.registered_at, reg.keepalives)
        for cid, reg in primary.udp_clients.items()
    }
    assert handover(primary, successor) == len(exported)
    for cid, (last_seen, registered_at, keepalives) in exported.items():
        adopted = successor.registration(cid, TRANSPORT_UDP)
        assert adopted is not None
        assert adopted.last_seen == last_seen
        assert adopted.registered_at == registered_at
        assert adopted.keepalives == keepalives


def test_lookups_redirect_to_successor_during_shard_failover():
    sc = build_sharded_pool(seed=7, num_shards=3)
    A, B = _registered_pair(sc)
    ring = sc.ring
    owner_index = ring.owner_index(B.client_id)
    owner = next(s for s in sc.servers.values() if s.endpoint == ring.endpoints[owner_index])
    successor_index = (owner_index + 1) % len(ring)
    successor = next(
        s for s in sc.servers.values() if s.endpoint == ring.endpoints[successor_index]
    )
    # Planned failover: hand the registrations over, then kill the owner.
    handover(owner, successor)
    owner.stop()
    assert owner_index in ring._down
    assert ring.owner_index(B.client_id) == successor_index
    # B notices the decay (failover manager armed by the pool builder) and
    # re-homes; its re-registration may bounce through a redirect.
    B.start_server_keepalives(1.0)
    sc.wait_for(lambda: B.server == successor.endpoint and B.udp_registered, 30.0)
    assert B.client_id in successor.udp_clients
    # A's connect request now resolves B via the successor shard.
    sessions = {}
    A.connect_udp(B.client_id, on_session=lambda s: sessions.setdefault("A", s))
    sc.wait_for(lambda: "A" in sessions, 20.0)
    assert sessions["A"].alive
    # Revival: the ring marks the shard back up.
    owner.start()
    assert owner_index not in ring._down
    assert ring.owner_index(B.client_id) == owner_index
