"""What one registered, idle client costs in GC-tracked objects.

ROADMAP item 5 ("PeerClient on a diet") asked whether constructing the
optional subsystems (relay table, TURN, failover, reversal, sequential,
stream claims) on first use would shrink a large realm.  The census says no:
they own a handful of the objects a client owns, and a client owns a third
of what it costs.  These tests pin both numbers, so a change that makes every
client carry optional state eagerly fails here instead of surfacing later as
``peak_rss_mb`` drift on the mesh workloads.
"""

import gc
import types

from repro.netsim.clock import Scheduler
from repro.netsim.network import Network
from repro.netsim.node import Host
from repro.obs.metrics import MetricsRegistry
from repro.scenarios.topologies import ScenarioBuilder
from repro.transport.stack import HostStack

CLIENTS = 32
#: 181 on CPython 3.11 (99 at build for NAT + LAN + host + stack + client,
#: 82 from the two registrations, server side included).
MAX_TRACKED_PER_CLIENT = 200
#: What the rest of the simulation owns: the walk from a client stops here.
SHARED = (Host, Scheduler, MetricsRegistry, HostStack, Network, type, types.ModuleType)
#: Attributes of the subsystems a client may never use.
OPTIONAL_PARTS = (
    "relays", "on_relay_session",
    "turn", "turn_pairs", "_turn_punchers", "on_turn_session",
    "failover",
    "_reversal_punchers", "_sequential_punchers", "sequential_config",
    "_stream_claimants", "_parked_streams",
)


def _registered_realm():
    """Server + CLIENTS NATed clients, all registered on both carriers.

    Returns the clients and the number of GC-tracked objects the realm's
    clients added (collector off throughout, so spent timers count too)."""
    builder = ScenarioBuilder(seed=11)
    builder.add_server()
    gc.collect()
    baseline = len(gc.get_objects())
    clients = []
    for i in range(CLIENTS):
        lan_net = f"10.0.{i}.0/24"
        _, lan, gateway = builder.add_nat(f"n{i}", f"60.0.0.{i + 1}", lan_net)
        host = builder.add_client_host(f"c{i}", f"10.0.{i}.1", lan_net, lan, gateway)
        clients.append(builder.make_client(host, i + 1))
    scheduler = builder.net.scheduler
    for i, client in enumerate(clients):
        # Staggered so the server's 16-deep accept backlog holds.
        scheduler.call_later(0.005 * i, client.register_udp)
        scheduler.call_later(0.005 * i + 0.002, client.register_tcp)
    scheduler.run_until(scheduler.now + 10.0)
    assert all(c.udp_registered and c.tcp_registered for c in clients)
    return clients, len(gc.get_objects()) - baseline


def _owned(roots):
    """GC-tracked objects reachable from *roots* without crossing SHARED
    (functions are followed into their closures only, not their globals)."""
    seen = {}
    stack = list(roots)
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, SHARED) or not gc.is_tracked(obj):
            continue
        seen[id(obj)] = obj
        if isinstance(obj, types.FunctionType):
            stack.extend(obj.__closure__ or ())
        else:
            stack.extend(gc.get_referents(obj))
    return seen


def test_registered_idle_client_census():
    gc.collect()
    gc.disable()
    try:
        clients, added = _registered_realm()
        assert added / CLIENTS <= MAX_TRACKED_PER_CLIENT

        client = clients[CLIENTS // 2]
        whole = _owned([client])
        optional = _owned(getattr(client, name) for name in OPTIONAL_PARTS)
        assert set(optional) <= set(whole)
        assert len(optional) < 0.25 * len(whole), sorted(
            type(obj).__name__ for obj in optional.values()
        )
    finally:
        gc.enable()
