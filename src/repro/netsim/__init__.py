"""Deterministic packet-level network simulator.

This package is the substrate the paper's techniques run on: a virtual-time
event scheduler (:mod:`repro.netsim.clock`), an IPv4 addressing model with
public/private realms (:mod:`repro.netsim.addresses`), a packet model covering
UDP, TCP, and ICMP (:mod:`repro.netsim.packet`), links with latency/jitter/loss
(:mod:`repro.netsim.link`), hosts and routers with longest-prefix-match
forwarding (:mod:`repro.netsim.node`, :mod:`repro.netsim.routing`), a
topology container (:mod:`repro.netsim.network`), deterministic fault
injection (:mod:`repro.netsim.faults`), and scripted attackers
(:mod:`repro.netsim.adversary`).  The chaos-soak harness that composes
randomized fault plans and checks global run invariants is a test
instrument and lives in ``tests/chaos.py``.
"""

from repro import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(__name__, {
    "Endpoint": "addresses",
    "IPv4Address": "addresses",
    "IPv4Network": "addresses",
    "is_private": "addresses",
    "Scheduler": "clock",
    "Timer": "clock",
    "FaultEvent": "faults",
    "FaultInjector": "faults",
    "FaultPlan": "faults",
    "Link": "link",
    "LinkProfile": "link",
    "Network": "network",
    "Host": "node",
    "Node": "node",
    "Router": "node",
    "IcmpError": "packet",
    "IpProtocol": "packet",
    "Packet": "packet",
    "TcpFlags": "packet",
    "TcpHeader": "packet",
    "RoutingTable": "routing",
})
