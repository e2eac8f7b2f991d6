"""Deterministic packet-level network simulator.

This package is the substrate the paper's techniques run on: a virtual-time
event scheduler (:mod:`repro.netsim.clock`), an IPv4 addressing model with
public/private realms (:mod:`repro.netsim.addresses`), a packet model covering
UDP, TCP, and ICMP (:mod:`repro.netsim.packet`), links with latency/jitter/loss
(:mod:`repro.netsim.link`), hosts and routers with longest-prefix-match
forwarding (:mod:`repro.netsim.node`, :mod:`repro.netsim.routing`), a
topology container (:mod:`repro.netsim.network`), deterministic fault
injection (:mod:`repro.netsim.faults`), and a chaos-soak harness that
composes randomized fault plans and checks global run invariants
(:mod:`repro.netsim.chaos`).
"""

from repro import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(__name__, {
    "Endpoint": "addresses",
    "IPv4Address": "addresses",
    "IPv4Network": "addresses",
    "AddressPool": "addresses",
    "is_private": "addresses",
    "Scheduler": "clock",
    "Timer": "clock",
    "AttemptTracker": "chaos",
    "ChaosConfig": "chaos",
    "check_invariants": "chaos",
    "random_fault_plan": "chaos",
    "trace_fingerprint": "chaos",
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
    "PacketTrace": "trace",
    "TraceRecord": "trace",
})
