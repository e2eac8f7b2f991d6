#!/usr/bin/env python3
"""NAT behaviour discovery and adaptive punching (paper §5.1).

First probe the NAT RFC 3489-style — mapping policy, filtering policy, and
the port-allocation delta — then decide how to punch: plain hole punching
for cone NATs, port prediction for symmetric-but-predictable NATs, or give
up and relay for symmetric-random NATs.

Run:  python examples/nat_discovery.py
"""

from repro.core.udp_punch import PunchConfig
from repro.nat import behavior as B
from repro.nat.device import NatDevice
from repro.natcheck.discovery import NatDiscovery
from repro.natcheck.servers import NatCheckServers
from repro.netsim.link import BACKBONE_LINK, LAN_LINK
from repro.netsim.network import Network
from repro.scenarios import build_two_nats
from repro.transport.stack import attach_stack


def discover(behavior, label):
    net = Network(seed=11)
    backbone = net.create_link("backbone", BACKBONE_LINK)
    NatCheckServers(net, backbone)
    nat = NatDevice("DUT", net.scheduler, behavior, rng=net.rng.child("dut"))
    net.add_node(nat)
    nat.set_wan("155.99.25.11", "0.0.0.0/0", backbone)
    lan = net.create_link("lan", LAN_LINK)
    nat.add_lan("10.0.0.254", "10.0.0.0/24", lan)
    host = net.add_host("probe", ip="10.0.0.1", network="10.0.0.0/24",
                        link=lan, gateway="10.0.0.254")
    attach_stack(host, rng=net.rng.child("probe"))
    probe = NatDiscovery(host)
    done = []
    probe.run(done.append)
    net.scheduler.run_while(lambda: not done, 30.0)
    result = done[0]
    print(f"{label:24s} {result.summary()}")
    return result


def punch_with_plan(behavior_b, predict_ports, label):
    sc = build_two_nats(seed=12, behavior_a=B.WELL_BEHAVED, behavior_b=behavior_b)
    config = PunchConfig(predict_ports=predict_ports, timeout=8.0)
    for c in sc.clients.values():
        c.punch_config = config
    sc.register_all_udp()
    outcome = {}
    sc.clients["A"].connect_udp(2, on_session=lambda s: outcome.setdefault("ok", s),
                                on_failure=lambda e: outcome.setdefault("fail", e),
                                config=config)
    sc.scheduler.run_while(lambda: not outcome, sc.scheduler.now + 20.0)
    verdict = f"connected via {outcome['ok'].remote}" if "ok" in outcome else "failed"
    print(f"  -> {label}: {verdict}")


def main() -> None:
    print("Phase 1: discover each NAT's behaviour (RFC 3489-style probing)\n")
    cone = discover(B.WELL_BEHAVED, "well-behaved consumer")
    predictable = discover(B.SYMMETRIC_PREDICTABLE, "symmetric, sequential")
    random_alloc = discover(B.SYMMETRIC_RANDOM, "symmetric, random")

    print("\nPhase 2: pick a traversal plan from the discovery result\n")
    for result, behavior, label in [
        (cone, B.WELL_BEHAVED, "cone: plain punching"),
        (predictable, B.SYMMETRIC_PREDICTABLE, "predictable: punch with prediction"),
        (random_alloc, B.SYMMETRIC_RANDOM, "random: prediction is hopeless"),
    ]:
        predict = 3 if result.prediction_viable else 0
        punch_with_plan(behavior, predict, label)

    print(
        "\nAs §5.1 says: prediction works 'much of the time' against predictable\n"
        "allocators but is 'chasing a moving target' — fall back to relaying."
    )


if __name__ == "__main__":
    main()
