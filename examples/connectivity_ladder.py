#!/usr/bin/env python3
"""The connectivity ladder: hole punch -> connection reversal -> relay.

The paper presents relaying (§2.2) and reversal (§2.3) as the fallbacks
around hole punching.  :class:`repro.core.connector.P2PConnector` runs them
as a ladder — the strategy modern ICE stacks standardised — and this example
shows which rung wins in three environments:

  1. well-behaved NATs on both sides    -> hole punching wins;
  2. A NATed, B public, B calls A       -> punching still wins (it subsumes
     reversal), so we also show reversal in isolation;
  3. symmetric NATs on both sides       -> only relaying works.

Run:  python examples/connectivity_ladder.py
"""

from repro.core.connector import P2PConnector
from repro.core.protocol import TRANSPORT_TCP, TRANSPORT_UDP
from repro.nat import behavior as B
from repro.scenarios import build_one_sided, build_two_nats


def run_ladder(title, scenario, transport, requester="A", target_id=2) -> None:
    print(f"\n=== {title} ===")
    if transport == TRANSPORT_UDP:
        scenario.register_all_udp()
    else:
        scenario.register_all_tcp()
        scenario.register_all_udp()
    connector = P2PConnector(
        scenario.clients[requester], transport=transport, phase_timeout=8.0
    )
    results = []
    connector.connect(target_id, on_result=results.append)
    scenario.wait_for(lambda: results, timeout=60.0)
    result = results[0]
    for attempt in result.attempts:
        status = "ok" if attempt.success else "failed"
        print(f"  {attempt.strategy:12s} {status:7s} {attempt.elapsed:6.2f}s  {attempt.detail}")
    print(f"  => connected via {result.strategy} ({type(result.channel).__name__})")


def main() -> None:
    run_ladder(
        "well-behaved NATs, UDP",
        build_two_nats(seed=1),
        TRANSPORT_UDP,
    )
    run_ladder(
        "B public, A NATed - B initiates, TCP",
        build_one_sided(seed=2),
        TRANSPORT_TCP,
        requester="B",
        target_id=1,
    )
    run_ladder(
        "symmetric NATs both sides, UDP (only relay works)",
        build_two_nats(seed=3, behavior_a=B.SYMMETRIC_RANDOM, behavior_b=B.SYMMETRIC_RANDOM),
        TRANSPORT_UDP,
    )


if __name__ == "__main__":
    main()
