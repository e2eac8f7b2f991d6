"""``python -m repro.analysis --explain <scenario>``: post-mortem demos.

Each named scenario reproduces one traversal-failure root cause from the
attribution taxonomy (:mod:`repro.obs.attribution`) on a small deterministic
topology, runs it with a flight recorder attached, and prints the verdict
with its evidence timeline — the worked examples behind
``docs/observability.md``.

Scenarios:

================  ==========================================================
``symmetric-udp``  NAT Check against a classic symmetric NAT (§5.1): the UDP
                   phase fails with ``symmetric-mapping-mismatch``.
``hairpin-udp``    NAT Check against a well-behaved but hairpin-incapable
                   NAT (§3.5): the hairpin phases fail.
``rst-tcp``        NAT Check against a cone NAT that RSTs unsolicited SYNs
                   (§5.2): the TCP phase fails with ``rst-by-nat``.
``nat-reboot``     An established UDP session dies when the client's NAT
                   reboots and loses its translation state (§3.6).
``server-dead``    The rendezvous server is killed mid-exchange; the connect
                   attempt times out with ``server-dead``.
``loss-storm``     The backbone goes down under the endpoint exchange; the
                   attempt's probes all die on the wire (``loss-exhausted``).
``exhaustion-flood``  A host behind the client's NAT floods the translation
                   table full before the punch (:mod:`repro.netsim.adversary`);
                   the attempt fails with ``mapping-exhausted``.
``spoofed-rst``    An off-path attacker sweeps forged RSTs at the client's
                   NAT and kills the punched TCP stream; the session attempt
                   fails with ``spoofed-reset``.
================  ==========================================================
"""

from __future__ import annotations

import os
from typing import Callable, Dict, List, Optional, Tuple

from repro.obs.attribution import Verdict, explain, render_verdict
from repro.obs.flight import Attempt, FlightRecorder
from repro.obs.flight_export import write_flight_files

#: Per-scenario deadline for the simulated runs (virtual seconds).
_DEADLINE = 120.0

ScenarioFn = Callable[[int], Tuple[FlightRecorder, List[Attempt]]]


def _run_natcheck(behavior, seed: int) -> Tuple[FlightRecorder, List[Attempt]]:
    from repro.natcheck.fleet import build_check_network

    net, client = build_check_network(behavior, seed=seed)
    done: list = []
    client.run(done.append)
    net.scheduler.run_while(lambda: not done, _DEADLINE)
    recorder = net.flight
    failed = [
        a
        for a in recorder.find_attempts()
        if a.name.startswith("natcheck.") and a.outcome == "failed"
    ]
    return recorder, failed


def _scenario_symmetric_udp(seed: int) -> Tuple[FlightRecorder, List[Attempt]]:
    from repro.nat.behavior import SYMMETRIC

    return _run_natcheck(SYMMETRIC, seed)


def _scenario_hairpin_udp(seed: int) -> Tuple[FlightRecorder, List[Attempt]]:
    from repro.nat.behavior import WELL_BEHAVED

    return _run_natcheck(WELL_BEHAVED, seed)


def _scenario_rst_tcp(seed: int) -> Tuple[FlightRecorder, List[Attempt]]:
    from repro.nat.behavior import RST_SENDER

    return _run_natcheck(RST_SENDER, seed)


def _scenario_nat_reboot(seed: int) -> Tuple[FlightRecorder, List[Attempt]]:
    from repro.core.udp_punch import PunchConfig
    from repro.netsim.faults import FaultPlan
    from repro.scenarios.topologies import build_two_nats

    scenario = build_two_nats(seed=seed, flight=True)
    scenario.register_all_udp()
    sessions: list = []
    config = PunchConfig(keepalive_interval=1.0, broken_after_missed=2)
    scenario.clients["A"].connect_udp(2, on_session=sessions.append, config=config)
    scenario.wait_for(lambda: bool(sessions), _DEADLINE)
    scenario.inject_faults(
        FaultPlan([(scenario.scheduler.now + 2.0, "nat-reboot", "A")])
    )
    scenario.wait_for(lambda: sessions[0].broken, _DEADLINE)
    recorder = scenario.net.flight
    return recorder, [
        a for a in recorder.find_attempts("session.udp") if a.outcome == "broken"
    ]


def _scenario_server_dead(seed: int) -> Tuple[FlightRecorder, List[Attempt]]:
    from repro.netsim.faults import FaultPlan
    from repro.scenarios.topologies import build_two_nats

    scenario = build_two_nats(seed=seed, flight=True)
    scenario.register_all_udp()
    failures: list = []
    scenario.clients["A"].connect_udp(
        2, on_session=lambda _s: None, on_failure=failures.append
    )
    # Kill S at the current instant: the fault fires before the in-flight
    # connect request can reach it, and inside the attempt's window.
    scenario.inject_faults(
        FaultPlan([(scenario.scheduler.now, "server-kill", "S")])
    )
    scenario.wait_for(lambda: bool(failures), _DEADLINE)
    recorder = scenario.net.flight
    return recorder, recorder.find_attempts("connect.udp")


def _scenario_loss_storm(seed: int) -> Tuple[FlightRecorder, List[Attempt]]:
    from repro.netsim.faults import FaultPlan
    from repro.scenarios.topologies import build_two_nats

    scenario = build_two_nats(seed=seed, flight=True)
    scenario.register_all_udp()
    failures: list = []
    scenario.clients["A"].connect_udp(
        2, on_session=lambda _s: None, on_failure=failures.append
    )
    scenario.inject_faults(
        FaultPlan([(scenario.scheduler.now, "link-down", "backbone")])
    )
    scenario.wait_for(lambda: bool(failures), _DEADLINE)
    recorder = scenario.net.flight
    return recorder, recorder.find_attempts("connect.udp")


def _scenario_exhaustion_flood(seed: int) -> Tuple[FlightRecorder, List[Attempt]]:
    import dataclasses

    from repro.nat.behavior import FULL_CONE, SYMMETRIC
    from repro.netsim.adversary import ExhaustionFlood, attach_lan_attacker
    from repro.scenarios.topologies import build_two_nats

    # A symmetric NAT with finite translation memory: the punch must
    # allocate a *fresh* mapping toward the peer, which is exactly the state
    # the flood burns.  (The cone peer keeps the baseline punchable.)
    behavior = dataclasses.replace(SYMMETRIC, table_capacity=192)
    scenario = build_two_nats(
        seed=seed, behavior_a=behavior, behavior_b=FULL_CONE, flight=True
    )
    scenario.register_all_udp()
    nat_a = scenario.nats["A"]
    mole = attach_lan_attacker(scenario.net, nat_a)
    attacker = ExhaustionFlood(
        scenario.net, host=mole, nat=nat_a, name="flood", interval=0.05, burst=64
    )
    attacker.start()
    # Let the flood fill the table before the victim punches.
    scenario.scheduler.run_until(scenario.scheduler.now + 8.0)
    failures: list = []
    scenario.clients["A"].connect_udp(
        2, on_session=lambda _s: None, on_failure=failures.append
    )
    scenario.wait_for(lambda: bool(failures), _DEADLINE)
    attacker.stop()
    recorder = scenario.net.flight
    return recorder, recorder.find_attempts("connect.udp")


def _scenario_spoofed_rst(seed: int) -> Tuple[FlightRecorder, List[Attempt]]:
    from repro.netsim.adversary import SpoofedRstInjector, attach_wan_attacker
    from repro.scenarios.topologies import build_two_nats

    scenario = build_two_nats(seed=seed, flight=True)
    scenario.register_all_tcp()
    streams: list = []
    scenario.clients["A"].connect_tcp(2, on_stream=streams.append)
    scenario.wait_for(lambda: bool(streams), _DEADLINE)
    stream = streams[0]
    stream.start_keepalives(1.0, broken_after_missed=3)
    offpath = attach_wan_attacker(scenario.net, scenario.net.links["backbone"])
    attacker = SpoofedRstInjector(
        scenario.net,
        host=offpath,
        nat=scenario.nats["A"],
        forged_src=stream.remote,
    )
    attacker.start()
    scenario.wait_for(lambda: stream.broken, _DEADLINE)
    attacker.stop()
    recorder = scenario.net.flight
    return recorder, [
        a for a in recorder.find_attempts("session.tcp") if a.outcome == "broken"
    ]


SCENARIOS: Dict[str, ScenarioFn] = {
    "symmetric-udp": _scenario_symmetric_udp,
    "hairpin-udp": _scenario_hairpin_udp,
    "rst-tcp": _scenario_rst_tcp,
    "nat-reboot": _scenario_nat_reboot,
    "server-dead": _scenario_server_dead,
    "loss-storm": _scenario_loss_storm,
    "exhaustion-flood": _scenario_exhaustion_flood,
    "spoofed-rst": _scenario_spoofed_rst,
}


def explain_scenario(
    name: str, seed: int = 7
) -> Tuple[FlightRecorder, List[Verdict]]:
    """Run one named scenario and attribute its failed attempts."""
    try:
        fn = SCENARIOS[name]
    except KeyError:
        raise SystemExit(
            f"unknown scenario {name!r}; choose from {', '.join(sorted(SCENARIOS))}"
        )
    recorder, attempts = fn(seed)
    return recorder, [explain(a, recorder) for a in attempts]


def render_explanation(
    name: str,
    seed: int = 7,
    dump_dir: Optional[str] = None,
) -> str:
    """The full ``--explain`` output: verdicts plus optional file dumps."""
    recorder, verdicts = explain_scenario(name, seed=seed)
    lines = [f"scenario: {name} (seed={seed})"]
    lines.append(
        f"flight recorder: {len(recorder.events())} events, "
        f"{len(recorder.attempts)} attempts, {recorder.dropped_events} dropped"
    )
    if not verdicts:
        lines.append("no failed attempts — nothing to explain")
    for verdict in verdicts:
        lines.append("")
        lines.append(render_verdict(verdict))
    if dump_dir:
        os.makedirs(dump_dir, exist_ok=True)
        jsonl = os.path.join(dump_dir, f"{name}.flight.jsonl")
        trace = os.path.join(dump_dir, f"{name}.trace.json")
        write_flight_files(recorder, jsonl, trace)
        lines.append("")
        lines.append(f"flight log: {jsonl}")
        lines.append(f"chrome trace: {trace} (load via chrome://tracing)")
    return "\n".join(lines)
