"""Runnable reproductions of the paper's figures.

Each ``run_figureN`` builds the figure's topology, drives the protocol it
illustrates, and returns a :class:`FigureResult` with the measurements the
narrative claims — who connected, via which endpoint, how long it took, what
it cost.  The benchmark harness regenerates every figure from these runners;
``examples/`` pretty-prints them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.nat.behavior import HAIRPIN_CAPABLE, NatBehavior, WELL_BEHAVED
from repro.natcheck.classify import NatCheckReport
from repro.natcheck.fleet import check_device
from repro.netsim.addresses import Endpoint
from repro.obs.export import summarize_for_report
from repro.scenarios.topologies import (
    Scenario,
    build_common_nat,
    build_multilevel,
    build_one_sided,
    build_two_nats,
)
from repro.transport.tcp import TcpStyle


@dataclass
class FigureResult:
    """Outcome of one figure scenario."""

    figure: str
    success: bool
    metrics: Dict[str, object] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)
    obs: List[str] = field(default_factory=list)

    def describe(self) -> str:
        lines = [f"[{self.figure}] {'SUCCESS' if self.success else 'FAILURE'}"]
        for key, value in self.metrics.items():
            lines.append(f"  {key}: {value}")
        lines.extend(f"  - {note}" for note in self.notes)
        lines.extend(f"  {line}" for line in self.obs)
        return "\n".join(lines)


def _scenario_obs(scenario: Scenario) -> List[str]:
    """The run's metrics summary (punch counters, latency percentiles, drop
    reasons) — attached to the figure's report section."""
    return summarize_for_report(scenario.net.metrics)


# ---------------------------------------------------------------------------
# Figure 1: public and private address realms
# ---------------------------------------------------------------------------


def run_figure1(seed: int = 0) -> FigureResult:
    """Reachability in the de-facto address architecture: private hosts can
    reach public hosts (their NAT solicits the session) but not each other."""
    scenario = build_two_nats(seed=seed)
    a = scenario.hosts["A"]
    b = scenario.hosts["B"]
    server = scenario.hosts["S"]
    outcomes = {}

    def probe(tag: str, src_host, dst: Endpoint) -> None:
        sock = src_host.stack.udp.socket(0)
        received = []
        sock.on_datagram = lambda d, s: received.append((d, s))
        sock.sendto(b"probe:" + tag.encode(), dst)
        outcomes[tag] = received

    # Public server echoes anything it gets on a probe port.
    echo = server.stack.udp.socket(9)
    echo.on_datagram = lambda d, s: echo.sendto(b"echo:" + d, s)
    probe("private->public", a, Endpoint(server.primary_ip, 9))
    # Direct attempt at B's private address from A's realm: dies.
    probe("private->private", a, Endpoint("10.1.1.3", 4321))
    # Unsolicited attempt at A's NAT public address: dropped by the NAT.
    probe("public->nat-public", server, Endpoint("155.99.25.11", 4321))
    scenario.run_for(2.0)
    reachable = {tag: bool(received) for tag, received in outcomes.items()}
    success = (
        reachable["private->public"]
        and not reachable["private->private"]
        and not reachable["public->nat-public"]
    )
    return FigureResult(
        figure="Figure 1 (address realms)",
        success=success,
        metrics={"reachability": reachable},
        notes=[
            "outbound sessions traverse NATs; private realms are mutually unreachable",
        ],
        obs=_scenario_obs(scenario),
    )


# ---------------------------------------------------------------------------
# Figure 2: relaying
# ---------------------------------------------------------------------------


def run_figure2(seed: int = 0, messages: int = 20, payload_size: int = 200) -> FigureResult:
    """Relaying through S: always works, costs server bandwidth and latency."""
    scenario = build_two_nats(seed=seed)
    scenario.register_all_udp()
    a, b = scenario.clients["A"], scenario.clients["B"]
    relay = a.open_relay(2)
    rtts: List[float] = []
    state = {"sent_at": 0.0, "remaining": messages}

    def pong(session):
        session.on_data = lambda d: session.send(d)  # echo

    b.on_relay_session = pong

    def on_reply(data: bytes) -> None:
        rtts.append(scenario.scheduler.now - state["sent_at"])
        state["remaining"] -= 1
        if state["remaining"] > 0:
            send_one()

    relay.on_data = on_reply

    def send_one() -> None:
        state["sent_at"] = scenario.scheduler.now
        relay.send(bytes(payload_size))

    send_one()
    scenario.wait_for(lambda: state["remaining"] <= 0, 60.0)
    # Compare with the direct-path RTT a punched session achieves.
    direct = {}
    a.connect_udp(2, on_session=lambda s: direct.setdefault("session", s))
    scenario.wait_for(lambda: "session" in direct, 20.0)
    session = direct["session"]
    echo_state = {"sent_at": 0.0, "rtt": None}
    b_session = {}
    b.on_peer_session = lambda s: b_session.setdefault("s", s)
    scenario.wait_for(lambda: "s" in b_session, 5.0)
    b_session["s"].on_data = lambda d: b_session["s"].send(d)
    session.on_data = lambda d: echo_state.__setitem__(
        "rtt", scenario.scheduler.now - echo_state["sent_at"]
    )
    echo_state["sent_at"] = scenario.scheduler.now
    session.send(bytes(payload_size))
    scenario.wait_for(lambda: echo_state["rtt"] is not None, 10.0)
    relay_rtt = sum(rtts) / len(rtts)
    direct_rtt = echo_state["rtt"]
    return FigureResult(
        figure="Figure 2 (relaying)",
        success=len(rtts) == messages,
        metrics={
            "messages_relayed": len(rtts),
            "relay_rtt_avg_s": round(relay_rtt, 4),
            "direct_rtt_s": round(direct_rtt, 4),
            "relay_overhead_x": round(relay_rtt / direct_rtt, 2),
            "server_relayed_bytes": scenario.server.relayed_bytes,
        },
        notes=["relaying works but consumes S's bandwidth and adds latency (§2.2)"],
        obs=_scenario_obs(scenario),
    )


# ---------------------------------------------------------------------------
# Figure 3: connection reversal
# ---------------------------------------------------------------------------


def run_figure3(seed: int = 0) -> FigureResult:
    """B (public) cannot connect to A (NATed); a reversal request via S makes
    A connect back out."""
    scenario = build_one_sided(seed=seed)
    scenario.register_all_tcp()
    a, b = scenario.clients["A"], scenario.clients["B"]
    # First show the direct attempt failing: B dials A's public endpoint.
    direct = {}
    b.host.stack.tcp.connect(
        Endpoint("155.99.25.11", 4321),
        on_connected=lambda c: direct.setdefault("ok", c),
        on_error=lambda e: direct.setdefault("err", e),
    )
    scenario.run_for(8.0)
    started = scenario.scheduler.now
    result = {}
    b.request_reversal(
        1,
        on_stream=lambda s: result.setdefault("stream", s),
        on_failure=lambda e: result.setdefault("fail", e),
    )
    scenario.wait_for(lambda: result, 30.0)
    elapsed = scenario.scheduler.now - started
    return FigureResult(
        figure="Figure 3 (connection reversal)",
        success="stream" in result and "ok" not in direct,
        metrics={
            "direct_attempt": "blocked" if "ok" not in direct else "connected",
            "reversal_elapsed_s": round(elapsed, 3),
        },
        notes=["the NAT interprets A's reverse connection as an outgoing session (§2.3)"],
        obs=_scenario_obs(scenario),
    )


# ---------------------------------------------------------------------------
# Figures 4-6: UDP hole punching topologies
# ---------------------------------------------------------------------------


def _punch_udp(scenario: Scenario) -> Dict[str, object]:
    scenario.register_all_udp()
    a, b = scenario.clients["A"], scenario.clients["B"]
    result: Dict[str, object] = {}
    b.on_peer_session = lambda s: result.setdefault("b_session", s)
    started = scenario.scheduler.now
    a.connect_udp(
        2,
        on_session=lambda s: result.setdefault("a_session", s),
        on_failure=lambda e: result.setdefault("failure", e),
    )
    scenario.scheduler.run_while(
        lambda: not ("a_session" in result or "failure" in result),
        scenario.scheduler.now + 20.0,
    )
    result["elapsed"] = scenario.scheduler.now - started
    if "a_session" in result:
        # Verify the session actually carries data both ways.
        scenario.scheduler.run_while(
            lambda: "b_session" not in result, scenario.scheduler.now + 5.0
        )
        if "b_session" in result:
            got = []
            result["b_session"].on_data = lambda d: got.append(d)
            result["a_session"].send(b"payload-after-punch")
            scenario.scheduler.run_while(lambda: not got, scenario.scheduler.now + 5.0)
            result["data_delivered"] = bool(got)
    return result


def run_figure4(seed: int = 0, behavior: NatBehavior = WELL_BEHAVED) -> FigureResult:
    """Both peers behind one NAT: the private endpoints should win (§3.3)."""
    scenario = build_common_nat(seed=seed, behavior=behavior)
    result = _punch_udp(scenario)
    session = result.get("a_session")
    locked = session.remote if session is not None else None
    used_private = locked is not None and locked.is_private
    return FigureResult(
        figure="Figure 4 (common NAT)",
        success=session is not None and result.get("data_delivered", False),
        metrics={
            "locked_endpoint": str(locked),
            "used_private_route": used_private,
            "elapsed_s": round(result["elapsed"], 3),
            "hairpin_supported": behavior.hairpin,
        },
        notes=["the direct private route wins the race against the hairpin route (§3.3)"],
        obs=_scenario_obs(scenario),
    )


def run_figure5(
    seed: int = 0,
    behavior_a: NatBehavior = WELL_BEHAVED,
    behavior_b: Optional[NatBehavior] = None,
) -> FigureResult:
    """The canonical different-NATs scenario (§3.4), with the paper's port
    numbering: NAT A maps A to 62000, NAT B maps B to 31000."""
    behavior_b = behavior_b if behavior_b is not None else WELL_BEHAVED.but(port_base=31000)
    scenario = build_two_nats(seed=seed, behavior_a=behavior_a, behavior_b=behavior_b)
    result = _punch_udp(scenario)
    session = result.get("a_session")
    locked = session.remote if session is not None else None
    expected = Endpoint("138.76.29.7", 31000)
    return FigureResult(
        figure="Figure 5 (different NATs)",
        success=session is not None and result.get("data_delivered", False),
        metrics={
            "locked_endpoint": str(locked),
            "expected_public_endpoint": str(expected),
            "locked_matches_paper": locked == expected,
            "elapsed_s": round(result["elapsed"], 3),
            "a_public": str(scenario.clients["A"].udp_public),
            "b_public": str(scenario.clients["B"].udp_public),
        },
        notes=["both NATs open holes; the public endpoints carry the session (§3.4)"],
        obs=_scenario_obs(scenario),
    )


def run_figure6(seed: int = 0, hairpin: bool = True) -> FigureResult:
    """Multiple levels of NAT (§3.5): works iff NAT C hairpins."""
    scenario = build_multilevel(
        seed=seed,
        nat_c_behavior=HAIRPIN_CAPABLE if hairpin else WELL_BEHAVED,
    )
    result = _punch_udp(scenario)
    session = result.get("a_session")
    nat_c = scenario.nats["C"]
    return FigureResult(
        figure=f"Figure 6 (multi-level NAT, hairpin={'on' if hairpin else 'off'})",
        success=(session is not None) == hairpin,
        metrics={
            "punch_succeeded": session is not None,
            "locked_endpoint": str(session.remote) if session else None,
            "hairpin_translations": nat_c.hairpin_forwarded,
            "hairpin_refused": nat_c.hairpin_refused,
            "elapsed_s": round(result["elapsed"], 3),
        },
        notes=[
            "clients must use global endpoints; NAT C must hairpin (§3.5)"
            if hairpin
            else "without hairpin support at NAT C the punch cannot complete (§3.5)"
        ],
        obs=_scenario_obs(scenario),
    )


# ---------------------------------------------------------------------------
# Figure 7: sockets versus ports for TCP hole punching
# ---------------------------------------------------------------------------


def run_figure7(
    seed: int = 0,
    style_a: TcpStyle = TcpStyle.BSD,
    style_b: TcpStyle = TcpStyle.LISTEN_PREFERRED,
) -> FigureResult:
    """TCP punch between two NATed clients; census of sockets sharing the
    single local port, as Figure 7 diagrams."""
    scenario = build_two_nats(seed=seed, tcp_style_a=style_a, tcp_style_b=style_b)
    scenario.register_all_tcp()
    a, b = scenario.clients["A"], scenario.clients["B"]
    result: Dict[str, object] = {}
    census_during: Dict[str, Dict[str, int]] = {}
    b.on_peer_stream = lambda s: result.setdefault("b_stream", s)

    def snapshot() -> None:
        census_during["A"] = a.host.stack.tcp.port_census(4321)
        census_during["B"] = b.host.stack.tcp.port_census(4321)

    scenario.scheduler.call_later(0.15, snapshot)  # mid-punch
    started = scenario.scheduler.now
    a.connect_tcp(
        2,
        on_stream=lambda s: result.setdefault("a_stream", s),
        on_failure=lambda e: result.setdefault("failure", e),
    )
    scenario.wait_for(
        lambda: ("a_stream" in result and "b_stream" in result) or "failure" in result,
        45.0,
    )
    elapsed = scenario.scheduler.now - started
    success = "a_stream" in result
    data_ok = False
    if success and "b_stream" in result:
        got = []
        result["b_stream"].on_data = lambda d: got.append(d)
        result["a_stream"].send(b"figure7")
        scenario.run_for(2.0)
        data_ok = got == [b"figure7"]
    return FigureResult(
        figure="Figure 7 (TCP sockets vs ports)",
        success=success and data_ok,
        metrics={
            "styles": f"A={style_a.value}, B={style_b.value}",
            "socket_census_mid_punch": census_during,
            "a_origin": result["a_stream"].origin if success else None,
            "b_origin": result["b_stream"].origin if "b_stream" in result else None,
            "elapsed_s": round(elapsed, 3),
        },
        notes=[
            "one local port carries the S connection, a listen socket, and "
            "outgoing connects simultaneously via SO_REUSEADDR (§4.1)"
        ],
        obs=_scenario_obs(scenario),
    )


# ---------------------------------------------------------------------------
# Figure 8: the NAT Check test method
# ---------------------------------------------------------------------------


def run_figure8(seed: int = 0, behavior: NatBehavior = WELL_BEHAVED) -> FigureResult:
    """One full NAT Check run against a device (Figure 8's message flow)."""
    report: NatCheckReport = check_device(behavior, seed=seed)
    expected_udp = behavior.udp_punch_friendly
    expected_tcp = behavior.tcp_punch_friendly
    classified_correctly = (
        report.udp_punch_ok == expected_udp and report.tcp_punch_ok == expected_tcp
    )
    return FigureResult(
        figure="Figure 8 (NAT Check)",
        success=classified_correctly,
        metrics={
            "report": report.summary(),
            "ground_truth_udp": expected_udp,
            "ground_truth_tcp": expected_tcp,
            "elapsed_virtual_s": round(report.elapsed, 2),
        },
        notes=["NAT Check's classification matches the device's constructed behaviour"],
    )


ALL_FIGURES = {
    "figure1": run_figure1,
    "figure2": run_figure2,
    "figure3": run_figure3,
    "figure4": run_figure4,
    "figure5": run_figure5,
    "figure6": run_figure6,
    "figure7": run_figure7,
    "figure8": run_figure8,
}
