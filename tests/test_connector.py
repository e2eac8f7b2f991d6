"""The P2PConnector strategy ladder."""

import pytest

from repro.core.connector import (
    P2PConnector,
    RetryPolicy,
    STRATEGY_PUNCH,
    STRATEGY_RELAY,
    STRATEGY_REVERSAL,
)
from repro.core.protocol import TRANSPORT_TCP, TRANSPORT_UDP
from repro.core.relay import RelaySession
from repro.core.tcp_punch import TcpStream
from repro.core.udp_punch import UdpSession
from repro.nat import behavior as B
from repro.scenarios import build_one_sided, build_two_nats
from tests.test_punch_lifecycle import _enable_turn, _turn_dies_after_allocation


def run_ladder(scenario, transport, requester="A", target=2, phase_timeout=6.0):
    if transport == TRANSPORT_TCP:
        scenario.register_all_tcp()
    scenario.register_all_udp()
    connector = P2PConnector(
        scenario.clients[requester], transport=transport, phase_timeout=phase_timeout
    )
    results = []
    connector.connect(target, on_result=results.append)
    scenario.wait_for(lambda: results, 90.0)
    return results[0]


def test_punch_wins_on_friendly_nats_udp():
    result = run_ladder(build_two_nats(seed=61), TRANSPORT_UDP)
    assert result.connected
    assert result.strategy == STRATEGY_PUNCH
    assert isinstance(result.channel, UdpSession)
    assert len(result.attempts) == 1


def test_punch_wins_tcp():
    result = run_ladder(build_two_nats(seed=62), TRANSPORT_TCP)
    assert result.strategy == STRATEGY_PUNCH
    assert isinstance(result.channel, TcpStream)


def test_relay_fallback_on_symmetric_udp():
    sc = build_two_nats(seed=63, behavior_a=B.SYMMETRIC_RANDOM,
                        behavior_b=B.SYMMETRIC_RANDOM)
    result = run_ladder(sc, TRANSPORT_UDP)
    assert result.strategy == STRATEGY_RELAY
    assert isinstance(result.channel, RelaySession)
    assert [a.strategy for a in result.attempts] == [STRATEGY_PUNCH, STRATEGY_RELAY]
    assert not result.attempts[0].success


def test_reversal_rung_tried_for_tcp():
    sym_tcp = B.WELL_BEHAVED.but(tcp_mapping=B.SYMMETRIC.mapping)
    sc = build_two_nats(seed=64, behavior_a=sym_tcp, behavior_b=sym_tcp)
    result = run_ladder(sc, TRANSPORT_TCP)
    assert [a.strategy for a in result.attempts] == [
        STRATEGY_PUNCH,
        STRATEGY_REVERSAL,
        STRATEGY_RELAY,
    ]
    assert result.strategy == STRATEGY_RELAY


def test_punch_subsumes_reversal_when_requester_public():
    """When the requester B is public, hole punching degenerates to A's
    plain outbound connect to B — the same dial reversal would request — so
    the punch rung wins even behind a TCP-symmetric NAT (§2.3's mechanism is
    contained inside §4.2's)."""
    sc = build_one_sided(seed=65, behavior=B.WELL_BEHAVED.but(
        tcp_mapping=B.SYMMETRIC.mapping))
    result = run_ladder(sc, TRANSPORT_TCP, requester="B", target=1)
    assert result.strategy == STRATEGY_PUNCH
    assert isinstance(result.channel, TcpStream)
    # The winning stream is the one A dialed out to B.
    assert result.channel.origin in ("accept", "connect")


def test_relay_channel_carries_data():
    sc = build_two_nats(seed=66, behavior_a=B.SYMMETRIC_RANDOM,
                        behavior_b=B.SYMMETRIC_RANDOM)
    result = run_ladder(sc, TRANSPORT_UDP)
    got = []
    sc.clients["B"].on_relay_session = lambda s: setattr(s, "on_data", got.append)
    result.channel.send(b"laddered")
    sc.run_for(2.0)
    assert got == [b"laddered"]


def test_attempt_timings_recorded():
    sc = build_two_nats(seed=67, behavior_a=B.SYMMETRIC_RANDOM,
                        behavior_b=B.SYMMETRIC_RANDOM)
    result = run_ladder(sc, TRANSPORT_UDP, phase_timeout=4.0)
    punch_attempt = result.attempts[0]
    assert punch_attempt.elapsed == pytest.approx(4.0, abs=0.5)
    assert "timed out" in punch_attempt.detail


def test_turn_rung_wins_before_s_relay_when_enabled():
    """With TURN enabled on both clients, double-symmetric NATs fall back to
    the TURN pair channel instead of burdening S with data."""
    from repro.core.connector import STRATEGY_TURN
    from repro.core.turn import TurnPairSession, TurnServer
    from repro.transport.stack import attach_stack

    sc = build_two_nats(seed=68, behavior_a=B.SYMMETRIC_RANDOM,
                        behavior_b=B.SYMMETRIC_RANDOM)
    relay_host = sc.net.add_host("relay", ip="30.0.0.1", network="0.0.0.0/0",
                                 link=sc.net.links["backbone"])
    attach_stack(relay_host)
    turn_server = TurnServer(relay_host)
    for c in sc.clients.values():
        c.enable_turn(turn_server.endpoint)
    result = run_ladder(sc, TRANSPORT_UDP, phase_timeout=5.0)
    assert result.strategy == STRATEGY_TURN
    assert isinstance(result.channel, TurnPairSession)
    assert [a.strategy for a in result.attempts] == ["hole-punch", STRATEGY_TURN]
    # The channel carries data (through both relays).
    got = []
    sc.clients["B"].turn_pairs[1].on_data = got.append
    result.channel.send(b"laddered via TURN")
    sc.run_for(2.0)
    assert got == [b"laddered via TURN"]
    assert sc.server.relayed_bytes == 0  # S carried no application data


def test_retry_policy_reruns_ladder_after_nat_reboot():
    """A RetryPolicy turns the one-shot ladder into a self-healing channel:
    when the punched hole dies, the connector re-runs the ladder and hands
    the application a fresh channel with result.recovery incremented."""
    from repro.core.udp_punch import PunchConfig
    from repro.netsim.faults import FAULT_NAT_REBOOT, FaultPlan

    sc = build_two_nats(seed=71)
    config = PunchConfig(keepalive_interval=1.0, broken_after_missed=3)
    for c in sc.clients.values():
        c.punch_config = config
        c.register_udp()
    sc.wait_for(lambda: all(c.udp_registered for c in sc.clients.values()), 10.0)
    for c in sc.clients.values():
        c.start_server_keepalives(interval=1.0)
    connector = P2PConnector(
        sc.clients["A"],
        transport=TRANSPORT_UDP,
        phase_timeout=6.0,
        retry_policy=RetryPolicy(max_retries=3, backoff=0.5),
    )
    results = []
    connector.connect(2, on_result=results.append)
    sc.wait_for(lambda: results, 30.0)
    assert results[0].recovery == 0
    assert results[0].strategy == STRATEGY_PUNCH
    sc.inject_faults(FaultPlan([(sc.scheduler.now + 1.0, FAULT_NAT_REBOOT, "A")]))
    sc.wait_for(lambda: len(results) >= 2, 60.0)
    recovered = results[1]
    assert recovered.recovery == 1
    assert recovered.connected
    assert recovered.channel is not results[0].channel
    assert connector.recoveries == 1
    assert sc.clients["A"].metrics.counter("connector.recoveries").value == 1


def test_retry_policy_off_by_default():
    sc = build_two_nats(seed=72)
    result = run_ladder(sc, TRANSPORT_UDP)
    assert result.recovery == 0
    connector = P2PConnector(sc.clients["A"])
    assert connector.retry_policy is None


def test_turn_rung_fails_over_to_s_relay_when_peer_lacks_turn():
    from repro.core.connector import STRATEGY_RELAY, STRATEGY_TURN
    from repro.core.turn import TurnServer
    from repro.transport.stack import attach_stack

    sc = build_two_nats(seed=69, behavior_a=B.SYMMETRIC_RANDOM,
                        behavior_b=B.SYMMETRIC_RANDOM)
    relay_host = sc.net.add_host("relay", ip="30.0.0.1", network="0.0.0.0/0",
                                 link=sc.net.links["backbone"])
    attach_stack(relay_host)
    turn_server = TurnServer(relay_host)
    sc.clients["A"].enable_turn(turn_server.endpoint)  # B has no TURN client
    result = run_ladder(sc, TRANSPORT_UDP, phase_timeout=4.0)
    assert [a.strategy for a in result.attempts] == [
        "hole-punch", STRATEGY_TURN, STRATEGY_RELAY,
    ]
    assert result.strategy == STRATEGY_RELAY


def test_turn_rung_fails_over_to_s_relay_when_the_relay_dies():
    """Regression: with both relays allocated and then the TURN server
    gone, the ladder hung on its TURN rung instead of falling back."""
    from repro.core.connector import STRATEGY_TURN

    sc = build_two_nats(seed=70, behavior_a=B.SYMMETRIC_RANDOM,
                        behavior_b=B.SYMMETRIC_RANDOM)
    _turn_dies_after_allocation(sc, _enable_turn(sc))
    result = run_ladder(sc, TRANSPORT_UDP, phase_timeout=5.0)
    assert [a.strategy for a in result.attempts] == [
        STRATEGY_PUNCH, STRATEGY_TURN, STRATEGY_RELAY,
    ]
    assert result.strategy == STRATEGY_RELAY


# -- every rung answers exactly once (the ladder keeps no once-only guard) ----


def _answers(sc, start, run=60.0):
    """Start one rung the way the ladder does and record every answer it
    gives over *run* virtual seconds — well past each rung's deadlines."""
    answers = []
    start(lambda channel, detail="": answers.append("ok"), lambda error: answers.append("failed"))
    sc.run_for(run)
    return answers


@pytest.mark.parametrize("transport", [TRANSPORT_UDP, TRANSPORT_TCP], ids=["udp", "tcp"])
@pytest.mark.parametrize(
    "nat, expected", [(B.WELL_BEHAVED, "ok"), (B.SYMMETRIC_RANDOM, "failed")], ids=["wins", "fails"]
)
def test_punch_rung_answers_once(transport, nat, expected):
    sc = build_two_nats(seed=73, behavior_a=nat)
    sc.register_all_udp()
    sc.register_all_tcp()
    connector = P2PConnector(sc.clients["A"], transport=transport, phase_timeout=4.0)
    assert _answers(sc, lambda ok, fail: connector._try_punch(2, ok, fail)) == [expected]


@pytest.mark.parametrize(
    "build, expected", [(build_one_sided, "ok"), (build_two_nats, "failed")], ids=["wins", "fails"]
)
def test_reversal_rung_answers_once(build, expected):
    sc = build(seed=74)
    sc.register_all_tcp()
    b = sc.clients["B"]
    start = lambda ok, fail: b.request_reversal(1, ok, fail, timeout=4.0)
    assert _answers(sc, start) == [expected]


@pytest.mark.parametrize(
    "peer_has_turn, relay_dies, expected",
    [(True, False, "ok"), (False, False, "failed"), (True, True, "failed")],
    ids=["wins", "fails", "relay-dies"],
)
def test_turn_rung_answers_once(peer_has_turn, relay_dies, expected):
    from repro.core.turn import TurnServer
    from repro.transport.stack import attach_stack

    sc = build_two_nats(seed=75, behavior_a=B.SYMMETRIC_RANDOM)
    relay_host = sc.net.add_host("relay", ip="30.0.0.1", network="0.0.0.0/0",
                                 link=sc.net.links["backbone"])
    attach_stack(relay_host)
    turn_server = TurnServer(relay_host)
    sc.register_all_udp()
    clients = sc.clients.values() if peer_has_turn else [sc.clients["A"]]
    for c in clients:
        c.enable_turn(turn_server.endpoint)
    if relay_dies:
        _turn_dies_after_allocation(sc, turn_server)
    a = sc.clients["A"]
    start = lambda ok, fail: a.connect_via_turn(2, ok, fail, timeout=4.0)
    assert _answers(sc, start) == [expected]


def test_relay_rung_answers_once():
    """The relay rung answers synchronously; the ladder then reports exactly
    one result however long the run goes on."""
    sc = build_two_nats(seed=76, behavior_a=B.SYMMETRIC_RANDOM)
    sc.register_all_udp()
    connector = P2PConnector(sc.clients["A"], phase_timeout=4.0)
    results = []
    connector.connect(2, on_result=results.append)
    sc.run_for(60.0)
    assert [r.strategy for r in results] == [STRATEGY_RELAY]
    assert [a.strategy for a in results[0].attempts] == [STRATEGY_PUNCH, STRATEGY_RELAY]
