"""The P2PConnector strategy ladder."""

import pytest

from repro.core.connector import (
    P2PConnector,
    STRATEGY_PUNCH,
    STRATEGY_RELAY,
    STRATEGY_REVERSAL,
)
from repro.core.protocol import TRANSPORT_TCP, TRANSPORT_UDP
from repro.core.relay import RelaySession
from repro.core.tcp_punch import TcpStream
from repro.core.udp_punch import PunchConfig, UdpSession
from repro.nat import behavior as B
from repro.netsim.faults import FAULT_NAT_REBOOT, FaultPlan
from repro.scenarios import build_one_sided, build_two_nats

from tests.conftest import rerun_ladder_on_break


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


def _punched_pair_with_keepalives(seed):
    sc = build_two_nats(seed=seed)
    config = PunchConfig(keepalive_interval=1.0, broken_after_missed=3)
    for c in sc.clients.values():
        c.punch_config = config
        c.register_udp()
    sc.wait_for(lambda: all(c.udp_registered for c in sc.clients.values()), 10.0)
    for c in sc.clients.values():
        c.start_server_keepalives(interval=1.0)
    return sc


def test_retry_policy_reruns_ladder_after_nat_reboot():
    """§3.6 on demand: when the punched hole dies, the application re-runs
    the ladder from the channel's breakage hook and gets a fresh channel."""
    sc = _punched_pair_with_keepalives(seed=71)
    connector = P2PConnector(sc.clients["A"], transport=TRANSPORT_UDP, phase_timeout=6.0)
    results = rerun_ladder_on_break(
        connector, 2, lambda _result: None, retries=3, backoff=0.5, cap=8.0
    )
    sc.wait_for(lambda: results, 30.0)
    assert results[0].strategy == STRATEGY_PUNCH
    sc.inject_faults(FaultPlan([(sc.scheduler.now + 1.0, FAULT_NAT_REBOOT, "A")]))
    sc.wait_for(lambda: len(results) >= 2, 60.0)
    recovered = results[1]
    assert recovered.connected
    assert recovered.channel is not results[0].channel
    assert results[0].channel.broken


def test_retry_policy_off_by_default():
    """The ladder runs once per connect: a won channel that later breaks
    fires its hook, and the connector re-runs nothing by itself."""
    sc = _punched_pair_with_keepalives(seed=72)
    connector = P2PConnector(sc.clients["A"], transport=TRANSPORT_UDP, phase_timeout=6.0)
    results = []
    connector.connect(2, on_result=results.append)
    sc.wait_for(lambda: results, 30.0)
    broken = []
    results[0].channel.on_broken = lambda: broken.append(sc.scheduler.now)
    sc.inject_faults(FaultPlan([(sc.scheduler.now + 1.0, FAULT_NAT_REBOOT, "A")]))
    sc.run_for(60.0)
    assert len(broken) == 1
    assert len(results) == 1
    assert 2 not in sc.clients["A"].sessions  # nothing punched the peer again


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
