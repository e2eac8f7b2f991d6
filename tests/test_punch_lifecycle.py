"""The hole-punch lifecycle both carriers share (§3.2, §4.2) and the §3.6
session ladder that follows it, pinned once per carrier: the span tree, the
counters, the flight attempts — and the joining of a second connect to the
same peer."""

import pytest

from repro.core.tcp_punch import TcpPunchConfig
from repro.core.turn import TurnServer
from repro.core.udp_punch import PunchConfig
from repro.nat import behavior as B
from repro.obs.spans import OUTCOME_LOCKED, OUTCOME_TIMEOUT
from repro.scenarios import build_two_nats
from repro.transport.stack import attach_stack

CARRIERS = ["udp", "tcp"]
#: The keepalive counter each carrier's session bumps.
KEEPALIVE_COUNTER = {"udp": "session.udp.keepalives", "tcp": "session.tcp.keepalives_sent"}


def _connect(sc, carrier, config=None):
    """Register on *carrier* and have A connect to B (id 2); returns the dict
    the outcome lands in (``a`` / ``b`` / ``error``)."""
    a, b = sc.clients["A"], sc.clients["B"]
    result = {}
    on_a = lambda s: result.setdefault("a", s)
    on_error = lambda e: result.setdefault("error", e)
    if carrier == "udp":
        sc.register_all_udp()
        b.on_peer_session = lambda s: result.setdefault("b", s)
        a.connect_udp(2, on_a, on_error, config=config)
    else:
        sc.register_all_tcp()
        b.on_peer_stream = lambda s: result.setdefault("b", s)
        a.connect_tcp(2, on_a, on_error, config=config)
    return result


def _connected(carrier, seed, keepalive=1.0):
    sc = build_two_nats(seed=seed, flight=True)
    if carrier == "udp":
        for client in sc.clients.values():
            client.punch_config = PunchConfig(keepalive_interval=keepalive)
    result = _connect(sc, carrier)
    sc.wait_for(lambda: "a" in result and "b" in result, 40.0)
    if carrier == "tcp":
        result["a"].start_keepalives(keepalive)
    return sc, result["a"], result["b"]


def _attempts(sc, name):
    return [a for a in sc.net.flight.attempts.values() if a.name == name]


@pytest.mark.parametrize("carrier", CARRIERS)
def test_locked_punch_span_tree_and_counters(carrier):
    sc, _, _ = _connected(carrier, seed=61)
    sc.run_for(1.0)  # the responder's lock-in may land a beat later
    reg = sc.net.metrics
    (connect,) = reg.find_spans("connect", recursive=False)
    assert connect.tags["transport"] == carrier and connect.outcome == OUTCOME_LOCKED
    assert [c.name for c in connect.children] == [f"punch.{carrier}"]
    assert connect.children[0].outcome == OUTCOME_LOCKED
    # The responder's punch is a root span of its own.
    roots = reg.find_spans(f"punch.{carrier}", recursive=False)
    assert [s.outcome for s in roots] == [OUTCOME_LOCKED]
    assert reg.counter_value(f"punch.{carrier}.succeeded") == 2
    assert reg.counter_value(f"punch.{carrier}.failed") == 0


@pytest.mark.parametrize("carrier", CARRIERS)
def test_timed_out_punch_span_tree_and_counters(carrier):
    sc = build_two_nats(seed=62, behavior_a=B.SYMMETRIC_RANDOM, flight=True)
    config = PunchConfig(timeout=4.0) if carrier == "udp" else TcpPunchConfig(timeout=4.0)
    result = _connect(sc, carrier, config)
    sc.wait_for(lambda: "error" in result, 10.0)
    sc.run_for(float(40 if carrier == "tcp" else 15))  # the responder times out too
    assert f"{carrier.upper()} hole punch to peer 2 timed out after 4.0s" in str(result["error"])
    reg = sc.net.metrics
    (connect,) = reg.find_spans("connect", recursive=False)
    assert connect.outcome == OUTCOME_TIMEOUT
    assert [(c.name, c.outcome) for c in connect.children] == [
        (f"punch.{carrier}", OUTCOME_TIMEOUT)
    ]
    assert reg.counter_value(f"punch.{carrier}.succeeded") == 0
    assert reg.counter_value(f"punch.{carrier}.failed") == 2
    (attempt,) = _attempts(sc, f"connect.{carrier}")
    assert attempt.outcome == "timeout"
    assert _attempts(sc, f"session.{carrier}") == []


@pytest.mark.parametrize("carrier", CARRIERS)
def test_session_attempt_parented_to_connect_and_closed(carrier):
    sc, sa, _ = _connected(carrier, seed=63)
    (connect,) = _attempts(sc, f"connect.{carrier}")
    assert connect.outcome == "connected"
    sessions = _attempts(sc, f"session.{carrier}")
    (mine,) = [s for s in sessions if s.parent is connect]
    # The responder had no connect attempt: its session is a root.
    assert [s.parent for s in sessions if s is not mine] == [None]
    sc.run_for(5.0)
    assert sc.net.metrics.counter_value(KEEPALIVE_COUNTER[carrier]) > 0
    sa.close()
    assert mine.outcome == "closed"


@pytest.mark.parametrize("carrier", CARRIERS)
def test_silent_session_breaks_once(carrier):
    sc, sa, _ = _connected(carrier, seed=64)
    (connect,) = _attempts(sc, f"connect.{carrier}")
    (mine,) = [s for s in _attempts(sc, f"session.{carrier}") if s.parent is connect]
    sc.net.links["backbone"].down()
    sc.run_for(10.0)
    assert sa.broken and sa.closed
    assert mine.outcome == "broken"
    broken = [
        e for e in sc.net.flight.events()
        if e.kind == "session.broken" and e.attrs["peer"] == 2
    ]
    assert len(broken) == 1
    # UDP: both ends probe and both break; TCP: only A armed its probes.
    expected = 2 if carrier == "udp" else 1
    assert sc.net.metrics.counter_value(f"session.{carrier}.broken") == expected


def test_idle_tcp_stream_keepalive_cadence():
    """§3.6 on a punched stream: with nothing else to send, an idle stream
    probes once per interval — the same rule UDP sessions follow, so float
    drift in the timer chain cannot skip an interval."""
    sc, sa, _ = _connected("tcp", seed=65, keepalive=0.7)
    before = sa.keepalives_sent
    sc.run_for(0.7 * 40)
    assert sa.keepalives_sent - before >= 39


# -- a second connect to the same peer joins the first ------------------------


def _outcomes():
    calls = []
    return calls, (lambda tag: lambda value: calls.append((tag, value)))


@pytest.mark.parametrize("carrier", CARRIERS)
def test_back_to_back_connects_both_hear_back(carrier):
    sc = build_two_nats(seed=3, flight=True)
    if carrier == "udp":
        sc.register_all_udp()
        connect = sc.clients["A"].connect_udp
    else:
        sc.register_all_tcp()
        connect = sc.clients["A"].connect_tcp
    calls, note = _outcomes()
    connect(2, note("first"), note("first-failed"))
    connect(2, note("second"), note("second-failed"))
    sc.run_for(45.0)
    assert [tag for tag, _ in calls] == ["first", "second"]
    assert calls[0][1] is calls[1][1]
    (span,) = sc.net.metrics.find_spans("connect", recursive=False)
    assert span.outcome == OUTCOME_LOCKED
    (attempt,) = _attempts(sc, f"connect.{carrier}")
    assert attempt.outcome == "connected"


@pytest.mark.parametrize("carrier", CARRIERS)
def test_connect_during_punch_joins_it(carrier):
    """A connect issued while a punch toward that peer is running (endpoints
    received, not yet locked in) gets that punch's outcome instead of
    waiting out the endpoint-exchange deadline."""
    sc = build_two_nats(seed=3)
    a = sc.clients["A"]
    if carrier == "udp":
        sc.register_all_udp()
        connect, punchers = a.connect_udp, a.punchers
    else:
        sc.register_all_tcp()
        connect, punchers = a.connect_tcp, a.tcp_punchers
    calls, note = _outcomes()
    connect(2, note("first"), note("first-failed"))
    sc.scheduler.run_while(lambda: 2 not in punchers, sc.scheduler.now + 5.0)
    assert 2 in punchers and not calls
    started = sc.scheduler.now
    connect(2, note("second"), note("second-failed"))
    sc.scheduler.run_while(lambda: len(calls) < 2, started + 40.0)
    assert [tag for tag, _ in calls] == ["first", "second"]
    assert calls[0][1] is calls[1][1]
    assert sc.scheduler.now - started < 1.0


@pytest.mark.parametrize("carrier", CARRIERS)
def test_connect_joins_responder_punch(carrier):
    """B is punching toward A as the responder when B's application asks
    for A itself: the connect rides that punch."""
    sc = build_two_nats(seed=3)
    a, b = sc.clients["A"], sc.clients["B"]
    if carrier == "udp":
        sc.register_all_udp()
        a_connect, b_connect, punchers = a.connect_udp, b.connect_udp, b.punchers
    else:
        sc.register_all_tcp()
        a_connect, b_connect, punchers = a.connect_tcp, b.connect_tcp, b.tcp_punchers
    calls, note = _outcomes()
    a_connect(2, note("a"), note("a-failed"))
    sc.scheduler.run_while(lambda: 1 not in punchers, sc.scheduler.now + 5.0)
    assert 1 in punchers
    started = sc.scheduler.now
    b_connect(1, note("b"), note("b-failed"))
    b_calls = lambda: [tag for tag, _ in calls if tag.startswith("b")]
    sc.scheduler.run_while(lambda: not b_calls(), started + 40.0)
    assert b_calls() == ["b"]
    assert sc.scheduler.now - started < 1.0


def test_back_to_back_turn_connects_both_hear_back():
    sc = build_two_nats(seed=3)
    relay_host = sc.net.add_host(
        "relay", ip="30.0.0.1", network="0.0.0.0/0", link=sc.net.links["backbone"]
    )
    attach_stack(relay_host)
    turn = TurnServer(relay_host)
    sc.register_all_udp()
    for client in sc.clients.values():
        client.enable_turn(turn.endpoint)
    calls, note = _outcomes()
    a = sc.clients["A"]
    a.connect_via_turn(2, note("first"), note("first-failed"))
    a.connect_via_turn(2, note("second"), note("second-failed"))
    sc.run_for(15.0)
    assert [tag for tag, _ in calls] == ["first", "second"]
    assert calls[0][1] is calls[1][1]
