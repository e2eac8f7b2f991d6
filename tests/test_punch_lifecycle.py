"""The hole-punch lifecycle every connect technique shares — UDP and TCP
punching (§3.2, §4.2), connection reversal (§2.3), sequential punching
(§4.5) and the TURN pair's opener handshake (§2.2) — and the §3.6 session
ladder that follows the two parallel punches and the TURN handshake, pinned
once per technique: the span tree, the counters, the flight attempts and
their verdicts — and the joining of a second connect to the same peer."""

import pytest

from repro.core.tcp_punch import TcpPunchConfig
from repro.core.tcp_sequential import SequentialConfig
from repro.core.turn import TurnServer
from repro.core.udp_punch import PunchConfig
from repro.nat import behavior as B
from repro.obs.attribution import CAT_FILTERED, CAT_REFUSED, CAT_UNKNOWN, explain
from repro.obs.spans import OUTCOME_LOCKED, OUTCOME_TIMEOUT
from repro.scenarios import build_one_sided, build_two_nats
from repro.transport.stack import attach_stack

CARRIERS = ["udp", "tcp"]
#: What S may refuse: it forwards a TurnExchange or drops it.
REQUESTS = CARRIERS + ["reversal", "sequential"]
TECHNIQUES = REQUESTS + ["turn"]
#: The techniques whose punch leaves a session of its own — and where the
#: responder punches too (a root span): a reversal or sequential responder
#: only dials or listens.
SESSIONS = CARRIERS + ["turn"]
#: The keepalive counter each session bumps.
KEEPALIVE_COUNTER = {
    "udp": "session.udp.keepalives",
    "tcp": "session.tcp.keepalives_sent",
    "turn": "session.turn.keepalives",
}
#: Reversal needs a reachable requester: B (public in build_one_sided) asks
#: A (id 1).  With every other technique A asks B (id 2).
PEER = {"reversal": 1}
#: A seeded scenario in which each technique connects.
SCENARIO = {
    "udp": (build_two_nats, 3),
    "tcp": (build_two_nats, 3),
    "reversal": (build_one_sided, 51),
    "sequential": (build_two_nats, 41),
    "turn": (build_two_nats, 3),
}


def _enable_turn(sc):
    """A TURN server on the backbone, and every client allocating on it."""
    host = sc.net.add_host(
        "relay", ip="30.0.0.1", network="0.0.0.0/0", link=sc.net.links["backbone"]
    )
    attach_stack(host)
    turn = TurnServer(host)
    for client in sc.clients.values():
        client.enable_turn(turn.endpoint)
    return turn


def _turn_dies_after_allocation(sc, turn):
    """TURN crosses any NAT pair; its handshake fails only when the relay
    dies after both sides allocated (S still forwards the exchange, but the
    openers never cross)."""
    relays = []
    for client in sc.clients.values():
        client.turn.allocate(relays.append)
    sc.wait_for(lambda: len(relays) == 2, 5.0)
    turn.stop()


def _requester(sc, technique, peer=None, timeout=None):
    """Register what *technique* rides; returns ``connect(on_connected,
    on_failure)`` — the requester asking *peer* (default: its usual peer) —
    and the usual peer's client."""
    usual = PEER.get(technique, 2)
    peer = usual if peer is None else peer
    requester = sc.clients["B" if usual == 1 else "A"]
    target = sc.clients["A" if usual == 1 else "B"]
    if technique == "udp":
        sc.register_all_udp()
        config = PunchConfig(timeout=timeout) if timeout else None
        return lambda ok, fail: requester.connect_udp(peer, ok, fail, config=config), target
    if technique == "turn":
        if requester.turn is None:
            _enable_turn(sc)
        sc.register_all_udp()
        return (
            lambda ok, fail: requester.connect_via_turn(peer, ok, fail, timeout=timeout or 10.0),
            target,
        )
    sc.register_all_tcp()
    if technique == "tcp":
        config = TcpPunchConfig(timeout=timeout) if timeout else None
        return lambda ok, fail: requester.connect_tcp(peer, ok, fail, config=config), target
    if technique == "reversal":
        return (
            lambda ok, fail: requester.request_reversal(peer, ok, fail, timeout=timeout or 15.0),
            target,
        )
    if timeout:
        requester.sequential_config = SequentialConfig(timeout=timeout)
    return lambda ok, fail: requester.connect_tcp_sequential(peer, ok, fail), target


def _connect(sc, technique, timeout=None):
    """Have the requester connect to its peer by *technique*; returns the
    dict the outcome lands in (``a`` / ``b`` / ``error``)."""
    connect, target = _requester(sc, technique, timeout=timeout)
    result = {}
    incoming = lambda s: result.setdefault("b", s)
    if technique == "udp":
        target.on_peer_session = incoming
    elif technique == "turn":
        target.on_turn_session = incoming
    else:
        target.on_peer_stream = incoming
    connect(lambda s: result.setdefault("a", s), lambda e: result.setdefault("error", e))
    return result


def _connected(carrier, seed, keepalive=1.0):
    sc = build_two_nats(seed=seed, flight=True)
    if carrier == "udp":
        for client in sc.clients.values():
            client.punch_config = PunchConfig(keepalive_interval=keepalive)
    result = _connect(sc, carrier)
    sc.wait_for(lambda: "a" in result and "b" in result, 40.0)
    if carrier != "udp":
        result["a"].start_keepalives(keepalive)
    return sc, result["a"], result["b"]


def _attempts(sc, name):
    return [a for a in sc.net.flight.attempts.values() if a.name == name]


@pytest.mark.parametrize("technique", TECHNIQUES)
def test_locked_punch_span_tree_and_counters(technique):
    build = build_one_sided if technique == "reversal" else build_two_nats
    sc = build(seed=61, flight=True)
    result = _connect(sc, technique)
    sc.wait_for(lambda: "a" in result and "b" in result, 40.0)
    sc.run_for(1.0)  # the responder's lock-in may land a beat later
    reg = sc.net.metrics
    (connect,) = reg.find_spans("connect", recursive=False)
    assert connect.tags["transport"] == technique and connect.outcome == OUTCOME_LOCKED
    assert [c.name for c in connect.children] == [f"punch.{technique}"]
    assert connect.children[0].outcome == OUTCOME_LOCKED
    # The responder's parallel punch or TURN handshake is a root span of its
    # own; a reversal or sequential responder only dials or listens.
    both_punch = technique in SESSIONS
    roots = reg.find_spans(f"punch.{technique}", recursive=False)
    assert [s.outcome for s in roots] == [OUTCOME_LOCKED] * both_punch
    assert reg.counter_value(f"punch.{technique}.succeeded") == 1 + both_punch
    assert reg.counter_value(f"punch.{technique}.failed") == 0


@pytest.mark.parametrize("technique", TECHNIQUES)
def test_timed_out_punch_span_tree_and_counters(technique):
    sc = build_two_nats(seed=62, behavior_a=B.SYMMETRIC_RANDOM, flight=True)
    if technique == "turn":
        _turn_dies_after_allocation(sc, _enable_turn(sc))
    result = _connect(sc, technique, timeout=4.0)
    sc.wait_for(lambda: "error" in result, 10.0)
    sc.run_for(float(40 if technique == "tcp" else 15))  # the responder times out too
    peer = PEER.get(technique, 2)
    assert f"{technique.upper()} hole punch to peer {peer} timed out after 4.0s" in str(
        result["error"]
    )
    reg = sc.net.metrics
    (connect,) = reg.find_spans("connect", recursive=False)
    assert connect.outcome == OUTCOME_TIMEOUT
    assert [(c.name, c.outcome) for c in connect.children] == [
        (f"punch.{technique}", OUTCOME_TIMEOUT)
    ]
    assert reg.counter_value(f"punch.{technique}.succeeded") == 0
    assert reg.counter_value(f"punch.{technique}.failed") == 1 + (technique in SESSIONS)
    (attempt,) = _attempts(sc, f"connect.{technique}")
    assert attempt.outcome == "timeout"
    assert explain(attempt, sc.net.flight).category != CAT_UNKNOWN
    assert _attempts(sc, f"session.{technique}") == []


@pytest.mark.parametrize("carrier", SESSIONS)
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


@pytest.mark.parametrize("carrier", SESSIONS)
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
    # UDP: both ends probe and both break; TCP and TURN: only A armed its
    # probes.
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


@pytest.mark.parametrize("technique", TECHNIQUES)
def test_back_to_back_connects_both_hear_back(technique):
    """Regressions: a second sequential request made the peer re-dial the
    4-tuple of its first doomed connect (the run raised); a second reversal's
    nonce went to the first request, so the second waited out its timeout;
    a second TURN connect overwrote the first, which never heard back."""
    build, seed = SCENARIO[technique]
    sc = build(seed=seed, flight=True)
    connect, _ = _requester(sc, technique)
    calls, note = _outcomes()
    connect(note("first"), note("first-failed"))
    connect(note("second"), note("second-failed"))
    sc.run_for(45.0)
    assert [tag for tag, _ in calls] == ["first", "second"]
    assert calls[0][1] is calls[1][1]
    (span,) = sc.net.metrics.find_spans("connect", recursive=False)
    assert span.outcome == OUTCOME_LOCKED
    (attempt,) = _attempts(sc, f"connect.{technique}")
    assert attempt.outcome == "connected"


@pytest.mark.parametrize("technique", TECHNIQUES)
def test_connect_during_punch_joins_it(technique):
    """A connect issued while a punch toward that peer is running (S has
    answered, not yet locked in) gets that punch's outcome instead of
    waiting out the request deadline."""
    build, seed = SCENARIO[technique]
    sc = build(seed=seed)
    connect, target = _requester(sc, technique)
    peer = target.client_id
    punchers = sc.clients["B" if peer == 1 else "A"]._punch_books[technique]
    calls, note = _outcomes()
    connect(note("first"), note("first-failed"))
    sc.scheduler.run_while(lambda: peer not in punchers, sc.scheduler.now + 5.0)
    assert peer in punchers and not calls
    started = sc.scheduler.now
    connect(note("second"), note("second-failed"))
    sc.scheduler.run_while(lambda: len(calls) < 2, started + 40.0)
    assert [tag for tag, _ in calls] == ["first", "second"]
    assert calls[0][1] is calls[1][1]
    assert sc.scheduler.now - started < 1.0


@pytest.mark.parametrize("carrier", SESSIONS)
def test_connect_joins_responder_punch(carrier):
    """B is punching toward A as the responder when B's application asks
    for A itself: the connect rides that punch."""
    sc = build_two_nats(seed=3)
    a, b = sc.clients["A"], sc.clients["B"]
    if carrier == "udp":
        sc.register_all_udp()
        a_connect, b_connect, punchers = a.connect_udp, b.connect_udp, b.punchers
    elif carrier == "turn":
        _enable_turn(sc)
        sc.register_all_udp()
        a_connect, b_connect = a.connect_via_turn, b.connect_via_turn
        punchers = b._punch_books["turn"]
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


# -- a refused request fails at once; every failure explains itself ----------


@pytest.mark.parametrize("technique", REQUESTS)
def test_refused_request_fails_at_once(technique):
    """S refuses a request for an unregistered peer within one round trip,
    and the connect fails then (a refused reversal or sequential request
    used to wait out its whole deadline) and explains as a refusal."""
    sc = build_two_nats(seed=3, flight=True)
    connect, _ = _requester(sc, technique, peer=99)
    failures = []
    started = sc.scheduler.now
    connect(lambda channel: None, failures.append)
    sc.scheduler.run_while(lambda: not failures, started + 40.0)
    assert sc.scheduler.now - started < 1.0
    assert "not registered" in str(failures[0])
    (attempt,) = _attempts(sc, f"connect.{technique}")
    assert attempt.outcome == "error"
    assert explain(attempt, sc.net.flight).category == CAT_REFUSED


#: Every way a connect ends, with a seeded scenario for it: S refuses only
#: the requests it may refuse.
DRAIN_CASES = [
    (technique, outcome)
    for technique in TECHNIQUES
    for outcome in ("locked", "timed-out", "refused")
    if outcome != "refused" or technique in REQUESTS
]


@pytest.mark.parametrize("technique,outcome", DRAIN_CASES)
def test_connect_book_drains(technique, outcome):
    """Whatever a connect's outcome, its record has left the client's book
    and its ``connect`` span and ``connect.<t>`` attempt are finished."""
    if outcome == "locked":
        build, seed = SCENARIO[technique]
        sc = build(seed=seed, flight=True)
    else:
        sc = build_two_nats(
            seed=62 if outcome == "timed-out" else 3,
            behavior_a=B.SYMMETRIC_RANDOM if outcome == "timed-out" else B.WELL_BEHAVED,
            flight=True,
        )
    if technique == "turn" and outcome == "timed-out":
        _turn_dies_after_allocation(sc, _enable_turn(sc))
    connect, _ = _requester(
        sc, technique, peer=99 if outcome == "refused" else None, timeout=4.0
    )
    calls, note = _outcomes()
    connect(note("connected"), note("failed"))
    sc.scheduler.run_while(lambda: not calls, sc.scheduler.now + 40.0)
    assert [tag for tag, _ in calls] == ["connected" if outcome == "locked" else "failed"]
    assert [c._connects for c in sc.clients.values()] == [{}, {}]
    spans = sc.net.metrics.find_spans("connect", recursive=False)
    attempts = _attempts(sc, f"connect.{technique}")
    assert len(spans) == len(attempts) == 1
    assert spans[0].finished and attempts[0].finished


def test_timed_out_reversal_explains():
    """§2.3's limitation — the requester is behind a NAT too, so the dial
    back dies at its NAT's filter — is named, not ``unknown``."""
    sc = build_two_nats(seed=52, flight=True)
    result = _connect(sc, "reversal", timeout=10.0)
    sc.wait_for(lambda: "error" in result, 30.0)
    (attempt,) = _attempts(sc, "connect.reversal")
    assert attempt.outcome == "timeout"
    assert explain(attempt, sc.net.flight).category == CAT_FILTERED


def test_refused_sequential_dial_explains():
    """A's dial leaves its symmetric NAT from a port B's NAT never saw, and
    B's NAT resets it: the punch fails at once, and the NAT evidence — not
    the refusal rule — explains it."""
    sc = build_two_nats(
        seed=62, behavior_a=B.SYMMETRIC_RANDOM, behavior_b=B.RST_SENDER, flight=True
    )
    result = _connect(sc, "sequential", timeout=4.0)
    sc.wait_for(lambda: "error" in result, 10.0)
    assert "sequential punch dial to peer 2 failed: reset" in str(result["error"])
    (attempt,) = _attempts(sc, "connect.sequential")
    assert attempt.outcome == "error"
    assert explain(attempt, sc.net.flight).category not in (CAT_UNKNOWN, CAT_REFUSED)


# -- TURN: a handshake that never crosses fails; refusals leave it alone -------


def test_turn_connect_fails_when_the_relay_dies():
    """Regression: once S had forwarded the exchange, a TURN connect whose
    openers never crossed called neither callback, and the connector's
    ladder hung on its TURN rung."""
    sc = build_two_nats(seed=5, behavior_a=B.SYMMETRIC_RANDOM, behavior_b=B.SYMMETRIC_RANDOM)
    _turn_dies_after_allocation(sc, _enable_turn(sc))
    connect, _ = _requester(sc, "turn", timeout=5.0)
    calls = []
    started = sc.scheduler.now
    connect(
        lambda session: calls.append(("ok", session)),
        lambda error: calls.append((sc.scheduler.now - started, error)),
    )
    sc.run_for(30.0)
    ((elapsed, error),) = calls
    assert elapsed <= 2 * 5.0
    assert "peer 2" in str(error)
    assert sc.clients["A"]._punch_books["turn"] == {}


def test_refusal_of_another_request_leaves_a_turn_connect_alone():
    """S never refuses a TurnExchange, and a RendezvousError names no
    request: a UDP refusal that lands while a TURN connect is pending must
    not fail it."""
    sc = build_two_nats(seed=3)
    connect, _ = _requester(sc, "turn")
    calls, note = _outcomes()
    connect(note("turn"), note("turn-failed"))
    sc.clients["A"].connect_udp(99, note("udp"), note("udp-failed"))
    sc.run_for(15.0)
    assert [tag for tag, _ in calls] == ["udp-failed", "turn"]
