"""UDP sessions: data transfer, keepalives (§3.6), hole death, re-punch."""

import pytest

from repro.core.udp_punch import PunchConfig, UdpSession
from repro.nat import behavior as B
from repro.scenarios import build_two_nats
from repro.util.errors import TimeoutError_


def establish(seed=1, behavior=B.WELL_BEHAVED, config=None):
    sc = build_two_nats(seed=seed, behavior_a=behavior, behavior_b=behavior)
    if config is not None:
        for c in sc.clients.values():
            c.punch_config = config
    sc.register_all_udp()
    result = {}
    sc.clients["B"].on_peer_session = lambda s: result.setdefault("b", s)
    sc.clients["A"].connect_udp(2, on_session=lambda s: result.setdefault("a", s),
                                config=config)
    sc.wait_for(lambda: "a" in result and "b" in result, 20.0)
    return sc, result["a"], result["b"]


def test_bidirectional_data():
    sc, sa, sb = establish(seed=1)
    got_a, got_b = [], []
    sa.on_data = got_a.append
    sb.on_data = got_b.append
    sa.send(b"to-b")
    sb.send(b"to-a")
    sc.run_for(1.0)
    assert got_b == [b"to-b"]
    assert got_a == [b"to-a"]
    assert sa.bytes_sent == 4 and sa.bytes_received == 4


def test_many_messages_ordered_enough():
    sc, sa, sb = establish(seed=2)
    got = []
    sb.on_data = got.append
    for i in range(100):
        sa.send(f"m{i:03d}".encode())
    sc.run_for(2.0)
    assert len(got) == 100  # no loss on clean links
    assert got[0] == b"m000"


def test_keepalives_sent_when_idle():
    config = PunchConfig(keepalive_interval=5.0)
    sc, sa, sb = establish(seed=3, config=config)
    sc.run_for(30.0)
    assert sa.keepalives_sent >= 4
    assert sa.alive and sb.alive


def test_rearming_keepalives_keeps_one_probe_chain(monkeypatch):
    """An application that arms probes itself re-arms a session that already
    probes at ``keepalive_interval``: the new interval replaces the pending
    tick chain instead of running a second one beside it."""
    config = PunchConfig(keepalive_interval=1.0)
    sc, sa, sb = establish(seed=7, config=config)
    ticks = []
    tick = UdpSession._keepalive_tick

    def counted(session):
        ticks.append("a" if session is sa else "b")
        tick(session)

    monkeypatch.setattr(UdpSession, "_keepalive_tick", counted)
    sa.start_keepalives(1.0)
    sb.start_keepalives(1.0)
    sc.run_for(10.5)
    assert (ticks.count("a"), ticks.count("b")) == (10, 10)
    assert sa.alive and sb.alive


def test_data_resets_keepalive_need():
    config = PunchConfig(keepalive_interval=5.0)
    sc, sa, sb = establish(seed=4, config=config)
    sb.on_data = lambda d: None

    def chatter():
        if sa.alive:
            sa.send(b"chat")
            sc.scheduler.call_later(2.0, chatter)

    chatter()
    sc.run_for(30.0)
    assert sa.keepalives_sent == 0  # traffic kept the session busy


def test_keepalives_hold_nat_hole_open():
    """§3.6: keepalive interval < NAT timeout => session survives."""
    config = PunchConfig(keepalive_interval=8.0)
    sc, sa, sb = establish(seed=5, behavior=B.WELL_BEHAVED.but(udp_timeout=20.0),
                           config=config)
    sc.run_for(90.0)
    got = []
    sb.on_data = got.append
    sa.send(b"alive after 90s")
    sc.run_for(2.0)
    assert got == [b"alive after 90s"]


def test_hole_death_detected_when_keepalives_cannot_cross():
    """Keepalive interval > NAT timeout: the hole dies and both sides
    eventually declare the session broken (§3.6)."""
    config = PunchConfig(keepalive_interval=30.0, broken_after_missed=2)
    sc, sa, sb = establish(seed=6, behavior=B.WELL_BEHAVED.but(udp_timeout=10.0),
                           config=config)
    broken = []
    sa.on_broken = lambda: broken.append("a")
    sc.run_for(200.0)
    assert "a" in broken
    assert not sa.alive and sa.broken


def test_on_demand_repunch_after_break():
    """§3.6: instead of keepalives everywhere, re-run hole punching on
    demand when a session stops working.  Registration keepalives keep the
    path to S alive; the peer session's hole dies independently because the
    NAT keeps per-session idle timers."""
    config = PunchConfig(keepalive_interval=30.0, broken_after_missed=2, timeout=10.0)
    sc, sa, sb = establish(seed=7, behavior=B.WELL_BEHAVED.but(udp_timeout=10.0),
                           config=config)
    for c in sc.clients.values():
        c.start_server_keepalives(interval=5.0)
    # B goes idle (no keepalives): its NAT's per-session timer for the A
    # session expires, so A's keepalives stop crossing and A hears nothing.
    sb._keepalive_timer.cancel()
    repunched = {}
    a = sc.clients["A"]

    def on_broken():
        a.connect_udp(2, on_session=lambda s: repunched.setdefault("s", s), config=config)

    sa.on_broken = on_broken
    fresh_b = {}
    sc.clients["B"].on_peer_session = lambda s: fresh_b.setdefault("s", s)
    sc.wait_for(lambda: "s" in repunched, 300.0)
    fresh = repunched["s"]
    assert fresh is not sa and fresh.alive
    sc.wait_for(lambda: "s" in fresh_b, 30.0)
    got = []
    fresh_b["s"].on_data = got.append
    fresh.send(b"back in business")
    sc.run_for(2.0)
    assert got == [b"back in business"]


def test_send_on_closed_session_raises():
    sc, sa, sb = establish(seed=8)
    sa.close()
    with pytest.raises(TimeoutError_):
        sa.send(b"x")
    assert sc.clients["A"].sessions == {}


def test_close_is_idempotent():
    sc, sa, sb = establish(seed=9)
    sa.close()
    sa.close()
    assert sa.closed


def test_peer_repunch_reuses_acks():
    """If the peer re-punches while our session is alive, we ack so it can
    re-lock quickly."""
    sc, sa, sb = establish(seed=10)
    b = sc.clients["B"]
    # B loses its session unilaterally and re-punches.
    sb.close()
    result = {}
    b.connect_udp(1, on_session=lambda s: result.setdefault("s", s))
    sc.wait_for(lambda: "s" in result, 15.0)
    assert result["s"].alive


def test_graceful_close_notifies_peer():
    """SessionClose lets the peer tear down immediately (no keepalive decay)."""
    sc, sa, sb = establish(seed=11)
    closed = []
    sb.on_closed_by_peer = lambda: closed.append(True)
    sa.close(notify_peer=True)
    sc.run_for(1.0)
    assert closed == [True]
    assert sb.closed and sa.closed
    assert sc.clients["A"].sessions == {} and sc.clients["B"].sessions == {}


def test_close_without_notify_leaves_peer_up():
    sc, sa, sb = establish(seed=12)
    sa.close()
    sc.run_for(1.0)
    assert not sb.closed
