"""Parallel TCP hole punching (§4.2-§4.4) across NATs and OS styles."""

import pytest

from repro.core.tcp_punch import TcpPunchConfig
from repro.nat import behavior as B
from repro.netsim.link import LinkProfile
from repro.scenarios import (
    build_common_nat,
    build_multilevel,
    build_public_pair,
    build_two_nats,
)
from repro.transport.tcp import TcpStyle


def punch_tcp(scenario, timeout=60.0, config=None):
    scenario.register_all_tcp()
    result = {}
    scenario.clients["B"].on_peer_stream = lambda s: result.setdefault("b", s)
    scenario.clients["A"].connect_tcp(
        2,
        on_stream=lambda s: result.setdefault("a", s),
        on_failure=lambda e: result.setdefault("failure", e),
        config=config,
    )
    scenario.scheduler.run_while(
        lambda: not (("a" in result and "b" in result) or "failure" in result),
        scenario.scheduler.now + timeout,
    )
    return result


def exchange(scenario, result):
    got_a, got_b = [], []
    result["a"].on_data = got_a.append
    result["b"].on_data = got_b.append
    result["a"].send(b"from-a")
    result["b"].send(b"from-b")
    scenario.run_for(2.0)
    return got_a, got_b


STYLE_MATRIX = [
    (TcpStyle.BSD, TcpStyle.BSD),
    (TcpStyle.BSD, TcpStyle.LISTEN_PREFERRED),
    (TcpStyle.LISTEN_PREFERRED, TcpStyle.BSD),
    (TcpStyle.LISTEN_PREFERRED, TcpStyle.LISTEN_PREFERRED),
]


@pytest.mark.parametrize("style_a,style_b", STYLE_MATRIX,
                         ids=lambda s: getattr(s, "value", str(s)))
def test_two_nats_all_style_combinations(style_a, style_b):
    sc = build_two_nats(seed=21, tcp_style_a=style_a, tcp_style_b=style_b)
    result = punch_tcp(sc)
    assert "a" in result and "b" in result, result.get("failure")
    got_a, got_b = exchange(sc, result)
    assert got_b == [b"from-a"] and got_a == [b"from-b"]


def test_both_listen_preferred_yields_accept_streams():
    """§4.4: all connects fail; both apps get the stream via accept()."""
    sc = build_two_nats(seed=22, tcp_style_a=TcpStyle.LISTEN_PREFERRED,
                        tcp_style_b=TcpStyle.LISTEN_PREFERRED)
    result = punch_tcp(sc)
    assert result["a"].origin == "accept"
    assert result["b"].origin == "accept"


def test_bsd_pair_yields_connect_streams():
    sc = build_two_nats(seed=23)
    result = punch_tcp(sc)
    assert result["a"].origin == "connect"
    assert result["b"].origin == "connect"


def test_common_nat_tcp(self_seed=24):
    sc = build_common_nat(seed=self_seed)
    result = punch_tcp(sc)
    assert "a" in result
    got_a, got_b = exchange(sc, result)
    assert got_b == [b"from-a"]


def test_multilevel_tcp_with_hairpin():
    sc = build_multilevel(seed=25, nat_c_behavior=B.HAIRPIN_CAPABLE)
    result = punch_tcp(sc)
    assert "a" in result and "b" in result
    got_a, got_b = exchange(sc, result)
    assert got_b == [b"from-a"]


def test_multilevel_tcp_without_hairpin_fails():
    sc = build_multilevel(seed=26, nat_c_behavior=B.WELL_BEHAVED)
    result = punch_tcp(sc, timeout=40.0, config=TcpPunchConfig(timeout=15.0))
    assert "failure" in result


def test_public_pair_tcp():
    sc = build_public_pair(seed=27)
    result = punch_tcp(sc)
    assert "a" in result and "b" in result


def test_rst_nats_succeed_with_retries():
    """§5.2: active RST rejection is 'not necessarily fatal' — retries win.

    B's LAN is slowed so that A's SYN reaches B's NAT before B's own SYN has
    opened the hole there, and the NAT resets it; on an even race no SYN is
    ever refused."""
    sc = build_two_nats(seed=28, behavior_a=B.RST_SENDER, behavior_b=B.RST_SENDER)
    sc.net.links["lan-B"].profile = LinkProfile(latency=0.05)
    result = punch_tcp(sc)
    assert "a" in result and "b" in result
    # The punchers really did retry after a reset (read from the network's
    # registry: a finished puncher has left its client's book).
    metrics = sc.net.metrics
    metrics.collect()
    assert metrics.counter_value("tcp.syn_outcomes", outcome="reset") >= 1
    assert metrics.counter_value("punch.tcp.retries") >= 1
    got_a, got_b = exchange(sc, result)
    assert got_b == [b"from-a"]


def test_icmp_nats_succeed_with_retries():
    sc = build_two_nats(seed=29, behavior_a=B.ICMP_SENDER, behavior_b=B.ICMP_SENDER)
    result = punch_tcp(sc)
    assert "a" in result and "b" in result


def test_symmetric_tcp_fails():
    symmetric_tcp = B.WELL_BEHAVED.but(
        tcp_mapping=B.SYMMETRIC.mapping, port_allocation=B.SYMMETRIC_RANDOM.port_allocation
    )
    sc = build_two_nats(seed=30, behavior_a=symmetric_tcp, behavior_b=symmetric_tcp)
    result = punch_tcp(sc, timeout=40.0, config=TcpPunchConfig(timeout=12.0))
    assert "failure" in result


def test_stray_collision_rejected_tcp():
    """§4.2 step 5: connecting to the wrong host (same private address on
    our own LAN) must not yield the session."""
    sc = build_two_nats(seed=31, private_collision=True)
    decoy = sc.hosts["decoy"]
    decoy_accepts = []
    decoy.stack.tcp.listen(4321, on_accept=decoy_accepts.append)
    result = punch_tcp(sc)
    assert "a" in result
    # The decoy may have accepted a doomed connection, but the final stream
    # is with the real peer at its public endpoint.
    assert result["a"].remote.ip == sc.clients["B"].tcp_public.ip


def test_stream_select_converges_on_one_stream():
    sc = build_common_nat(seed=32)
    result = punch_tcp(sc)
    a, b = result["a"], result["b"]
    assert a.selected and b.selected
    # Exactly one surviving stream per side for this peer.
    census_a = sc.clients["A"].host.stack.tcp.port_census(4321)
    sc.run_for(3.0)


def test_punch_failure_cleans_up_connections():
    symmetric_tcp = B.WELL_BEHAVED.but(tcp_mapping=B.SYMMETRIC.mapping)
    sc = build_two_nats(seed=33, behavior_a=symmetric_tcp, behavior_b=symmetric_tcp)
    result = punch_tcp(sc, timeout=40.0, config=TcpPunchConfig(timeout=10.0))
    assert "failure" in result
    sc.run_for(5.0)
    assert sc.clients["A"].tcp_punchers == {}
    # Only the control connection survives on the local port.
    census = sc.clients["A"].host.stack.tcp.port_census(4321)
    assert census["connections"] == 1


def test_metrics_recorded():
    sc = build_two_nats(seed=34, behavior_a=B.RST_SENDER, behavior_b=B.RST_SENDER)
    sc.register_all_tcp()
    result = {}
    a = sc.clients["A"]
    a.connect_tcp(2, on_stream=lambda s: result.setdefault("a", s))
    # Snapshot the puncher while it is alive.
    sc.wait_for(lambda: 2 in a.tcp_punchers or "a" in result, 10.0)
    sc.scheduler.run_while(lambda: "a" not in result, sc.scheduler.now + 60.0)
    assert "a" in result


def test_config_timeout_respected():
    symmetric_tcp = B.WELL_BEHAVED.but(tcp_mapping=B.SYMMETRIC.mapping)
    sc = build_two_nats(seed=35, behavior_a=symmetric_tcp, behavior_b=symmetric_tcp)
    sc.register_all_tcp()
    failures = []
    started = sc.scheduler.now
    sc.clients["A"].connect_tcp(2, on_stream=lambda s: None,
                                on_failure=failures.append,
                                config=TcpPunchConfig(timeout=5.0))
    sc.wait_for(lambda: failures, 30.0)
    assert sc.scheduler.now - started < 7.0


@pytest.mark.parametrize("hello_already_sent", [True, False])
def test_authenticate_binds_the_stream_and_says_hello_once(hello_already_sent):
    """The one binding step (§4.2 step 5): identity recorded, and our Hello
    goes out exactly once however the stream came to be authenticated."""
    from repro.core.protocol import FrameBuffer, Hello
    from repro.core.tcp_punch import TcpStream

    class Wire:  # the slice of TcpConnection a stream touches
        on_data = on_close = on_error = None

        def __init__(self):
            self.sent = FrameBuffer()
            self.messages = []

        def send(self, data):
            self.messages.extend(self.sent.feed(data))

    client = build_two_nats(seed=35).clients["A"]
    wire = Wire()
    stream = TcpStream(client, wire, origin="accept")
    if hello_already_sent:
        stream.send_hello(2, 77)
    stream.authenticate(2, 77)
    stream.authenticate(2, 77)  # a duplicate Hello from the peer re-binds
    assert (stream.peer_id, stream.nonce, stream.authenticated) == (2, 77, True)
    assert wire.messages == [Hello(sender=1, receiver=2, nonce=77)]
