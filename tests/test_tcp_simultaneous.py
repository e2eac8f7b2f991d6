"""Simultaneous open (§4.4) and the §4.3 OS dispatch styles."""

import pytest

from repro.netsim.addresses import Endpoint
from repro.transport.tcp import TcpState, TcpStyle
from repro.util.errors import ConnectionError_

from tests.conftest import make_lan_pair, run_until, wire_tap

A_EP = Endpoint("192.0.2.1", 7000)
B_EP = Endpoint("192.0.2.2", 7000)


def test_plain_simultaneous_open_bsd():
    """Two connects cross on the wire; both succeed via connect() (§4.4)."""
    net, a, b = make_lan_pair(style_a=TcpStyle.BSD, style_b=TcpStyle.BSD)
    results = {"a": [], "b": []}
    ca = a.stack.tcp.connect(B_EP, local_port=7000,
                             on_connected=lambda c: results["a"].append("connected"),
                             on_error=lambda e: results["a"].append(e.reason))
    cb = b.stack.tcp.connect(A_EP, local_port=7000,
                             on_connected=lambda c: results["b"].append("connected"),
                             on_error=lambda e: results["b"].append(e.reason))
    run_until(net, lambda: results["a"] and results["b"])
    assert results == {"a": ["connected"], "b": ["connected"]}
    assert ca.state is TcpState.ESTABLISHED
    assert cb.state is TcpState.ESTABLISHED


def test_simultaneous_open_data_flows():
    net, a, b = make_lan_pair()
    conns = {}
    a.stack.tcp.connect(B_EP, local_port=7000, on_connected=lambda c: conns.setdefault("a", c))
    b.stack.tcp.connect(A_EP, local_port=7000, on_connected=lambda c: conns.setdefault("b", c))
    run_until(net, lambda: len(conns) == 2)
    got = []
    conns["b"].on_data = got.append
    conns["a"].send(b"over the crossed SYNs")
    net.run_until(net.now + 1)
    assert got == [b"over the crossed SYNs"]


def test_listen_preferred_incoming_syn_goes_to_listener():
    """§4.3 behaviour 2: with a listener present, the in-flight connect()
    fails with address-in-use and the stream arrives via accept()."""
    net, a, b = make_lan_pair(style_a=TcpStyle.LISTEN_PREFERRED)
    accepted = []
    a.stack.tcp.listen(7000, on_accept=accepted.append, reuse=True)
    a_events = []
    a.stack.tcp.connect(B_EP, local_port=7000, reuse=True,
                        on_connected=lambda c: a_events.append("connected"),
                        on_error=lambda e: a_events.append(e.reason))
    # B has no listener: its SYN_SENT socket handles the crossing SYN.
    b_events = []
    b.stack.tcp.connect(A_EP, local_port=7000,
                        on_connected=lambda c: b_events.append("connected"),
                        on_error=lambda e: b_events.append(e.reason))
    run_until(net, lambda: accepted and a_events and b_events)
    assert a_events == ["address-in-use"]
    assert b_events == ["connected"]
    assert accepted[0].state is TcpState.ESTABLISHED


def test_listen_preferred_accepted_stream_works():
    net, a, b = make_lan_pair(style_a=TcpStyle.LISTEN_PREFERRED)
    accepted = []
    a.stack.tcp.listen(7000, on_accept=accepted.append, reuse=True)
    a.stack.tcp.connect(B_EP, local_port=7000, reuse=True,
                        on_error=lambda e: None)
    b_conn = {}
    b.stack.tcp.connect(A_EP, local_port=7000,
                        on_connected=lambda c: b_conn.setdefault("c", c))
    run_until(net, lambda: accepted and "c" in b_conn)
    got = []
    accepted[0].on_data = got.append
    b_conn["c"].send(b"to the accept side")
    net.run_until(net.now + 1)
    assert got == [b"to the accept side"]


def test_bsd_style_syn_goes_to_connecting_socket_despite_listener():
    """§4.3 behaviour 1: BSD handles the SYN on the connecting socket even
    when a listen socket exists on the same port."""
    net, a, b = make_lan_pair(style_a=TcpStyle.BSD)
    accepted = []
    a.stack.tcp.listen(7000, on_accept=accepted.append, reuse=True)
    a_events = []
    a.stack.tcp.connect(B_EP, local_port=7000, reuse=True,
                        on_connected=lambda c: a_events.append("connected"))
    b.stack.tcp.connect(A_EP, local_port=7000, on_error=lambda e: None)
    run_until(net, lambda: a_events)
    assert a_events == ["connected"]
    assert accepted == []  # nothing happened on the listen socket


def test_both_listen_preferred_both_accept():
    """§4.4: both connects fail, both sides get streams via accept() — 'as
    if the TCP stream created itself on the wire'."""
    net, a, b = make_lan_pair(
        style_a=TcpStyle.LISTEN_PREFERRED, style_b=TcpStyle.LISTEN_PREFERRED
    )
    accepted = {"a": [], "b": []}
    connect_errors = {"a": [], "b": []}
    a.stack.tcp.listen(7000, on_accept=accepted["a"].append, reuse=True)
    b.stack.tcp.listen(7000, on_accept=accepted["b"].append, reuse=True)
    a.stack.tcp.connect(B_EP, local_port=7000, reuse=True,
                        on_error=lambda e: connect_errors["a"].append(e.reason))
    b.stack.tcp.connect(A_EP, local_port=7000, reuse=True,
                        on_error=lambda e: connect_errors["b"].append(e.reason))
    run_until(net, lambda: accepted["a"] and accepted["b"])
    assert connect_errors == {"a": ["address-in-use"], "b": ["address-in-use"]}
    got = []
    accepted["b"][0].on_data = got.append
    accepted["a"][0].send(b"self-created stream")
    net.run_until(net.now + 1)
    assert got == [b"self-created stream"]


def test_syn_ack_replays_original_sequence_number():
    """§4.3: the SYN-ACK's SYN part replays the original outbound SYN."""
    net, a, b = make_lan_pair()
    with wire_tap(net) as records:
        a.stack.tcp.connect(B_EP, local_port=7000)
        b.stack.tcp.connect(A_EP, local_port=7000)
        net.run_until(net.now + 2)
    from repro.netsim.packet import IpProtocol

    records = [r for r in records
               if r.event == "sent" and r.packet.proto is IpProtocol.TCP]
    syns = {}
    for r in records:
        hdr = r.packet.tcp
        if hdr.is_syn_only:
            syns[r.sender] = hdr.seq
    for r in records:
        hdr = r.packet.tcp
        if hdr.is_syn_ack:
            assert hdr.seq == syns[r.sender]


def test_duplicate_syn_in_syn_rcvd_replays_syn_ack():
    net, a, b = make_lan_pair()
    conns = {}
    with wire_tap(net) as records:
        a.stack.tcp.connect(B_EP, local_port=7000, on_connected=lambda c: conns.setdefault("a", c))
        b.stack.tcp.connect(A_EP, local_port=7000, on_connected=lambda c: conns.setdefault("b", c))
        run_until(net, lambda: len(conns) == 2)
    # Replay A's original SYN at B: B must not break, just re-ACK.
    from repro.netsim.packet import IpProtocol

    a_syn = next(
        r.packet for r in records
        if r.event == "sent" and r.packet.proto is IpProtocol.TCP
        and r.sender == "hostA" and r.packet.tcp.is_syn_only
    )
    a.send(a_syn.copy())
    net.run_until(net.now + 1)
    assert conns["b"].state is TcpState.ESTABLISHED
    got = []
    conns["b"].on_data = got.append
    conns["a"].send(b"still alive")
    net.run_until(net.now + 1)
    assert got == [b"still alive"]
