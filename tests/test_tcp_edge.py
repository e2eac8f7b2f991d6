"""TCP edge cases: wraparound, half-open, RST mid-stream, TIME_WAIT, ICMP."""

import pytest

from repro.netsim.addresses import Endpoint
from repro.netsim.packet import IcmpError, IcmpType, IpProtocol, icmp_error_for, tcp_packet, TcpFlags
from repro.transport.tcp import TIME_WAIT_SECONDS, TcpState
from repro.util.errors import ConnectionError_

from tests.conftest import make_lan_pair, run_until

B_EP = Endpoint("192.0.2.2", 80)


class _FixedIss:
    """RNG stub steering initial sequence numbers toward wraparound."""

    def __init__(self, iss):
        self.iss = iss

    def nonce32(self):
        return self.iss


def test_sequence_number_wraparound_transfer():
    """Data transfer across the 2^32 sequence boundary stays in order."""
    net, a, b = make_lan_pair()
    a.stack.tcp._rng = _FixedIss((1 << 32) - 50)
    b.stack.tcp._rng = _FixedIss((1 << 32) - 10)
    accepted = []
    b.stack.tcp.listen(80, on_accept=accepted.append)
    client = a.stack.tcp.connect(B_EP)
    run_until(net, lambda: accepted)
    got = []
    accepted[0].on_data = got.append
    for i in range(30):  # 300 bytes: crosses the boundary on both sides
        client.send(bytes([i]) * 10)
    net.run_until(net.now + 5)
    assert b"".join(got) == b"".join(bytes([i]) * 10 for i in range(30))


def test_rst_mid_stream_surfaces_error():
    net, a, b = make_lan_pair()
    accepted = []
    b.stack.tcp.listen(80, on_accept=accepted.append)
    client = a.stack.tcp.connect(B_EP)
    run_until(net, lambda: accepted)
    errors = []
    accepted[0].on_error = errors.append
    client.send(b"some data")
    net.run_until(net.now + 1)
    client.abort()
    net.run_until(net.now + 1)
    assert errors and errors[0].reason == "reset"


def test_half_open_peer_rsts_on_data():
    """A's connection vanishes silently; B's next data elicits an RST."""
    net, a, b = make_lan_pair()
    accepted = []
    b.stack.tcp.listen(80, on_accept=accepted.append)
    client = a.stack.tcp.connect(B_EP)
    run_until(net, lambda: accepted and client.established)
    # A's state evaporates without a FIN/RST reaching B (e.g. crash):
    client._cancel_rtx_timer()
    a.stack.tcp._remove_connection(client)
    client.state = TcpState.CLOSED
    errors = []
    accepted[0].on_error = errors.append
    accepted[0].send(b"anyone home?")
    net.run_until(net.now + 2)
    assert errors and errors[0].reason == "reset"


def test_time_wait_blocks_same_tuple_then_frees():
    net, a, b = make_lan_pair()
    accepted = []
    b.stack.tcp.listen(80, on_accept=accepted.append)
    client = a.stack.tcp.connect(B_EP, local_port=5555, reuse=True)
    run_until(net, lambda: accepted and client.established)
    # Full close from A's side: A transits TIME_WAIT.
    client.close()
    net.run_until(net.now + 0.5)
    accepted[0].close()
    run_until(net, lambda: client.state is TcpState.TIME_WAIT, 5.0)
    with pytest.raises(ConnectionError_):
        a.stack.tcp.connect(B_EP, local_port=5555, reuse=True)
    net.run_until(net.now + TIME_WAIT_SECONDS + 0.5)
    again = a.stack.tcp.connect(B_EP, local_port=5555, reuse=True)
    assert again.state is TcpState.SYN_SENT


def test_icmp_soft_error_ignored_when_established():
    net, a, b = make_lan_pair()
    accepted = []
    b.stack.tcp.listen(80, on_accept=accepted.append)
    client = a.stack.tcp.connect(B_EP)
    run_until(net, lambda: accepted and client.established)
    error = IcmpError(
        icmp_type=IcmpType.DEST_UNREACHABLE,
        original_proto=IpProtocol.TCP,
        original_src=client.local,
        original_dst=client.remote,
    )
    a.stack.tcp.handle_icmp(error)
    assert client.established  # soft error: connection survives
    got = []
    accepted[0].on_data = got.append
    client.send(b"still fine")
    net.run_until(net.now + 1)
    assert got == [b"still fine"]


def test_icmp_aborts_connect_in_syn_sent():
    net, a, b = make_lan_pair()
    errors = []
    client = a.stack.tcp.connect(Endpoint("192.0.2.99", 80), on_error=errors.append)
    error = IcmpError(
        icmp_type=IcmpType.ADMIN_PROHIBITED,
        original_proto=IpProtocol.TCP,
        original_src=client.local,
        original_dst=client.remote,
    )
    a.stack.tcp.handle_icmp(error)
    assert errors and errors[0].reason == "unreachable"


def test_listener_close_refuses_new_connections():
    net, a, b = make_lan_pair()
    listener = b.stack.tcp.listen(80)
    listener.close()
    errors = []
    a.stack.tcp.connect(B_EP, on_error=errors.append)
    run_until(net, lambda: errors)
    assert errors[0].reason == "reset"


def test_close_with_unsent_data_flushes_first():
    """close() after send(): the FIN trails the data and all bytes arrive."""
    net, a, b = make_lan_pair()
    accepted = []
    b.stack.tcp.listen(80, on_accept=accepted.append)
    client = a.stack.tcp.connect(B_EP)
    run_until(net, lambda: accepted)
    got, closed = [], []
    accepted[0].on_data = got.append
    accepted[0].on_close = lambda: closed.append(True)
    client.send(b"last words")
    client.close()
    net.run_until(net.now + 2)
    assert got == [b"last words"]
    assert closed == [True]


def test_stale_syn_ack_refused_with_rst():
    """A SYN-ACK acking a sequence we never sent gets an RST (RFC 793 p72)."""
    net, a, b = make_lan_pair()
    net.trace.enable()
    client = a.stack.tcp.connect(B_EP)  # B not listening; ignore its RSTs
    # Craft a mismatched SYN-ACK from B's endpoint before B's RST arrives.
    ghost = tcp_packet(B_EP, client.local, TcpFlags.SYN | TcpFlags.ACK,
                       seq=12345, ack=999)  # wrong ack
    b.send(ghost)
    net.run_until(net.now + 0.2)
    rsts = [r for r in net.trace.sent(IpProtocol.TCP)
            if r.sender == "hostA" and r.packet.tcp.is_rst]
    assert rsts


def test_data_delivery_callback_exceptions_do_not_wedge_stack():
    """A misbehaving on_data callback must not corrupt connection state."""
    net, a, b = make_lan_pair()
    accepted = []
    b.stack.tcp.listen(80, on_accept=accepted.append)
    client = a.stack.tcp.connect(B_EP)
    run_until(net, lambda: accepted)
    calls = []

    def flaky(data):
        calls.append(data)
        if len(calls) == 1:
            raise RuntimeError("app bug")

    accepted[0].on_data = flaky
    client.send(b"first")
    with pytest.raises(RuntimeError):
        net.run_until(net.now + 1)
    # The stack recovers: subsequent traffic still flows.
    client.send(b"second")
    net.run_until(net.now + 2)
    assert calls[-1] == b"second"


# -- per-state dispatch: the static table vs. the per-call dict it replaced ---

def _reference_handler(conn):
    """The dispatch dict ``handle_segment`` used to build on every call."""
    return {
        TcpState.SYN_SENT: conn._segment_in_syn_sent,
        TcpState.SYN_RCVD: conn._segment_in_syn_rcvd,
        TcpState.ESTABLISHED: conn._segment_in_established,
        TcpState.FIN_WAIT_1: conn._segment_in_established,
        TcpState.FIN_WAIT_2: conn._segment_in_established,
        TcpState.CLOSE_WAIT: conn._segment_in_established,
        TcpState.CLOSING: conn._segment_in_established,
        TcpState.LAST_ACK: conn._segment_in_established,
        TcpState.TIME_WAIT: conn._segment_in_time_wait,
    }.get(conn.state)


@pytest.mark.parametrize("state", list(TcpState), ids=lambda s: s.name)
def test_handle_segment_dispatches_as_the_per_call_dict_did(state, monkeypatch):
    from repro.transport import tcp as tcp_mod

    net, a, _b = make_lan_pair()
    conn = a.stack.tcp.connect(B_EP)
    conn.state = state
    expected = _reference_handler(conn)
    calls = []
    for handled_state, function in list(tcp_mod._SEGMENT_HANDLERS.items()):
        monkeypatch.setitem(
            tcp_mod._SEGMENT_HANDLERS,
            handled_state,
            lambda self, packet, function=function: calls.append((function, self, packet)),
        )
    segment = tcp_packet(B_EP, conn.local, TcpFlags.ACK, seq=1, ack=conn.snd_nxt, payload=b"x")
    conn.handle_segment(segment)
    if expected is None:  # CLOSED / LISTEN: a connection object ignores segments
        assert state in (TcpState.CLOSED, TcpState.LISTEN)
        assert calls == []
    else:
        assert calls == [(expected.__func__, conn, segment)]
    assert conn.state is state
