"""TCP edge cases: wraparound, half-open, RST mid-stream, TIME_WAIT, ICMP."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.netsim.addresses import Endpoint
from repro.netsim.packet import (
    FIN_ACK, IcmpError, IcmpType, IpProtocol, icmp_error_for, tcp_packet, TcpFlags,
)
from repro.transport.tcp import TIME_WAIT_SECONDS, TcpState, TcpStyle, seq_add
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


# -- FIN piggybacked on data (RFC 793: the FIN sits after the bytes) ----------

def _established_pair():
    net, a, b = make_lan_pair()
    accepted = []
    b.stack.tcp.listen(80, on_accept=accepted.append)
    client = a.stack.tcp.connect(B_EP)
    run_until(net, lambda: accepted and client.established)
    server = accepted[0]
    got, closed = [], []
    server.on_data = got.append
    server.on_close = lambda: closed.append(True)
    return net, client, server, got, closed


def test_fin_piggybacked_on_data_is_accepted():
    net, client, server, got, closed = _established_pair()
    fin_seq = seq_add(client.snd_nxt, 3)
    server.handle_segment(
        tcp_packet(client.local, client.remote, FIN_ACK, seq=client.snd_nxt,
                   ack=client.rcv_nxt, payload=b"bye")
    )
    assert got == [b"bye"]
    assert server.state is TcpState.CLOSE_WAIT
    assert closed == [True]
    assert server.rcv_nxt == seq_add(fin_seq, 1)  # the FIN's own number is consumed


def test_out_of_order_fin_with_data_waits_for_the_gap():
    net, client, server, got, closed = _established_pair()
    start = client.snd_nxt
    late = tcp_packet(client.local, client.remote, FIN_ACK, seq=seq_add(start, 5),
                      ack=client.rcv_nxt, payload=b"world")
    server.handle_segment(late)
    assert got == [] and closed == []  # bytes buffered, FIN not in order yet
    assert server.state is TcpState.ESTABLISHED
    server.handle_segment(
        tcp_packet(client.local, client.remote, TcpFlags.ACK, seq=start,
                   ack=client.rcv_nxt, payload=b"hello")
    )
    assert got == [b"hello", b"world"]
    assert server.state is TcpState.ESTABLISHED and closed == []  # FIN must come again
    server.handle_segment(late)  # the sender's retransmission
    assert got == [b"hello", b"world"]  # its bytes are a pure duplicate now
    assert server.state is TcpState.CLOSE_WAIT and closed == [True]
    assert server.rcv_nxt == seq_add(start, 11)


# -- demultiplexing on (local, remote) session keys -----------------------------

def _rebuilt(endpoint):
    """An equal endpoint that is a different object, as a NAT rewrite leaves."""
    clone = Endpoint(str(endpoint.ip), endpoint.port)
    assert clone == endpoint and clone is not endpoint
    return clone


def test_demux_separates_connections_differing_only_in_remote_port():
    net, a, b = make_lan_pair()
    accepted = []
    b.stack.tcp.listen(80, on_accept=accepted.append)
    first = a.stack.tcp.connect(B_EP, local_port=1001)
    second = a.stack.tcp.connect(B_EP, local_port=1002)
    run_until(net, lambda: len(accepted) == 2)
    inbox = {conn.remote.port: [] for conn in accepted}
    for conn in accepted:
        conn.on_data = inbox[conn.remote.port].append
    first.send(b"via 1001")
    second.send(b"via 1002")
    net.run_until(net.now + 1)
    assert inbox == {1001: [b"via 1001"], 1002: [b"via 1002"]}
    assert len(b.stack.tcp.connections) == 2


def test_demux_finds_connection_for_equal_but_not_identical_endpoints():
    net, client, server, got, _closed = _established_pair()
    segment = tcp_packet(_rebuilt(client.local), _rebuilt(client.remote), TcpFlags.ACK,
                         seq=client.snd_nxt, ack=client.rcv_nxt, payload=b"rewritten")
    rsts = server.stack.rsts_sent
    server.stack.handle_packet(segment)
    assert got == [b"rewritten"]
    assert server.stack.rsts_sent == rsts  # matched a connection, not refused


def test_icmp_reaches_connection_through_rebuilt_endpoints():
    net, a, b = make_lan_pair()
    errors = []
    client = a.stack.tcp.connect(Endpoint("192.0.2.99", 80), on_error=errors.append)
    a.stack.tcp.handle_icmp(
        IcmpError(
            icmp_type=IcmpType.PORT_UNREACHABLE,
            original_proto=IpProtocol.TCP,
            original_src=_rebuilt(client.local),
            original_dst=_rebuilt(client.remote),
        )
    )
    assert errors and errors[0].reason == "unreachable"
    # The quoted session the other way round is someone else's: ignored.
    other = a.stack.tcp.connect(Endpoint("192.0.2.98", 80), on_error=errors.append)
    a.stack.tcp.handle_icmp(
        IcmpError(IcmpType.PORT_UNREACHABLE, IpProtocol.TCP, other.remote, other.local)
    )
    assert len(errors) == 1 and other.state is TcpState.SYN_SENT


def test_remove_connection_after_listen_preferred_takeover():
    """§4.3 behaviour 2 leaves two connection objects for one session key; a
    stale removal of the displaced one must not evict its successor."""
    net, a, b = make_lan_pair(style_a=TcpStyle.LISTEN_PREFERRED)
    stack = a.stack.tcp
    stack.listen(4321, reuse=True)
    errors = []
    active = stack.connect(B_EP, local_port=4321, reuse=True, on_error=errors.append)
    stack.handle_packet(tcp_packet(_rebuilt(B_EP), _rebuilt(active.local), TcpFlags.SYN, seq=77))
    assert errors and errors[0].reason == "address-in-use"
    (passive,) = stack.connections
    assert passive is not active and passive.passive
    assert (passive.local, passive.remote, passive.iss) == (active.local, active.remote, active.iss)
    users = stack._ports[4321].users
    stack._remove_connection(active)  # stale: the key is the passive one's now
    assert stack.connections == [passive] and stack._ports[4321].users == users
    stack._remove_connection(passive)
    assert stack.connections == [] and stack._ports[4321].users == users - 1
    stack._remove_connection(passive)  # idempotent
    assert stack._ports[4321].users == users - 1


# -- the listener's half-open count ---------------------------------------------

#: Unroutable from hostB (it only has its /24), so SYN-ACKs toward these
#: sources vanish and the children stay half-open until something else moves.
_FAR = "203.0.113.7"


def _half_open_scan(listener):
    """``pending`` as it was defined: a scan of every connection on the stack."""
    return sum(
        1
        for c in listener.stack.connections
        if c.listener is listener and c.state is TcpState.SYN_RCVD
    )


def _child(stack, port):
    for conn in stack.connections:
        if conn.remote == Endpoint(_FAR, port):
            return conn
    return None


half_open_ops = st.one_of(
    st.tuples(st.just("syn"), st.integers(1, 6)),
    st.tuples(st.just("ack"), st.integers(1, 6)),
    st.tuples(st.just("rst"), st.integers(1, 6)),
    st.tuples(st.just("close"), st.integers(1, 6)),
    st.tuples(st.just("abort"), st.integers(1, 6)),
    st.tuples(st.just("advance"), st.sampled_from([0.5, 3.0, 20.0, 70.0])),
    st.tuples(st.just("unlisten"), st.just(0)),
)


@given(st.lists(half_open_ops, max_size=40), st.integers(1, 4))
@settings(max_examples=60, deadline=None)
def test_listener_pending_equals_the_scan_after_every_step(ops, backlog):
    net, _a, b = make_lan_pair()
    stack = b.stack.tcp
    listener = stack.listen(80, backlog=backlog)
    for op, arg in ops:
        if op == "syn":
            before, refused = len(stack.connections), stack.rsts_sent
            fresh = _child(stack, arg) is None
            full = listener.pending >= backlog
            stack.handle_packet(tcp_packet(Endpoint(_FAR, arg), B_EP, TcpFlags.SYN, seq=1000))
            if fresh and (full or listener.closed):
                assert (len(stack.connections), stack.rsts_sent) == (before, refused + 1)
            elif fresh:
                assert len(stack.connections) == before + 1
        elif op == "advance":
            net.run_until(net.now + arg)  # 63 s of SYN-ACK retries, then "timeout"
        elif op == "unlisten":
            listener.close()
        else:
            conn = _child(stack, arg)
            if conn is None:
                continue
            if op == "ack":
                stack.handle_packet(tcp_packet(conn.remote, B_EP, TcpFlags.ACK,
                                               seq=1001, ack=seq_add(conn.iss, 1)))
            elif op == "rst":
                stack.handle_packet(tcp_packet(conn.remote, B_EP, TcpFlags.RST, seq=1001))
            elif op == "close":
                conn.close()
            else:
                conn.abort()
        assert listener.pending == _half_open_scan(listener) <= backlog
    assert listener.accepted_count == len(listener.accept_pending())


def test_backlog_refuses_exactly_the_next_half_open_syn():
    net, _a, b = make_lan_pair()
    stack = b.stack.tcp
    listener = stack.listen(80, backlog=3)
    for port in (1, 2, 3):
        stack.handle_packet(tcp_packet(Endpoint(_FAR, port), B_EP, TcpFlags.SYN, seq=1000))
    assert listener.pending == 3 and stack.rsts_sent == 0
    stack.handle_packet(tcp_packet(Endpoint(_FAR, 4), B_EP, TcpFlags.SYN, seq=1000))
    assert listener.pending == 3 and stack.rsts_sent == 1 and _child(stack, 4) is None
    first = _child(stack, 1)
    stack.handle_packet(tcp_packet(first.remote, B_EP, TcpFlags.ACK, seq=1001,
                                   ack=seq_add(first.iss, 1)))
    assert first.established and listener.pending == 2
    stack.handle_packet(tcp_packet(Endpoint(_FAR, 4), B_EP, TcpFlags.SYN, seq=1000))
    assert listener.pending == 3 and stack.rsts_sent == 1 and _child(stack, 4) is not None


def test_listener_pending_does_not_scan_the_stack(monkeypatch):
    """The N-th SYN to a busy server must not cost O(N): ``pending`` reads the
    listener's own half-open set, never the stack-wide connection table."""
    net, _a, b = make_lan_pair()
    stack = b.stack.tcp
    listener = stack.listen(80, backlog=2)
    monkeypatch.setattr(
        type(stack), "connections",
        property(lambda self: pytest.fail("pending scanned every connection on the stack")),
    )
    for port in (1, 2, 3):
        stack.handle_packet(tcp_packet(Endpoint(_FAR, port), B_EP, TcpFlags.SYN, seq=1000))
    assert listener.pending == 2 and stack.rsts_sent == 1
