"""TCP port binding and SO_REUSEADDR semantics (§4.1)."""

import pytest

from repro.netsim.addresses import Endpoint
from repro.util.errors import BindError

from tests.conftest import make_lan_pair, run_until

B_EP = Endpoint("192.0.2.2", 80)


class TestStackPortRules:
    def test_listen_then_connect_same_port_needs_reuse_on_both(self):
        net, a, b = make_lan_pair()
        b.stack.tcp.listen(80)
        a.stack.tcp.listen(4321, reuse=True)
        a.stack.tcp.connect(B_EP, local_port=4321, reuse=True)  # ok

    def test_second_bind_without_reuse_fails(self):
        net, a, _ = make_lan_pair()
        a.stack.tcp.listen(4321)  # no reuse
        with pytest.raises(BindError):
            a.stack.tcp.connect(B_EP, local_port=4321, reuse=True)

    def test_reuse_must_be_set_on_later_socket_too(self):
        net, a, _ = make_lan_pair()
        a.stack.tcp.listen(4321, reuse=True)
        with pytest.raises(BindError):
            a.stack.tcp.connect(B_EP, local_port=4321, reuse=False)

    def test_two_listeners_same_port_rejected(self):
        net, a, _ = make_lan_pair()
        a.stack.tcp.listen(4321, reuse=True)
        with pytest.raises(BindError):
            a.stack.tcp.listen(4321, reuse=True)

    def test_multiple_connects_one_port(self):
        """§4.2: one local port, several concurrent outbound connections."""
        net, a, b = make_lan_pair()
        b.stack.tcp.listen(80)
        b.stack.tcp.listen(81)
        results = []
        a.stack.tcp.connect(Endpoint("192.0.2.2", 80), local_port=4321, reuse=True,
                            on_connected=results.append)
        a.stack.tcp.connect(Endpoint("192.0.2.2", 81), local_port=4321, reuse=True,
                            on_connected=results.append)
        run_until(net, lambda: len(results) == 2)
        assert {c.remote.port for c in results} == {80, 81}
        assert all(c.local.port == 4321 for c in results)

    def test_ephemeral_ports_distinct(self):
        net, a, b = make_lan_pair()
        b.stack.tcp.listen(80)
        c1 = a.stack.tcp.connect(B_EP)
        c2 = a.stack.tcp.connect(B_EP)
        assert c1.local.port != c2.local.port

    def test_port_released_after_close(self):
        net, a, b = make_lan_pair()
        listener = a.stack.tcp.listen(4321)
        listener.close()
        a.stack.tcp.listen(4321)  # rebindable

    def test_census(self):
        net, a, b = make_lan_pair()
        b.stack.tcp.listen(80)
        a.stack.tcp.listen(4321, reuse=True)
        a.stack.tcp.connect(B_EP, local_port=4321, reuse=True)
        census = a.stack.tcp.port_census(4321)
        assert census["listeners"] == 1
        assert census["connections"] == 1
        assert census["active"] == 1

    def test_accept_queue_when_no_callback(self):
        net, a, b = make_lan_pair()
        listener = b.stack.tcp.listen(80)  # no on_accept
        a.stack.tcp.connect(B_EP)
        net.run_until(net.now + 2)
        assert len(listener._accept_queue) == 1


class TestSocketApi:
    """The paper's §4.1 socket pattern, spelled with ``TcpStack``'s
    ``reuse=`` flag (the SO_REUSEADDR of every socket on the port)."""

    def test_paper_usage_pattern(self):
        """The §4.1 pattern: one listen + N connects on one local port, all
        with SO_REUSEADDR."""
        net, a, b = make_lan_pair()
        b.stack.tcp.listen(80)
        a.stack.tcp.listen(4321, reuse=True)
        done = []
        a.stack.tcp.connect(B_EP, local_port=4321, reuse=True, on_connected=done.append)
        run_until(net, lambda: done)
        assert done[0].local.port == 4321
        census = a.stack.tcp.port_census(4321)
        assert census["listeners"] + census["connections"] == 2

    def test_bind_without_reuse_conflicts(self):
        """A connect that did not set the option holds the port against a
        later listener that did."""
        net, a, b = make_lan_pair()
        b.stack.tcp.listen(80)
        a.stack.tcp.connect(B_EP, local_port=4321)
        with pytest.raises(BindError, match="SO_REUSEADDR"):
            a.stack.tcp.listen(4321, reuse=True)

    def test_connect_auto_binds_ephemeral(self):
        net, a, b = make_lan_pair()
        b.stack.tcp.listen(80)
        assert a.stack.tcp.connect(B_EP).local.port >= 49152
