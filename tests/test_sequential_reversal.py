"""Sequential TCP punching (§4.5) and connection reversal (§2.3)."""

import pytest

from repro.core import tcp_sequential
from repro.core.tcp_sequential import SequentialConfig
from repro.nat import behavior as B
from repro.scenarios import build_one_sided, build_public_pair, build_two_nats


def sequential(scenario, timeout=60.0, requester="A", target=2):
    scenario.register_all_tcp()
    result = {}
    other = "B" if requester == "A" else "A"
    scenario.clients[other].on_peer_stream = lambda s: result.setdefault("peer", s)
    scenario.clients[requester].connect_tcp_sequential(
        target,
        on_stream=lambda s: result.setdefault("stream", s),
        on_failure=lambda e: result.setdefault("failure", e),
    )
    scenario.scheduler.run_while(
        lambda: not (("stream" in result and "peer" in result) or "failure" in result),
        scenario.scheduler.now + timeout,
    )
    return result


class TestSequentialPunch:
    def test_succeeds_between_well_behaved_nats(self):
        sc = build_two_nats(seed=41)
        result = sequential(sc)
        assert "stream" in result and "peer" in result
        got = []
        result["peer"].on_data = got.append
        result["stream"].send(b"sequential works")
        sc.run_for(2.0)
        assert got == [b"sequential works"]

    def test_consumes_control_connections(self):
        """§4.5: 'effectively consumes both clients' connections to S'."""
        sc = build_two_nats(seed=42)
        result = sequential(sc)
        assert "stream" in result
        sc.run_for(3.0)
        total = sum(c.control_reconnects for c in sc.clients.values())
        assert total == 2
        # Both clients re-registered on fresh connections.
        sc.wait_for(lambda: all(c.tcp_registered for c in sc.clients.values()), 10.0)

    def test_parallel_does_not_consume_control(self):
        sc = build_two_nats(seed=43)
        sc.register_all_tcp()
        result = {}
        sc.clients["B"].on_peer_stream = lambda s: result.setdefault("b", s)
        sc.clients["A"].connect_tcp(2, on_stream=lambda s: result.setdefault("a", s))
        sc.wait_for(lambda: "a" in result, 40.0)
        assert sum(c.control_reconnects for c in sc.clients.values()) == 0

    def test_no_consume_config(self, monkeypatch):
        monkeypatch.setattr(tcp_sequential, "CONSUME_CONTROL", False)
        sc = build_two_nats(seed=44)
        result = sequential(sc)
        assert "stream" in result
        assert sum(c.control_reconnects for c in sc.clients.values()) == 0

    def test_too_short_punch_delay_can_fail(self):
        """§4.5: 'too little delay risks a lost SYN derailing the process' —
        if B reports ready before its punching SYN crossed its own NAT, A's
        connect is refused as unsolicited."""
        sc = build_two_nats(seed=45, behavior_a=B.RST_SENDER, behavior_b=B.RST_SENDER)
        for c in sc.clients.values():
            c.sequential_config = SequentialConfig(punch_delay=0.0, timeout=10.0)
        result = sequential(sc, timeout=20.0)
        # With zero delay the doomed SYN usually still beats A's dial (it is
        # already in flight), so accept either outcome but require a verdict.
        assert "stream" in result or "failure" in result

    def test_sequential_with_rst_nats(self):
        """The doomed connect fails fast via RST — the exact §4.5 flow."""
        sc = build_two_nats(seed=46, behavior_a=B.RST_SENDER, behavior_b=B.RST_SENDER)
        result = sequential(sc)
        assert "stream" in result


class TestReversal:
    def test_public_peer_reaches_nated_peer(self):
        sc = build_one_sided(seed=51)
        sc.register_all_tcp()
        result = {}
        sc.clients["A"].on_peer_stream = lambda s: result.setdefault("a", s)
        sc.clients["B"].request_reversal(
            1,
            on_stream=lambda s: result.setdefault("b", s),
            on_failure=lambda e: result.setdefault("failure", e),
        )
        sc.wait_for(lambda: ("a" in result and "b" in result) or "failure" in result, 30.0)
        assert "b" in result and "a" in result
        got = []
        result["a"].on_data = got.append
        result["b"].send(b"reversed")
        sc.run_for(2.0)
        assert got == [b"reversed"]

    def test_reversal_fails_when_requester_also_nated(self):
        """§2.3's 'obvious limitation': both behind NATs => the reverse
        connection is itself blocked."""
        sc = build_two_nats(seed=52)
        sc.register_all_tcp()
        failures = []
        sc.clients["B"].request_reversal(
            1, on_stream=lambda s: None, on_failure=failures.append, timeout=10.0
        )
        sc.wait_for(lambda: failures, 30.0)
        assert "timed out" in str(failures[0])
        assert sc.clients["A"].reversal_dial_failures >= 0

    def test_reversal_between_public_hosts(self):
        sc = build_public_pair(seed=53)
        sc.register_all_tcp()
        result = {}
        sc.clients["B"].request_reversal(1, on_stream=lambda s: result.setdefault("b", s))
        sc.wait_for(lambda: "b" in result, 20.0)
        assert result["b"].authenticated

    def test_reversal_unknown_target_errors(self):
        sc = build_one_sided(seed=54)
        sc.register_all_tcp()
        failures = []
        sc.clients["B"].request_reversal(99, on_stream=lambda s: None,
                                         on_failure=failures.append, timeout=5.0)
        sc.wait_for(lambda: failures, 15.0)
        assert failures
