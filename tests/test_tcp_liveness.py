"""TCP liveness ladder: in-band keepalives, dead-peer detection, recovery."""

import pytest

from repro.core.connector import P2PConnector, STRATEGY_PUNCH
from repro.core.protocol import TRANSPORT_TCP
from repro.core.tcp_punch import TcpPunchConfig, TcpStream
from repro.netsim.faults import FAULT_LINK_FLAP, FaultPlan
from repro.netsim.link import LinkProfile
from repro.scenarios import build_two_nats

from tests.conftest import rerun_ladder_on_break


def punched_streams(sc, timeout=60.0, config=None):
    sc.register_all_tcp()
    result = {}
    sc.clients["B"].on_peer_stream = lambda s: result.setdefault("b", s)
    sc.clients["A"].connect_tcp(
        2,
        on_stream=lambda s: result.setdefault("a", s),
        on_failure=lambda e: result.setdefault("failure", e),
        config=config,
    )
    sc.scheduler.run_while(
        lambda: not (("a" in result and "b" in result) or "failure" in result),
        sc.scheduler.now + timeout,
    )
    assert "a" in result and "b" in result, result.get("failure")
    return result


class TestStreamKeepalives:
    def test_healthy_idle_stream_stays_up_under_probing(self):
        sc = build_two_nats(seed=401)
        result = punched_streams(sc)
        result["a"].start_keepalives(1.0, broken_after_missed=3)
        sc.run_for(20.0)
        assert not result["a"].closed and not result["a"].broken
        assert result["a"].keepalives_sent >= 10
        # The unarmed side answered (echoes count as its outbound frames).
        assert result["b"].keepalives_sent >= 1

    def test_both_sides_armed_no_echo_storm(self):
        sc = build_two_nats(seed=402)
        result = punched_streams(sc)
        result["a"].start_keepalives(1.0, broken_after_missed=3)
        result["b"].start_keepalives(1.0, broken_after_missed=3)
        sc.run_for(20.0)
        assert not result["a"].broken and not result["b"].broken
        # Roughly one probe per interval per side — not a probe-per-echo storm.
        assert result["a"].keepalives_sent <= 30
        assert result["b"].keepalives_sent <= 30

    def test_partition_marks_stream_broken_and_fires_on_close(self):
        sc = build_two_nats(seed=403)
        result = punched_streams(sc)
        closed = []
        result["a"].on_close = lambda: closed.append("a")
        result["a"].start_keepalives(1.0, broken_after_missed=3)
        sc.net.links["backbone"].down()
        sc.run_for(30.0)
        assert result["a"].broken and result["a"].closed
        assert closed == ["a"]
        assert sc.clients["A"].metrics.counter("session.tcp.broken").value == 1

    def test_application_chatter_suppresses_probes(self):
        sc = build_two_nats(seed=404)
        result = punched_streams(sc)
        result["a"].start_keepalives(2.0, broken_after_missed=3)
        got = []
        result["b"].on_data = got.append

        def chatter(n=0):
            if n < 20:
                result["a"].send(b"tick")
                result["b"].send(b"tock")
                sc.scheduler.call_later(1.0, chatter, n + 1)

        chatter()
        sc.run_for(25.0)
        assert not result["a"].broken
        # Chat every 1 s beats the 2 s probe interval: probes stay suppressed.
        assert result["a"].keepalives_sent <= 2
        assert len(got) == 20

    def test_peer_reset_surfaces_as_dead_peer(self):
        sc = build_two_nats(seed=405)
        result = punched_streams(sc)
        closed = []
        result["a"].on_close = lambda: closed.append("a")
        result["b"].abort()  # peer app dies; RST crosses the wire
        sc.run_for(2.0)
        assert result["a"].closed
        assert closed == ["a"]


class TestConnectorTcpRecovery:
    def test_ladder_reruns_after_peer_death(self):
        """An application's ladder re-run covers TCP channels too: it arms
        in-band probes on the won stream, and a dead peer stream triggers a
        backoff and a fresh ladder run."""
        sc = build_two_nats(seed=410)
        sc.register_all_tcp()
        sc.register_all_udp()
        incoming = []
        sc.clients["B"].on_peer_stream = incoming.append
        connector = P2PConnector(
            sc.clients["A"],
            transport=TRANSPORT_TCP,
            phase_timeout=8.0,
        )

        def arm_probes(result):
            if isinstance(result.channel, TcpStream):
                result.channel.start_keepalives(1.0)

        results = rerun_ladder_on_break(
            connector, 2, arm_probes, retries=2, backoff=0.5, cap=8.0
        )
        sc.wait_for(lambda: results and incoming, 60.0)
        assert results[0].strategy == STRATEGY_PUNCH
        first = results[0].channel
        assert first._keepalive_interval == 1.0
        # Peer's application dies, resetting the stream under A.
        incoming[0].abort()
        sc.wait_for(lambda: len(results) >= 2, 60.0)
        recovered = results[1]
        assert recovered.connected
        assert recovered.channel is not first
        assert first.closed

    def test_sync_strategy_errors_descend_ladder_not_crash(self):
        """connect_tcp raises synchronously when the client is unregistered
        (e.g. mid-failover): the ladder must absorb that and keep going, so
        every connect attempt terminates."""
        sc = build_two_nats(seed=411)
        sc.register_all_udp()  # TCP never registered
        connector = P2PConnector(
            sc.clients["A"], transport=TRANSPORT_TCP, phase_timeout=4.0
        )
        results = []
        connector.connect(2, on_result=results.append)
        sc.wait_for(lambda: results, 30.0)
        result = results[0]
        assert not result.attempts[0].success
        assert "registration" in result.attempts[0].detail


class TestTcpPunchUnderFaults:
    BURSTY = LinkProfile(
        latency=0.02,
        jitter=0.01,
        loss=0.02,
        burst_enter=0.02,
        burst_exit=0.3,
        burst_loss=1.0,
    )

    def test_tcp_punch_survives_burst_loss(self):
        sc = build_two_nats(seed=420, backbone_profile=self.BURSTY)
        result = punched_streams(
            sc, timeout=90.0, config=TcpPunchConfig(timeout=60.0)
        )
        got = []
        result["b"].on_data = got.append
        result["a"].send(b"through the bursts")
        sc.run_for(5.0)
        assert got == [b"through the bursts"]

    def test_tcp_punch_survives_link_flap_mid_punch(self):
        sc = build_two_nats(seed=421)
        sc.register_all_tcp()
        sc.inject_faults(
            FaultPlan([(sc.scheduler.now + 1.0, FAULT_LINK_FLAP, "backbone", 2.0)])
        )
        result = {}
        sc.clients["B"].on_peer_stream = lambda s: result.setdefault("b", s)
        sc.clients["A"].connect_tcp(
            2,
            on_stream=lambda s: result.setdefault("a", s),
            on_failure=lambda e: result.setdefault("failure", e),
            config=TcpPunchConfig(timeout=45.0),
        )
        sc.scheduler.run_while(
            lambda: not (("a" in result and "b" in result) or "failure" in result),
            sc.scheduler.now + 90.0,
        )
        assert "a" in result and "b" in result, result.get("failure")
        # The flap forced the stack to retransmit lost punch segments.
        assert sc.clients["A"].tcp_stack.retransmits >= 1
        got = []
        result["b"].on_data = got.append
        result["a"].send(b"after the flap")
        sc.run_for(2.0)
        assert got == [b"after the flap"]

    @pytest.mark.parametrize("seed", [430, 431, 432])
    def test_faulted_tcp_punch_always_terminates(self, seed):
        """Liveness under compound faults: success or failure, never a hang."""
        sc = build_two_nats(seed=seed, backbone_profile=self.BURSTY)
        sc.register_all_tcp()
        now = sc.scheduler.now
        sc.inject_faults(
            FaultPlan(
                [
                    (now + 0.5, FAULT_LINK_FLAP, "backbone", 1.0),
                    (now + 4.0, FAULT_LINK_FLAP, "backbone", 0.5),
                ]
            )
        )
        outcome = {}
        sc.clients["A"].connect_tcp(
            2,
            on_stream=lambda s: outcome.setdefault("stream", s),
            on_failure=lambda e: outcome.setdefault("failure", e),
            config=TcpPunchConfig(timeout=20.0),
        )
        sc.run_for(40.0)
        assert outcome, "punch neither succeeded nor failed within budget"
