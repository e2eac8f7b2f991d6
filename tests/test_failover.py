"""Rendezvous-server failover: registration migration, session survival."""

import pytest

from repro.core.failover import FailoverConfig, ServerFailover
from repro.core.udp_punch import PunchConfig
from repro.netsim.faults import (
    FAULT_SERVER_KILL,
    FAULT_SERVER_REVIVE,
    FaultPlan,
)
from repro.scenarios import build_public_pair, build_two_nats

FAST_FAILOVER = FailoverConfig(keepalive_interval=1.0)


def _failover_scenario(seed=301, **kw):
    sc = build_two_nats(seed=seed, num_servers=2, **kw)
    assert set(sc.servers) == {"S", "S2"}
    return sc


def _arm(sc, interval=1.0):
    sc.register_all_udp()
    for c in sc.clients.values():
        c.start_server_keepalives(interval=interval)


class TestRegistrationMigration:
    def test_clients_get_failover_manager_from_builder(self):
        sc = _failover_scenario()
        for c in sc.clients.values():
            assert isinstance(c.failover, ServerFailover)
            assert c.failover.servers == [
                sc.servers["S"].endpoint,
                sc.servers["S2"].endpoint,
            ]
            assert c.server == sc.servers["S"].endpoint

    def test_single_server_scenarios_have_no_failover(self):
        sc = build_two_nats(seed=302)
        assert sc.clients["A"].failover is None

    def test_acks_hold_the_line_while_server_lives(self):
        sc = _failover_scenario(seed=303)
        _arm(sc)
        sc.run_for(10.0)
        for c in sc.clients.values():
            assert c.failover.migrations == 0
            assert c.server == sc.servers["S"].endpoint
            assert c.metrics.counter("failover.keepalive_acks").value > 0

    def test_udp_registration_migrates_on_server_kill(self):
        sc = _failover_scenario(seed=304)
        _arm(sc)
        sc.run_for(2.0)
        sc.servers["S"].stop()
        sc.wait_for(
            lambda: all(c.failover.migrations >= 1 for c in sc.clients.values()),
            20.0,
        )
        sc.wait_for(
            lambda: all(c.udp_registered for c in sc.clients.values()), 10.0
        )
        for c in sc.clients.values():
            assert c.server == sc.servers["S2"].endpoint
        assert set(sc.servers["S2"].udp_clients) == {1, 2}
        a = sc.clients["A"]
        assert a.metrics.counter("failover.migrations").value >= 1

    def test_migration_wraps_back_to_revived_primary(self):
        sc = _failover_scenario(seed=305)
        _arm(sc)
        sc.run_for(2.0)
        # Kill S; clients move to S2.  Then kill S2 after reviving S; clients
        # wrap around the list back to S.
        sc.servers["S"].stop()
        sc.wait_for(
            lambda: all(
                c.server == sc.servers["S2"].endpoint for c in sc.clients.values()
            ),
            20.0,
        )
        sc.servers["S"].start()
        sc.servers["S2"].stop()
        sc.wait_for(
            lambda: all(
                c.server == sc.servers["S"].endpoint for c in sc.clients.values()
            ),
            20.0,
        )
        sc.wait_for(lambda: all(c.udp_registered for c in sc.clients.values()), 10.0)
        assert set(sc.servers["S"].udp_clients) == {1, 2}

    def test_server_kill_fault_drives_migration(self):
        """server-kill / server-revive as first-class scripted faults."""
        sc = _failover_scenario(seed=306)
        _arm(sc)
        injector = sc.inject_faults(
            FaultPlan([
                (3.0, FAULT_SERVER_KILL, "S"),
                (20.0, FAULT_SERVER_REVIVE, "S"),
            ])
        )
        sc.run_until(30.0)
        assert [e.fault for e in injector.injected] == [
            FAULT_SERVER_KILL,
            FAULT_SERVER_REVIVE,
        ]
        assert sc.servers["S"].stopped is False  # revived
        assert all(
            c.server == sc.servers["S2"].endpoint for c in sc.clients.values()
        )


class TestSessionSurvival:
    def _punched_pair(self, sc, config):
        for c in sc.clients.values():
            c.punch_config = config
        _arm(sc)
        sessions = {}
        sc.clients["B"].on_peer_session = lambda s: sessions.setdefault("b", s)
        sc.clients["A"].connect_udp(
            2, on_session=lambda s: sessions.setdefault("a", s), config=config
        )
        sc.wait_for(lambda: "a" in sessions and "b" in sessions, 20.0)
        return sessions

    def test_punched_udp_session_survives_server_kill(self):
        sc = _failover_scenario(seed=310)
        config = PunchConfig(keepalive_interval=1.0, broken_after_missed=5)
        sessions = self._punched_pair(sc, config)
        sc.servers["S"].stop()
        sc.wait_for(
            lambda: all(c.failover.migrations >= 1 for c in sc.clients.values()),
            20.0,
        )
        # The punched path never touched S: the session stayed alive through
        # the kill and the migration.
        assert sessions["a"].alive and sessions["b"].alive
        got = []
        sessions["b"].on_data = got.append
        sessions["a"].send(b"still here")
        sc.run_for(2.0)
        assert got == [b"still here"]

    def test_punched_tcp_stream_survives_server_kill(self):
        sc = _failover_scenario(seed=311)
        sc.register_all_tcp()
        _arm(sc)
        result = {}
        sc.clients["B"].on_peer_stream = lambda s: result.setdefault("b", s)
        sc.clients["A"].connect_tcp(
            2,
            on_stream=lambda s: result.setdefault("a", s),
            on_failure=lambda e: result.setdefault("failure", e),
        )
        sc.wait_for(lambda: ("a" in result and "b" in result) or "failure" in result, 60.0)
        assert "a" in result and "b" in result, result.get("failure")
        sc.servers["S"].stop()
        sc.wait_for(
            lambda: all(c.failover.migrations >= 1 for c in sc.clients.values()),
            30.0,
        )
        # Control connections re-dialled to S2 and re-registered there.
        sc.wait_for(
            lambda: all(c.tcp_registered for c in sc.clients.values()), 20.0
        )
        assert set(sc.servers["S2"].tcp_clients) == {1, 2}
        for c in sc.clients.values():
            assert c.control_reconnects >= 1
        # The punched stream itself never went through S: still alive.
        assert not result["a"].closed and not result["b"].closed
        got_a, got_b = [], []
        result["a"].on_data = got_a.append
        result["b"].on_data = got_b.append
        result["a"].send(b"tcp survived")
        result["b"].send(b"indeed")
        sc.run_for(2.0)
        assert got_b == [b"tcp survived"] and got_a == [b"indeed"]

    def test_relay_session_survives_server_kill(self):
        sc = _failover_scenario(seed=312)
        _arm(sc)
        relay = sc.clients["A"].open_relay(2)
        got = []
        sc.clients["B"].on_relay_session = lambda s: setattr(s, "on_data", got.append)
        relay.send(b"before kill")
        sc.wait_for(lambda: got, 5.0)
        sc.servers["S"].stop()
        sc.wait_for(
            lambda: all(
                c.failover.migrations >= 1 and c.udp_registered
                for c in sc.clients.values()
            ),
            25.0,
        )
        # The same RelaySession object now rides the successor: sends address
        # client.server live, so no re-open is needed.
        relay.send(b"after failover")
        sc.wait_for(lambda: len(got) >= 2, 10.0)
        assert got == [b"before kill", b"after failover"]
        assert sc.servers["S2"].relayed_messages >= 1
        assert not relay.closed


class TestRelaySendFailures:
    def test_relay_error_fires_metric_and_callback(self):
        """S restarts and loses B's registration: A's next relayed payload
        draws a structured RelayError instead of blackholing."""
        sc = build_two_nats(seed=320)
        sc.register_all_udp()
        relay = sc.clients["A"].open_relay(2)
        errors = []
        relay.on_error = errors.append
        sc.server.restart()  # amnesia; sockets stay bound
        relay.send(b"into the void")
        sc.wait_for(lambda: errors, 5.0)
        assert relay.send_failures == 1
        assert "unreachable" in str(errors[0])
        assert sc.clients["A"].metrics.counter("relay.send_failures").value == 1
        assert sc.server.relay_send_failures == 1

    def test_relay_error_does_not_disturb_other_sessions(self):
        sc = build_two_nats(seed=321)
        sc.register_all_udp()
        relay = sc.clients["A"].open_relay(2)
        sc.server.restart()
        relay.send(b"bounced")
        sc.run_for(2.0)
        # Only the session's own counter moved; no pending connects were
        # failed, and the client is still considered registered until a
        # keepalive says otherwise.
        assert relay.send_failures == 1
        assert sc.clients["A"].stray_messages == 0


class TestConnectTcpDeadline:
    def test_connect_tcp_fails_in_bounded_time_when_s_silent(self):
        """Parity with connect_udp: S never answering the ConnectRequest must
        fail the attempt within the configured timeout, not hang forever."""
        from repro.core.tcp_punch import TcpPunchConfig

        sc = build_public_pair(seed=330)
        sc.register_all_tcp()
        sc.server.stop()
        failures = []
        started = sc.scheduler.now
        sc.clients["A"].connect_tcp(
            2,
            on_stream=lambda s: failures.append("unexpected-stream"),
            on_failure=failures.append,
            config=TcpPunchConfig(timeout=5.0),
        )
        sc.wait_for(lambda: failures, 30.0)
        assert "timed out" in str(failures[0])
        assert sc.scheduler.now - started == pytest.approx(5.0, abs=1.5)


class TestFailoverUnit:
    def test_failover_requires_servers(self):
        sc = build_two_nats(seed=340)
        with pytest.raises(ValueError):
            ServerFailover(sc.clients["A"], [])

    def test_explicit_config_attaches_manager_to_single_server_client(self):
        from repro.scenarios.topologies import ScenarioBuilder

        builder = ScenarioBuilder(seed=341)
        builder.add_server()
        host = builder.add_public_host("A", "155.99.25.11")
        client = builder.make_client(host, 1, failover_config=FAST_FAILOVER)
        assert client.failover is not None
        assert client.failover.config is FAST_FAILOVER
        assert len(client.failover.servers) == 1
