"""Integration tests for the instrumentation points: the punching stack,
the substrate collectors, and the fleet latency wiring all feed the
network's metrics registry, and a connect's outcome lands on its flight
attempt."""

from __future__ import annotations

from repro.core.connector import P2PConnector, STRATEGY_PUNCH, STRATEGY_RELAY
from repro.nat.behavior import HAIRPIN_CAPABLE, WELL_BEHAVED
from repro.natcheck.fleet import check_device
from repro.natcheck.table import latency_histograms, render_latency_appendix
from repro.scenarios.topologies import build_multilevel, build_two_nats


def _punch(scenario, timeout=20.0):
    scenario.register_all_udp()
    a = scenario.clients["A"]
    result = {}
    a.connect_udp(
        2,
        on_session=lambda s: result.setdefault("session", s),
        on_failure=lambda e: result.setdefault("failure", e),
    )
    scenario.scheduler.run_while(lambda: not result, scenario.scheduler.now + timeout)
    # Let the responder side finish too (its lock-in / deadline can land a
    # little after the requester's callback fires).
    scenario.run_for(15.0)
    return result


def _connect_attempts(scenario):
    return [a for a in scenario.net.flight.attempts.values() if a.name == "connect.udp"]


def test_udp_punch_populates_metrics_and_spans():
    scenario = build_two_nats(seed=5, flight=True)
    result = _punch(scenario)
    assert "session" in result
    reg = scenario.net.metrics
    assert reg.counter_value("punch.udp.probes_sent") > 0
    assert reg.counter_value("punch.udp.acks_received") > 0
    assert reg.counter_value("punch.udp.succeeded") == 2  # both sides lock in
    assert reg.counter_value("punch.udp.failed") == 0
    assert reg.counter_value("session.udp.established") == 2
    assert reg.counter_value("punch.udp.endpoint", kind="public") == 2
    hist = reg.histogram("punch.udp.lock_in_seconds")
    assert hist.count == 2 and hist.p50 > 0
    # The requester's connect is one flight attempt; the responder's punch
    # answers no request of its own, so it opens none.
    (connect,) = _connect_attempts(scenario)
    assert connect.outcome == "connected" and connect.tags["peer"] == 2


def test_failed_punch_finishes_spans_with_timeout():
    # Without hairpin support at NAT C the multilevel punch cannot complete
    # (the figure 6 "off" configuration).
    scenario = build_multilevel(seed=5, nat_c_behavior=WELL_BEHAVED, flight=True)
    result = _punch(scenario, timeout=30.0)
    assert "failure" in result
    reg = scenario.net.metrics
    assert reg.counter_value("punch.udp.succeeded") == 0
    assert reg.counter_value("punch.udp.failed") == 2
    (connect,) = _connect_attempts(scenario)
    assert connect.outcome == "timeout"
    # The hairpin refusals show up as NAT drop reasons in the snapshot.
    snapshot = reg.snapshot()
    assert snapshot["counters"]["nat.drops{node=NAT-C,reason=hairpin-refused}"] > 0


def test_connector_ladder_records_fallback_outcome():
    scenario = build_multilevel(seed=5, nat_c_behavior=WELL_BEHAVED)
    scenario.register_all_udp()
    a = scenario.clients["A"]
    connector = P2PConnector(a, phase_timeout=5.0)
    results = []
    connector.connect(2, results.append)
    scenario.scheduler.run_while(lambda: not results, scenario.scheduler.now + 30.0)
    assert results and results[0].strategy == STRATEGY_RELAY
    # The result is the ladder's one record: each rung tried, in order.
    assert [(a.strategy, a.success) for a in results[0].attempts] == [
        (STRATEGY_PUNCH, False),
        (STRATEGY_RELAY, True),
    ]
    assert scenario.net.metrics.counter_value("relay.sessions_opened") >= 1


def test_hairpin_punch_locks_without_failures():
    scenario = build_multilevel(seed=5, nat_c_behavior=HAIRPIN_CAPABLE)
    result = _punch(scenario, timeout=30.0)
    assert "session" in result
    reg = scenario.net.metrics
    assert reg.counter_value("punch.udp.succeeded") == 2
    assert reg.counter_value("punch.udp.failed") == 0


def test_builtin_collector_snapshots_substrate_counters():
    scenario = build_two_nats(seed=5)
    _punch(scenario)
    snapshot = scenario.net.metrics.snapshot()
    counters = snapshot["counters"]
    assert counters["scheduler.events_fired"] == scenario.scheduler.events_fired > 0
    assert counters["link.packets_sent"] > 0
    assert counters["link.packets_sent{proto=udp}"] > 0
    assert counters["udp.datagrams_sent"] > 0
    assert counters["udp.datagrams_received"] > 0
    assert any(key.startswith("nat.mappings_created") for key in counters)
    assert set(snapshot) == {"counters", "histograms"}
    # The json exporter runs off the same snapshot.
    assert "counters" in scenario.net.metrics_json()


def test_metrics_disabled_network_records_nothing():
    from repro.netsim.network import Network

    net = Network(seed=5, metrics_enabled=False)
    assert not net.metrics.enabled
    snapshot = net.metrics.snapshot()
    assert snapshot == {"counters": {}, "histograms": {}}


def test_natcheck_reports_carry_punch_latencies():
    report = check_device(WELL_BEHAVED, seed=11)
    assert report.udp_probe_rtt is not None and report.udp_probe_rtt > 0
    assert report.tcp_connect_rtt is not None and report.tcp_connect_rtt > 0
    hists = latency_histograms({"TestVendor": [report]})
    assert hists["TestVendor"]["udp_probe_rtt"].count == 1
    assert hists["All Vendors"]["tcp_connect_rtt"].count == 1
    appendix = render_latency_appendix({"TestVendor": [report]})
    assert "TestVendor" in appendix and "All Vendors" in appendix
    assert "(n=1)" in appendix
