"""Unit tests for the repro.obs subsystem: registry, instruments,
exporters, and the wall-clock profiler."""

from __future__ import annotations

import json

import pytest

from repro.netsim.network import Network
from repro.obs.export import summarize_for_report, to_json
from repro.obs.metrics import (
    HISTOGRAM_SAMPLE_CAP,
    Histogram,
    MetricsRegistry,
    format_metric_name,
)
from repro.obs.profile import RunProfiler


# -- instruments -------------------------------------------------------------


def test_counter_identity_and_labels():
    reg = MetricsRegistry()
    a = reg.counter("probes", peer="2")
    b = reg.counter("probes", peer="2")
    other = reg.counter("probes", peer="3")
    assert a is b and a is not other
    a.inc()
    a.inc(4)
    assert reg.counter_value("probes", peer="2") == 5
    assert reg.counter_value("probes", peer="3") == 0
    assert reg.counter_value("absent") == 0
    assert reg.counters() == {"probes{peer=2}": 5, "probes{peer=3}": 0}


def test_format_metric_name():
    assert format_metric_name("x", ()) == "x"
    assert format_metric_name("x", (("a", "1"), ("b", "2"))) == "x{a=1,b=2}"


def test_histogram_percentiles_nearest_rank():
    h = Histogram("lat")
    for v in [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]:
        h.observe(v)
    assert h.count == 10
    assert h.min == 1.0 and h.max == 10.0
    assert h.mean == pytest.approx(5.5)
    assert h.p50 == 5.0  # nearest-rank: ceil(0.5*10) = 5th value
    assert h.p95 == 10.0
    assert h.percentile(0) == 1.0
    assert h.percentile(100) == 10.0
    with pytest.raises(ValueError):
        h.percentile(101)


def test_histogram_fractional_percentile_ranks_up():
    # Nearest rank is ceil(33.5/100 * 3) = ceil(1.005) = 2; truncating
    # 33.5 * 3 to an integer first ranks it ceil(100/100) = 1.
    h = Histogram("lat")
    for v in [1.0, 2.0, 3.0]:
        h.observe(v)
    assert h.percentile(33.5) == 2.0
    assert h.percentile(33) == 1.0


def test_histogram_empty_and_sample_cap():
    h = Histogram("lat")
    assert h.p50 is None and h.mean is None
    for i in range(HISTOGRAM_SAMPLE_CAP + 100):
        h.observe(float(i))
    assert h.count == HISTOGRAM_SAMPLE_CAP + 100  # exact count continues
    assert len(h.values()) == HISTOGRAM_SAMPLE_CAP  # sample storage capped
    assert h.max == float(HISTOGRAM_SAMPLE_CAP + 99)


def test_disabled_registry_hands_out_inert_instruments():
    reg = MetricsRegistry(enabled=False)
    reg.counter("x").inc(100)
    reg.histogram("z").observe(1.0)
    assert reg.snapshot() == {"counters": {}, "histograms": {}}


# -- exporters ---------------------------------------------------------------


def _populated_registry() -> MetricsRegistry:
    reg = MetricsRegistry()
    reg.counter("punch.udp.probes_sent").inc(8)
    reg.counter("nat.drops", node="NAT-A", reason="no-mapping").inc(2)
    reg.histogram("punch.udp.lock_in_seconds").observe(0.012)
    return reg


def test_json_round_trip():
    reg = _populated_registry()
    assert json.loads(to_json(reg)) == reg.snapshot()


def test_summarize_for_report_filters_prefixes():
    reg = _populated_registry()
    reg.counter("scheduler.events_fired").inc(999)  # not report-worthy
    lines = summarize_for_report(reg)
    joined = "\n".join(lines)
    assert "punch.udp.probes_sent=8" in joined
    assert "nat.drops{node=NAT-A,reason=no-mapping}=2" in joined
    assert "punch.udp.lock_in_seconds" in joined
    assert "scheduler.events_fired" not in joined
    assert summarize_for_report(MetricsRegistry()) == []


# -- profiler ----------------------------------------------------------------


def test_run_profiler_counts_events_and_packets():
    net = Network(seed=1)
    link = net.create_link("wire")
    a = net.add_host("a", ip="192.0.2.1", network="192.0.2.0/24", link=link)
    b = net.add_host("b", ip="192.0.2.2", network="192.0.2.0/24", link=link)
    from repro.netsim.addresses import Endpoint
    from repro.transport.stack import attach_stack

    attach_stack(a)
    attach_stack(b)
    got = []
    sink = b.stack.udp.socket(9)
    sink.on_datagram = lambda d, s: got.append(d)
    sock = a.stack.udp.socket(0)
    with RunProfiler(network=net) as prof:
        # sendto transmits synchronously, so the sends belong inside the
        # profiled stretch.
        for _ in range(10):
            sock.sendto(b"x", Endpoint("192.0.2.2", 9))
        net.run_until(5.0)
    assert len(got) == 10
    assert prof.events > 0 and prof.packets >= 10
    assert prof.virtual_seconds == pytest.approx(5.0)
    record = prof.to_dict()
    assert record["packets"] == prof.packets
    with pytest.raises(ValueError):
        RunProfiler()  # needs a scheduler or a network
