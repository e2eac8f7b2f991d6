"""Tests for the causal flight recorder, attribution engine, and exporters.

Three layers of the PR's contract are pinned here:

* the recorder itself — context propagation through timer chains, packet
  flow lineage, ring-buffer eviction accounting, timeline windowing;
* the attribution taxonomy — each rule fires on its evidence shape, rule
  priority resolves overlapping evidence, and every named ``--explain``
  scenario lands on its advertised root cause;
* the exporters — JSONL and Chrome-trace writers round-trip the payload
  byte-for-field, including the empty, eviction-truncated, and nested-
  children edge cases — and fleet attribution is identical across the
  cached, dedup'd, and ``--no-cache`` paths.
"""

import json

import pytest

from repro.netsim.addresses import Endpoint
from repro.netsim.clock import Scheduler
from repro.netsim.packet import IpProtocol, Packet
from repro.obs import attribution
from repro.obs.attribution import CATEGORIES, explain, render_verdict
from repro.obs.flight import SUCCESS_OUTCOMES, FlightRecorder
from repro.obs.flight_export import to_chrome_trace, to_jsonl


@pytest.fixture
def recorder():
    return FlightRecorder(Scheduler())


# -- recorder core ------------------------------------------------------------


def test_attempt_sets_and_finish_restores_context(recorder):
    sched = recorder.scheduler
    assert sched.context is None
    outer = recorder.attempt("outer")
    assert sched.context == outer.id
    inner = recorder.attempt("inner", parent=outer)
    assert sched.context == inner.id
    recorder.finish(inner, "ok")
    assert sched.context == outer.id
    recorder.finish(outer, "failed")
    assert sched.context is None


def test_timer_chain_inherits_attempt_context(recorder):
    sched = recorder.scheduler
    seen = []
    attempt = recorder.attempt("probe")
    # Scheduled inside the attempt: the timer captures the context and
    # restores it when it fires, even after the attempt is finished.
    sched.call_later(5.0, lambda: seen.append(sched.context))
    recorder.finish(attempt, "failed")
    sched.call_later(5.0, lambda: seen.append(sched.context))  # outside
    sched.run()
    assert seen == [attempt.id, None]


def test_events_recorded_in_timer_attribute_to_owning_attempt(recorder):
    sched = recorder.scheduler
    attempt = recorder.attempt("probe")
    sched.call_later(1.0, lambda: recorder.record("nat.drop", reason="filtered"))
    recorder.finish(attempt, "failed")
    sched.run()
    owned = [e for e in recorder.events() if e.attempt == attempt.id]
    assert [e.kind for e in owned] == ["attempt.start", "attempt.end", "nat.drop"]
    assert owned[-1].attempt == attempt.id


def test_packet_flow_stamped_once_and_survives_copy(recorder):
    attempt = recorder.attempt("punch")
    packet = Packet(
        IpProtocol.UDP, Endpoint("10.0.0.1", 1), Endpoint("2.2.2.2", 2), b"probe"
    )
    recorder.packet_event("nat.translate", packet)
    assert packet.flow == attempt.id
    recorder.finish(attempt, "failed")
    # A NAT's rewritten clone keeps the lineage even though the attempt's
    # context is long gone.
    clone = packet.copy()
    clone.src = Endpoint("155.99.25.11", 3)
    assert clone.flow == attempt.id
    recorder.packet_event("link.drop", clone, reason="lost")
    assert recorder.events()[-1].attempt == attempt.id


def test_ring_buffer_eviction_counts_dropped_events():
    recorder = FlightRecorder(Scheduler(), capacity=4)
    for i in range(10):
        recorder.record_global("tick", i=i)
    assert recorder.dropped_events == 6
    assert [e.attrs["i"] for e in recorder.events()] == [6, 7, 8, 9]


def test_timeline_merges_window_scoped_global_events(recorder):
    sched = recorder.scheduler
    recorder.record_global("fault", fault="early")  # t=0, before the attempt
    sched.call_later(1.0, lambda: None)
    sched.run()  # advance to t=1
    attempt = recorder.attempt("probe")
    recorder.record_global("fault", fault="inside")
    sched.call_later(1.0, lambda: recorder.finish(attempt, "timeout"))
    sched.call_later(2.0, lambda: recorder.record_global("fault", fault="late"))
    sched.run()
    faults = [e.attrs["fault"] for e in recorder.timeline(attempt) if e.kind == "fault"]
    assert faults == ["inside"]


def test_success_outcomes_include_deliberate_close():
    assert "closed" in SUCCESS_OUTCOMES
    assert "broken" not in SUCCESS_OUTCOMES
    assert "timeout" not in SUCCESS_OUTCOMES


# -- attribution rules --------------------------------------------------------


def _failed(recorder, name="probe"):
    attempt = recorder.attempt(name)
    recorder.finish(attempt, "failed")
    return attempt


def test_successful_attempt_gets_category_none(recorder):
    attempt = recorder.attempt("probe")
    recorder.finish(attempt, "connected")
    assert explain(attempt, recorder).category == attribution.CAT_NONE


def test_mapping_divergence_beats_filter_drops(recorder):
    attempt = recorder.attempt("probe")
    for public in ("155.99.25.11:62000", "155.99.25.11:62001"):
        recorder.record(
            "nat.map", node="NAT", proto="udp", private="10.0.0.1:4321",
            public=public, policy="endpoint-dependent",
        )
    recorder.record("nat.drop", reason="filtered", node="NAT")
    recorder.finish(attempt, "failed")
    verdict = explain(attempt, recorder)
    assert verdict.category == attribution.CAT_SYMMETRIC
    assert len(verdict.evidence) == 2  # the two divergent nat.map events


def test_hairpin_refusal_beats_rst_evidence(recorder):
    attempt = recorder.attempt("probe")
    recorder.record("nat.drop", reason="hairpin-refused", node="NAT", refusal="rst")
    recorder.finish(attempt, "failed")
    assert explain(attempt, recorder).category == attribution.CAT_HAIRPIN


def test_reboot_in_window_explains_everything(recorder):
    attempt = recorder.attempt("session")
    recorder.record("nat.drop", reason="filtered", node="NAT")
    recorder.record_global("nat.reboot", node="NAT")
    recorder.finish(attempt, "broken")
    assert explain(attempt, recorder).category == attribution.CAT_NAT_REBOOT


def test_loss_and_timeout_and_unknown_fallbacks(recorder):
    lossy = recorder.attempt("probe")
    recorder.record("link.drop", reason="burst-lost", link="backbone")
    recorder.finish(lossy, "timeout")
    assert explain(lossy, recorder).category == attribution.CAT_LOSS

    silent = recorder.attempt("probe")
    recorder.finish(silent, "timeout")
    assert explain(silent, recorder).category == attribution.CAT_TIMEOUT

    odd = recorder.attempt("probe")
    recorder.finish(odd, "failed")  # no evidence, not a timeout
    assert explain(odd, recorder).category == attribution.CAT_UNKNOWN


def test_render_verdict_mentions_category_and_evidence(recorder):
    attempt = recorder.attempt("probe", peer=2)
    recorder.record("link.drop", reason="lost", link="backbone")
    recorder.finish(attempt, "timeout")
    text = render_verdict(explain(attempt, recorder))
    assert "root cause: loss-exhausted" in text
    assert "link.drop" in text
    assert "peer=2" in text


# -- --explain scenarios ------------------------------------------------------


@pytest.mark.parametrize(
    "scenario,category",
    [
        ("symmetric-udp", attribution.CAT_SYMMETRIC),
        ("hairpin-udp", attribution.CAT_HAIRPIN),
        ("rst-tcp", attribution.CAT_RST),
        ("nat-reboot", attribution.CAT_NAT_REBOOT),
        ("server-dead", attribution.CAT_SERVER_DEAD),
        ("loss-storm", attribution.CAT_LOSS),
    ],
)
def test_explain_scenarios_land_on_their_root_cause(scenario, category):
    from repro.analysis.explain import explain_scenario

    _recorder, verdicts = explain_scenario(scenario, seed=7)
    assert verdicts, f"scenario {scenario} produced no failed attempts"
    categories = {v.category for v in verdicts}
    # The headline root cause is present; a NAT-Check DUT may legitimately
    # fail other phases too (e.g. a RST-sender that also lacks hairpin),
    # but nothing may fall through to "unknown".
    assert category in categories
    assert attribution.CAT_UNKNOWN not in categories
    assert all(v.evidence for v in verdicts)


# -- exporters ----------------------------------------------------------------


def _build_nested_recorder():
    recorder = FlightRecorder(Scheduler())
    sched = recorder.scheduler
    outer = recorder.attempt("connect.udp", peer=2)
    inner = recorder.attempt("punch.udp", parent=outer, remote="2.2.2.2:2000")
    recorder.record("nat.drop", reason="filtered", node="NAT")
    recorder.record_global("fault", fault="server-kill", target="S")
    sched.call_later(1.5, lambda: recorder.finish(inner, "timeout"))
    sched.call_later(2.0, lambda: recorder.finish(outer, "failed"))
    sched.run()
    return recorder


def _truncated_recorder():
    recorder = FlightRecorder(Scheduler(), capacity=3)
    attempt = recorder.attempt("probe")
    for i in range(6):
        recorder.record("link.drop", reason="lost", i=i)
    recorder.finish(attempt, "timeout")
    assert recorder.dropped_events > 0
    return recorder


def _empty_recorder():
    return FlightRecorder(Scheduler())


def _jsonl_parts(document):
    """``(dropped_events, attempts, events)`` as the JSONL lines carry them,
    each record less its ``type`` tag."""
    records = [json.loads(line) for line in document.splitlines()]
    kinds = {"meta": [], "attempt": [], "event": []}
    for record in records:
        kinds[record.pop("type")].append(record)
    (meta,) = kinds["meta"]
    return meta["dropped_events"], kinds["attempt"], kinds["event"]


def _chrome_trace_parts(document):
    """``(dropped_events, attempts, events)`` as the trace's ``args`` carry
    them."""
    parsed = json.loads(document)
    by_cat = {"attempt": [], "flight": []}
    for record in parsed["traceEvents"]:
        by_cat[record["cat"]].append(record["args"])
    return parsed["otherData"]["dropped_events"], by_cat["attempt"], by_cat["flight"]


@pytest.mark.parametrize(
    "build",
    [_empty_recorder, _truncated_recorder, _build_nested_recorder],
    ids=["empty", "eviction-truncated", "nested-children"],
)
@pytest.mark.parametrize(
    "writer,parts",
    [(to_jsonl, _jsonl_parts), (to_chrome_trace, _chrome_trace_parts)],
    ids=["jsonl", "chrome-trace"],
)
def test_exporters_round_trip_payload(build, writer, parts):
    """Each writer loses nothing of the payload: plain ``json.loads`` of its
    output gives back the attempts, the events and ``dropped_events``."""
    payload = build().to_payload()
    dropped, attempts, events = parts(writer(payload))
    assert dropped == payload["dropped_events"]
    assert attempts == payload["attempts"]
    assert events == payload["events"]


def test_jsonl_is_line_delimited_with_meta_header():
    lines = to_jsonl(_build_nested_recorder()).strip().splitlines()
    records = [json.loads(line) for line in lines]
    assert records[0]["type"] == "meta"
    assert {r["type"] for r in records[1:]} == {"attempt", "event"}


def test_chrome_trace_nests_child_under_parent_thread():
    recorder = _build_nested_recorder()
    parsed = json.loads(to_chrome_trace(recorder))
    slices = [e for e in parsed["traceEvents"] if e["ph"] == "X"]
    assert len(slices) == 2
    # Both the root and its child render on the root attempt's thread row.
    assert {s["tid"] for s in slices} == {recorder.roots[0].id}
    assert parsed["otherData"]["dropped_events"] == 0


# -- fleet attribution --------------------------------------------------------


def _small_specs():
    from repro.natcheck.fleet import VendorSpec

    return (
        VendorSpec("Linksys", (18, 20), (4, 18), (12, 15), (2, 15)),
        VendorSpec("Windows", (5, 6), (2, 6), (3, 5), (4, 5)),
    )


def test_fleet_attribution_identical_across_cache_paths():
    from repro.natcheck.fleet import run_fleet

    specs = _small_specs()
    baseline = run_fleet(specs, seed=11, cache=False)
    dedup = run_fleet(specs, seed=11, cache=True)
    assert baseline.attribution_totals() == dedup.attribution_totals()
    for base_report, dedup_report in zip(
        baseline.all_reports(), dedup.all_reports()
    ):
        assert base_report.failure_attribution == dedup_report.failure_attribution


def test_fleet_failures_all_attributed_and_totals_match_table():
    from repro.natcheck.fleet import run_fleet

    result = run_fleet(_small_specs(), seed=11, cache=True)
    totals = result.attribution_totals()
    for phase, counts in totals.items():
        assert attribution.CAT_UNKNOWN not in counts, (phase, counts)
        assert all(category in CATEGORIES for category in counts)
    # Per-phase attribution counts equal the table's failure counts.
    reports = result.all_reports()
    expected = {
        "udp": sum(1 for r in reports if not bool(r.udp_punch_ok)),
        "udp-hairpin": sum(1 for r in reports if r.udp_hairpin is False),
        "tcp": sum(1 for r in reports if r.tcp_tested and not bool(r.tcp_punch_ok)),
        "tcp-hairpin": sum(1 for r in reports if r.tcp_hairpin is False),
    }
    observed = {phase: sum(counts.values()) for phase, counts in totals.items()}
    for phase, count in expected.items():
        assert observed.get(phase, 0) == count, (phase, observed)


def test_attribution_appendix_renders_ordered_counts():
    from repro.natcheck.table import render_attribution_appendix

    totals = {
        "udp": {"inbound-filtered": 2, "symmetric-mapping-mismatch": 5},
        "tcp": {"rst-by-nat": 3},
    }
    text = render_attribution_appendix(totals)
    assert "UDP punch: 7 failed" in text
    assert "TCP punch: 3 failed" in text
    # Category lines honour taxonomy priority order.
    assert text.index("symmetric-mapping-mismatch") < text.index("inbound-filtered")
    empty = render_attribution_appendix({})
    assert "no failures attributed" in empty
