"""Smoke test of the end-to-end benchmark (``benchmarks/e2e``).

Runs every workload with ``--smoke`` (one tiny repetition per pass, a few
seconds in total) and checks the instrument, not the program: every metric
named in ``BENCHMARK.json`` is emitted with its unit, two same-seed runs
simulate exactly the same thing, the bypass predictions hold, and the
statistics / span / profile-attribution helpers compute what they claim.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, HERE)

import catalogue  # noqa: E402
import compare  # noqa: E402
import ledger  # noqa: E402
import stats  # noqa: E402

EXACT_BASES = ("count", "sim", "ratio")


def _run(out_dir, *extra):
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--smoke", "--out", str(out_dir), *extra],
        cwd=ROOT, stdout=subprocess.PIPE, check=True, timeout=170,
    )
    final = json.loads(done.stdout.decode().strip().splitlines()[-1])
    records = {}
    for name in catalogue.WORKLOADS:
        with open(os.path.join(str(out_dir), f"{name}.run0.json"), encoding="utf-8") as handle:
            records[name] = json.load(handle)
    return final, records


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    return _run(tmp_path_factory.mktemp("e2e-smoke"))


def test_manifest_is_the_catalogue():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        assert json.load(handle) == catalogue.manifest()


def test_every_metric_is_emitted_with_its_unit(smoke):
    final, records = smoke
    assert final["correct"] and final["failed"] == 0 and final["attempted"] >= 1
    manifest = catalogue.manifest()
    for workload in catalogue.WORKLOADS:
        for spec in manifest["end_to_end"] + manifest["per_layer"]:
            metric = final["metrics"][f"{workload}:{spec['name']}"]
            assert metric["unit"] == spec["unit"]
            assert isinstance(metric["value"], (int, float))
        for spec in manifest["end_to_end"]:
            assert final["metrics"][f"{workload}:{spec['name']}"]["value"] > 0
        # All seven end-to-end metrics come from the untraced pass; the ones
        # that do not apply to a workload are null there, never absent.
        e2e = records[workload]["e2e"]["metrics"]
        assert list(e2e) == [spec.metric.name for spec in catalogue.END_TO_END]
        nulls = {name for name, metric in e2e.items() if metric["value"] is None}
        expected = set()
        if not workload.startswith("punch_mesh"):
            expected |= {"sim_connect_ms_p50", "sim_connect_ms_p95"}
        if workload == "rendezvous_churn":
            expected.add("sim_packets_per_s")
        assert nulls == expected, workload


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_one_pass_prints_exactly_its_section_of_the_manifest(tmp_path, trace, section):
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--smoke", "--workload",
         "rendezvous_churn", "--seed", "3", "--seconds", "12", "--trace", trace],
        cwd=ROOT, stdout=subprocess.PIPE, check=True, timeout=170,
    )
    final = json.loads(done.stdout.decode().strip().splitlines()[-1])
    assert set(final) == {"correct", "attempted", "failed", "metrics"}
    assert list(final["metrics"]) == [spec["name"] for spec in catalogue.manifest()[section]]
    assert all(isinstance(m["value"], (int, float)) for m in final["metrics"].values())


def test_same_seed_simulates_the_same_thing(smoke, tmp_path):
    _, first = smoke
    _, second = _run(tmp_path, "--trace", "1")
    bases = {m.name: m.base for m in catalogue.TRACED_METRICS}
    for workload in catalogue.WORKLOADS:
        a, b = first[workload]["trace"], second[workload]["trace"]
        e2e = first[workload]["e2e"]
        assert a["sim_digest"] == b["sim_digest"] == e2e["sim_digest"]
        assert a["outcome_digest"] == b["outcome_digest"] == e2e["outcome_digest"]
        for name, base in bases.items():
            if base in EXACT_BASES:
                assert a["metrics"][name] == b["metrics"][name], (workload, name)


def test_bypass_predictions_hold(smoke):
    _, records = smoke

    def value(workload, name):
        return records[workload]["trace"]["metrics"][name]["value"]

    for metric in catalogue.PER_LAYER:
        layer_count = metric.base == "count" and metric.name.startswith(
            ("netsim.link.", "nat.", "transport.")
        )
        if layer_count:
            assert value("rendezvous_churn", metric.name) == 0, metric.name
    assert value("session_dataplane", "netsim.packet.pool_recycled") > 0
    assert value("punch_mesh", "obs.flight.events_recorded") == 0
    assert value("session_dataplane", "obs.flight.events_recorded") == 0
    assert value("punch_mesh_lossy", "obs.flight.events_recorded") > 0
    assert value("table1_survey", "obs.flight.events_recorded") > 0


def test_result_files_record_their_provenance(smoke):
    _, records = smoke
    for record in records.values():
        assert record["seed"] == catalogue.DEFAULT_SEED
        assert record["run_seconds"] == catalogue.RUN_SECONDS
        assert record["commit"] and record["python"] and record["nproc"] >= 1
        assert len(record["e2e"]["rep_walls_s"]) >= 1


# -- helpers -----------------------------------------------------------------------


def test_median_quartiles_and_spread():
    values = [10.0, 12.0, 11.0, 13.0, 9.0]
    assert stats.median(values) == 11.0
    q1, q3 = stats.quartiles(values)
    assert (q1, q3) == (9.5, 12.5)  # statistics.quantiles(n=4), exclusive method
    assert stats.spread(values) == pytest.approx(3.0 / 11.0)
    assert stats.quartiles([7.0]) == (7.0, 7.0)
    assert stats.spread([0.0, 0.0, 0.0]) == 0.0
    assert stats.percentile([], 0.5) == 0.0
    assert stats.percentile([5.0, 1.0, 3.0], 0.5) == 3.0
    assert stats.percentile([5.0, 1.0, 3.0], 0.95) == 5.0


def test_span_self_time_subtracts_children():
    # [name, start, end, parent, op]
    records = [
        ["outer", 0.0, 10.0, None, None],
        ["inner", 1.0, 4.0, 0, "a"],
        ["inner", 5.0, 7.0, 0, "b"],
        ["leaf", 5.5, 6.0, 2, "b"],
        ["open", 8.0, None, 0, None],  # never finished: ignored
    ]
    self_ms = ledger.span_self_ms(records)
    assert self_ms["outer"] == pytest.approx(5000.0)  # 10 - (3 + 2)
    assert self_ms["inner"] == pytest.approx(4500.0)  # 3 + (2 - 0.5)
    assert self_ms["leaf"] == pytest.approx(500.0)
    assert "open" not in self_ms

    log = ledger.SpanLog()
    with log.span("a"):
        with log.span("b", op=1):
            pass
    assert [r[0] for r in log.records] == ["a", "b"]
    assert log.records[1][3] == 0 and log.records[0][3] is None
    totals = ledger.span_self_ms(log.records)
    assert totals["a"] >= 0.0 and totals["b"] >= 0.0


def test_profile_attribution_charges_stdlib_time_to_the_nearest_repro_caller():
    link = ("/x/src/repro/netsim/link.py", 10, "transmit")
    tcp = ("/x/src/repro/transport/tcp.py", 20, "handle_segment")
    driver = (os.path.join(HERE, "wl_mesh.py"), 5, "_request")
    flag_and = ("/usr/lib/python3/enum.py", 1515, "__and__")
    enum_call = ("/usr/lib/python3/enum.py", 686, "__call__")
    orphan = ("~", 0, "<built-in method exec>")
    # func -> (cc, nc, tt, ct, callers); callers: func -> (nc, cc, tt, ct)
    table = {
        link: (1, 1, 2.0, 2.5, {driver: (1, 1, 2.0, 2.5)}),
        tcp: (1, 1, 3.0, 4.5, {link: (1, 1, 3.0, 4.5)}),
        driver: (1, 1, 1.0, 9.0, {}),
        # 1.0 s in Flag.__and__: 0.75 under tcp, 0.25 under link
        flag_and: (4, 4, 1.0, 1.5, {tcp: (3, 3, 0.75, 1.1), link: (1, 1, 0.25, 0.4)}),
        # 0.5 s one level further down, reached only through __and__
        enum_call: (4, 4, 0.5, 0.5, {flag_and: (4, 4, 0.5, 0.5)}),
        orphan: (1, 1, 0.25, 0.25, {}),
    }
    buckets, unattributed, total = ledger.attribute_profile(table)
    assert total == pytest.approx(7.75)
    assert unattributed == pytest.approx(0.25)
    assert buckets["transport.tcp"] == pytest.approx(3.0 + 0.75 + 0.375)
    assert buckets["netsim.link"] == pytest.approx(2.0 + 0.25 + 0.125)
    assert buckets[ledger.DRIVER_BUCKET] == pytest.approx(1.0)
    assert sum(buckets.values()) + unattributed == pytest.approx(total)
    assert ledger.bucket_of(("/x/src/repro/obs/__init__.py", 1, "f")) == "obs"


def test_compare_labels():
    assert compare.classify([100.0] * 5, [100.5] * 5, "higher", 0.10) == "unchanged"
    assert compare.classify([100.0] * 5, [80.0] * 5, "higher", 0.10) == "regressed"
    assert compare.classify([1.0] * 5, [1.2] * 5, "lower", 0.10) == "regressed"
    # setup_s: 20 % or 0.1 s, whichever is larger
    assert compare.classify([0.15] * 5, [0.24] * 5, "lower", 0.20, floor=0.1) == "unchanged"
    assert compare.classify([0.15] * 5, [0.26] * 5, "lower", 0.20, floor=0.1) == "regressed"
    noisy = [80.0, 95.0, 100.0, 105.0, 120.0]
    assert compare.classify(noisy, [x + 1 for x in noisy], "higher", 0.10) == "unresolved"
    # ... unless every candidate run beats every baseline run
    assert compare.classify(noisy, [x + 60 for x in noisy], "higher", 0.10) == "unchanged"
    # exact metrics: seed by seed, any move is a behaviour change
    assert compare.classify_exact({1: 20.0, 2: 0.0}, {2: 0.0, 1: 20.0}) == "unchanged"
    assert compare.classify_exact({1: 20.0, 2: 0.0}, {1: 19.0, 2: 0.0}) == "changed"
    assert compare.classify_exact({1: 20.0}, {2: 20.0}) == "unresolved"


def test_compare_covers_every_end_to_end_metric_and_refuses_mixed_run_lengths(smoke, tmp_path):
    _, records = smoke

    def write(directory, run_seconds, failed_ratio):
        os.makedirs(directory)
        for name, record in records.items():
            copy = json.loads(json.dumps(record))
            copy["run_seconds"] = run_seconds
            copy["e2e"]["metrics"]["failed_ratio"]["value"] = failed_ratio
            with open(os.path.join(directory, f"{name}.run0.json"), "w", encoding="utf-8") as handle:
                json.dump(copy, handle)

    a, b, c = (str(tmp_path / name) for name in "abc")
    write(a, 12.0, 0.0)
    write(b, 12.0, 0.25)
    write(c, 30.0, 0.0)
    rows = compare.compare(a, b)
    assert len(rows) == len(catalogue.WORKLOADS) * len(catalogue.END_TO_END)
    labels = {(row["workload"], row["metric"]): row["label"] for row in rows}
    assert labels[("punch_mesh", "failed_ratio")] == "changed"
    assert labels[("punch_mesh", "sim_connect_ms_p95")] == "unchanged"
    assert labels[("rendezvous_churn", "sim_packets_per_s")] == "unchanged"  # null on both
    with pytest.raises(SystemExit):
        compare.compare(a, c)
