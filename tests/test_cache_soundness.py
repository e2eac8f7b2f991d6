"""Dedup soundness: cloned and fresh fleet results are identical.

The behavioral-fingerprint dedup is only admissible if it is invisible in
the results: a Table 1 produced by dedup + cloning, or by simulating all
380 devices individually, must be field-for-field the same, and must
reflect the code that ran.  These tests pin that contract, the planner's
grouping, and the metrics flow — plus the headline perf claim (dedup
>= 5x faster than simulating every device).
"""

import os
import subprocess
import sys
import time

import pytest

import repro
from repro.natcheck.fleet import (
    VENDOR_SPECS,
    VendorSpec,
    device_behavior,
    device_config,
    device_fingerprint,
    plan_runs,
    run_fleet,
)
from repro.natcheck.table import table1_rows
from repro.obs.export import summarize_for_report
from repro.obs.metrics import MetricsRegistry

#: Compact population exercising every Table 1 column and both TCP fail
#: modes (the index-parity branch) without 380 simulations per test.
SMALL_SPECS = (
    VendorSpec("Linksys", (18, 20), (4, 18), (12, 15), (2, 15)),
    VendorSpec("Windows", (5, 6), (2, 6), (3, 5), (4, 5)),
)


def _dicts(result):
    """Every report as a plain dict, in deterministic fleet order."""
    return [r.to_dict() for r in result.all_reports()]


def test_plan_matches_direct_fingerprints():
    """The planner groups the real fleet's devices by their direct
    device_fingerprint(behavior, config, seed): distinct fingerprints in
    first-seen order, every device covered exactly once."""
    items = [
        (device_behavior(spec, index), device_config(spec, index))
        for spec in VENDOR_SPECS
        for index in range(spec.population)
    ]
    direct = [device_fingerprint(behavior, config, 42) for behavior, config in items]
    plan = plan_runs(items, seed=42)
    assert list(plan) == list(dict.fromkeys(direct))
    assert len(plan) == 18
    for fingerprint, covered in plan.items():
        assert {direct[position] for position in covered} == {fingerprint}
    assert sorted(p for covered in plan.values() for p in covered) == list(range(len(items)))


def test_dedup_equals_nocache_field_for_field():
    baseline = run_fleet(SMALL_SPECS, seed=11, cache=False)
    dedup = run_fleet(SMALL_SPECS, seed=11, cache=True)
    assert list(baseline.reports) == list(dedup.reports)
    assert _dicts(baseline) == _dicts(dedup)
    assert dedup.cache.simulated == dedup.cache.distinct_fingerprints
    assert dedup.cache.dedup_clones == 26 - dedup.cache.distinct_fingerprints
    assert baseline.cache.enabled is False


@pytest.mark.parametrize("cache", [False, True], ids=["nocache", "dedup"])
def test_progress_reaches_each_vendor_population(cache):
    calls = []
    result = run_fleet(
        SMALL_SPECS, seed=11, cache=cache, progress=lambda *a: calls.append(a)
    )
    assert result.total_devices == 26
    # The last call per vendor reports the full population.
    finals = {vendor: (done, total) for vendor, done, total in calls}
    assert finals == {"Linksys": (20, 20), "Windows": (6, 6)}


def test_run_fleet_rejects_workers_other_than_one():
    with pytest.raises(ValueError, match="workers must be 1"):
        run_fleet(SMALL_SPECS, seed=11, workers=2)


def test_fingerprint_seed_stable_under_different_hash_seed():
    """Every fleet simulation runs on ``device_fingerprint(...).seed``;
    derive a few in a subprocess with another ``PYTHONHASHSEED`` and
    require the same values."""
    devices = [(0, 0, 0), (42, len(VENDOR_SPECS) - 1, 130), (7, 2, 20)]
    script = (
        "from repro.natcheck.fleet import VENDOR_SPECS, device_behavior, "
        "device_config, device_fingerprint\n"
        "print([device_fingerprint(device_behavior(VENDOR_SPECS[p], i), "
        "device_config(VENDOR_SPECS[p], i), s).seed "
        f"for s, p, i in {devices!r}])\n"
    )
    ours = [
        device_fingerprint(
            device_behavior(VENDOR_SPECS[p], i), device_config(VENDOR_SPECS[p], i), s
        ).seed
        for s, p, i in devices
    ]
    src_root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ, PYTHONHASHSEED="4242", PYTHONPATH=src_root)
    out = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True,
        text=True, check=True,
    )
    assert eval(out.stdout.strip()) == ours


def test_full_fleet_cached_identical_and_5x_faster():
    """The headline tier-1 guarantee on the real 380-device fleet: the
    dedup'd run reproduces the no-cache Table 1 field-for-field and at
    least 5x faster (18 simulations instead of 380)."""
    started = time.perf_counter()
    baseline = run_fleet(seed=42, cache=False)
    nocache_wall = time.perf_counter() - started

    started = time.perf_counter()
    dedup = run_fleet(seed=42, cache=True)
    dedup_wall = time.perf_counter() - started

    assert _dicts(baseline) == _dicts(dedup)
    assert [r.__dict__ for r in baseline.all_reports()] == [
        r.__dict__ for r in dedup.all_reports()
    ]
    assert dedup.cache.simulated == dedup.cache.distinct_fingerprints
    assert nocache_wall >= 5 * dedup_wall, (nocache_wall, dedup_wall)
    # And the aggregation downstream agrees (Table 1 rows are derived data).
    assert table1_rows(baseline.reports) == table1_rows(dedup.reports)


def test_fleet_report_reflects_the_code_that_ran(monkeypatch):
    """A second run in the same process after a code change reports what
    the changed code computes: nothing from the first run is served again.
    The attribution verdicts come from ``repro.obs.attribution``, so a
    renamed category must show up in the very next fleet's totals."""
    from repro.obs import attribution

    before = run_fleet(SMALL_SPECS, seed=11).attribution_totals()["tcp"]
    assert attribution.CAT_RST in before
    monkeypatch.setattr(attribution, "CAT_RST", "rst-from-nat")
    after = run_fleet(SMALL_SPECS, seed=11).attribution_totals()["tcp"]
    assert after.get("rst-from-nat") == before["rst-by-nat"]
    assert "rst-by-nat" not in after


def test_cache_counters_flow_into_obs_metrics():
    metrics = MetricsRegistry()
    result = run_fleet(SMALL_SPECS, seed=11, cache=True, metrics=metrics)
    counters = metrics.counters()
    assert counters["fleet.cache.distinct_fingerprints"] == (
        result.cache.distinct_fingerprints
    )
    assert counters["fleet.cache.simulated"] == result.cache.simulated
    assert counters["fleet.cache.dedup_clones"] == result.cache.dedup_clones
    # ...and the analysis report's summary block surfaces them.
    lines = summarize_for_report(metrics)
    assert any("fleet.cache.distinct_fingerprints" in line for line in lines)


def test_disabled_cache_publishes_disabled_counter():
    metrics = MetricsRegistry()
    run_fleet(SMALL_SPECS[:1], seed=1, cache=False, metrics=metrics)
    assert metrics.counters()["fleet.cache.disabled"] == 1
