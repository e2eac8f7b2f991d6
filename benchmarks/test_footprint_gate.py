"""The bytes-per-peer gate in ``check_regression.py``: a 10 % ceiling.

The two figures are emitted by ``rendezvous_scale.py``'s untimed
``tracemalloc`` pass and judged in CI's ``bench-gate`` job; this pins the
judging rule on hand-made records.
"""

from check_regression import FOOTPRINT_METRICS, footprint_failures

BASELINE = {
    "registrations_per_second": 400_000.0,
    "table_bytes_per_registration": 136.0,
    "wheel_bytes_per_registrant": 120.0,
}


def _fresh(**changes):
    return {**BASELINE, **changes}


def test_equal_lower_or_within_ten_percent_passes():
    assert footprint_failures(BASELINE, _fresh()) == []
    assert footprint_failures(BASELINE, _fresh(table_bytes_per_registration=90.0)) == []
    # 3.10 / 3.12 object layouts differ from the 3.11 baseline by a few bytes.
    assert footprint_failures(BASELINE, _fresh(table_bytes_per_registration=149.0)) == []


def test_more_than_ten_percent_over_fails_each_metric_on_its_own():
    assert footprint_failures(BASELINE, _fresh(table_bytes_per_registration=150.0)) == [
        "rendezvous_scale.table_bytes_per_registration"
    ]
    assert footprint_failures(BASELINE, _fresh(wheel_bytes_per_registrant=133.0)) == [
        "rendezvous_scale.wheel_bytes_per_registrant"
    ]
    # The parent's dense ``_armed`` and ``__dict__`` records: 231 B.
    assert len(footprint_failures(BASELINE, _fresh(table_bytes_per_registration=231.0))) == 1


def test_baseline_without_the_fields_reports_new_and_passes(capsys):
    old_baseline = {"registrations_per_second": 400_000.0}
    assert footprint_failures(old_baseline, _fresh()) == []
    out = capsys.readouterr().out
    assert out.count("[NEW]") == len(FOOTPRINT_METRICS)
    assert footprint_failures(None, _fresh()) == []  # baseline predates the record
    assert footprint_failures(old_baseline, old_baseline) == []  # neither side has them


def test_field_missing_from_fresh_fails():
    fresh = _fresh()
    del fresh["wheel_bytes_per_registrant"]
    assert footprint_failures(BASELINE, fresh) == [
        "rendezvous_scale.wheel_bytes_per_registrant"
    ]
    assert len(footprint_failures(BASELINE, None)) == len(FOOTPRINT_METRICS)
