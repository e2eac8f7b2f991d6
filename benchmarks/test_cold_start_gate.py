"""The ``cold_start`` gate in ``check_regression.py``: counts, not times.

The record itself is emitted by ``emit_bench.py`` and judged in CI's
``bench-gate`` job; this pins the judging rule on hand-made records.
"""

from check_regression import cold_start_failures

BASELINE = {
    "repro.core.registry": {"repro_modules": 9, "import_wall_ms": 30.0},
    "repro.natcheck.fleet": {"repro_modules": 33, "import_wall_ms": 80.0},
}


def _fresh(**changes):
    fresh = {name: dict(cell) for name, cell in BASELINE.items()}
    for name, count in changes.items():
        fresh[name.replace("_", ".")]["repro_modules"] = count
    return fresh


def test_equal_or_fewer_modules_pass():
    assert cold_start_failures(BASELINE, _fresh()) == []
    assert cold_start_failures(BASELINE, _fresh(repro_natcheck_fleet=30)) == []


def test_one_more_module_fails_with_no_tolerance():
    assert cold_start_failures(BASELINE, _fresh(repro_core_registry=10)) == [
        "cold_start[repro.core.registry]"
    ]


def test_times_are_reported_not_gated(capsys):
    fresh = _fresh()
    fresh["repro.core.registry"]["import_wall_ms"] = 3000.0
    assert cold_start_failures(BASELINE, fresh) == []
    assert "import 3000 ms (baseline 30 ms, not gated)" in capsys.readouterr().out


def test_entry_point_missing_from_fresh_fails_and_new_one_passes():
    fresh = _fresh()
    del fresh["repro.natcheck.fleet"]
    fresh["repro"] = {"repro_modules": 1, "import_wall_ms": 2.0}
    assert cold_start_failures(BASELINE, fresh) == ["cold_start[repro.natcheck.fleet]"]
    assert cold_start_failures(None, fresh) == []  # baseline predates the record
    assert len(cold_start_failures(BASELINE, None)) == 2
