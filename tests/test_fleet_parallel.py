"""Parallel fleet execution: identical results, stable seeds, sane failure.

The fleet is embarrassingly parallel (each device is an isolated
simulation), so ``run_fleet(workers=N)`` must be a pure speedup: identical
:class:`FleetResult` report-for-report, deterministic across interpreter
invocations (the seed derivation must not depend on ``PYTHONHASHSEED``),
and a worker crash must surface as an exception, not a hang.
"""

import os
import subprocess
import sys
import zlib

import pytest

import repro
from repro.natcheck.fleet import (
    FLEET_CHUNK,
    VENDOR_SPECS,
    VendorSpec,
    _chunk_tasks,
    device_seed,
    resolve_workers,
    run_fleet,
)

#: Small but not trivial: spans two vendors, crosses the chunk boundary for
#: the first one, and exercises every Table 1 column.
SMALL_SPECS = (
    VendorSpec("Linksys", (18, 20), (4, 18), (12, 15), (2, 15)),
    VendorSpec("Windows", (5, 6), (2, 6), (3, 5), (4, 5)),
)


def _flatten(result):
    return [
        (
            r.vendor,
            r.device,
            r.summary(),
            r.udp_probe_rtt,
            r.tcp_connect_rtt,
            r.elapsed,
        )
        for r in result.all_reports()
    ]


@pytest.mark.parametrize("cache", [False, True], ids=["nocache", "dedup"])
def test_parallel_equals_serial_report_for_report(cache):
    serial = run_fleet(SMALL_SPECS, seed=11, workers=1, cache=cache)
    parallel = run_fleet(SMALL_SPECS, seed=11, workers=2, cache=cache)
    assert list(serial.reports) == list(parallel.reports)  # vendor order
    assert _flatten(serial) == _flatten(parallel)


def test_parallel_progress_runs_in_parent_and_covers_fleet():
    calls = []
    result = run_fleet(
        SMALL_SPECS, seed=11, workers=2, progress=lambda *a: calls.append(a)
    )
    assert result.total_devices == 26
    # Per-vendor counts reach the full population exactly once each.
    finals = {v: (done, total) for v, done, total in calls}
    assert finals == {"Linksys": (20, 20), "Windows": (6, 6)}


def _exploding_runner(spec, seed, start, stop):
    raise RuntimeError(f"worker died on {spec.name}[{start}:{stop}]")


@pytest.mark.parametrize("cache", [False, True], ids=["nocache", "dedup"])
def test_worker_exception_propagates_instead_of_hanging(cache):
    with pytest.raises(RuntimeError, match="worker died"):
        run_fleet(SMALL_SPECS, seed=11, workers=2, cache=cache,
                  _runner=_exploding_runner)


def test_device_seed_is_stable_across_interpreters():
    """Regression for the PYTHONHASHSEED bug: the old derivation used
    ``hash((name, index))``, whose value changes per interpreter, so "same
    seed => same fleet" silently broke across runs and pool workers.  Pin
    the CRC32-based value so any future drift fails loudly."""
    assert device_seed(0, "Linksys", 0) == 461721
    assert device_seed(0, "Linksys", 0) == zlib.crc32(b"Linksys:0") % 1_000_000
    assert device_seed(42, "(other)", 130) == (
        42 * 1_000_003 + zlib.crc32(b"(other):130") % 1_000_000
    )


def test_device_seed_property_sweep():
    """Property-style sweep: every (seed, vendor, index) combination must
    follow the documented CRC32 recipe, stay inside the mixing bounds, and
    never collide for distinct devices under the same run seed (the fleet
    relies on per-device streams being independent)."""
    vendors = [s.name for s in VENDOR_SPECS] + ["Weird/Vendor v2.1", ""]
    seen = {}
    for seed in (0, 1, 42, 2**31):
        for vendor in vendors:
            for index in (0, 1, 7, 129, 99_999):
                value = device_seed(seed, vendor, index)
                expected = seed * 1_000_003 + (
                    zlib.crc32(f"{vendor}:{index}".encode()) % 1_000_000
                )
                assert value == expected
                assert value == device_seed(seed, vendor, index)  # pure
                seen.setdefault(seed, {})[(vendor, index)] = value
    for per_seed in seen.values():
        assert len(set(per_seed.values())) == len(per_seed)  # no collisions


def test_device_seed_stable_under_different_hash_seed():
    """Run the same derivations in a subprocess with a different
    PYTHONHASHSEED — the values a pool worker computes must match ours."""
    combos = [(0, "Linksys", 0), (42, "(other)", 130), (7, "D-Link", 21)]
    ours = [device_seed(*c) for c in combos]
    src_root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ, PYTHONHASHSEED="4242", PYTHONPATH=src_root)
    script = (
        "from repro.natcheck.fleet import device_seed\n"
        f"print([device_seed(*c) for c in {combos!r}])\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True,
        text=True, check=True,
    )
    assert eval(out.stdout.strip()) == ours


def test_chunking_is_vendor_sliced_and_complete():
    tasks = _chunk_tasks(VENDOR_SPECS, FLEET_CHUNK)
    covered = {}
    for position, start, stop in tasks:
        assert 0 < stop - start <= FLEET_CHUNK
        covered[position] = covered.get(position, 0) + (stop - start)
    assert covered == {
        i: spec.population for i, spec in enumerate(VENDOR_SPECS)
    }


def test_resolve_workers_env_and_kwarg(monkeypatch):
    monkeypatch.delenv("REPRO_FLEET_WORKERS", raising=False)
    assert resolve_workers(None) == 1  # default stays serial
    assert resolve_workers(3) == 3  # kwarg wins
    monkeypatch.setenv("REPRO_FLEET_WORKERS", "2")
    assert resolve_workers(None) == 2
    assert resolve_workers(5) == 5  # kwarg beats env
    monkeypatch.setenv("REPRO_FLEET_WORKERS", "auto")
    assert resolve_workers(None) == (os.cpu_count() or 1)
    assert resolve_workers(0) == (os.cpu_count() or 1)
