"""CI bench-regression gate: fresh perf numbers vs the committed baseline.

Compares a freshly emitted ``BENCH_perf.json`` against the baseline checked
into the repository root and fails (exit 1) when any gated throughput metric
drops more than the tolerance (default 25% — wide enough for shared CI
runners, tight enough to catch a real hot-path regression).

Gated metrics come in two tiers: :data:`GATED_METRICS` must exist in both
records (their absence is itself a failure), while :data:`OPTIONAL_METRICS`
— records added after older baselines were committed, addressed by dotted
path — are gated only when the baseline carries them and reported as ``NEW``
when it does not, so a baseline refresh is never required just to grow the
record.  A metric present in the baseline but missing from the fresh record
always fails: that is a bench-harness regression, not a perf one.

The ``table1_fleet`` record is shape-checked rather than gated: it must
carry the fleet's ``wall_seconds``.

The ``cold_start`` record is gated on its counts, not its times: the number
of ``repro`` modules an entry point loads in a fresh interpreter is exact on
any host, so it may not *rise* over the baseline at all (no tolerance), while
the import wall times are printed for the reader and never fail the job.

The ``rendezvous_scale`` record's two ``tracemalloc`` figures
(:data:`FOOTPRINT_METRICS`, bytes per peer — lower is better) do not depend
on the host's load either, only on the interpreter's object layouts, which
differ by a few bytes between minor versions: they may not rise more than
:data:`FOOTPRINT_TOLERANCE` (10 %) over the baseline, and are reported as
``NEW`` when the baseline predates them.

Run:  PYTHONPATH=src python benchmarks/check_regression.py \
          --baseline BENCH_perf.json --fresh fresh/BENCH_perf.json
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

#: Throughput metrics the gate always protects (higher is better).  The
#: link-level echo view and the batched-delivery rate (send loop inside the
#: timed window) graduated from :data:`OPTIONAL_METRICS` once every live
#: baseline carried them: they bracket the link's transmit-to-receiver
#: path from both sides (with and without the NAT in the loop), so a
#: silent packet-path regression cannot hide behind the application-level
#: number alone.
GATED_METRICS = (
    "scheduler_events_per_second",
    "nat_packets_per_second",
    "nat_link_packets_per_second",
    "batched_delivery.packets_per_second",
)

#: Later-generation records (dotted paths), gated only when the baseline has
#: them.
OPTIONAL_METRICS = (
    "adversarial.attack_packets_per_second",
    "rendezvous_scale.registrations_per_second",
)

DEFAULT_TOLERANCE = 0.25

#: ``rendezvous_scale`` fields counting bytes per peer (lower is better).
FOOTPRINT_METRICS = (
    "table_bytes_per_registration",
    "wheel_bytes_per_registrant",
)
FOOTPRINT_TOLERANCE = 0.10


def lookup(record: dict, path: str) -> Optional[float]:
    """Resolve a dotted path into a nested record; None when absent."""
    node = record
    for key in path.split("."):
        if not isinstance(node, dict) or key not in node:
            return None
        node = node[key]
    return float(node)


def fleet_shape_error(fleet: object, label: str) -> Optional[str]:
    """Validate one record's ``table1_fleet`` shape; None when acceptable."""
    if not isinstance(fleet, dict):
        return f"{label}: table1_fleet record missing"
    if "wall_seconds" not in fleet:
        return f"{label}: table1_fleet omits wall_seconds"
    return None


def cold_start_failures(baseline: object, fresh: object) -> List[str]:
    """Entry points that load more ``repro`` modules than the baseline says
    (or vanished from the fresh record); prints one line per entry point."""
    baseline = baseline if isinstance(baseline, dict) else {}
    fresh = fresh if isinstance(fresh, dict) else {}
    failures: List[str] = []
    for name in sorted(set(baseline) | set(fresh)):
        if name not in fresh:
            print(f"[FAIL] cold_start[{name}]: in baseline but missing from fresh record")
            failures.append(f"cold_start[{name}]")
            continue
        new = fresh[name]
        timing = f"import {new['import_wall_ms']:.0f} ms"
        if name not in baseline:
            print(f"[NEW]  cold_start[{name}]: {new['repro_modules']} modules, {timing} "
                  f"(no baseline to gate against)")
            continue
        base = baseline[name]
        grew = new["repro_modules"] > base["repro_modules"]
        print(
            f"[{'FAIL' if grew else 'OK'}] cold_start[{name}]: baseline "
            f"{base['repro_modules']} -> fresh {new['repro_modules']} modules; {timing} "
            f"(baseline {base['import_wall_ms']:.0f} ms, not gated)"
        )
        if grew:
            failures.append(f"cold_start[{name}]")
    return failures


def footprint_failures(baseline: object, fresh: object) -> List[str]:
    """:data:`FOOTPRINT_METRICS` that rose more than the tolerance between two
    ``rendezvous_scale`` records (or vanished from the fresh one); prints one
    line per metric."""
    baseline = baseline if isinstance(baseline, dict) else {}
    fresh = fresh if isinstance(fresh, dict) else {}
    ceiling = 1.0 + FOOTPRINT_TOLERANCE
    failures: List[str] = []
    for metric in FOOTPRINT_METRICS:
        name = f"rendezvous_scale.{metric}"
        base, new = baseline.get(metric), fresh.get(metric)
        if base is None:
            if new is None:
                print(f"[SKIP] {name}: not recorded yet")
            else:
                print(f"[NEW]  {name}: {new:.1f} B (no baseline to gate against)")
            continue
        if new is None:
            print(f"[FAIL] {name}: in baseline but missing from fresh record")
            failures.append(name)
            continue
        ratio = new / base if base > 0 else float("inf")
        verdict = "OK" if ratio <= ceiling else "FAIL"
        print(
            f"[{verdict}] {name}: baseline {base:.1f} B -> fresh {new:.1f} B "
            f"(x{ratio:.2f}, ceiling x{ceiling:.2f})"
        )
        if ratio > ceiling:
            failures.append(name)
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", default="BENCH_perf.json",
                        help="committed baseline record (default: %(default)s)")
    parser.add_argument("--fresh", required=True,
                        help="freshly emitted record to judge")
    parser.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE,
                        help="allowed fractional drop (default: %(default)s)")
    args = parser.parse_args(argv)
    with open(args.baseline) as fh:
        baseline = json.load(fh)
    with open(args.fresh) as fh:
        fresh = json.load(fh)
    floor = 1.0 - args.tolerance
    failures: List[str] = []
    for metric in GATED_METRICS + OPTIONAL_METRICS:
        base = lookup(baseline, metric)
        new = lookup(fresh, metric)
        if base is None:
            if metric in GATED_METRICS:
                print(f"[FAIL] {metric}: missing from baseline record")
                failures.append(metric)
            elif new is None:
                print(f"[SKIP] {metric}: not recorded yet")
            else:
                print(f"[NEW]  {metric}: {new:,.0f}/s (no baseline to gate against)")
            continue
        if new is None:
            print(f"[FAIL] {metric}: in baseline but missing from fresh record")
            failures.append(metric)
            continue
        ratio = new / base if base > 0 else 0.0
        verdict = "OK" if ratio >= floor else "FAIL"
        print(
            f"[{verdict}] {metric}: baseline {base:,.0f}/s -> fresh {new:,.0f}/s "
            f"(x{ratio:.2f}, floor x{floor:.2f})"
        )
        if ratio < floor:
            failures.append(metric)
    for label, record in (("baseline", baseline), ("fresh", fresh)):
        error = fleet_shape_error(record.get("table1_fleet"), label)
        if error is None:
            print(f"[OK] table1_fleet ({label}): serial shape")
        else:
            print(f"[FAIL] {error}")
            failures.append(f"table1_fleet[{label}]")
    failures.extend(cold_start_failures(baseline.get("cold_start"), fresh.get("cold_start")))
    failures.extend(
        footprint_failures(baseline.get("rendezvous_scale"), fresh.get("rendezvous_scale"))
    )
    # Adversarial correctness canary: a fresh record carrying the robustness
    # sweep must report hardening holding for every attack family.  This is
    # deliberately not a throughput gate — it asserts the adversarial work
    # never degrades the protected nat_packets_per_second path's semantics.
    adversarial = fresh.get("adversarial")
    if isinstance(adversarial, dict):
        regressed = [
            family
            for family, cell in adversarial.get("families", {}).items()
            if not cell.get("hardening_holds", False)
        ]
        if regressed:
            print(f"[FAIL] adversarial: hardening regressed for {', '.join(regressed)}")
            failures.append("adversarial.hardening")
        else:
            print("[OK] adversarial: hardening holds for every attack family")
    if failures:
        print(
            f"perf regression gate FAILED: {', '.join(failures)} — dropped more "
            f"than {args.tolerance:.0%} below baseline, loaded more modules or "
            f"allocated over {FOOTPRINT_TOLERANCE:.0%} more bytes per peer than "
            f"the baseline, or malformed record"
        )
        return 1
    print("perf regression gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
