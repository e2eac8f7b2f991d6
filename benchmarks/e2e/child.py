"""The measuring subprocess: one workload, one pass, one JSON line on stdout.

Started by ``run.py`` — never directly by the benchmark driver — as a fresh
single-threaded interpreter with ``PYTHONHASHSEED`` fixed and
``REPRO_CACHE_DIR`` pointing at a scratch directory.  The garbage collector
stays enabled, as it is when users run the library.

Passes (``--mode``):

``setup``  set up the workload, report how long the process took to get
           that far, exit.
``e2e``    the same, then an untimed warm-up repetition, an untimed
           counter-reading repetition and nine timed repetitions of
           identical inputs; tracing off.
``trace``  the same start, then three untraced repetitions (the first with
           driver spans and counter collection), repetitions under cProfile,
           and the per-layer probes.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

_HERE = os.path.dirname(os.path.abspath(__file__))
_ROOT = os.path.dirname(os.path.dirname(_HERE))
_SRC = os.path.join(_ROOT, "src")


def _paths() -> None:
    """The benchmark measures the checkout it lives in, never an installed
    copy: the checkout's ``src`` goes first on the path, and its absence is
    an error rather than a silent fallback."""
    if not os.path.isdir(os.path.join(_SRC, "repro")):
        sys.stderr.write(f"benchmark: no program to measure at {_SRC}/repro\n")
        raise SystemExit(2)
    sys.path[:0] = [_SRC, _HERE]


def _peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _run_rep(workload, spans):
    """One repetition: ``(result, wall_seconds)``, wall excluding the time
    the workload spent reading counters."""
    from repro.netsim.packet import PACKET_POOL

    recycled = PACKET_POOL.released
    started = time.perf_counter()
    result = workload.repetition(spans)
    wall = time.perf_counter() - started - result.untimed_s
    result.counts["netsim.packet.pool_recycled"] = PACKET_POOL.released - recycled
    return result, wall


def _golden(workload_name: str, seed: int, smoke: bool) -> dict:
    from catalogue import DEFAULT_SEED

    if smoke or seed != DEFAULT_SEED:
        return {}
    path = os.path.join(_HERE, "golden.json")
    if not os.path.exists(path):
        return {}
    with open(path, encoding="utf-8") as handle:
        return json.load(handle).get("workloads", {}).get(workload_name, {})


def _e2e(workload, record: dict, warm, golden: dict) -> None:
    from catalogue import REPETITIONS
    from ledger import NullSpanLog, SpanLog
    from stats import median, quartiles, spread

    spans = NullSpanLog()
    errors = list(warm.errors)
    digest = warm.outcome_digest()
    # One more untimed repetition on the instrumented route reads the
    # simulator's counters (``table1_survey`` can only reach them device by
    # device): the exact metrics and ``sim_digest`` come from it.  It is the
    # second repetition of the process, as in the traced pass, so both passes
    # digest the same state of the long-lived ``session_dataplane`` network.
    counted, _ = _run_rep(workload, SpanLog())
    errors.extend(counted.errors)
    if counted.outcome_digest() != digest:
        errors.append("counting pass and plain pass produced different outcomes")
    walls, attempted, failed = [], 0, 0
    for _ in range(1 if record["smoke"] else REPETITIONS):
        result, wall = _run_rep(workload, spans)
        walls.append(wall)
        attempted += result.ops
        failed += result.failed
        errors.extend(result.errors)
        if result.outcome_digest() != digest or result.ops != warm.ops:
            errors.append("repetitions of identical inputs produced different outcomes")
    _check_golden(golden, counted, errors)
    wall = median(walls)
    q1, q3 = quartiles(walls)
    record.update(
        attempted=attempted,
        failed=failed,
        errors=errors,
        outcome_digest=digest,
        sim_digest=counted.sim_digest(),
        rep_walls_s=walls,
        ops_per_rep=warm.ops,
        connect_samples=len(counted.udp_connect_ms) + len(counted.tcp_connect_ms),
        metrics={
            "ops_per_s": warm.ops / wall,
            "sim_packets_per_s": workload.packets_per_s(counted, wall),
            **workload.exact_metrics(counted),
            "peak_rss_mb": _peak_rss_mb(),
        },
        rep_wall={"median_s": wall, "q1_s": q1, "q3_s": q3, "iqr_share": spread(walls),
                  "n": len(walls)},
    )


def _check_golden(golden: dict, result, errors: list) -> None:
    for key, value in (("outcome_digest", result.outcome_digest()),
                       ("sim_digest", result.sim_digest())):
        if golden.get(key) is not None and golden[key] != value:
            errors.append(f"{key} {value} differs from golden.json ({golden[key]})")


def _trace(workload, args, record: dict, warm, golden: dict, spans) -> None:
    import cProfile
    import pstats

    import probes
    from catalogue import NAMED_MODULES, TRACED_METRICS
    from ledger import DRIVER_BUCKET, NullSpanLog, attribute_profile, span_self_ms
    from repro.obs.gcstats import GcPauseMonitor
    from stats import median, percentile, spread

    null = NullSpanLog()
    errors = list(warm.errors)

    # -- untraced: spans + (A) counts on the first, two more for the spread --
    gc_monitor = GcPauseMonitor().start()
    result, wall = _run_rep(workload, spans)
    gc_monitor.stop()
    errors.extend(result.errors)
    untraced = [wall]
    for _ in range(0 if args.smoke else 2):
        again, wall = _run_rep(workload, null)
        untraced.append(wall)
        errors.extend(again.errors)
        if again.outcome_digest() != result.outcome_digest():
            errors.append("repetitions of identical inputs produced different outcomes")
    if warm.outcome_digest() != result.outcome_digest():
        errors.append("span pass and plain pass produced different outcomes")
    _check_golden(golden, result, errors)

    # -- traced: cProfile, bucketed by module --------------------------------
    traced_reps = 1 if args.smoke else 2
    # builtins=False folds C-function time into the calling Python function,
    # which is the charge-to-nearest-caller rule for builtins, and roughly
    # halves the number of profiler events (and so the unaccounted time the
    # profiler spends in its own bookkeeping).
    profiler = cProfile.Profile(builtins=False)
    traced_started = time.perf_counter()
    profiler.enable()
    for _ in range(traced_reps):
        workload.repetition(null)
    profiler.disable()
    traced_wall = time.perf_counter() - traced_started
    buckets, unattributed, profiled_total = attribute_profile(pstats.Stats(profiler).stats)

    metrics = {m.name: 0.0 for m in TRACED_METRICS}
    counts = result.counts
    for name, value in counts.items():
        if name in metrics:
            metrics[name] = value
    # The profiler charges its own bookkeeping between two timer reads to
    # nobody, so its self-time total falls ~1 % short of the wall clock of the
    # same interval (bench.ledger_gap_pct).  Spreading that gap over the
    # buckets in proportion makes the ledger sum to the traced wall exactly.
    per_rep_ms = 1000.0 / traced_reps * (traced_wall / profiled_total if profiled_total else 1.0)
    for bucket, seconds in buckets.items():
        if bucket in NAMED_MODULES:
            metrics[f"{bucket}.self_ms"] += seconds * per_rep_ms
        elif bucket == DRIVER_BUCKET:
            metrics["bench.driver.self_ms"] += seconds * per_rep_ms
        else:
            metrics["repro.other.self_ms"] += seconds * per_rep_ms
    metrics.update(probes.run_all(workload.payload_sizes(), workload.protocol_corpus(), args.smoke))

    # Self time, so a span never counts what a span nested inside it did.
    span_ms = span_self_ms(spans.records)
    for name in ("natcheck.fleet.build", "natcheck.fleet.simulate", "natcheck.table.aggregate",
                 "scenarios.build", "phase.register", "phase.punch", "phase.data"):
        metrics[f"{name}_ms"] = span_ms.get(name, 0.0)
    if result.nodes_built:
        metrics["scenarios.build_us_per_node"] = (
            1000.0 * metrics["scenarios.build_ms"] / result.nodes_built
        )

    if counts["core.udp_punch.succeeded"]:
        metrics["core.udp_punch.probes_per_success"] = (
            counts["core.udp_punch.probes_sent"] / counts["core.udp_punch.succeeded"]
        )
    if counts["core.tcp_punch.succeeded"]:
        metrics["core.tcp_punch.attempts_per_success"] = (
            counts["core.tcp_punch.connect_attempts"] / counts["core.tcp_punch.succeeded"]
        )
    metrics["core.udp_punch.lock_in_ms_p50"] = percentile(result.udp_lock_in_ms, 0.50)
    metrics["core.tcp_punch.connect_ms_p50"] = percentile(result.tcp_punch_ms, 0.50)
    metrics["sim.connect_udp_ms_p50"] = percentile(result.udp_connect_ms, 0.50)
    metrics["sim.connect_udp_ms_p95"] = percentile(result.udp_connect_ms, 0.95)
    metrics["sim.connect_tcp_ms_p50"] = percentile(result.tcp_connect_ms, 0.50)
    metrics["sim.connect_tcp_ms_p95"] = percentile(result.tcp_connect_ms, 0.95)
    metrics["sim.connect_samples"] = len(result.udp_connect_ms) + len(result.tcp_connect_ms)
    # The end-to-end metrics BENCHMARK.json lists per layer, by the same
    # formulas as the end-to-end pass (fewer repetitions behind the median).
    metrics.update(workload.exact_metrics(result))
    metrics["sim_packets_per_s"] = workload.packets_per_s(result, median(untraced))

    traced_per_rep = traced_wall / traced_reps
    baseline = median(untraced)
    metrics["bench.traced_wall_ms"] = 1000.0 * traced_per_rep
    metrics["bench.trace_overhead_pct"] = 100.0 * (traced_per_rep / baseline - 1.0)
    metrics["bench.unattributed_pct"] = (
        100.0 * unattributed / profiled_total if profiled_total else 0.0
    )
    metrics["bench.ledger_gap_pct"] = 100.0 * abs(profiled_total - traced_wall) / traced_wall
    metrics["bench.rep_wall_iqr_pct"] = 100.0 * spread(untraced)
    metrics["bench.gc_collections"] = gc_monitor.collections
    metrics["bench.gc_pause_ms"] = 1000.0 * gc_monitor.pause_seconds

    record.update(
        attempted=result.ops,
        failed=result.failed,
        errors=errors,
        outcome_digest=result.outcome_digest(),
        sim_digest=result.sim_digest(),
        metrics=metrics,
        rep_walls_s=untraced,
        ledger_ms_per_rep={
            name: seconds * per_rep_ms for name, seconds in sorted(buckets.items())
        },
    )
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        spans.write_jsonl(os.path.join(args.out, f"{workload.name}.spans.jsonl"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "e2e", "trace"), required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--t0", type=float, default=None,
                        help="parent's time.monotonic() just before it spawned this process")
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    t0 = args.t0 if args.t0 is not None else time.monotonic()

    _paths()
    import workloads
    from ledger import NullSpanLog, SpanLog

    spans = SpanLog() if args.mode == "trace" else NullSpanLog()
    workload = workloads.create(args.workload, args.seed, args.smoke)
    workload.setup(spans)
    setup_s = time.monotonic() - t0

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "mode": args.mode,
        "smoke": args.smoke,
        "setup_s": setup_s,
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "errors": [],
    }
    if args.mode != "setup":
        golden = _golden(args.workload, args.seed, args.smoke)
        # The warm-up repetition is cold (lazy imports, empty caches and
        # pools, unspecialised bytecode) and never timed.
        warm, _ = _run_rep(workload, NullSpanLog())
        if args.mode == "e2e":
            _e2e(workload, record, warm, golden)
        else:
            _trace(workload, args, record, warm, golden, spans)
    record["correct"] = not record["errors"]
    sys.stdout.write(json.dumps(record) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
