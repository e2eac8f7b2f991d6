"""The repository's benchmark: one command, five workloads, every metric.

    python3 benchmarks/e2e/run.py [--workload W] [--seed S] [--trace 0|1]
                                  [--smoke] [--out DIR]
    python3 benchmarks/e2e/run.py compare DIR_A DIR_B
    python3 benchmarks/e2e/run.py --aa [--workload W] [--seed S] [--out DIR]

A closed-loop, work-per-second benchmark of a deterministic simulator over a
simulated wire: no real link or loopback socket is crossed.  Each workload
runs in a fresh single-threaded subprocess (see ``child.py``); this parent
process never imports the simulator.  End-to-end metrics are measured with
tracing off; the traced pass is a separate subprocess.  See ``README.md``.

Without ``--trace`` both passes run and every metric is printed by name with
its unit.  The benchmark contract's driver selects one pass: ``--trace 0``
the end-to-end one, ``--trace 1`` the traced one.  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the exit code is non-zero when any output check
or digest check failed.

The run shape is fixed (one warm-up and nine timed repetitions of fixed
work), so ``--seconds`` — which the driver always passes — selects nothing:
it is recorded in the result files as the nominal run length, and
``compare`` refuses two sets that were recorded with different values.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time

_HERE = os.path.dirname(os.path.abspath(__file__))
_ROOT = os.path.dirname(os.path.dirname(_HERE))
sys.path.insert(0, _HERE)

import catalogue  # noqa: E402
import compare as compare_mod  # noqa: E402
from stats import median, quartiles  # noqa: E402

#: Runs per set for ``--aa`` (quartiles of fewer than ten mean little).
AA_RUNS = 10
#: A child that has not finished by then is killed (the driver allows 180 s
#: for the whole command).
CHILD_TIMEOUT = 170.0
_METRICS = {m.name: m for m in catalogue.ALL_METRICS}


def _require_program() -> None:
    if not os.path.isdir(os.path.join(_ROOT, "src", "repro")):
        sys.stderr.write(
            f"benchmark: no program to measure: {os.path.join(_ROOT, 'src', 'repro')} is missing\n"
        )
        raise SystemExit(2)


def _child(workdir: str, mode: str, workload: str, seed: int, smoke: bool,
           out: str = None) -> dict:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    env["REPRO_CACHE_DIR"] = os.path.join(workdir, "cache")
    env.pop("REPRO_FLEET_WORKERS", None)
    command = [
        sys.executable, os.path.join(_HERE, "child.py"),
        "--workload", workload, "--seed", str(seed),
        "--mode", mode, "--t0", repr(time.monotonic()),
    ]
    if smoke:
        command.append("--smoke")
    if out:
        command += ["--out", out]
    done = subprocess.run(
        command, env=env, cwd=_ROOT, stdout=subprocess.PIPE, timeout=CHILD_TIMEOUT
    )
    if done.returncode != 0:
        sys.stderr.write(f"benchmark: {mode} pass of {workload} exited {done.returncode}\n")
        raise SystemExit(done.returncode or 1)
    return json.loads(done.stdout.decode("utf-8").strip().splitlines()[-1])


def measure(workload: str, seed: int, seconds: float, passes, smoke: bool, out: str = None) -> dict:
    """Run the requested passes of one workload; returns the result record."""
    record = {
        "workload": workload, "seed": seed, "smoke": smoke,
        "run_seconds": seconds, "commit": _commit(),
    }
    # The contract lets the benchmark write inside its checkout only, so the
    # children's scratch space (REPRO_CACHE_DIR) lives there, not in /tmp.
    with tempfile.TemporaryDirectory(prefix=".bench_tmp-", dir=_ROOT) as workdir:
        if "e2e" in passes:
            samples = [
                _child(workdir, "setup", workload, seed, smoke)["setup_s"]
                for _ in range(0 if smoke else catalogue.SETUP_SAMPLES - 1)
            ]
            e2e = _child(workdir, "e2e", workload, seed, smoke)
            samples.append(e2e["setup_s"])
            e2e["metrics"]["setup_s"] = median(samples)
            e2e["setup_samples_s"] = samples
            record["e2e"] = e2e
        if "trace" in passes:
            record["trace"] = _child(workdir, "trace", workload, seed, smoke, out)
    for name in ("e2e", "trace"):
        if name in record:
            child = record[name]
            record.setdefault("python", child["python"])
            record.setdefault("nproc", child["nproc"])
            child["metrics"] = {
                key: {"value": value, "unit": _METRICS[key].unit}
                for key, value in child["metrics"].items()
            }
    if out:
        os.makedirs(out, exist_ok=True)
        k = 0
        while os.path.exists(os.path.join(out, f"{workload}.run{k}.json")):
            k += 1
        with open(os.path.join(out, f"{workload}.run{k}.json"), "w", encoding="utf-8") as handle:
            json.dump(record, handle, indent=1)
    return record


def _commit() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=_ROOT, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.decode().strip() if done.returncode == 0 else "unknown"


def _report(record: dict) -> None:
    """Every metric by name, with its unit and time base."""
    print(f"== {record['workload']}  seed={record['seed']}  python={record.get('python')} "
          f"nproc={record.get('nproc')} commit={record['commit'][:12]}")
    for name in ("e2e", "trace"):
        child = record.get(name)
        if child is None:
            continue
        verdict = "correct" if child["correct"] else "INCORRECT"
        print(f"-- {name}: {verdict}; attempted={child['attempted']} failed={child['failed']} "
              f"outcome_digest={child['outcome_digest'][:16]} "
              f"sim_digest={child['sim_digest'][:16]}")
        for error in child["errors"]:
            print(f"   ! {error}")
        if name == "e2e":
            wall = child["rep_wall"]
            print(f"   repetition wall (host): median {wall['median_s']:.4f} s, quartiles "
                  f"[{wall['q1_s']:.4f}, {wall['q3_s']:.4f}], n={wall['n']}; "
                  f"{child['ops_per_rep']} ops per repetition; "
                  f"{child['connect_samples']} connect samples")
            q1, q3 = quartiles(child["setup_samples_s"])
            print(f"   set-up (host): quartiles [{q1:.4f}, {q3:.4f}] s over "
                  f"{len(child['setup_samples_s'])} fresh processes")
        for key, metric in child["metrics"].items():
            value = metric["value"]
            shown = f"{'null':>16s}" if value is None else f"{value:16.6g}"
            print(f"   {key:42s} {shown} {metric['unit']:6s} ({_METRICS[key].base})")


def _final_line(records, passes) -> dict:
    """The contract's result line.  With one pass selected it carries exactly
    the metrics BENCHMARK.json lists for that pass; the contract wants a
    number for each, so a metric that does not apply to the workload (null
    in the report and the result files) reads 0 here.  Metric names are
    prefixed with the workload only when several workloads ran at once."""
    contract = {e.metric.name for e in catalogue.END_TO_END if e.driver_bound is not None}
    metrics = {}
    attempted = failed = 0
    correct = True
    for record in records:
        prefix = f"{record['workload']}:" if len(records) > 1 else ""
        for name in passes:
            child = record[name]
            correct = correct and child["correct"]
            for key, metric in child["metrics"].items():
                if name == "e2e" and len(passes) == 1 and key not in contract:
                    continue
                value = 0 if metric["value"] is None else metric["value"]
                # With both passes the end-to-end pass's value stands.
                metrics.setdefault(prefix + key, {"value": value, "unit": metric["unit"]})
        counted = record.get("e2e") or record["trace"]
        attempted += counted["attempted"]
        failed += counted["failed"]
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def _aa(args, names) -> int:
    """Two interleaved sets of runs of this checkout; every workload ×
    end-to-end metric must come out ``unchanged``."""
    with tempfile.TemporaryDirectory(prefix=".bench_tmp-", dir=_ROOT) as scratch:
        base = args.out or scratch
        dirs = [os.path.join(base, "aa-a"), os.path.join(base, "aa-b")]
        for run in range(AA_RUNS):
            for directory in dirs if run % 2 == 0 else reversed(dirs):
                for name in names:
                    measure(name, args.seed, args.seconds, ("e2e",), args.smoke, directory)
        rows = compare_mod.compare(dirs[0], dirs[1])
    bad = [row for row in rows if row["label"] != "unchanged"]
    print(f"A/A: {len(rows) - len(bad)} of {len(rows)} pairings unchanged")
    return 1 if bad else 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            sys.stderr.write("usage: run.py compare DIR_A DIR_B\n")
            return 2
        rows = compare_mod.compare(argv[1], argv[2])
        return 1 if any(row["label"] in compare_mod.FAILING for row in rows) else 0

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=list(catalogue.WORKLOADS), default=None,
                        help="one workload (default: all five)")
    parser.add_argument("--seed", type=int, default=catalogue.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=float(catalogue.RUN_SECONDS),
                        help="nominal run length, as the contract's driver passes it; "
                             "recorded, selects nothing (the run shape is fixed)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end pass only; 1: traced pass only; omitted: both")
    parser.add_argument("--smoke", action="store_true",
                        help="one tiny repetition per pass (seconds in total)")
    parser.add_argument("--out", default=None,
                        help="directory for result JSON and span JSONL files")
    parser.add_argument("--aa", action="store_true",
                        help="run two sets of this checkout and compare them")
    args = parser.parse_args(argv)
    _require_program()

    names = [args.workload] if args.workload else list(catalogue.WORKLOADS)
    if args.aa:
        return _aa(args, names)
    passes = {None: ("e2e", "trace"), 0: ("e2e",), 1: ("trace",)}[args.trace]
    records = []
    for name in names:
        record = measure(name, args.seed, args.seconds, passes, args.smoke, args.out)
        _report(record)
        records.append(record)
    final = _final_line(records, passes)
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
