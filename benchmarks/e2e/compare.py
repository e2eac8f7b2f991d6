"""Compare two sets of benchmark results, one row per workload × metric.

A *result directory* holds the JSON files ``run.py --out DIR`` writes, one
per run of one workload (``<workload>.run<k>.json``); several runs of the
same workload give the quartiles.  Every end-to-end metric of the catalogue
gets a row.  Labels for the host-time metrics follow the choosing-metrics
guide (§6, step 5):

``regressed``   the candidate's median is worse than the baseline's by more
                than the metric's bound (and its absolute floor, if any);
``unresolved``  not regressed, but the run-to-run spread on either side is
                wider than the bound — unless every candidate run reads
                better than every baseline run;
``unchanged``   otherwise.

The metrics that are exact for a given seed (bound 0) are compared seed by
seed instead: ``changed`` when any seed both sets ran gives a different
value — a behaviour change, whichever way it moved — ``unchanged`` when all
agree, ``unresolved`` when the sets share no seed.  A metric that is null on
a workload is ``unchanged`` while it stays null.
"""

from __future__ import annotations

import glob
import json
import os
from typing import Dict, List, Optional

import catalogue
from stats import spread, summary

#: Labels that make ``run.py compare`` exit non-zero.
FAILING = ("regressed", "changed", "missing")


def load_runs(directory: str) -> Dict[str, List[dict]]:
    """End-to-end results of *directory*, grouped by workload, in run order."""
    runs: Dict[str, List[dict]] = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.run*.json"))):
        with open(path, encoding="utf-8") as handle:
            record = json.load(handle)
        if record.get("e2e"):
            runs.setdefault(record["workload"], []).append(record)
    return runs


def classify(base: List[float], cand: List[float], better: str, bound: float,
             floor: float = 0.0) -> str:
    """The label for one workload × host-time metric (see module docstring)."""
    a, b = summary(base), summary(cand)
    sign = 1.0 if better == "lower" else -1.0
    worsening = sign * (b["median"] - a["median"])
    if worsening > max(bound * abs(a["median"]), floor):
        return "regressed"
    if max(spread(base), spread(cand)) > bound:
        all_better = (
            max(cand) < min(base) if better == "lower" else min(cand) > max(base)
        )
        return "unchanged" if all_better else "unresolved"
    return "unchanged"


def classify_exact(base: Dict[int, Optional[float]], cand: Dict[int, Optional[float]]) -> str:
    """The label for one workload × exact metric; arguments map seed → value."""
    shared = set(base) & set(cand)
    if not shared:
        return "unresolved"
    return "unchanged" if all(base[seed] == cand[seed] for seed in shared) else "changed"


def _shape(runs: Dict[str, List[dict]]) -> set:
    return {(r["run_seconds"], r["smoke"]) for records in runs.values() for r in records}


def compare(dir_a: str, dir_b: str) -> List[dict]:
    """Print the comparison table; returns one dict per row."""
    runs_a, runs_b = load_runs(dir_a), load_runs(dir_b)
    shapes = _shape(runs_a) | _shape(runs_b)
    if len(shapes) > 1:
        raise SystemExit(
            f"compare: result sets of different run shapes (run_seconds, smoke): {sorted(shapes)}"
        )
    rows = []
    print(f"baseline : {dir_a}")
    print(f"candidate: {dir_b}")
    print(
        f"{'workload':18s} {'metric':18s} {'unit':5s} "
        f"{'baseline median [q1, q3] n':>36s} {'candidate median [q1, q3] n':>36s} "
        f"{'change':>8s} {'bound':>6s}  label"
    )
    for workload in sorted(set(runs_a) | set(runs_b)):
        for spec in catalogue.END_TO_END:
            name = spec.metric.name
            row = {"workload": workload, "metric": name}
            rows.append(row)
            sides = [
                {r["seed"]: r["e2e"]["metrics"][name]["value"] for r in runs.get(workload, [])
                 if name in r["e2e"]["metrics"]}
                for runs in (runs_a, runs_b)
            ]
            values = [
                [r["e2e"]["metrics"][name]["value"] for r in runs.get(workload, [])
                 if r["e2e"]["metrics"].get(name, {}).get("value") is not None]
                for runs in (runs_a, runs_b)
            ]
            base, cand = values
            if not sides[0] or not sides[1] or bool(base) != bool(cand):
                row["label"] = "missing"
                print(f"{workload:18s} {name:18s} missing on one side")
                continue
            if not base:  # null on both sides: the metric does not apply here
                row["label"] = "unchanged"
                print(f"{workload:18s} {name:18s} {spec.metric.unit:5s} {'null':>36s} {'null':>36s}")
                continue
            if spec.bound == 0:
                row["label"] = classify_exact(*sides)
            else:
                row["label"] = classify(base, cand, spec.metric.better, spec.bound, spec.floor)
            a, b = summary(base), summary(cand)
            change = (b["median"] - a["median"]) / abs(a["median"]) if a["median"] else 0.0
            row.update(baseline=a, candidate=b, change=change)

            def cell(s: dict) -> str:
                return f"{s['median']:.4g} [{s['q1']:.4g}, {s['q3']:.4g}] n={s['n']}"

            print(
                f"{workload:18s} {name:18s} {spec.metric.unit:5s} {cell(a):>36s} {cell(b):>36s} "
                f"{100 * change:+7.1f}% {100 * spec.bound:5.0f}%  {row['label']}"
            )
    return rows
