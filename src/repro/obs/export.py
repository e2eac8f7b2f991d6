"""Exporters: a text summary and a JSON dump of a metrics registry.

Two consumers:

* humans — :func:`summarize_for_report` produces the compact per-section
  block that ``python -m repro.analysis`` appends to every figure;
* machines — :func:`to_json` writes a snapshot as JSON, so the benchmark
  harness can archive run instrumentation next to the measured artifacts.
"""

from __future__ import annotations

import json
from typing import List

from repro.obs.metrics import Histogram, MetricsRegistry


def to_json(registry: MetricsRegistry) -> str:
    """Serialise a snapshot (collectors included) to a JSON document."""
    return json.dumps(registry.snapshot(), sort_keys=True)


def _format_value(value: float) -> str:
    return f"{value * 1000:.1f}ms" if value < 1.0 else f"{value:.3f}s"


def _histogram_line(key: str, hist: Histogram) -> str:
    if not hist.count:
        return f"{key}: (empty)"
    return (
        f"{key}: n={hist.count} "
        f"p50={_format_value(hist.p50)} "
        f"p95={_format_value(hist.p95)} "
        f"p99={_format_value(hist.p99)} "
        f"max={_format_value(hist.max)}"
    )


#: Counter prefixes surfaced by the compact per-section report summary.
#: ``fleet.cache.`` carries the Table 1 dedup counters (distinct
#: fingerprints, simulations, clones) published by ``run_fleet(metrics=...)``.
#: ``rendezvous.`` carries the rendezvous server's lookup hit and miss
#: counters from ``repro.core.rendezvous``.
_REPORT_PREFIXES = (
    "punch.",
    "session.",
    "relay.",
    "nat.drops",
    "tcp.syn",
    "fleet.cache.",
    "rendezvous.",
)


def summarize_for_report(registry: MetricsRegistry) -> List[str]:
    """The compact block ``repro.analysis`` appends to each report section.

    Picks out what the paper's narrative cares about: punch probe/outcome
    counters, lock-in latency percentiles, and NAT drop reasons.  Returns
    plain lines (no indentation) — empty when nothing relevant was recorded.
    """
    registry.collect()
    lines: List[str] = []
    counters = registry.counters()
    interesting = {
        key: value
        for key, value in counters.items()
        if value and key.startswith(_REPORT_PREFIXES)
    }
    if interesting:
        lines.append(
            "obs counters: "
            + ", ".join(f"{key}={value}" for key, value in sorted(interesting.items()))
        )
    for key, hist in sorted(registry.histograms().items()):
        if hist.count:
            lines.append("obs " + _histogram_line(key, hist))
    return lines
