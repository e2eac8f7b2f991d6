"""Exporters: text summaries and JSON dumps of a metrics registry.

Two consumers:

* humans — :func:`render_text` prints the full catalog of a run;
  :func:`summarize_for_report` produces the compact per-section block that
  ``python -m repro.analysis`` appends to every figure;
* machines — :func:`to_json` / :func:`from_json` round-trip a snapshot, so
  ``analysis`` and the benchmark harness can archive run instrumentation
  next to the measured artifacts.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Sequence

from repro.obs.metrics import Histogram, MetricsRegistry
from repro.obs.spans import Span


def to_json(registry: MetricsRegistry, indent: Optional[int] = None) -> str:
    """Serialise a snapshot (collectors included) to a JSON document."""
    return json.dumps(registry.snapshot(), indent=indent, sort_keys=True)


def from_json(document: str) -> Dict[str, object]:
    """Parse a document produced by :func:`to_json` back into a snapshot.

    The result compares equal to the originating ``registry.snapshot()``
    (both are plain dicts of JSON-native values) — the round-trip property
    the test suite pins down.
    """
    snapshot = json.loads(document)
    for section in ("counters", "gauges", "histograms", "spans"):
        if section not in snapshot:
            raise ValueError(f"not a metrics snapshot: missing {section!r}")
    return snapshot


def _format_value(value: float, unit: str = "s") -> str:
    if unit == "s":
        return f"{value * 1000:.1f}ms" if value < 1.0 else f"{value:.3f}s"
    return f"{value:g}{unit}"


def _histogram_line(key: str, hist: Histogram) -> str:
    if not hist.count:
        return f"{key}: (empty)"
    return (
        f"{key}: n={hist.count} "
        f"p50={_format_value(hist.p50, hist.unit)} "
        f"p95={_format_value(hist.p95, hist.unit)} "
        f"p99={_format_value(hist.p99, hist.unit)} "
        f"max={_format_value(hist.max, hist.unit)}"
    )


def _span_outcomes(spans: Sequence[Span]) -> Dict[str, int]:
    outcomes: Dict[str, int] = {}
    for span in spans:
        label = span.outcome if span.finished else "open"
        outcomes[label] = outcomes.get(label, 0) + 1
    return outcomes


def render_text(registry: MetricsRegistry) -> str:
    """Full human-readable dump: counters, gauges, histograms, spans."""
    registry.collect()
    lines: List[str] = []
    counters = registry.counters()
    if counters:
        lines.append("counters:")
        lines.extend(f"  {key} = {value}" for key, value in sorted(counters.items()))
    gauges = registry.gauges()
    if gauges:
        lines.append("gauges:")
        lines.extend(f"  {key} = {value:g}" for key, value in sorted(gauges.items()))
    histograms = registry.histograms()
    if histograms:
        lines.append("histograms:")
        lines.extend(
            "  " + _histogram_line(key, hist)
            for key, hist in sorted(histograms.items())
        )
    if registry.spans:
        lines.append("spans:")
        by_name: Dict[str, List[Span]] = {}
        for span in registry.find_spans():
            by_name.setdefault(span.name, []).append(span)
        for name, spans in sorted(by_name.items()):
            outcomes = ", ".join(
                f"{label}={count}"
                for label, count in sorted(_span_outcomes(spans).items())
            )
            durations = [s.duration for s in spans if s.duration is not None]
            timing = ""
            if durations:
                timing = f", duration p50={_format_value(_percentile(durations, 50))}"
            lines.append(f"  {name}: {len(spans)} ({outcomes}{timing})")
    return "\n".join(lines) if lines else "(no metrics recorded)"


def _percentile(values: Sequence[float], p: float) -> float:
    ordered = sorted(values)
    rank = max(1, -(-int(p * len(ordered)) // 100))
    return ordered[min(rank, len(ordered)) - 1]


#: Counter prefixes surfaced by the compact per-section report summary.
#: ``fleet.cache.`` carries the Table 1 dedup counters (distinct
#: fingerprints, simulations, clones) published by ``run_fleet(metrics=...)``.
#: ``rendezvous.`` carries the registration-table counters (lookup hits and
#: misses, TTL/LRU evictions) from ``repro.core.registry``.
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
    punch_spans = [s for s in registry.find_spans() if s.name.startswith("punch.")]
    if punch_spans:
        outcomes = _span_outcomes(punch_spans)
        lines.append(
            "obs punch spans: "
            + ", ".join(f"{label}={count}" for label, count in sorted(outcomes.items()))
        )
    return lines
