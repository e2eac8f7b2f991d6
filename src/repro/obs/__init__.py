"""repro.obs — run instrumentation for the simulator and punching stack.

The observability layer the evaluation (Table 1, §6) is reported through:

* :class:`~repro.obs.metrics.MetricsRegistry` — counters, gauges, and
  virtual-time histograms, owned by :class:`~repro.netsim.network.Network`
  and reachable from every layer via ``node.metrics``;
* :class:`~repro.obs.spans.Span` — connection-attempt lifecycles (rendezvous
  lookup → punch probes → lock-in or fallback-to-relay) with tagged
  outcomes;
* :mod:`~repro.obs.export` — text summaries and round-trippable JSON dumps;
* :class:`~repro.obs.flight.FlightRecorder` — the causal flight recorder:
  per-attempt event timelines stitched from NAT decisions, link drops, and
  fault injections via correlation-id propagation;
* :func:`~repro.obs.attribution.explain` — the rule-based failure-
  attribution engine that turns a timeline into a root-cause verdict;
* :mod:`~repro.obs.flight_export` — JSONL event logs and Chrome
  ``trace_event`` JSON for the recorder;
* :class:`~repro.obs.profile.RunProfiler` — the wall-clock events/sec and
  packets/sec hook the perf benches assert against.

See ``docs/observability.md`` for the metric and span catalog.
"""

from repro import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(__name__, {
    "Attempt": "flight",
    "CATEGORIES": "attribution",
    "CAT_FILTERED": "attribution",
    "CAT_HAIRPIN": "attribution",
    "CAT_LOSS": "attribution",
    "CAT_NAT_REBOOT": "attribution",
    "CAT_NONE": "attribution",
    "CAT_RST": "attribution",
    "CAT_SERVER_DEAD": "attribution",
    "CAT_SYMMETRIC": "attribution",
    "CAT_TIMEOUT": "attribution",
    "CAT_UNKNOWN": "attribution",
    "Counter": "metrics",
    "FlightEvent": "flight",
    "FlightRecorder": "flight",
    "Gauge": "metrics",
    "Histogram": "metrics",
    "MetricsRegistry": "metrics",
    "RunProfiler": "profile",
    "Span": "spans",
    "Verdict": "attribution",
    "explain": "attribution",
    "explain_all": "attribution",
    "from_chrome_trace": "flight_export",
    "from_jsonl": "flight_export",
    "render_verdict": "attribution",
    "to_chrome_trace": "flight_export",
    "to_jsonl": "flight_export",
    "write_flight_files": "flight_export",
    "NULL_SPAN": "spans",
    "OUTCOME_ERROR": "spans",
    "OUTCOME_FALLBACK": "spans",
    "OUTCOME_LOCKED": "spans",
    "OUTCOME_MIGRATED": "spans",
    "OUTCOME_OK": "spans",
    "OUTCOME_TIMEOUT": "spans",
    "format_metric_name": "metrics",
    "from_json": "export",
    "render_text": "export",
    "summarize_for_report": "export",
    "summarize_values": "export",
    "to_json": "export",
})
