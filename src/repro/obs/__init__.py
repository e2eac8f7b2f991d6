"""repro.obs — run instrumentation for the simulator and punching stack.

The observability layer the evaluation (Table 1, §6) is reported through:

* :class:`~repro.obs.metrics.MetricsRegistry` — counters and virtual-time
  histograms, owned by :class:`~repro.netsim.network.Network` and reachable
  from every layer via ``node.metrics``;
* :mod:`~repro.obs.export` — the report's metrics block and JSON dumps;
* :class:`~repro.obs.flight.FlightRecorder` — the causal flight recorder:
  one :class:`~repro.obs.flight.Attempt` per connect (request to S, punch,
  outcome) and per session, with event timelines stitched from NAT
  decisions, link drops, and fault injections via correlation-id
  propagation;
* :func:`~repro.obs.attribution.explain` — the rule-based failure-
  attribution engine that turns a timeline into a root-cause verdict;
* :mod:`~repro.obs.flight_export` — JSONL event logs and Chrome
  ``trace_event`` JSON for the recorder;
* :class:`~repro.obs.profile.RunProfiler` — the wall-clock events/sec and
  packets/sec hook the perf benches assert against.

See ``docs/observability.md`` for the metric catalog.
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
    "Histogram": "metrics",
    "MetricsRegistry": "metrics",
    "RunProfiler": "profile",
    "Verdict": "attribution",
    "explain": "attribution",
    "render_verdict": "attribution",
    "to_chrome_trace": "flight_export",
    "to_jsonl": "flight_export",
    "write_flight_files": "flight_export",
    "format_metric_name": "metrics",
    "summarize_for_report": "export",
    "to_json": "export",
})
