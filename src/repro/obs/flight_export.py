"""Flight-recorder exporters: JSONL event logs and Chrome ``trace_event``.

Two machine formats for one timeline:

* :func:`to_jsonl` — newline-delimited JSON, one
  record per line (a ``meta`` header, then attempts, then events).  Grep-
  and stream-friendly; the canonical archive format.
* :func:`to_chrome_trace` — the Chrome
  ``trace_event`` JSON object format, loadable in ``chrome://tracing`` or
  Perfetto.  Attempts become complete (``"X"``) slices nested by causal
  parent, point events become instants (``"i"``); virtual seconds map onto
  trace microseconds.

Both writers operate on :meth:`FlightRecorder.to_payload` and lose nothing
of it: the JSONL records less their ``type`` tag, and the Chrome trace's
``args``, are the payload's attempts and events, and both carry
``dropped_events`` (the test suite pins this, including the empty-timeline
and eviction-truncated edge cases).
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional

from repro.obs.flight import FlightRecorder

PayloadLike = Dict[str, object]


def _payload(source) -> PayloadLike:
    if isinstance(source, FlightRecorder):
        return source.to_payload()
    return source


# -- JSONL ---------------------------------------------------------------------


def to_jsonl(source) -> str:
    """Serialise a recorder (or payload dict) to newline-delimited JSON."""
    payload = _payload(source)
    lines = [
        json.dumps(
            {"type": "meta", "dropped_events": payload["dropped_events"]},
            sort_keys=True,
        )
    ]
    for attempt in payload["attempts"]:
        lines.append(json.dumps(dict(attempt, type="attempt"), sort_keys=True))
    for event in payload["events"]:
        lines.append(json.dumps(dict(event, type="event"), sort_keys=True))
    return "\n".join(lines) + "\n"


# -- Chrome trace_event --------------------------------------------------------

#: Virtual seconds -> trace microseconds.
_US = 1_000_000.0


def _root_of(attempt_id: Optional[int], parents: Dict[int, Optional[int]]) -> Optional[int]:
    """Walk the parent chain to the root attempt id (for tid grouping)."""
    if attempt_id is None:
        return None
    current = attempt_id
    while parents.get(current) is not None:
        current = parents[current]  # type: ignore[assignment]
    return current


def to_chrome_trace(source, indent: Optional[int] = None) -> str:
    """Serialise to the Chrome ``trace_event`` JSON object format.

    One trace process; each root attempt gets its own thread row so nested
    child attempts render as a flame under their causal ancestor, and
    global (attempt-less) events land on thread 0.  Every record carries
    the original fields under ``args``, so the payload can be rebuilt from
    the trace losslessly.
    """
    payload = _payload(source)
    parents = {a["id"]: a.get("parent") for a in payload["attempts"]}
    trace_events: List[Dict[str, object]] = []
    for attempt in payload["attempts"]:
        start = float(attempt["start"])
        end = attempt["end"]
        duration = (float(end) - start) if end is not None else 0.0
        trace_events.append(
            {
                "name": attempt["name"],
                "cat": "attempt",
                "ph": "X",
                "ts": start * _US,
                "dur": duration * _US,
                "pid": 1,
                "tid": _root_of(attempt["id"], parents) or attempt["id"],
                "args": dict(attempt),
            }
        )
    for event in payload["events"]:
        trace_events.append(
            {
                "name": event["kind"],
                "cat": "flight",
                "ph": "i",
                "s": "t",
                "ts": float(event["time"]) * _US,
                "pid": 1,
                "tid": _root_of(event["attempt"], parents) or 0,
                "args": dict(event),
            }
        )
    document = {
        "traceEvents": trace_events,
        "displayTimeUnit": "ms",
        "otherData": {"dropped_events": payload["dropped_events"]},
    }
    return json.dumps(document, indent=indent, sort_keys=True)


def write_flight_files(recorder: FlightRecorder, jsonl_path, trace_path) -> None:
    """Dump both formats to disk (used by ``--explain`` and the analysis)."""
    payload = recorder.to_payload()
    with open(jsonl_path, "w", encoding="utf-8") as fh:
        fh.write(to_jsonl(payload))
    with open(trace_path, "w", encoding="utf-8") as fh:
        fh.write(to_chrome_trace(payload, indent=2))
