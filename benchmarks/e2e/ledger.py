"""The per-layer ledger: driver-side spans and cProfile module attribution.

Two instruments, both living entirely in the benchmark's own files (the
program under test is not edited — spans *inside* ``repro`` are a later
change, per the choosing-metrics guide):

* :class:`SpanLog` — wall-clock spans the driver records around its own
  calls into public ``repro`` functions.  Each record is ``(name, start,
  end, parent, op)``; they stay in memory and are written out as JSONL when
  the run ends.  A span's *self time* is its duration minus the part of that
  interval its child spans cover.
* :func:`attribute_profile` — buckets a ``cProfile`` run's self time
  (``tottime``) by ``repro.<package>.<module>``.  Time spent in stdlib and
  builtin functions (``heapq.heappush``, ``enum.Flag.__and__``, ``dict.get``)
  is charged to the nearest ``repro`` (or benchmark-driver) caller by walking
  the profile's caller table, weighting each caller by the time the callee
  actually spent under it.  What cannot be charged lands in ``unattributed``,
  so the buckets plus ``unattributed`` equal the profiled total by
  construction.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

#: Bucket that receives the benchmark driver's own self time (payload
#: generation and verification, arrival scheduling) in the traced pass.
DRIVER_BUCKET = "bench.driver"

_HERE = os.path.dirname(os.path.abspath(__file__))
_REPRO_MARKER = os.sep + "repro" + os.sep


class SpanLog:
    """In-memory span recorder (host ``perf_counter`` seconds)."""

    #: Workloads take their span-instrumented route when this is true.
    active = True

    def __init__(self) -> None:
        #: ``[name, start, end, parent_index_or_None, op_id_or_None]``
        self.records: List[list] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str, op: Optional[object] = None) -> Iterator[None]:
        index = len(self.records)
        parent = self._stack[-1] if self._stack else None
        record = [name, time.perf_counter(), None, parent, op]
        self.records.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for index, (name, start, end, parent, op) in enumerate(self.records):
                handle.write(
                    json.dumps(
                        {
                            "id": index,
                            "name": name,
                            "start_s": start,
                            "end_s": end,
                            "parent": parent,
                            "op": op,
                        }
                    )
                    + "\n"
                )


def span_self_ms(records: Iterable[list]) -> Dict[str, float]:
    """Self time (ms) per span name for ``[name, start, end, parent, op]``
    records: each span's duration minus its direct children's durations."""
    records = list(records)
    child_time = [0.0] * len(records)
    for name, start, end, parent, _op in records:
        if parent is not None and end is not None:
            child_time[parent] += end - start
    out: Dict[str, float] = {}
    for index, (name, start, end, _parent, _op) in enumerate(records):
        if end is None:
            continue
        out[name] = out.get(name, 0.0) + 1000.0 * ((end - start) - child_time[index])
    return out


class NullSpanLog:
    """Span recorder for the untraced pass: records nothing."""

    active = False

    @contextmanager
    def span(self, name: str, op: Optional[object] = None) -> Iterator[None]:
        yield


# -- cProfile attribution ------------------------------------------------------

FuncKey = Tuple[str, int, str]


def bucket_of(func: FuncKey) -> Optional[str]:
    """The ledger bucket that *owns* a profiled function, or None for
    stdlib/builtin code (whose time is charged to a caller instead).

    ``.../repro/<package>/<module>.py`` -> ``<package>.<module>``; a file of
    the benchmark itself -> :data:`DRIVER_BUCKET`.
    """
    filename = func[0]
    position = filename.rfind(_REPRO_MARKER)
    if position >= 0 and filename.endswith(".py"):
        relative = filename[position + len(_REPRO_MARKER) : -3]
        parts = relative.split(os.sep)
        if parts[-1] == "__init__":
            parts = parts[:-1] or ["__init__"]
        return ".".join(parts[:2]) if len(parts) >= 2 else parts[0]
    if filename.startswith(_HERE):
        return DRIVER_BUCKET
    return None


def attribute_profile(stats: Dict[FuncKey, tuple], max_depth: int = 24):
    """Bucket a ``pstats``-shaped table's self time by owning module.

    *stats* maps ``func -> (cc, nc, tt, ct, callers)`` with ``callers`` as
    ``caller_func -> (nc, cc, tt, ct)`` — exactly ``pstats.Stats(p).stats``.

    Returns ``(buckets, unattributed, total)`` in seconds, with
    ``sum(buckets.values()) + unattributed == total`` (to float rounding).
    """
    memo: Dict[FuncKey, Dict[str, float]] = {}
    in_progress: set = set()

    def shares(func: FuncKey, depth: int) -> Dict[str, float]:
        owner = bucket_of(func)
        if owner is not None:
            return {owner: 1.0}
        cached = memo.get(func)
        if cached is not None:
            return cached
        if func in in_progress or depth >= max_depth:
            return {}  # recursion among non-repro frames: leave unattributed
        entry = stats.get(func)
        callers = entry[4] if entry is not None else {}
        weights = {caller: edge[2] for caller, edge in callers.items()}
        total = sum(weights.values())
        if total <= 0.0:
            # Callee too cheap to have measurable per-edge time: fall back to
            # call counts so it still lands on whoever called it.
            weights = {caller: float(edge[0]) for caller, edge in callers.items()}
            total = sum(weights.values())
        out: Dict[str, float] = {}
        if total > 0.0:
            in_progress.add(func)
            for caller, weight in weights.items():
                if weight <= 0.0:
                    continue
                for bucket, fraction in shares(caller, depth + 1).items():
                    out[bucket] = out.get(bucket, 0.0) + fraction * weight / total
            in_progress.discard(func)
        memo[func] = out
        return out

    buckets: Dict[str, float] = {}
    total_time = 0.0
    attributed = 0.0
    for func, entry in stats.items():
        self_time = entry[2]
        if self_time <= 0.0:
            continue
        total_time += self_time
        for bucket, fraction in shares(func, 0).items():
            amount = self_time * fraction
            buckets[bucket] = buckets.get(bucket, 0.0) + amount
            attributed += amount
    return buckets, max(0.0, total_time - attributed), total_time
