"""Metric instruments and the registry that owns them.

Everything here measures **virtual time and simulated traffic** — the
quantities the paper's evaluation is made of (probe counts, lock-in
latencies, drop reasons) — not host wall-clock.  Wall-clock profiling lives
in :mod:`repro.obs.profile`.

Design notes:

* Instruments are plain objects with ``__slots__`` and integer/float fields;
  incrementing a counter is one attribute add, cheap enough for the
  simulator's hot paths (the perf bench asserts the overhead budget).
* The registry supports **collectors**: callbacks that run at snapshot time
  and copy counters the lower layers already keep as plain attributes
  (``Link.packets_sent``, ``NatTable.mappings_created``, ...) into the
  registry.  The hot paths therefore pay nothing for those metrics.
* Histograms record observations in virtual seconds and answer percentile
  queries with the nearest-rank method, which is deterministic and exact
  for the sample sizes we keep.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional, Tuple

LabelKey = Tuple[Tuple[str, str], ...]

#: Raw observations kept per histogram; beyond this the histogram keeps
#: exact count/sum/min/max but stops storing samples (percentiles are then
#: computed over the retained prefix).
HISTOGRAM_SAMPLE_CAP = 8192


def _label_key(labels: Dict[str, object]) -> LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def format_metric_name(name: str, labels: LabelKey) -> str:
    """Render ``name{k=v,...}`` — the stable key used by the exporters."""
    if not labels:
        return name
    inner = ",".join(f"{k}={v}" for k, v in labels)
    return f"{name}{{{inner}}}"


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: LabelKey = ()) -> None:
        self.name = name
        self.labels = labels
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount

    def __repr__(self) -> str:
        return f"Counter({format_metric_name(self.name, self.labels)}={self.value})"


class Histogram:
    """A distribution of observations in virtual seconds (latencies, ages).

    Keeps exact ``count``/``sum``/``min``/``max`` for every observation and
    the raw values up to :data:`HISTOGRAM_SAMPLE_CAP` for percentile queries.
    """

    __slots__ = ("name", "labels", "count", "total", "min", "max", "_values")

    def __init__(self, name: str, labels: LabelKey = ()) -> None:
        self.name = name
        self.labels = labels
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self._values: List[float] = []

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        if len(self._values) < HISTOGRAM_SAMPLE_CAP:
            self._values.append(value)

    @property
    def mean(self) -> Optional[float]:
        return self.total / self.count if self.count else None

    def percentile(self, p: float) -> Optional[float]:
        """Nearest-rank percentile over the retained sample; p in [0, 100]."""
        if not self._values:
            return None
        if not 0 <= p <= 100:
            raise ValueError(f"percentile out of range: {p}")
        ordered = sorted(self._values)
        rank = max(1, math.ceil(p * len(ordered) / 100))  # ceil(p/100 * n), >= 1
        return ordered[rank - 1]

    @property
    def p50(self) -> Optional[float]:
        return self.percentile(50)

    @property
    def p95(self) -> Optional[float]:
        return self.percentile(95)

    @property
    def p99(self) -> Optional[float]:
        return self.percentile(99)

    def values(self) -> List[float]:
        """The retained raw observations (oldest first)."""
        return list(self._values)

    def summary(self) -> Dict[str, object]:
        """JSON-friendly digest used by the exporters."""
        digest: Dict[str, object] = {
            "count": self.count,
            "sum": self.total,
            "unit": "s",
        }
        if self.count:
            digest.update(
                min=self.min,
                max=self.max,
                mean=self.mean,
                p50=self.p50,
                p95=self.p95,
                p99=self.p99,
            )
        return digest

    def __repr__(self) -> str:
        return (
            f"Histogram({format_metric_name(self.name, self.labels)}, "
            f"count={self.count})"
        )


Collector = Callable[["MetricsRegistry"], None]


class MetricsRegistry:
    """Owns every instrument of one simulation run.

    Typically constructed by :class:`~repro.netsim.network.Network` (which
    registers its built-in collector); any layer holding a node can reach it
    via ``node.metrics``.

    Args:
        enabled: when False every instrument handed out is a fresh one the
            registry does not keep, so no snapshot sees what it records —
            the configuration the overhead bench compares against.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._counters: Dict[Tuple[str, LabelKey], Counter] = {}
        self._histograms: Dict[Tuple[str, LabelKey], Histogram] = {}
        self._collectors: List[Collector] = []

    # -- instruments ---------------------------------------------------------

    def counter(self, name: str, **labels: object) -> Counter:
        """The counter for *name* and *labels*, created on first use.

        Resolving a counter by name costs a label-key sort plus a dict
        lookup — fine at snapshot time, too much per packet.  Hot layers
        resolve once at setup, keep the returned handle, and increment it
        directly; the handle stays valid for the registry's lifetime, and a
        disabled registry hands back an instrument it does not keep, so
        callers never branch.
        """
        if not self.enabled:
            return Counter(name)
        key = (name, _label_key(labels))
        instrument = self._counters.get(key)
        if instrument is None:
            instrument = self._counters[key] = Counter(name, key[1])
        return instrument

    def histogram(self, name: str, **labels: object) -> Histogram:
        if not self.enabled:
            return Histogram(name)
        key = (name, _label_key(labels))
        instrument = self._histograms.get(key)
        if instrument is None:
            instrument = self._histograms[key] = Histogram(name, key[1])
        return instrument

    # -- collectors & snapshots ----------------------------------------------

    def add_collector(self, collector: Collector) -> None:
        """Register a snapshot-time callback that pulls counters from the
        plain attributes lower layers maintain (zero hot-path cost)."""
        self._collectors.append(collector)

    def collect(self) -> None:
        for collector in self._collectors:
            collector(self)

    def counters(self) -> Dict[str, int]:
        return {
            format_metric_name(c.name, c.labels): c.value
            for c in self._counters.values()
        }

    def histograms(self) -> Dict[str, Histogram]:
        return {
            format_metric_name(h.name, h.labels): h
            for h in self._histograms.values()
        }

    def counter_value(self, name: str, **labels: object) -> int:
        """Read a counter without creating it (0 when absent)."""
        instrument = self._counters.get((name, _label_key(labels)))
        return instrument.value if instrument is not None else 0

    def snapshot(self) -> Dict[str, object]:
        """Run collectors and return a plain-dict view (JSON-serialisable)."""
        self.collect()
        return {
            "counters": self.counters(),
            "histograms": {
                key: hist.summary() for key, hist in self.histograms().items()
            },
        }

    def __repr__(self) -> str:
        return (
            f"MetricsRegistry(counters={len(self._counters)}, "
            f"histograms={len(self._histograms)}, enabled={self.enabled})"
        )
