"""(A) counts: the simulator's own counters, read after a repetition.

Everything here comes from public read-only surfaces — the network's
:class:`~repro.obs.metrics.MetricsRegistry` (``collect()`` + ``counters()``,
the same data ``Network.metrics_json()`` serialises), ``PACKET_POOL`` and
the flight recorder — and is exact for a given seed.  Names are the
benchmark's catalogue names, not the registry's.
"""

from __future__ import annotations

from typing import Dict, Iterable, List

#: catalogue name -> unlabelled registry counter
_PLAIN = {
    "netsim.clock.events": "scheduler.events_fired",
    "netsim.clock.events_cancelled": "scheduler.events_cancelled",
    "netsim.link.packets": "link.packets_sent",
    "netsim.link.bytes": "link.bytes_sent",
    "netsim.link.drops": "link.packets_dropped",
    "netsim.link.duplicates": "link.duplicates",
    "netsim.link.reordered": "link.reordered",
    "transport.udp.datagrams_sent": "udp.datagrams_sent",
    "transport.udp.datagrams_received": "udp.datagrams_received",
    "transport.udp.unmatched_drops": "udp.unmatched_drops",
    "transport.tcp.retransmits": "tcp.retransmits",
    "transport.tcp.rto_fires": "tcp.rto_fires",
    "transport.tcp.rsts_sent": "tcp.rsts_sent",
    "core.rendezvous.lookup_misses": "rendezvous.lookup.misses",
    "core.udp_punch.probes_sent": "punch.udp.probes_sent",
    "core.udp_punch.succeeded": "punch.udp.succeeded",
    "core.tcp_punch.connect_attempts": "punch.tcp.connect_attempts",
    "core.tcp_punch.succeeded": "punch.tcp.succeeded",
    "core.tcp_punch.retries": "punch.tcp.retries",
}

#: catalogue name -> labelled registry counter, summed over the free labels
_LABELLED = {
    "transport.tcp.segments": ("link.packets_sent", "proto=tcp"),
    "transport.tcp.syn_connected": ("tcp.syn_outcomes", "outcome=connected"),
    "transport.tcp.syn_reset": ("tcp.syn_outcomes", "outcome=reset"),
    "core.registry.evictions_ttl": ("rendezvous.evictions", "reason=ttl"),
    "core.registry.evictions_lru": ("rendezvous.evictions", "reason=lru"),
    "nat.device.translations_out": ("nat.translations_out", ""),
    "nat.device.translations_in": ("nat.translations_in", ""),
    "nat.device.hairpin_forwarded": ("nat.hairpin_forwarded", ""),
    "nat.device.drops": ("nat.drops", ""),
    "nat.mapping.created": ("nat.mappings_created", ""),
    "nat.mapping.expired": ("nat.mappings_expired", ""),
}

#: Every additive (A) count, in catalogue order; all start at zero so a
#: workload that never touches a layer reports an explicit 0 for it.
ADDITIVE = tuple(_PLAIN) + tuple(_LABELLED) + (
    "core.rendezvous.lookups",
    "core.registry.sweeps",
    "obs.flight.events_recorded",
    "obs.flight.dropped_events",
    "netsim.packet.pool_recycled",
    "obs.attribution.verdicts",
    "obs.attribution.unknown_verdicts",
    "core.client.tcp_unregistered",
)


def zero_counts() -> Dict[str, float]:
    counts: Dict[str, float] = {name: 0 for name in ADDITIVE}
    counts["netsim.clock.max_queue_depth"] = 0
    return counts


def network_counts(net) -> Dict[str, float]:
    """Cumulative (A) counts of one :class:`~repro.netsim.network.Network`."""
    registry = net.metrics
    registry.collect()
    counters = registry.counters()
    counts = zero_counts()
    for name, source in _PLAIN.items():
        counts[name] = counters.get(source, 0)
    for name, (source, label) in _LABELLED.items():
        prefix = source + "{"
        counts[name] = sum(
            value
            for key, value in counters.items()
            if key.startswith(prefix) and label in key
        )
    counts["core.rendezvous.lookups"] = counters.get(
        "rendezvous.lookup.hits", 0
    ) + counters.get("rendezvous.lookup.misses", 0)
    counts["netsim.clock.max_queue_depth"] = net.scheduler.max_queue_depth
    flight = net.flight
    if flight is not None:
        counts["obs.flight.dropped_events"] = flight.dropped_events
        counts["obs.flight.events_recorded"] = (
            len(flight.events()) + flight.dropped_events
        )
    return counts


def merge(total: Dict[str, float], part: Dict[str, float]) -> None:
    """Fold *part* into *total*: sums, except the queue high-water mark."""
    for name, value in part.items():
        if name == "netsim.clock.max_queue_depth":
            total[name] = max(total.get(name, 0), value)
        else:
            total[name] = total.get(name, 0) + value


def delta(after: Dict[str, float], before: Dict[str, float]) -> Dict[str, float]:
    """Counts accrued between two snapshots of one long-lived network."""
    out = {name: value - before.get(name, 0) for name, value in after.items()}
    out["netsim.clock.max_queue_depth"] = after["netsim.clock.max_queue_depth"]
    return out


def histogram_values(nets: Iterable, name: str) -> List[float]:
    """Raw observations of one registry histogram across networks."""
    values: List[float] = []
    for net in nets:
        hist = net.metrics.histograms().get(name)
        if hist is not None:
            values.extend(hist.values())
    return values
