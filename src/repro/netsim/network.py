"""Topology container: owns the scheduler, RNG, metrics, nodes, links."""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional

from repro.netsim.addresses import IPv4Network
from repro.netsim.clock import Scheduler
from repro.netsim.link import Link, LinkProfile
from repro.netsim.node import Host, Node
from repro.obs.metrics import MetricsRegistry
from repro.util.rng import SeededRng

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.flight import FlightRecorder


class Network:
    """A simulated internetwork.

    Typical construction (the paper's Figure 5 topology):

        net = Network(seed=7)
        backbone = net.create_link("backbone", LinkProfile(latency=0.005))
        server = net.add_host("S", ip="18.181.0.31",
                              network="18.181.0.0/16", link=backbone)
        ... attach NAT devices and private hosts ...
        net.run_until(5.0)

    The network owns the run's :class:`MetricsRegistry`: every node added to
    it gets a ``.metrics`` reference, and the built-in collector pulls the
    substrate's plain counters (scheduler, links, NAT tables, host stacks)
    into the registry at snapshot time.  ``metrics_enabled=False`` makes the
    registry keep nothing, for overhead comparisons.
    """

    def __init__(self, seed: int = 0, metrics_enabled: bool = True) -> None:
        self.scheduler = Scheduler()
        self.rng = SeededRng(seed, "network")
        self.metrics = MetricsRegistry(enabled=metrics_enabled)
        self.metrics.add_collector(self._collect_builtin)
        #: Causal flight recorder (see :mod:`repro.obs.flight`); attached on
        #: demand via :meth:`attach_flight`, None by default so the packet
        #: path pays nothing.
        self.flight = None
        self.nodes: Dict[str, Node] = {}
        self.links: Dict[str, Link] = {}
        self._link_counter = 0

    # -- construction --------------------------------------------------------

    def create_link(self, name: Optional[str] = None, profile: Optional[LinkProfile] = None) -> Link:
        """Create a new L2 segment."""
        if name is None:
            self._link_counter += 1
            name = f"link{self._link_counter}"
        if name in self.links:
            raise ValueError(f"duplicate link name {name!r}")
        link = Link(
            self.scheduler,
            name=name,
            profile=profile,
            rng=self.rng.child(f"link/{name}"),
        )
        if self.flight is not None:
            link.set_flight(self.flight)
        self.links[name] = link
        return link

    def add_node(self, node: Node) -> Node:
        """Register an externally-constructed node (e.g. a NatDevice)."""
        if node.name in self.nodes:
            raise ValueError(f"duplicate node name {node.name!r}")
        self.nodes[node.name] = node
        node.metrics = self.metrics  # reachable from every layer above
        node.flight = self.flight
        return node

    def attach_flight(self) -> "FlightRecorder":
        """Attach a causal flight recorder and fan it out to every layer.

        Existing and future nodes/links get the reference; idempotent (a
        second call returns the recorder already attached).  Recording stays
        strictly passive — determinism is unaffected.
        """
        from repro.obs.flight import FlightRecorder

        if self.flight is None:
            self.flight = FlightRecorder(self.scheduler)
            for link in self.links.values():
                link.set_flight(self.flight)
            for node in self.nodes.values():
                node.flight = self.flight
        return self.flight

    def add_host(
        self,
        name: str,
        ip=None,
        network=None,
        link: Optional[Link] = None,
        gateway=None,
    ) -> Host:
        """Create and register a Host, optionally wiring its first interface."""
        host = Host(name, self.scheduler)
        self.add_node(host)
        if ip is not None:
            if network is None or link is None:
                raise ValueError("add_host with ip= requires network= and link=")
            host.add_interface("eth0", ip, IPv4Network(network), link)
            if gateway is not None:
                host.set_default_gateway(gateway)
        return host

    def host(self, name: str) -> Host:
        node = self.nodes[name]
        if not isinstance(node, Host):
            raise TypeError(f"node {name!r} is a {type(node).__name__}, not a Host")
        return node

    # -- execution -----------------------------------------------------------

    @property
    def now(self) -> float:
        return self.scheduler.now

    def run_until(self, deadline: float) -> None:
        self.scheduler.run_until(deadline)

    def run_for(self, duration: float) -> None:
        self.scheduler.run_until(self.scheduler.now + duration)

    def run(self, max_events: int = 1_000_000) -> int:
        return self.scheduler.run(max_events=max_events)

    # -- introspection ---------------------------------------------------------

    def total_packets_sent(self) -> int:
        return sum(link.packets_sent for link in self.links.values())

    # -- observability ----------------------------------------------------------

    def _collect_builtin(self, registry) -> None:
        """Snapshot-time collector: copy the substrate's plain counters into
        the registry.  Hot paths pay nothing; duck-typing keeps netsim from
        importing the nat/transport layers it is collecting from."""
        scheduler = self.scheduler
        registry.counter("scheduler.events_fired").value = scheduler.events_fired
        registry.counter("scheduler.events_cancelled").value = scheduler.events_cancelled
        registry.counter("scheduler.compactions").value = scheduler.compactions
        registry.counter("scheduler.compacted_entries").value = scheduler.compacted_entries
        sent_by_proto: Dict[object, int] = {}
        lost_by_proto: Dict[object, int] = {}
        packets = drops = queue_drops = total_bytes = 0
        flap_drops = burst_drops = duplicates = reordered = 0
        for link in self.links.values():
            packets += link.packets_sent
            drops += link.packets_dropped
            queue_drops += link.queue_drops
            total_bytes += link.bytes_sent
            flap_drops += link.flap_drops
            burst_drops += link.burst_drops
            duplicates += link.duplicates_delivered
            reordered += link.packets_reordered
            for proto, count in link.sent_by_proto.items():
                sent_by_proto[proto] = sent_by_proto.get(proto, 0) + count
            for proto, count in link.lost_by_proto.items():
                lost_by_proto[proto] = lost_by_proto.get(proto, 0) + count
        registry.counter("link.packets_sent").value = packets
        registry.counter("link.packets_dropped").value = drops
        registry.counter("link.queue_drops").value = queue_drops
        registry.counter("link.flap_drops").value = flap_drops
        registry.counter("link.burst_drops").value = burst_drops
        registry.counter("link.duplicates").value = duplicates
        registry.counter("link.reordered").value = reordered
        registry.counter("link.bytes_sent").value = total_bytes
        for proto, count in sent_by_proto.items():
            registry.counter("link.packets_sent", proto=proto.name.lower()).value = count
        for proto, count in lost_by_proto.items():
            registry.counter("link.packets_lost", proto=proto.name.lower()).value = count
        tcp_totals: Dict[str, int] = {}
        syn_outcomes: Dict[str, int] = {}
        udp_totals: Dict[str, int] = {}
        for node in self.nodes.values():
            table = getattr(node, "table", None)
            if table is not None and hasattr(table, "mappings_created"):
                name = node.name
                registry.counter("nat.mappings_created", node=name).value = table.mappings_created
                registry.counter("nat.mappings_expired", node=name).value = table.mappings_expired
                registry.counter("nat.translations_out", node=name).value = node.translations_out
                registry.counter("nat.translations_in", node=name).value = node.translations_in
                registry.counter("nat.hairpin_forwarded", node=name).value = node.hairpin_forwarded
                registry.counter("nat.reboots", node=name).value = getattr(node, "reboots", 0)
                registry.counter("nat.mappings_lost_to_reset", node=name).value = getattr(
                    table, "mappings_lost_to_reset", 0
                )
                for reason, count in getattr(node, "drops_by_reason", {}).items():
                    registry.counter("nat.drops", node=name, reason=reason).value = count
            stack = getattr(node, "stack", None)
            if stack is None:
                continue
            tcp = getattr(stack, "tcp", None)
            if tcp is not None:
                for field in ("retransmits", "rto_fires", "rsts_sent", "segments_dropped"):
                    tcp_totals[field] = tcp_totals.get(field, 0) + getattr(tcp, field, 0)
                for outcome, count in getattr(tcp, "syn_outcomes", {}).items():
                    syn_outcomes[outcome] = syn_outcomes.get(outcome, 0) + count
            udp = getattr(stack, "udp", None)
            if udp is not None:
                udp_totals["datagrams_sent"] = udp_totals.get("datagrams_sent", 0) + getattr(
                    udp, "datagrams_sent", 0
                )
                udp_totals["datagrams_received"] = udp_totals.get(
                    "datagrams_received", 0
                ) + getattr(udp, "datagrams_received", 0)
                udp_totals["unmatched_drops"] = udp_totals.get(
                    "unmatched_drops", 0
                ) + getattr(udp, "packets_dropped", 0)
        for field, value in tcp_totals.items():
            registry.counter(f"tcp.{field}").value = value
        for outcome, count in syn_outcomes.items():
            registry.counter("tcp.syn_outcomes", outcome=outcome).value = count
        for field, value in udp_totals.items():
            registry.counter(f"udp.{field}").value = value

    def metrics_json(self) -> str:
        """JSON dump of the run's metrics (collectors included)."""
        from repro.obs.export import to_json

        return to_json(self.metrics)

    def __repr__(self) -> str:
        return f"Network(nodes={len(self.nodes)}, links={len(self.links)}, t={self.now:.3f})"
