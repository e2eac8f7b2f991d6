"""Workload interface and registry.

A workload turns ``--seed`` into inputs during :meth:`Workload.setup`, then
runs identical repetitions of those inputs.  The program under test only
ever sees the generated inputs, never the seed's meaning.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from simcounts import zero_counts
from stats import percentile


@dataclass
class RepResult:
    """What one repetition did, as far as the driver could verify.

    Attributes:
        ops: operations attempted (what ``ops_per_s`` counts).
        failed: operations that did not end in a verified result.
        errors: output-check violations; any entry makes the run incorrect.
        outcomes: ordered, JSON-native record of every op's outcome (who
            connected to whom, at which endpoint, at what virtual time, which
            payload digests came back).  Hashed into the outcome digest.
        counts: the (A) counts of this repetition (see :mod:`simcounts`).
        udp_connect_ms / tcp_connect_ms: virtual time from connect request to
            established session, per successful attempt.
        udp_lock_in_ms / tcp_punch_ms: the punchers' own virtual timings
            (endpoint exchange to lock-in / to the selected stream).
        nodes_built: nodes behind the ``scenarios.build`` spans (for
            ``scenarios.build_us_per_node``).
        untimed_s: host seconds spent collecting counts inside the call;
            subtracted from the repetition wall.
    """

    ops: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    outcomes: List[object] = field(default_factory=list)
    counts: Dict[str, float] = field(default_factory=zero_counts)
    udp_connect_ms: List[float] = field(default_factory=list)
    tcp_connect_ms: List[float] = field(default_factory=list)
    udp_lock_in_ms: List[float] = field(default_factory=list)
    tcp_punch_ms: List[float] = field(default_factory=list)
    nodes_built: int = 0
    untimed_s: float = 0.0

    def outcome_digest(self) -> str:
        return digest_of(self.outcomes)

    def sim_digest(self) -> str:
        """Outcomes plus every (A) count: the full simulated behaviour."""
        return digest_of([self.outcome_digest(), sorted(self.counts.items())])


def digest_of(value: object) -> str:
    encoded = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()


class Workload:
    """Base class; see the four implementations in ``wl_*.py``."""

    name = ""
    #: Whether the workload moves packets / makes connects at all; where it
    #: does not, ``sim_packets_per_s`` / ``sim_connect_ms_*`` are null.
    has_packets = True
    has_connects = False

    def __init__(self, seed: int, smoke: bool) -> None:
        self.seed = seed
        self.smoke = smoke

    def setup(self, spans) -> None:
        """Generate the corpus and any long-lived topology."""

    def repetition(self, spans) -> RepResult:
        raise NotImplementedError

    def exact_metrics(self, result: RepResult) -> Dict[str, Optional[float]]:
        """The end-to-end metrics that are exact per seed, from one
        repetition (every repetition of a run must give the same ones)."""
        connect_ms = result.udp_connect_ms + result.tcp_connect_ms
        return {
            "failed_ratio": result.failed / result.ops,
            "sim_connect_ms_p50": percentile(connect_ms, 0.50) if self.has_connects else None,
            "sim_connect_ms_p95": percentile(connect_ms, 0.95) if self.has_connects else None,
        }

    def packets_per_s(self, result: RepResult, wall: float) -> Optional[float]:
        """``Network.total_packets_sent()`` of one repetition over *wall*."""
        return result.counts["netsim.link.packets"] / wall if self.has_packets else None

    def protocol_corpus(self) -> list:
        """Messages representative of this workload, for the codec probes.

        ``probes`` is imported here, not at module top: it pulls in most of
        ``repro``, and the end-to-end pass must not pay in ``setup_s`` and
        ``peak_rss_mb`` for modules its workload never touches."""
        from probes import base_protocol_corpus

        return base_protocol_corpus()

    def payload_sizes(self) -> List[int]:
        """Datagram payload sizes representative of this workload, for the
        link and NAT probes."""
        return [32]


def add_natted_client(builder, index: int, peer_id: int, behavior, **nat_kwargs):
    """One NAT with one client host behind it, registered nowhere yet: the
    building block of the mesh and data-plane topologies.  *builder* is a
    :class:`repro.scenarios.topologies.ScenarioBuilder` that already has its
    server; addresses derive from *index*, so realms of up to 62 500 clients
    never collide."""
    label = f"c{index}"
    high, low = divmod(index, 250)
    lan_net = f"10.{high}.{low}.0/24"
    _nat, lan, gateway = builder.add_nat(
        label, f"155.{100 + high}.{low}.11", lan_net, behavior, **nat_kwargs
    )
    host = builder.add_client_host(label, f"10.{high}.{low}.1", lan_net, lan, gateway)
    return builder.make_client(host, peer_id)


def create(name: str, seed: int, smoke: bool) -> Workload:
    if name == "table1_survey":
        from wl_table1 import Table1Survey

        return Table1Survey(seed, smoke)
    if name in ("punch_mesh", "punch_mesh_lossy"):
        from wl_mesh import PunchMesh

        return PunchMesh(seed, smoke, lossy=name.endswith("_lossy"))
    if name == "session_dataplane":
        from wl_dataplane import SessionDataplane

        return SessionDataplane(seed, smoke)
    if name == "rendezvous_churn":
        from wl_churn import RendezvousChurn

        return RendezvousChurn(seed, smoke)
    raise ValueError(f"unknown workload {name!r}")
