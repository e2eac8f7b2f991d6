"""Turning raw NAT Check observations into the paper's categories (§6.2)."""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Dict, Optional

from repro.natcheck import messages as m
from repro.netsim.addresses import Endpoint


@dataclass
class NatCheckReport:
    """One device's NAT Check result — one "data point" of Table 1.

    ``None`` fields mean "not reported" (the paper's hairpin and TCP columns
    have smaller denominators because early NAT Check versions lacked those
    tests; the fleet reproduces that with the ``include_*`` flags).
    """

    # UDP test (§6.1.1)
    udp_ep1: Optional[Endpoint] = None
    udp_ep2: Optional[Endpoint] = None
    udp_unsolicited_received: bool = False
    udp_hairpin: Optional[bool] = None
    # TCP test (§6.1.2)
    tcp_ep1: Optional[Endpoint] = None
    tcp_ep2: Optional[Endpoint] = None
    tcp_syn_response: int = m.SYN_NOT_TESTED
    tcp_unsolicited_accepted: bool = False
    tcp_simopen_success: Optional[bool] = None
    tcp_hairpin: Optional[bool] = None
    tcp_tested: bool = False
    # provenance
    vendor: str = ""
    device: str = ""
    elapsed: float = 0.0
    # punch-latency observations (virtual seconds); ``None`` when the probe
    # never completed.  Feed the per-vendor distributions next to Table 1.
    udp_probe_rtt: Optional[float] = None
    tcp_connect_rtt: Optional[float] = None
    # root-cause verdicts from the flight recorder, keyed by failed phase
    # ("udp", "udp-hairpin", "tcp", "tcp-hairpin") — empty when every phase
    # passed or no recorder was attached.  Categories come from
    # :mod:`repro.obs.attribution`.
    failure_attribution: Dict[str, str] = field(default_factory=dict)

    # -- §6.2 classifications ------------------------------------------------

    @property
    def udp_consistent(self) -> Optional[bool]:
        """Both servers observed the same public endpoint (§5.1)."""
        if self.udp_ep1 is None or self.udp_ep2 is None:
            return None
        return self.udp_ep1 == self.udp_ep2

    @property
    def udp_punch_ok(self) -> Optional[bool]:
        """Table 1 column 1: basic compatibility with UDP hole punching."""
        return self.udp_consistent

    @property
    def tcp_consistent(self) -> Optional[bool]:
        if self.tcp_ep1 is None or self.tcp_ep2 is None:
            return None
        return self.tcp_ep1 == self.tcp_ep2

    @property
    def tcp_punch_ok(self) -> Optional[bool]:
        """Table 1 column 3: consistent TCP translation AND no active
        rejection (RST/ICMP) of unsolicited inbound SYNs (§6.2)."""
        if not self.tcp_tested:
            return None
        consistent = self.tcp_consistent
        if consistent is None:
            return False  # the test ran but endpoints never came back
        return consistent and self.tcp_syn_response in (m.SYN_PENDING, m.SYN_CONNECTED)

    @property
    def filters_unsolicited_udp(self) -> bool:
        """True if server 3's unsolicited UDP reply never arrived — the
        firewall-policy indicator §6.1 mentions (orthogonal to punching)."""
        return not self.udp_unsolicited_received

    @property
    def syn_response_name(self) -> str:
        return m.SYN_NAMES.get(self.tcp_syn_response, "unknown")

    def summary(self) -> str:
        """One-line human-readable verdict."""
        parts = [
            f"UDP punch: {_yn(self.udp_punch_ok)}",
            f"UDP hairpin: {_yn(self.udp_hairpin)}",
            f"TCP punch: {_yn(self.tcp_punch_ok)} (SYN: {self.syn_response_name})",
            f"TCP hairpin: {_yn(self.tcp_hairpin)}",
            f"filters: {_yn(self.filters_unsolicited_udp)}",
        ]
        return "; ".join(parts)

    # -- serialization ---------------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        """A JSON-safe encoding of every field (endpoints as ``[ip, port]``),
        for field-for-field comparisons and outcome digests."""
        data: Dict[str, object] = {}
        for field in fields(self):
            value = getattr(self, field.name)
            if isinstance(value, Endpoint):
                value = [str(value.ip), value.port]
            data[field.name] = value
        return data


def _yn(value: Optional[bool]) -> str:
    if value is None:
        return "n/a"
    return "yes" if value else "no"
