"""RFC 3489-style NAT behaviour discovery ("STUN classification").

The paper leans on this twice: §3.1's private/public endpoint split is what
a STUN binding request reveals, and §5.1's port-prediction tricks "first
probe the NAT's behavior using a protocol such as STUN".  This module
implements the client side of that probing against the NAT Check server
suite (which answers on an alternate port and can reply from an alternate
IP):

* **mapping policy** — compare the public endpoints observed by
  (server 1, port), (server 1, alt port), (server 2, port): all equal =>
  endpoint-independent ("cone"); equal per-IP => address-dependent;
  all distinct => address-and-port-dependent ("symmetric");
* **filtering policy** — after opening a session to server 1, check which
  unexpected sources can reach the mapping: an alternate IP (server 3),
  an alternate port on the same IP, or neither;
* **port allocation** — for non-cone NATs, the delta between successively
  allocated public ports; a delta of +1 is the predictable allocator that
  §5.1's prediction exploits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

from repro.nat.policy import FilteringPolicy, MappingPolicy
from repro.natcheck import messages as m
from repro.natcheck.servers import SERVER_ALT_PORT, SERVER_IPS, SERVER_PORT
from repro.netsim.addresses import Endpoint
from repro.netsim.node import Host

#: The local UDP port whose mapping the probes measure.
_LOCAL_PORT = 4321
#: Seconds each phase waits for the servers' answers before classifying.
_WAIT = 2.0


@dataclass
class DiscoveryResult:
    """What the probes revealed about the NAT in front of this host."""

    local_endpoint: Optional[Endpoint] = None
    observed: Dict[str, Endpoint] = field(default_factory=dict)
    behind_nat: Optional[bool] = None
    mapping: Optional[MappingPolicy] = None
    filtering: Optional[FilteringPolicy] = None
    port_delta: Optional[int] = None
    predictable_ports: Optional[bool] = None
    elapsed: float = 0.0

    @property
    def is_cone(self) -> Optional[bool]:
        if self.mapping is None:
            return None
        return self.mapping is MappingPolicy.ENDPOINT_INDEPENDENT

    @property
    def prediction_viable(self) -> Optional[bool]:
        """§5.1: prediction is worth attempting against a symmetric NAT with
        predictable allocation."""
        if self.is_cone is None or self.is_cone:
            return False
        return bool(self.predictable_ports)

    def summary(self) -> str:
        return (
            f"behind_nat={self.behind_nat} mapping={getattr(self.mapping, 'value', None)} "
            f"filtering={getattr(self.filtering, 'value', None)} "
            f"port_delta={self.port_delta}"
        )


class NatDiscovery:
    """One discovery run from *host* (with a HostStack) behind the NAT under
    test, against the NAT Check servers at :data:`SERVER_IPS` (primary and
    alternate endpoints derive from :data:`SERVER_PORT` /
    :data:`SERVER_ALT_PORT`)."""

    def __init__(self, host: Host) -> None:
        self.host = host
        self.server1 = Endpoint(SERVER_IPS[0], SERVER_PORT)
        self.server1_alt = Endpoint(SERVER_IPS[0], SERVER_ALT_PORT)
        self.server2 = Endpoint(SERVER_IPS[1], SERVER_PORT)
        self.result = DiscoveryResult()
        self._stack = host.stack  # type: ignore[attr-defined]
        self._on_complete: Optional[Callable[[DiscoveryResult], None]] = None
        self._token = 0
        self._tokens: Dict[int, str] = {}
        self._started = 0.0

    @property
    def scheduler(self):
        return self.host.scheduler

    def _tag_token(self, tag: str) -> int:
        self._token += 1
        self._tokens[self._token] = tag
        return self._token

    def run(self, on_complete: Callable[[DiscoveryResult], None]) -> None:
        self._on_complete = on_complete
        self._started = self.scheduler.now
        self._mapping_phase()

    # -- phase 1: mapping policy ---------------------------------------------------

    def _mapping_phase(self) -> None:
        sock = self._stack.udp.socket(_LOCAL_PORT)
        self.result.local_endpoint = sock.local

        def on_datagram(data: bytes, src: Endpoint) -> None:
            message = m.try_unpack(data)
            if isinstance(message, m.Echo):
                tag = self._tokens.get(message.token)
                if tag is not None:
                    self.result.observed[tag] = message.observed

        sock.on_datagram = on_datagram
        sock.sendto(m.Probe(m.UDP_PROBE, self._tag_token("s1")).pack(), self.server1)
        sock.sendto(m.Probe(m.UDP_PROBE, self._tag_token("s1alt")).pack(), self.server1_alt)
        sock.sendto(m.Probe(m.UDP_PROBE, self._tag_token("s2")).pack(), self.server2)
        self.scheduler.call_later(_WAIT, self._classify_mapping)

    def _classify_mapping(self) -> None:
        observed = self.result.observed
        ep1, ep1a, ep2 = observed.get("s1"), observed.get("s1alt"), observed.get("s2")
        if ep1 is None:
            self._finish()  # no connectivity at all
            return
        self.result.behind_nat = ep1 != self.result.local_endpoint
        if not self.result.behind_nat:
            self.result.mapping = MappingPolicy.ENDPOINT_INDEPENDENT
            self.result.filtering = FilteringPolicy.NONE
            self._finish()
            return
        if ep1 == ep1a == ep2:
            self.result.mapping = MappingPolicy.ENDPOINT_INDEPENDENT
        elif ep1 == ep1a:
            self.result.mapping = MappingPolicy.ADDRESS_DEPENDENT
        else:
            self.result.mapping = MappingPolicy.ADDRESS_AND_PORT_DEPENDENT
        if ep1a is not None and ep1 != ep1a:
            self.result.port_delta = ep1a.port - ep1.port
            self.result.predictable_ports = abs(self.result.port_delta) == 1
        self._filtering_phase()

    # -- phase 2: filtering policy ----------------------------------------------------

    def _filtering_phase(self) -> None:
        sock = self._stack.udp.socket(0)
        got = {"alt_ip": False, "alt_port": False}

        def on_datagram(data: bytes, src: Endpoint) -> None:
            message = m.try_unpack(data)
            if isinstance(message, m.From3):
                got["alt_ip"] = True
            elif isinstance(message, m.Echo) and src.port == SERVER_ALT_PORT:
                got["alt_port"] = True

        sock.on_datagram = on_datagram
        # Open the session toward server 1, then solicit replies from an
        # alternate IP (server 3 via server 2) and an alternate port.
        sock.sendto(m.Probe(m.UDP_PROBE, self._tag_token("f0")).pack(), self.server1)
        sock.sendto(m.Probe(m.UDP_PROBE_ALT_IP, self._tag_token("fip")).pack(), self.server2)
        sock.sendto(
            m.Probe(m.UDP_PROBE_ALT_PORT, self._tag_token("fport")).pack(), self.server1
        )

        def classify() -> None:
            if got["alt_ip"]:
                self.result.filtering = FilteringPolicy.ENDPOINT_INDEPENDENT
            elif got["alt_port"]:
                self.result.filtering = FilteringPolicy.ADDRESS
            else:
                self.result.filtering = FilteringPolicy.ADDRESS_AND_PORT
            self._finish()

        self.scheduler.call_later(_WAIT, classify)

    # -- completion -----------------------------------------------------------------------

    def _finish(self) -> None:
        if self._on_complete is None:
            return
        self.result.elapsed = self.scheduler.now - self._started
        callback, self._on_complete = self._on_complete, None
        callback(self.result)
