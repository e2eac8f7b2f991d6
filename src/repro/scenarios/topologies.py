"""Builders for the network topologies of the paper's figures.

Addresses follow the paper exactly where it gives them (Figures 4-6):
server S at 18.181.0.31:1234; NAT A public 155.99.25.11; NAT B public
138.76.29.7; client A private 10.0.0.1:4321; client B private 10.1.1.3:4321;
the multi-level ISP realm 10.0.1.0/24 with NAT A at 10.0.1.1 and NAT B at
10.0.1.2 behind industrial NAT C.

The public core is modelled as one broadcast segment carrying the prefix
0.0.0.0/0: every public node is on-link, and packets to unrouted (private)
destinations die silently — exactly the fate of a datagram aimed at a peer's
private endpoint from the wrong realm (§3.4).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

from repro.core.client import PeerClient
from repro.core.rendezvous import RendezvousServer
from repro.nat.behavior import NatBehavior, WELL_BEHAVED
from repro.nat.device import NatDevice
from repro.netsim.link import BACKBONE_LINK, CONSUMER_LINK, LAN_LINK, LinkProfile
from repro.netsim.network import Network
from repro.netsim.node import Host
from repro.transport.stack import attach_stack
from repro.transport.tcp import TcpStyle
from repro.util.errors import TimeoutError_

#: The paper's well-known server address (Figure 2).
SERVER_IP = "18.181.0.31"
NAT_A_PUBLIC = "155.99.25.11"
NAT_B_PUBLIC = "138.76.29.7"
CLIENT_LOCAL_PORT = 4321

PUBLIC_NET = "0.0.0.0/0"


@dataclass
class Scenario:
    """A constructed topology plus its protocol actors.

    Attributes:
        net: the simulated network (scheduler, links, metrics).
        server: the rendezvous server S.
        clients: PeerClients by label ("A", "B", ...).
        nats: NAT devices by label.
        hosts: every host by label (clients, servers, decoys).
    """

    net: Network
    server: RendezvousServer
    clients: Dict[str, PeerClient] = field(default_factory=dict)
    nats: Dict[str, NatDevice] = field(default_factory=dict)
    hosts: Dict[str, Host] = field(default_factory=dict)

    @property
    def scheduler(self):
        return self.net.scheduler

    def run_until(self, deadline: float) -> None:
        self.net.run_until(deadline)

    def run_for(self, duration: float) -> None:
        self.net.run_for(duration)

    def wait_for(self, predicate: Callable[[], bool], timeout: float = 30.0) -> None:
        """Run the network until *predicate()* is true; raise on timeout."""
        deadline = self.scheduler.now + timeout
        if not self.scheduler.run_while(lambda: not predicate(), deadline):
            raise TimeoutError_(f"condition not reached within {timeout}s of virtual time")

    def register_all_udp(self) -> None:
        """Register every client with S over UDP and wait for completion."""
        for client in self.clients.values():
            client.register_udp()
        self.wait_for(lambda: all(c.udp_registered for c in self.clients.values()), 10.0)

    def register_all_tcp(self, timeout: float = 10.0) -> None:
        """Register every client with S over TCP and wait for completion."""
        for client in self.clients.values():
            client.register_tcp()
        self.wait_for(
            lambda: all(c.tcp_registered for c in self.clients.values()), timeout
        )

    def inject_faults(self, plan, extra_targets: Optional[Dict[str, object]] = None) -> "FaultInjector":
        """Arm a :class:`~repro.netsim.faults.FaultPlan` on this scenario.

        Application-level targets are pre-wired: ``"S"`` names the rendezvous
        server (for ``server-restart``/``-kill``/``-revive``), and NAT faults
        may use either the scenario label (``"A"``) or the device name
        (``"NAT-A"``).  *extra_targets* adds actors the scenario does not know
        about (e.g. a flooding attacker).
        """
        targets: Dict[str, object] = {"S": self.server}
        targets.update(self.nats)
        if extra_targets:
            targets.update(extra_targets)
        return plan.schedule(self.net, targets=targets)


class ScenarioBuilder:
    """Incremental construction of a scenario around one public backbone."""

    def __init__(
        self,
        seed: int = 0,
        backbone_profile: LinkProfile = BACKBONE_LINK,
        obfuscate: bool = False,
        flight: bool = False,
    ) -> None:
        self.net = Network(seed=seed)
        if flight:
            # Attach before any node/client exists so every layer (links,
            # NATs, PeerClients) captures the recorder reference.
            self.net.attach_flight()
        self.obfuscate = obfuscate
        self.backbone = self.net.create_link("backbone", backbone_profile)
        self._server: Optional[RendezvousServer] = None

    def add_server(self) -> RendezvousServer:
        """Add the rendezvous server S (host label ``"S"``) at the paper's
        well-known endpoint."""
        host = self.net.add_host("S", ip=SERVER_IP, network=PUBLIC_NET, link=self.backbone)
        attach_stack(host, rng=self.net.rng.child("stack/S"))
        self._server = RendezvousServer(
            host, obfuscate=self.obfuscate, rng=self.net.rng.child("server")
        )
        return self._server

    def add_public_host(self, label: str, ip: str) -> Host:
        host = self.net.add_host(label, ip=ip, network=PUBLIC_NET, link=self.backbone)
        attach_stack(host, rng=self.net.rng.child(f"stack/{label}"))
        return host

    def add_nat(
        self,
        label: str,
        public_ip: str,
        lan_network: str,
        behavior: NatBehavior = WELL_BEHAVED,
        lan_profile: LinkProfile = LAN_LINK,
    ):
        """Create a NAT with its WAN on the backbone and a fresh LAN segment.
        Returns (nat, lan_link, gateway_ip)."""
        nat = NatDevice(
            f"NAT-{label}",
            self.net.scheduler,
            behavior,
            rng=self.net.rng.child(f"nat/{label}"),
        )
        self.net.add_node(nat)
        nat.set_wan(public_ip, PUBLIC_NET, self.backbone)
        lan = self.net.create_link(f"lan-{label}", lan_profile)
        gateway_ip = _gateway_of(lan_network)
        nat.add_lan(gateway_ip, lan_network, lan)
        return nat, lan, gateway_ip

    def add_client_host(
        self,
        label: str,
        ip: str,
        lan_network: str,
        lan_link,
        gateway_ip: str,
        tcp_style: TcpStyle = TcpStyle.BSD,
    ) -> Host:
        host = self.net.add_host(
            label, ip=ip, network=lan_network, link=lan_link, gateway=gateway_ip
        )
        attach_stack(host, tcp_style=tcp_style, rng=self.net.rng.child(f"stack/{label}"))
        return host

    def make_client(self, host: Host, client_id: int) -> PeerClient:
        if self._server is None:
            raise RuntimeError("add_server() must be called first")
        return PeerClient(
            host,
            client_id=client_id,
            server=self._server.endpoint,
            local_port=CLIENT_LOCAL_PORT,
            obfuscate=self.obfuscate,
        )


def _gateway_of(network: str) -> str:
    """First host address of a /24-style prefix, used as the NAT's LAN IP."""
    base = network.split("/")[0].rsplit(".", 1)[0]
    return f"{base}.254"


# ---------------------------------------------------------------------------
# Canonical figure topologies
# ---------------------------------------------------------------------------


def build_public_pair(seed: int = 0, **kw) -> Scenario:
    """Figure 1 baseline: A and B both in the global realm (no NATs)."""
    builder = ScenarioBuilder(seed=seed, **kw)
    server = builder.add_server()
    host_a = builder.add_public_host("A", NAT_A_PUBLIC)
    host_b = builder.add_public_host("B", NAT_B_PUBLIC)
    scenario = Scenario(net=builder.net, server=server)
    scenario.hosts = {"S": server.host, "A": host_a, "B": host_b}
    scenario.clients = {
        "A": builder.make_client(host_a, 1),
        "B": builder.make_client(host_b, 2),
    }
    return scenario


def build_one_sided(seed: int = 0, behavior: NatBehavior = WELL_BEHAVED, **kw) -> Scenario:
    """Figure 3: A behind a NAT, B public — connection reversal territory."""
    builder = ScenarioBuilder(seed=seed, **kw)
    server = builder.add_server()
    nat_a, lan_a, gw_a = builder.add_nat("A", NAT_A_PUBLIC, "10.0.0.0/24", behavior)
    host_a = builder.add_client_host("A", "10.0.0.1", "10.0.0.0/24", lan_a, gw_a)
    host_b = builder.add_public_host("B", NAT_B_PUBLIC)
    scenario = Scenario(net=builder.net, server=server)
    scenario.nats = {"A": nat_a}
    scenario.hosts = {"S": server.host, "A": host_a, "B": host_b}
    scenario.clients = {
        "A": builder.make_client(host_a, 1),
        "B": builder.make_client(host_b, 2),
    }
    return scenario


def build_common_nat(seed: int = 0, behavior: NatBehavior = WELL_BEHAVED, **kw) -> Scenario:
    """Figure 4: both clients behind one NAT, same private realm."""
    builder = ScenarioBuilder(seed=seed, **kw)
    server = builder.add_server()
    nat, lan, gw = builder.add_nat("AB", NAT_A_PUBLIC, "10.0.0.0/24", behavior)
    host_a = builder.add_client_host("A", "10.0.0.1", "10.0.0.0/24", lan, gw)
    host_b = builder.add_client_host("B", "10.0.0.2", "10.0.0.0/24", lan, gw)
    scenario = Scenario(net=builder.net, server=server)
    scenario.nats = {"AB": nat}
    scenario.hosts = {"S": server.host, "A": host_a, "B": host_b}
    scenario.clients = {
        "A": builder.make_client(host_a, 1),
        "B": builder.make_client(host_b, 2),
    }
    return scenario


def build_two_nats(
    seed: int = 0,
    behavior_a: NatBehavior = WELL_BEHAVED,
    behavior_b: Optional[NatBehavior] = None,
    tcp_style_a: TcpStyle = TcpStyle.BSD,
    tcp_style_b: TcpStyle = TcpStyle.BSD,
    private_collision: bool = False,
    **kw,
) -> Scenario:
    """Figure 5: the paper's canonical scenario — different NATs.

    With ``private_collision=True``, client A's realm uses the same prefix as
    B's and contains a decoy host at B's private address (10.1.1.3), so A's
    probes to B's *private* endpoint reach the wrong host — the §3.4 stray
    traffic that authentication must reject.
    """
    builder = ScenarioBuilder(seed=seed, **kw)
    server = builder.add_server()
    behavior_b = behavior_b if behavior_b is not None else behavior_a
    if private_collision:
        lan_a_net, client_a_ip = "10.1.1.0/24", "10.1.1.2"
    else:
        lan_a_net, client_a_ip = "10.0.0.0/24", "10.0.0.1"
    nat_a, lan_a, gw_a = builder.add_nat("A", NAT_A_PUBLIC, lan_a_net, behavior_a)
    nat_b, lan_b, gw_b = builder.add_nat("B", NAT_B_PUBLIC, "10.1.1.0/24", behavior_b)
    host_a = builder.add_client_host("A", client_a_ip, lan_a_net, lan_a, gw_a, tcp_style_a)
    host_b = builder.add_client_host("B", "10.1.1.3", "10.1.1.0/24", lan_b, gw_b, tcp_style_b)
    scenario = Scenario(net=builder.net, server=server)
    scenario.nats = {"A": nat_a, "B": nat_b}
    scenario.hosts = {"S": server.host, "A": host_a, "B": host_b}
    if private_collision:
        decoy = builder.add_client_host(
            "decoy", "10.1.1.3", lan_a_net, lan_a, gw_a, tcp_style_a
        )
        scenario.hosts["decoy"] = decoy
    scenario.clients = {
        "A": builder.make_client(host_a, 1),
        "B": builder.make_client(host_b, 2),
    }
    return scenario


def build_multilevel(seed: int = 0, nat_c_behavior: NatBehavior = WELL_BEHAVED, **kw) -> Scenario:
    """Figure 6: industrial NAT C over consumer NATs A and B (both
    well-behaved).

    Hole punching here requires NAT C to hairpin (§3.5): pass
    ``nat_c_behavior=HAIRPIN_CAPABLE`` (or any behaviour with
    ``hairpin=True``) for the success case.
    """
    builder = ScenarioBuilder(seed=seed, **kw)
    server = builder.add_server()
    # NAT C: WAN on the backbone at the paper's 155.99.25.11, LAN = ISP realm.
    nat_c, isp_lan, _gw_c = builder.add_nat(
        "C", NAT_A_PUBLIC, "10.0.1.0/24", nat_c_behavior, lan_profile=CONSUMER_LINK
    )
    # Consumer NATs A and B live in the ISP realm (addresses from Figure 6;
    # port bases 45000/55000 reproduce the figure's mapped ports).
    nat_a = NatDevice("NAT-A", builder.net.scheduler,
                      WELL_BEHAVED.but(port_base=45000),
                      rng=builder.net.rng.child("nat/A"))
    builder.net.add_node(nat_a)
    nat_a.set_wan("10.0.1.1", "10.0.1.0/24", isp_lan, gateway="10.0.1.254")
    lan_a = builder.net.create_link("lan-A", LAN_LINK)
    nat_a.add_lan("10.0.0.254", "10.0.0.0/24", lan_a)
    nat_b = NatDevice("NAT-B", builder.net.scheduler,
                      WELL_BEHAVED.but(port_base=55000),
                      rng=builder.net.rng.child("nat/B"))
    builder.net.add_node(nat_b)
    nat_b.set_wan("10.0.1.2", "10.0.1.0/24", isp_lan, gateway="10.0.1.254")
    lan_b = builder.net.create_link("lan-B", LAN_LINK)
    nat_b.add_lan("10.1.1.254", "10.1.1.0/24", lan_b)
    host_a = builder.add_client_host("A", "10.0.0.1", "10.0.0.0/24", lan_a, "10.0.0.254")
    host_b = builder.add_client_host("B", "10.1.1.3", "10.1.1.0/24", lan_b, "10.1.1.254")
    scenario = Scenario(net=builder.net, server=server)
    scenario.nats = {"A": nat_a, "B": nat_b, "C": nat_c}
    scenario.hosts = {"S": server.host, "A": host_a, "B": host_b}
    scenario.clients = {
        "A": builder.make_client(host_a, 1),
        "B": builder.make_client(host_b, 2),
    }
    return scenario
