"""The paper's contribution: rendezvous-assisted NAT traversal.

* :mod:`repro.core.protocol` — binary wire protocol (register / endpoint
  exchange / punch / relay / reversal messages) with optional IP obfuscation;
* :mod:`repro.core.rendezvous` — the well-known server S;
* :mod:`repro.core.udp_punch` — UDP hole punching (§3);
* :mod:`repro.core.tcp_punch` — parallel TCP hole punching (§4.2-4.4);
* :mod:`repro.core.tcp_sequential` — the NatTrav-style sequential variant (§4.5);
* :mod:`repro.core.reversal` — connection reversal (§2.3);
* :mod:`repro.core.relay` — relaying through S (§2.2);
* :mod:`repro.core.client` — :class:`PeerClient`, the application-facing API;
* :mod:`repro.core.connector` — the punch → reversal → relay ladder.
"""

from repro import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(__name__, {
    "PeerClient": "client",
    "ConnectOutcome": "connector",
    "ConnectResult": "connector",
    "P2PConnector": "connector",
    "RendezvousServer": "rendezvous",
    "RelaySession": "relay",
    "UdpHolePuncher": "udp_punch",
    "UdpSession": "udp_punch",
    "TcpHolePuncher": "tcp_punch",
    "TcpStream": "tcp_punch",
})
