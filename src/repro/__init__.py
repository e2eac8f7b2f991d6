"""repro — a reproduction of "Peer-to-Peer Communication Across Network
Address Translators" (Ford, Srisuresh, Kegel; USENIX 2005).

The library implements UDP and TCP hole punching, connection reversal, and
relaying over a deterministic packet-level network simulator with fully
configurable NAT behaviour, plus a reproduction of the paper's NAT Check
evaluation (Table 1).

Quick start::

    from repro.scenarios import build_two_nats

    scenario = build_two_nats(seed=1)
    scenario.register_all_udp()
    a, b = scenario.clients["A"], scenario.clients["B"]
    established = []
    a.connect_udp(peer_id=2, on_session=established.append)
    scenario.wait_for(lambda: established)
    established[0].send(b"hello through the hole")
"""

import sys
from importlib import import_module

__version__ = "1.0.0"


def _lazy_exports(package: str, table: dict):
    """``(__getattr__, __dir__, __all__)`` for *package*, whose public names
    live in *table* (name -> defining submodule) and load on first use.

    PEP 562: the hook runs only for a name the package's globals lack, and
    stores what it resolves there, so each name costs one call per process.
    A name the table lacks is tried as a submodule (``repro.netsim.adversary``
    after a bare ``import repro.netsim``).  Importing ``repro.x.y`` therefore
    executes y's own dependency closure and nothing else.
    """
    namespace = vars(sys.modules[package])

    def __getattr__(name: str):
        submodule = table.get(name)
        missing = AttributeError(f"module {package!r} has no attribute {name!r}")
        # No submodule is private: spare ``__wrapped__``-style probes (inspect,
        # doctest, pytest) a search of the package directory per miss.
        if submodule is None and name.startswith("_"):
            raise missing
        try:
            module = import_module(f"{package}.{submodule or name}")
        except ModuleNotFoundError as exc:
            # Only "no such submodule" is a missing attribute; a submodule
            # whose own import fails must say so.
            if submodule is not None or exc.name != f"{package}.{name}":
                raise
            raise missing from None
        value = namespace[name] = getattr(module, name) if submodule else module
        return value

    def __dir__():
        return sorted({*namespace, *table})

    return __getattr__, __dir__, list(table)


__getattr__, __dir__, __all__ = _lazy_exports(__name__, {
    "PeerClient": "core.client",
    "P2PConnector": "core.connector",
    "RendezvousServer": "core.rendezvous",
    "Endpoint": "netsim.addresses",
    "Network": "netsim.network",
    "NatBehavior": "nat.behavior",
    "NatDevice": "nat.device",
})
__all__.append("__version__")
