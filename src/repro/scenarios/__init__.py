"""Canonical topologies and runnable scenarios for the paper's figures."""

from repro import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(__name__, {
    "Scenario": "topologies",
    "build_common_nat": "topologies",
    "build_multilevel": "topologies",
    "build_one_sided": "topologies",
    "build_public_pair": "topologies",
    "build_two_nats": "topologies",
})
