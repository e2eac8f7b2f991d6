"""Shared utilities: error types, deterministic RNG, structured event logging."""

from repro import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(__name__, {
    "ReproError": "errors",
    "AddressError": "errors",
    "BindError": "errors",
    "ConnectionError_": "errors",
    "ProtocolError": "errors",
    "RoutingError": "errors",
    "TimeoutError_": "errors",
    "SeededRng": "rng",
})
