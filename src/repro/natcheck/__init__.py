"""NAT Check (paper §6): the measurement tool and the Table 1 fleet.

NAT Check tests the two properties most crucial to hole punching — consistent
endpoint translation (§5.1) and silent dropping of unsolicited TCP SYNs
(§5.2) — plus hairpin translation (§5.4) and inbound filtering, using a
client behind the NAT under test and three well-known public servers.
"""

from repro import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(__name__, {
    "DiscoveryResult": "discovery",
    "NatDiscovery": "discovery",
    "NatCheckReport": "classify",
    "NatCheckClient": "client",
    "NatCheckConfig": "client",
    "FleetCacheStats": "fleet",
    "FleetResult": "fleet",
    "VendorSpec": "fleet",
    "VENDOR_SPECS": "fleet",
    "device_fingerprint": "fleet",
    "device_seed": "fleet",
    "resolve_workers": "fleet",
    "run_fleet": "fleet",
    "scale_population": "fleet",
    "NatCheckServers": "servers",
    "Table1Row": "table",
    "render_table1": "table",
    "table1_rows": "table",
})
