"""NAT devices with configurable behaviour.

The behavioural axes are exactly the ones the paper's Section 5 identifies as
deciding whether hole punching works:

* endpoint translation consistency — :class:`MappingPolicy` (§5.1): a *cone*
  NAT maps a private endpoint to one public endpoint for all destinations; a
  *symmetric* NAT allocates per-destination mappings and defeats punching;
* inbound filtering — :class:`FilteringPolicy`;
* unsolicited TCP SYN handling — :class:`TcpRefusalPolicy` (§5.2): silent drop
  is punch-friendly; RST or ICMP errors slow punching down;
* payload mangling — ``NatBehavior.mangles_payload`` (§5.3);
* hairpin translation — ``NatBehavior.hairpin`` (§3.5 / §5.4);
* UDP idle timeout — ``NatBehavior.udp_timeout`` (§3.6).
"""

from repro import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(__name__, {
    "FilteringPolicy": "policy",
    "MappingPolicy": "policy",
    "PortAllocation": "policy",
    "TcpRefusalPolicy": "policy",
    "NatBehavior": "behavior",
    "NatMapping": "mapping",
    "NatTable": "mapping",
    "NatDevice": "device",
})
