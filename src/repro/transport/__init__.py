"""Host transport stacks: UDP, and TCP (RFC 793 subset incl. simultaneous open)
with the SO_REUSEADDR port-sharing rule of paper §4.1.
"""

from repro import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(__name__, {
    "HostStack": "stack",
    "attach_stack": "stack",
    "TcpConnection": "tcp",
    "TcpListener": "tcp",
    "TcpStack": "tcp",
    "TcpState": "tcp",
    "TcpStyle": "tcp",
    "UdpSocket": "udp",
    "UdpStack": "udp",
})
