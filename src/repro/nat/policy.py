"""NAT behaviour policy enums (RFC 3489 / BEHAVE terminology, paper §5)."""

from __future__ import annotations

import enum


class MappingPolicy(enum.Enum):
    """How a NAT keys its translation table (paper §5.1).

    ``ENDPOINT_INDEPENDENT`` is the *cone* behaviour the paper calls
    "consistent endpoint translation": one private endpoint maps to one public
    endpoint regardless of destination — the precondition for hole punching.
    ``ADDRESS_AND_PORT_DEPENDENT`` is the *symmetric* behaviour that breaks it
    by allocating a fresh public endpoint per destination.
    """

    ENDPOINT_INDEPENDENT = "endpoint-independent"
    ADDRESS_DEPENDENT = "address-dependent"
    ADDRESS_AND_PORT_DEPENDENT = "address-and-port-dependent"


class FilteringPolicy(enum.Enum):
    """Which inbound packets a NAT lets through an existing mapping.

    ``ENDPOINT_INDEPENDENT`` = full cone (anyone may send to the mapping);
    ``ADDRESS`` = restricted cone (remote IP must have been contacted);
    ``ADDRESS_AND_PORT`` = port-restricted cone (remote IP:port must have
    been contacted);
    ``NONE`` = no filtering at all — the paper's §6.1.2 notes this is "fine
    for hole punching but not ideal for security".
    """

    NONE = "none"
    ENDPOINT_INDEPENDENT = "endpoint-independent"
    ADDRESS = "address"
    ADDRESS_AND_PORT = "address-and-port"


class TcpRefusalPolicy(enum.Enum):
    """Response to an unsolicited inbound TCP SYN (paper §5.2).

    ``DROP`` (silent) is the P2P-friendly behaviour; ``RST`` and ``ICMP``
    actively reject, producing the transient errors §5.2 describes — not
    fatal for punching (the application retries) but slower.
    """

    DROP = "drop"
    RST = "rst"
    ICMP = "icmp"


class PortAllocation(enum.Enum):
    """Public port selection for new mappings.

    ``SEQUENTIAL`` is the predictable allocation that makes symmetric-NAT
    port prediction (§5.1) work "much of the time"; ``RANDOM`` defeats it;
    ``PRESERVING`` tries to reuse the private port number.
    """

    SEQUENTIAL = "sequential"
    RANDOM = "random"
    PRESERVING = "preserving"
