"""Longest-prefix-match routing tables."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.netsim.addresses import IPv4Address, IPv4Network
from repro.util.errors import RoutingError


@dataclass(frozen=True)
class Route:
    """One forwarding entry.

    Attributes:
        prefix: destination prefix this route covers.
        interface: name of the local interface to send out of.
        next_hop: gateway IP on that interface's segment, or None when the
            destination is directly on-link (deliver to the destination IP
            itself).
    """

    prefix: IPv4Network
    interface: str
    next_hop: Optional[IPv4Address] = None


class RoutingTable:
    """A list of routes with longest-prefix-match lookup."""

    def __init__(self) -> None:
        self._routes: List[Route] = []
        #: Forwarding closures the owning node resolved through this table
        #: (raw destination IP value -> ``(link, next_hop, interface)``; see
        #: ``Node._resolve``).  :meth:`add` and :meth:`remove` empty it, so a
        #: closure never outlives the route set it was derived from.
        self.closures: Dict[int, tuple] = {}

    def add(self, prefix, interface: str, next_hop=None) -> Route:
        """Install a route; most-specific prefix wins at lookup time."""
        route = Route(
            prefix=IPv4Network(prefix),
            interface=interface,
            next_hop=IPv4Address(next_hop) if next_hop is not None else None,
        )
        self._routes.append(route)
        self._routes.sort(key=lambda r: r.prefix.prefix_len, reverse=True)
        self.closures.clear()
        return route

    def add_default(self, interface: str, next_hop) -> Route:
        """Install the 0.0.0.0/0 default route via *next_hop*."""
        return self.add("0.0.0.0/0", interface, next_hop)

    def remove(self, prefix) -> None:
        target = IPv4Network(prefix)
        self._routes = [r for r in self._routes if r.prefix != target]
        self.closures.clear()

    def lookup(self, destination) -> Route:
        """Return the most specific matching route.

        Raises RoutingError if nothing matches (no default route installed).
        """
        address = IPv4Address(destination)
        for route in self._routes:
            if address in route.prefix:
                return route
        raise RoutingError(f"no route to {address}")

    def try_lookup(self, destination) -> Optional[Route]:
        """Like :meth:`lookup` but returns None instead of raising."""
        try:
            return self.lookup(destination)
        except RoutingError:
            return None

    @property
    def routes(self) -> List[Route]:
        return list(self._routes)

    def __len__(self) -> int:
        return len(self._routes)
