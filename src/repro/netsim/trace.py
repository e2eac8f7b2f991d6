"""Packet tracing: capture wire events for tests, debugging, and benches."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import islice
from typing import Callable, Deque, List, Optional

from repro.netsim.packet import IpProtocol, Packet


@dataclass(frozen=True)
class TraceRecord:
    """One observed wire event.

    ``event`` is one of ``"sent"``, ``"lost"``, ``"no-next-hop"``.
    """

    time: float
    link: str
    sender: str
    receiver: Optional[str]
    event: str
    packet: Packet

    def __str__(self) -> str:
        to = self.receiver or "-"
        return f"[{self.time:9.4f}] {self.link}: {self.sender}->{to} {self.event} {self.packet.describe()}"


class PacketTrace:
    """A bounded ring-buffer capture of wire events with query helpers.

    Disabled by default (capture costs memory in big fleet runs); call
    :meth:`enable` before the traffic of interest.  At capacity the **oldest**
    record is evicted so the capture always holds the newest traffic — the
    part a post-mortem wants — and :attr:`dropped_records` counts evictions
    (surfaced by :meth:`dump` so truncation is never silent).
    """

    def __init__(self, enabled: bool = False, capacity: int = 1_000_000) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self._enabled = enabled
        #: Callbacks run whenever ``enabled`` flips; links subscribe so their
        #: precomputed fast-path flag tracks mid-run enable()/disable().
        self._listeners: List[Callable[[], None]] = []
        self.capacity = capacity
        self._records: Deque[TraceRecord] = deque(maxlen=capacity)
        self.dropped_records = 0

    @property
    def enabled(self) -> bool:
        return self._enabled

    @enabled.setter
    def enabled(self, value: bool) -> None:
        value = bool(value)
        if value == self._enabled:
            return
        self._enabled = value
        for listener in self._listeners:
            listener()

    def subscribe(self, listener: Callable[[], None]) -> None:
        """Register a callback invoked whenever :attr:`enabled` changes."""
        self._listeners.append(listener)

    @property
    def records(self) -> List[TraceRecord]:
        """The retained records, oldest first (a copy — cheap for queries,
        never mutated under the caller)."""
        return list(self._records)

    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def clear(self) -> None:
        self._records.clear()
        self.dropped_records = 0

    def record(self, time: float, link: str, sender: str, receiver: Optional[str], event: str, packet: Packet) -> None:
        """Append a record (no-op when disabled; evicts oldest at capacity)."""
        if not self.enabled:
            return
        if len(self._records) == self.capacity:
            self.dropped_records += 1
        self._records.append(
            TraceRecord(time=time, link=link, sender=sender, receiver=receiver, event=event, packet=packet)
        )

    def __len__(self) -> int:
        return len(self._records)

    def sent(self, proto: Optional[IpProtocol] = None) -> List[TraceRecord]:
        """Successfully transmitted packets, optionally by protocol."""
        return [
            r
            for r in self._records
            if r.event == "sent" and (proto is None or r.packet.proto is proto)
        ]

    def count(self, event: str = "sent") -> int:
        return sum(1 for r in self._records if r.event == event)

    def dump(self, limit: int = 200) -> str:
        """Human-readable multi-line dump (truncated at *limit* lines).

        The header reports ring-buffer evictions so a capped capture is
        visibly — not silently — incomplete.
        """
        lines = []
        if self.dropped_records:
            lines.append(
                f"... {self.dropped_records} older records evicted (capacity {self.capacity})"
            )
        lines.extend(str(r) for r in islice(self._records, limit))
        if len(self._records) > limit:
            lines.append(f"... {len(self._records) - limit} more records")
        return "\n".join(lines)
