"""Causal flight recorder: per-attempt event timelines.

The observability layer so far answers *what happened in aggregate*
(counters, histograms, spans).  This module answers *what happened to this
attempt*: a :class:`FlightRecorder` collects low-level decision events —
NAT mapping creations, translate/filter/drop verdicts, link losses, fault
injections — each stamped with an attempt-scoped correlation id, and merges
them into one ordered timeline per attempt.  The attribution engine in
:mod:`repro.obs.attribution` walks that timeline to produce a root-cause
verdict ("why did this punch fail?").

Correlation ids propagate through two complementary channels:

* **Timer chains** — :class:`~repro.netsim.clock.Scheduler` carries a
  ``context`` attribute; every :class:`~repro.netsim.clock.Timer` captures
  it at construction and restores it when it fires.  Opening an attempt
  sets the context, so everything causally downstream of the attempt —
  packet deliveries, retransmissions, the rendezvous server's delayed
  replies — inherits the attempt id with zero per-layer plumbing.
* **Packet lineage** — :attr:`~repro.netsim.packet.Packet.flow` is stamped
  at the first recorded hop and propagated by ``Packet.copy()``, so a NAT's
  rewritten clone attributes to the same attempt as the original.

Recording follows the PR 4 fast-path discipline: every instrumentation site
is guarded by an ``is not None`` check on the recorder reference, so a
simulation with no recorder attached pays one attribute load per site (the
overhead bench pins this under 2%).  Like spans, the recorder is strictly
passive — it never schedules timers or perturbs determinism.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Deque, Dict, Iterable, List, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.netsim.clock import Scheduler
    from repro.netsim.packet import Packet

#: Default ring-buffer capacity; beyond this the oldest events are evicted
#: and counted in :attr:`FlightRecorder.dropped_events`.
DEFAULT_CAPACITY = 65536

#: Attempt outcomes the attribution engine treats as success ("closed"
#: covers sessions torn down deliberately by the application).
SUCCESS_OUTCOMES = frozenset({"ok", "locked", "consistent", "connected", "closed"})


class FlightEvent:
    """One recorded decision: time, kind, owning attempt, and attributes."""

    __slots__ = ("time", "kind", "attempt", "attrs")

    def __init__(
        self,
        time: float,
        kind: str,
        attempt: Optional[int],
        attrs: Dict[str, object],
    ) -> None:
        self.time = time
        self.kind = kind
        self.attempt = attempt
        self.attrs = attrs

    def to_dict(self) -> Dict[str, object]:
        return {
            "time": self.time,
            "kind": self.kind,
            "attempt": self.attempt,
            "attrs": {k: _plain(v) for k, v in self.attrs.items()},
        }

    def __repr__(self) -> str:
        owner = f"a{self.attempt}" if self.attempt is not None else "global"
        return f"FlightEvent(t={self.time:.3f}, {self.kind!r}, {owner}, {self.attrs})"


class Attempt:
    """One attempt lifecycle: a correlation-id scope with an outcome.

    Attempts nest (a ``session.udp`` attempt inside the ``connect.udp``
    attempt whose punch opened it); events recorded while a child is the
    active context belong to the child but are visible from the parent's
    merged timeline.
    """

    __slots__ = ("id", "name", "tags", "start", "end", "outcome", "parent", "children")

    def __init__(
        self,
        attempt_id: int,
        name: str,
        start: float,
        tags: Dict[str, object],
        parent: Optional["Attempt"] = None,
    ) -> None:
        self.id = attempt_id
        self.name = name
        self.tags = tags
        self.start = start
        self.end: Optional[float] = None
        self.outcome: Optional[str] = None
        self.parent = parent
        self.children: List["Attempt"] = []

    @property
    def finished(self) -> bool:
        return self.end is not None

    @property
    def succeeded(self) -> bool:
        return self.outcome in SUCCESS_OUTCOMES

    def ids(self) -> List[int]:
        """This attempt's id plus every descendant's, depth-first."""
        out = [self.id]
        for child in self.children:
            out.extend(child.ids())
        return out

    def to_dict(self) -> Dict[str, object]:
        return {
            "id": self.id,
            "name": self.name,
            "parent": self.parent.id if self.parent is not None else None,
            "start": self.start,
            "end": self.end,
            "outcome": self.outcome,
            "tags": {k: _plain(v) for k, v in self.tags.items()},
        }

    def __repr__(self) -> str:
        state = f"outcome={self.outcome!r}" if self.finished else "open"
        return f"Attempt(#{self.id} {self.name!r}, t={self.start:.3f}, {state})"


def _plain(value: object) -> object:
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


class FlightRecorder:
    """Bounded event log plus the attempt registry that scopes it.

    Attached to a :class:`~repro.netsim.network.Network` via
    ``net.attach_flight()``; the network fans the reference out to nodes and
    links, which guard every recording call with ``is not None``.

    Args:
        scheduler: source of virtual time and home of the causal context.
        capacity: ring-buffer size; evictions increment
            :attr:`dropped_events` (surfaced by the exporters so truncated
            captures are never mistaken for complete ones).
    """

    def __init__(self, scheduler: "Scheduler", capacity: int = DEFAULT_CAPACITY) -> None:
        self.scheduler = scheduler
        self.capacity = capacity
        self._events: Deque[FlightEvent] = deque(maxlen=capacity)
        self.dropped_events = 0
        self.attempts: Dict[int, Attempt] = {}
        self.roots: List[Attempt] = []
        self._next_id = 1

    # -- attempt lifecycle ---------------------------------------------------

    def attempt(
        self,
        name: str,
        parent: Optional[Attempt] = None,
        **tags: object,
    ) -> Attempt:
        """Open an attempt and make it the active causal context.

        Timers scheduled from here on (until the context changes) inherit
        the new attempt's id, so the whole downstream cascade attributes to
        it automatically.
        """
        attempt = Attempt(
            self._next_id, name, self.scheduler.now, dict(tags), parent=parent
        )
        self._next_id += 1
        self.attempts[attempt.id] = attempt
        if parent is not None:
            parent.children.append(attempt)
        else:
            self.roots.append(attempt)
        self.scheduler.context = attempt.id
        self._append(FlightEvent(attempt.start, "attempt.start", attempt.id, {"name": name}))
        return attempt

    def finish(self, attempt: Attempt, outcome: str, **attrs: object) -> Attempt:
        """Close an attempt (idempotent — the first outcome wins).

        Restores the causal context to the parent attempt when this attempt
        is still the active one, so sibling attempts don't inherit a stale
        id.
        """
        if attempt.end is None:
            attempt.end = self.scheduler.now
            attempt.outcome = outcome
            self._append(
                FlightEvent(
                    attempt.end,
                    "attempt.end",
                    attempt.id,
                    dict(attrs, name=attempt.name, outcome=outcome),
                )
            )
        if self.scheduler.context == attempt.id:
            self.scheduler.context = (
                attempt.parent.id if attempt.parent is not None else None
            )
        return attempt

    # -- recording -----------------------------------------------------------

    def _append(self, event: FlightEvent) -> None:
        if len(self._events) == self.capacity:
            self.dropped_events += 1
        self._events.append(event)

    def record(self, kind: str, **attrs: object) -> None:
        """Record an event attributed to the current causal context."""
        self._append(
            FlightEvent(self.scheduler.now, kind, self.scheduler.context, attrs)
        )

    def record_global(self, kind: str, **attrs: object) -> None:
        """Record a context-free event (fault injections, NAT reboots).

        Global events are matched to attempts by time window at attribution
        time — a reboot is relevant to every attempt it overlaps.
        """
        self._append(FlightEvent(self.scheduler.now, kind, None, attrs))

    def packet_event(self, kind: str, packet: "Packet", **attrs: object) -> None:
        """Record an event about *packet*, stamping its flow lineage.

        The packet's :attr:`~repro.netsim.packet.Packet.flow` id wins when
        already stamped (the packet was first seen under its originating
        attempt); otherwise the current context is stamped onto the packet
        so later hops of its copies stay correlated.
        """
        ctx = packet.flow
        if ctx is None:
            ctx = self.scheduler.context
            packet.flow = ctx
        attrs["packet"] = packet.describe()
        self._append(FlightEvent(self.scheduler.now, kind, ctx, attrs))

    # -- queries -------------------------------------------------------------

    def events(self) -> List[FlightEvent]:
        """Every retained event, oldest first."""
        return list(self._events)

    def events_for(
        self, attempt: Attempt, include_children: bool = True
    ) -> List[FlightEvent]:
        """Events owned by *attempt* (and its descendants by default)."""
        wanted = set(attempt.ids()) if include_children else {attempt.id}
        return [e for e in self._events if e.attempt in wanted]

    def timeline(self, attempt: Attempt, include_global: bool = True) -> List[FlightEvent]:
        """The merged, ordered per-attempt timeline.

        Owned events plus (by default) global events falling inside the
        attempt's ``[start, end]`` window — an open attempt's window extends
        to the latest retained event.
        """
        wanted = set(attempt.ids())
        end = attempt.end
        if end is None:
            end = self._events[-1].time if self._events else attempt.start
        out: List[FlightEvent] = []
        for event in self._events:
            if event.attempt in wanted:
                out.append(event)
            elif (
                include_global
                and event.attempt is None
                and attempt.start <= event.time <= end
            ):
                out.append(event)
        return out

    def find_attempts(self, name: Optional[str] = None) -> List[Attempt]:
        """Attempts by name (creation order); all of them when *name* is None."""
        return [
            a
            for a in self.attempts.values()
            if name is None or a.name == name
        ]

    def to_payload(self) -> Dict[str, object]:
        """Canonical JSON-native view — the exporters' round-trip format."""
        return {
            "dropped_events": self.dropped_events,
            "attempts": [self.attempts[k].to_dict() for k in sorted(self.attempts)],
            "events": [e.to_dict() for e in self._events],
        }

    def __repr__(self) -> str:
        return (
            f"FlightRecorder(events={len(self._events)}, "
            f"attempts={len(self.attempts)}, dropped={self.dropped_events})"
        )


def attempts_from_payload(payload: Dict[str, object]) -> Dict[int, Attempt]:
    """Rebuild :class:`Attempt` objects from a :meth:`to_payload` dict.

    Used by exporter readers so a dumped timeline can be re-explained
    offline.  Parent links are resolved in a second pass (payload order is
    id order, but stay defensive).
    """
    rebuilt: Dict[int, Attempt] = {}
    raw: Iterable[Dict[str, object]] = payload.get("attempts", ())  # type: ignore[assignment]
    for entry in raw:
        attempt = Attempt(
            int(entry["id"]),
            str(entry["name"]),
            float(entry["start"]),
            dict(entry.get("tags") or {}),
        )
        end = entry.get("end")
        attempt.end = float(end) if end is not None else None
        outcome = entry.get("outcome")
        attempt.outcome = str(outcome) if outcome is not None else None
        rebuilt[attempt.id] = attempt
    for entry in raw:
        parent_id = entry.get("parent")
        if parent_id is not None:
            child = rebuilt[int(entry["id"])]
            parent = rebuilt.get(int(parent_id))
            if parent is not None:
                child.parent = parent
                parent.children.append(child)
    return rebuilt
