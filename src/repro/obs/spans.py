"""Connection-attempt spans: virtual-time lifecycles with tagged outcomes.

A :class:`Span` records one attempt at something — a ``connect`` ladder run,
a ``punch`` toward a peer, a NAT Check phase — from its virtual-time start to
its finish, with free-form tags, point events, and nested children.  The
punching stack uses them to answer the paper's evaluation questions directly:
*how long did lock-in take, via which endpoint, and what happened in
between?*

Spans are deliberately passive: they never schedule timers or otherwise feed
back into the simulation, so enabling them cannot perturb determinism.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.metrics import MetricsRegistry

#: Outcome set used by the punching stack; spans accept any string.
OUTCOME_OK = "ok"
OUTCOME_LOCKED = "locked"
OUTCOME_TIMEOUT = "timeout"
OUTCOME_ERROR = "error"
OUTCOME_FALLBACK = "fallback-to-relay"


class Span:
    """One recorded lifecycle.

    Attributes:
        name: what kind of attempt this is (``"connect"``, ``"punch"``, ...).
        start: virtual time the span was opened.
        end: virtual time :meth:`finish` was called, or None while open.
        outcome: tagged outcome string set by :meth:`finish`.
        tags: free-form key/value annotations.
        events: ``(time, name, attrs)`` point annotations, in order.
        children: nested spans (e.g. ``punch`` inside ``connect``).
    """

    __slots__ = (
        "name",
        "start",
        "end",
        "outcome",
        "tags",
        "events",
        "children",
        "_registry",
    )

    def __init__(
        self,
        name: str,
        registry: Optional["MetricsRegistry"] = None,
        start: float = 0.0,
        tags: Optional[Dict[str, object]] = None,
    ) -> None:
        self.name = name
        self.start = start
        self.end: Optional[float] = None
        self.outcome: Optional[str] = None
        self.tags: Dict[str, object] = tags or {}
        self.events: List[Tuple[float, str, Dict[str, object]]] = []
        self.children: List["Span"] = []
        self._registry = registry

    # -- lifecycle -----------------------------------------------------------

    def _now(self) -> float:
        return self._registry.now_fn() if self._registry is not None else self.start

    def child(self, name: str, **tags: object) -> "Span":
        """Open a nested span starting now."""
        span = Span(name, registry=self._registry, start=self._now(), tags=dict(tags))
        self.children.append(span)
        return span

    def event(self, name: str, **attrs: object) -> None:
        """Record a point annotation at the current virtual time."""
        self.events.append((self._now(), name, dict(attrs)))

    def finish(self, outcome: str = OUTCOME_OK, **tags: object) -> "Span":
        """Close the span (idempotent — the first outcome wins)."""
        if self.end is None:
            self.end = self._now()
            self.outcome = outcome
            self.tags.update(tags)
        return self

    # -- queries -------------------------------------------------------------

    @property
    def finished(self) -> bool:
        return self.end is not None

    def to_dict(self) -> Dict[str, object]:
        """JSON-serialisable deep view (exporter format)."""
        return {
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "outcome": self.outcome,
            "tags": {k: _plain(v) for k, v in self.tags.items()},
            "events": [
                {"time": t, "name": n, "attrs": {k: _plain(v) for k, v in a.items()}}
                for t, n, a in self.events
            ],
            "children": [child.to_dict() for child in self.children],
        }

    def __repr__(self) -> str:
        state = f"outcome={self.outcome!r}" if self.finished else "open"
        return f"Span({self.name!r}, t={self.start:.3f}, {state}, tags={self.tags})"


def _plain(value: object) -> object:
    """Coerce tag/attr values to JSON-native types."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


class _NullSpan(Span):
    """Inert span handed out by a disabled registry; absorbs everything."""

    __slots__ = ()

    def child(self, name: str, **tags: object) -> "Span":
        return self

    def event(self, name: str, **attrs: object) -> None:
        pass

    def finish(self, outcome: str = OUTCOME_OK, **tags: object) -> "Span":
        return self


NULL_SPAN = _NullSpan("disabled")
