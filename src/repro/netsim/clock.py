"""Virtual-time event scheduler.

The whole simulation is single-threaded and deterministic: every delayed
action (packet delivery, retransmission timer, NAT idle timeout, application
timeout) is a :class:`Timer` on one :class:`Scheduler`.  Ties are broken by
insertion order, so two events scheduled for the same instant fire in the
order they were scheduled — a property several NAT-race tests rely on.
"""

from __future__ import annotations

import heapq
import math
import sys
from typing import Any, Callable, List, Optional, Tuple

#: "No deadline" / "no event budget" for :meth:`Scheduler._drain`.
_FOREVER = float("inf")
_NO_LIMIT = sys.maxsize


class Timer:
    """Handle for a scheduled callback; supports cancellation.

    Instances are returned by :meth:`Scheduler.call_at` /
    :meth:`Scheduler.call_later`; user code should never construct one.
    """

    __slots__ = (
        "when", "_callback", "_args", "_cancelled", "_fired", "_scheduler",
        "_ctx", "_items", "_inext", "_bseq",
    )

    def __init__(
        self,
        when: float,
        callback: Callable[..., Any],
        args: Tuple,
        scheduler: "Scheduler" = None,
    ):
        self.when = when
        self._callback = callback
        self._args = args
        self._cancelled = False
        self._fired = False
        self._scheduler = scheduler
        #: Batched-delivery queue (see Scheduler.call_later_batched); None
        #: marks an ordinary single-shot timer.
        self._items = None
        # Causal context: a timer inherits the context active when it was
        # scheduled and restores it when it fires, so attempt identity flows
        # through arbitrary timer chains (packet deliveries, retransmits,
        # delayed server replies) without any per-layer plumbing.
        self._ctx = scheduler.context if scheduler is not None else None

    def cancel(self) -> None:
        """Prevent the callback from running; idempotent.

        Cancelling a timer that already fired is a no-op: the timer stays
        in the ``fired`` state and the scheduler does not count a cancel.
        """
        if self._cancelled or self._fired:
            return
        self._cancelled = True
        if self._scheduler is not None:
            self._scheduler._note_cancel()

    @property
    def fired(self) -> bool:
        return self._fired

    @property
    def active(self) -> bool:
        """True while the timer is pending (not yet fired nor cancelled)."""
        return not (self._cancelled or self._fired)


class Scheduler:
    """A deterministic discrete-event scheduler with virtual time.

    Time is a float in seconds and starts at 0.0.  Nothing advances the clock
    except :meth:`step`, :meth:`run`, :meth:`run_while` and
    :meth:`run_until` — four stopping rules over one event loop
    (:meth:`_drain`), so how a simulation is driven, or sliced between them,
    never changes what it does.

    Cancelled timers stay in the heap until popped (cheap cancellation), but
    once they outnumber the live timers the heap is lazily compacted: dead
    entries are filtered out and the heap rebuilt in O(n).  Entries keep
    their original insertion sequence numbers, so tie-breaking — and
    therefore every wire trace — is byte-identical with and without
    compaction.
    """

    #: Never compact heaps smaller than this; rebuilding a tiny heap costs
    #: more than popping the dead entries would.
    COMPACT_MIN = 64

    def __init__(self) -> None:
        #: Current virtual time in seconds.  A plain attribute, so a read
        #: runs no Python frame; only the event loop writes it (``_drain``,
        #: ``run_until``, ``run_while``).
        self.now = 0.0
        #: Causal context of the currently-executing timer chain (an attempt
        #: id from :mod:`repro.obs.flight`, or None).  New timers capture it;
        #: the event loop restores it before each callback.
        self.context = None
        self._heap: List[Tuple[float, int, Timer]] = []
        #: Insertion sequence of the most recently created timer.  A plain
        #: int (not itertools.count) so callers that coalesce same-instant
        #: work — Link's delivery batches — can check "has any timer been
        #: created since?" and only extend a batch when appending preserves
        #: the scheduler's insertion-order tie-break exactly.
        self._seq = 0
        #: Cancelled timers still occupying heap slots.
        self._cancelled_in_heap = 0
        #: Lazy removal of cancelled entries (see class docstring); tests
        #: flip this off to prove traces don't depend on it.
        self.compaction_enabled = True
        #: Times the heap was rebuilt to shed cancelled entries.
        self.compactions = 0
        #: Dead entries removed by compaction (vs. popped organically).
        self.compacted_entries = 0
        #: Events whose callbacks actually ran (cancelled timers excluded).
        self.events_fired = 0
        #: Timers cancelled while still pending.
        self.events_cancelled = 0
        #: High-water mark of the timer heap (includes cancelled entries).
        self.max_queue_depth = 0
        #: After :meth:`run`: True if it stopped because *max_events* was
        #: exhausted with work still pending, False if the queue drained.
        self.last_run_exhausted = False

    @property
    def pending(self) -> int:
        """Number of live (neither fired nor cancelled) timers in the heap."""
        return len(self._heap) - self._cancelled_in_heap

    def _note_cancel(self) -> None:
        """Bookkeeping for Timer.cancel; compacts when dead entries win."""
        self.events_cancelled += 1
        self._cancelled_in_heap += 1
        if (
            self.compaction_enabled
            and len(self._heap) >= self.COMPACT_MIN
            and self._cancelled_in_heap * 2 > len(self._heap)
        ):
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled entries and re-heapify; order is preserved because
        surviving entries keep their (when, sequence) sort keys."""
        before = len(self._heap)
        self._heap = [entry for entry in self._heap if not entry[2]._cancelled]
        heapq.heapify(self._heap)
        self.compactions += 1
        self.compacted_entries += before - len(self._heap)
        self._cancelled_in_heap = 0

    def call_at(self, when: float, callback: Callable[..., Any], *args: Any) -> Timer:
        """Schedule *callback(*args)* at absolute time *when*.

        Scheduling in the past raises ``ValueError`` — it would silently
        reorder causality — and so does a NaN time, which no comparison
        orders.
        """
        if not (when >= self.now):
            raise ValueError(
                f"cannot schedule at t={when:.6f} before now={self.now:.6f}"
            )
        timer = Timer(when, callback, args, self)
        self._seq = seq = self._seq + 1
        heapq.heappush(self._heap, (when, seq, timer))
        if len(self._heap) > self.max_queue_depth:
            self.max_queue_depth = len(self._heap)
        return timer

    def call_later(self, delay: float, callback: Callable[..., Any], *args: Any) -> Timer:
        """Schedule *callback(*args)* after *delay* seconds (>= 0).

        Fast path: a non-negative delay cannot land in the past, so this
        skips :meth:`call_at`'s causality check and pushes directly — this
        is the constructor virtually every packet delivery and protocol
        timer goes through.
        """
        if not (delay >= 0):  # also rejects NaN
            raise ValueError(f"negative or NaN delay {delay!r}")
        when = self.now + delay
        timer = Timer(when, callback, args, self)
        heap = self._heap
        self._seq = seq = self._seq + 1
        heapq.heappush(heap, (when, seq, timer))
        if len(heap) > self.max_queue_depth:
            self.max_queue_depth = len(heap)
        return timer

    def call_later_batched(self, delay: float, drain: Callable[[Timer, int], None]) -> Timer:
        """One heap entry that fires many same-instant events.

        Returns a timer whose ``_items`` list the caller extends; each queued
        item fires as its *own* scheduler event, in append order, so event
        granularity, ``events_fired``, and ``run_while`` predicate boundaries
        are byte-identical to scheduling one timer per item.  Only the heap
        traffic is coalesced.

        The items are fired by their owner: when the entry comes due the
        event loop calls ``drain(timer, limit)``, which must fire up to
        *limit* items starting at ``timer._inext`` — advancing ``_inext``
        *before* each one, stopping early if the timer is cancelled — and
        the loop counts the advance of ``_inext`` as events fired.  The
        entry stays at the top of the heap until the queue drains, so a
        partial drain resumes where it stopped.

        Contract for callers: append only while (a) no other timer has been
        created since this one (``_seq`` unchanged — the items would have
        held consecutive sequence numbers, so firing them back-to-back
        preserves insertion-order tie-breaking exactly) and (b) the timer is
        still active.  :class:`repro.netsim.link.Link` is the intended
        caller and enforces both.
        """
        timer = self.call_later(delay, drain)
        timer._items = []
        timer._inext = 0
        # The creation sequence number, readable by the append-eligibility
        # check ("has any timer been created since?").
        timer._bseq = self._seq
        return timer

    def _drain(
        self,
        deadline: float = _FOREVER,
        max_events: int = _NO_LIMIT,
        keep_going: Optional[Callable[[], bool]] = None,
    ) -> bool:
        """The event loop; every public drive method is a wrapper over it.

        Fires pending events in (when, insertion) order until the heap is
        empty, the next event is later than *deadline*, *max_events* have
        fired, or *keep_going()* — evaluated once before every event, each
        item of a batch included — is false.  Returns True when the caller's
        own rule (budget or predicate) stopped it, False when it ran out of
        due events.  The clock moves to the time of each event fired and
        nowhere else; wrappers that promise a final time set it themselves.
        """
        fired = 0
        while fired < max_events:
            if keep_going is not None and not keep_going():
                return True
            # self._heap is re-read for every event (never cached across a
            # callback): any callback can cancel timers and trigger a
            # compaction, which rebuilds — and rebinds — the heap list.
            while True:
                heap = self._heap
                if not heap:
                    return False
                when, _, timer = heap[0]
                if when > deadline:
                    return False
                if not timer._cancelled:
                    break
                heapq.heappop(heap)
                self._cancelled_in_heap -= 1
            self.now = when
            self.context = timer._ctx
            if timer._items is None:
                heapq.heappop(heap)
                self.events_fired += 1
                fired += 1
                timer._fired = True
                timer._callback(*timer._args)
                continue
            # Batched timer: its owner fires the queued items, all of them
            # in one call unless a predicate or the event budget has to be
            # consulted in between.  Nothing can preempt the batch
            # mid-drain: a callback cannot schedule before `when` (past
            # scheduling is an error) and anything it schedules AT `when`
            # carries a higher sequence number, i.e. sorts after this entry
            # — exactly the order one heap entry per item would produce.
            start = timer._inext
            try:
                timer._callback(
                    timer, 1 if keep_going is not None else max_events - fired
                )
            finally:
                advanced = timer._inext - start
                self.events_fired += advanced
                fired += advanced
                # Pop the drained entry even when a callback raises, or the
                # spent entry would fire again with an empty queue.  Pop
                # from self._heap, not the local binding: a cancellation
                # inside a callback may have compacted (rebuilt) the heap.
                # A batch cancelled mid-drain (the link went down in a
                # delivery callback) is popped as a dead entry next pass.
                if (
                    not timer._cancelled
                    and not timer._fired
                    and timer._inext >= len(timer._items)
                ):
                    timer._fired = True
                    heapq.heappop(self._heap)
        return True

    def step(self) -> bool:
        """Fire the earliest pending event.  Returns False if none remain."""
        return self._drain(max_events=1)

    def run_until(self, deadline: float) -> None:
        """Run events with ``when <= deadline``; clock ends at *deadline*.

        The clock is advanced to exactly *deadline* even if the last event is
        earlier, so back-to-back ``run_until`` calls compose predictably.
        """
        if not (deadline >= self.now):  # also rejects NaN
            raise ValueError(
                f"deadline t={deadline:.6f} is before now={self.now:.6f}"
            )
        self._drain(deadline)
        self.now = deadline

    def run(self, max_events: int = 1_000_000, strict: bool = True) -> int:
        """Run until the event heap drains.  Returns events fired.

        *max_events* guards against livelock (e.g. two hosts ping-ponging
        keep-alives forever).  Whether the run drained the queue or
        exhausted its budget is reported via :attr:`last_run_exhausted`;
        with ``strict`` (the default) budget exhaustion also raises
        ``RuntimeError``, so livelocks cannot pass silently.
        """
        before = self.events_fired
        self.last_run_exhausted = (
            self._drain(max_events=max_events) and self.pending > 0
        )
        if self.last_run_exhausted and strict:
            raise RuntimeError(f"scheduler exceeded {max_events} events")
        return self.events_fired - before

    def run_while(self, predicate: Callable[[], bool], deadline: float) -> bool:
        """Run while *predicate()* is true, up to *deadline*.

        Returns True if the predicate became false (condition met), False if
        the deadline was reached first — no event later than *deadline*
        fires, and the clock ends at *deadline* unless it is already past
        it.  Useful for "run until connected or 5 s elapse" patterns in
        tests and examples.  A NaN *deadline* raises ``ValueError``.
        """
        if math.isnan(deadline):
            raise ValueError("deadline is NaN")
        if self._drain(deadline, keep_going=predicate):
            return True
        if deadline > self.now:
            self.now = deadline
        return False
