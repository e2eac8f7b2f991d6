"""Deterministic fault injection: scripted failures on a running topology.

The paper's techniques only matter because networks are hostile: NATs lose
state when they reboot, idle timeouts silently kill punched holes, last-mile
links flap and lose packets in bursts.  This module turns those events into
first-class scripted objects so scenarios, tests, and benchmarks can declare
a *fault schedule* next to the topology and replay it deterministically —
every fault fires off the shared virtual clock, and all stochastic link
misbehaviour (burst loss, duplication, reordering — see
:class:`~repro.netsim.link.LinkProfile`) draws from the run's seeded RNG.

Fault catalog:

=================  ======================================================
``link-down``      Take a link down; in-flight packets are dropped.
``link-up``        Bring a link back up.
``link-flap``      ``down`` now, ``up`` after ``arg`` seconds (default 1.0).
``nat-reboot``     :meth:`NatDevice.reset_state`: all mappings lost, expiry
                   timers cancelled, port base bumped (``arg`` overrides the
                   new base).
``server-restart`` Call ``restart()`` on an application-level actor (e.g. a
                   :class:`~repro.core.rendezvous.RendezvousServer`) passed
                   via ``targets=``.
``server-kill``    Call ``stop()`` on an application-level actor: its
                   sockets close, so probes draw silence (UDP) or RSTs
                   (TCP) until a ``server-revive``.
``server-revive``  Call ``start()`` on a killed actor: sockets rebind, all
                   previous state forgotten.
=================  ======================================================

Typical use::

    plan = FaultPlan([
        (5.0, "link-flap", "backbone", 0.5),
        (12.0, "nat-reboot", "NAT-A"),
        (20.0, "server-restart", "S"),
    ])
    injector = plan.schedule(net, targets={"S": server})
    net.run_until(60.0)
    assert injector.injected[1].fault == "nat-reboot"

Every injected fault increments ``faults.injected{fault=}`` in the network's
metrics registry and is appended to :attr:`FaultInjector.injected` for
assertions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, Union

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.netsim.network import Network

FAULT_LINK_DOWN = "link-down"
FAULT_LINK_UP = "link-up"
FAULT_LINK_FLAP = "link-flap"
FAULT_NAT_REBOOT = "nat-reboot"
FAULT_SERVER_RESTART = "server-restart"
FAULT_SERVER_KILL = "server-kill"
FAULT_SERVER_REVIVE = "server-revive"

KNOWN_FAULTS = (
    FAULT_LINK_DOWN,
    FAULT_LINK_UP,
    FAULT_LINK_FLAP,
    FAULT_NAT_REBOOT,
    FAULT_SERVER_RESTART,
    FAULT_SERVER_KILL,
    FAULT_SERVER_REVIVE,
)

#: A link stays down this long when a ``link-flap`` gives no duration.
DEFAULT_FLAP_SECONDS = 1.0


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault: *fault* hits *target* at virtual time *time*.

    ``arg`` is fault-specific: the flap duration for ``link-flap``, the new
    port base for ``nat-reboot``; ignored by the others.
    """

    time: float
    fault: str
    target: str
    arg: Optional[float] = None

    def __post_init__(self) -> None:
        if self.time < 0:
            raise ValueError(f"fault time must be non-negative: {self.time}")
        if self.fault not in KNOWN_FAULTS:
            raise ValueError(
                f"unknown fault {self.fault!r}; expected one of {KNOWN_FAULTS}"
            )


PlanEntry = Union[FaultEvent, Sequence]


class FaultPlan:
    """A declarative fault schedule: an ordered list of :class:`FaultEvent`.

    Entries may be ``FaultEvent`` instances or plain ``(time, fault, target)``
    / ``(time, fault, target, arg)`` tuples.  Same-time faults fire in
    declaration order (the scheduler breaks ties by insertion), so a plan is
    fully deterministic.
    """

    def __init__(self, entries: Iterable[PlanEntry] = ()) -> None:
        self.events: List[FaultEvent] = []
        for entry in entries:
            if isinstance(entry, FaultEvent):
                self.events.append(entry)
            else:
                self.events.append(FaultEvent(*entry))

    def schedule(
        self,
        net: "Network",
        targets: Optional[Dict[str, object]] = None,
    ) -> "FaultInjector":
        """Arm the plan on *net*'s scheduler; returns the live injector.

        *targets* maps names to application-level actors (anything with a
        ``restart()``) that faults like ``server-restart`` address — they are
        not netsim nodes, so the network cannot resolve them itself.
        """
        injector = FaultInjector(net, targets)
        for event in self.events:
            injector.arm(event)
        return injector


class FaultInjector:
    """Applies armed :class:`FaultEvent`\\ s to a network as the clock reaches
    them.  Targets are resolved at fire time, so a plan can name nodes that
    are wired up after :meth:`FaultPlan.schedule`."""

    def __init__(self, net: "Network", targets: Optional[Dict[str, object]] = None) -> None:
        self.net = net
        self.targets = dict(targets or {})
        #: Events applied so far, in firing order.
        self.injected: List[FaultEvent] = []

    def arm(self, event: FaultEvent) -> None:
        """Schedule one event (absolute virtual time)."""
        self.net.scheduler.call_at(event.time, self._fire, event)

    def _fire(self, event: FaultEvent) -> None:
        self._apply(event)
        self.injected.append(event)
        self.net.metrics.counter("faults.injected", fault=event.fault).inc()
        flight = self.net.flight
        if flight is not None:
            # Context-free: a fault is relevant to every attempt whose
            # window it lands in, so attribution matches it by time.
            flight.record_global(
                "fault", fault=event.fault, target=event.target, arg=event.arg
            )

    def _apply(self, event: FaultEvent) -> None:
        if event.fault in (FAULT_LINK_DOWN, FAULT_LINK_UP, FAULT_LINK_FLAP):
            link = self.net.links.get(event.target)
            if link is None:
                raise KeyError(f"fault targets unknown link {event.target!r}")
            if event.fault == FAULT_LINK_UP:
                link.up()
            else:
                link.down()
                if event.fault == FAULT_LINK_FLAP:
                    duration = event.arg if event.arg is not None else DEFAULT_FLAP_SECONDS
                    self.net.scheduler.call_later(duration, link.up)
        elif event.fault == FAULT_NAT_REBOOT:
            node = self.targets.get(event.target) or self.net.nodes.get(event.target)
            if node is None or not hasattr(node, "reset_state"):
                raise KeyError(f"fault targets unknown NAT {event.target!r}")
            port_base = int(event.arg) if event.arg is not None else None
            node.reset_state(port_base=port_base)
        elif event.fault in (FAULT_SERVER_RESTART, FAULT_SERVER_KILL, FAULT_SERVER_REVIVE):
            method = {
                FAULT_SERVER_RESTART: "restart",
                FAULT_SERVER_KILL: "stop",
                FAULT_SERVER_REVIVE: "start",
            }[event.fault]
            actor = self.targets.get(event.target)
            if actor is None or not hasattr(actor, method):
                raise KeyError(
                    f"fault targets unknown actor {event.target!r}; pass it "
                    f"via FaultPlan.schedule(net, targets={{name: actor}})"
                )
            getattr(actor, method)()

    def __repr__(self) -> str:
        return f"FaultInjector(injected={len(self.injected)})"
