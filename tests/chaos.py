"""Chaos soak: randomized fault composition plus global run invariants.

Scripted :class:`~repro.netsim.faults.FaultPlan`\\ s exercise the failure
modes someone thought of; the survivability claims of the toolbox (a dead
session is detected so the application can re-punch it, clients re-register
when the rendezvous server forgets them or comes back) are about the
failures nobody scripted.  This
module closes that gap with a *chaos harness*: deterministic, seed-driven
generation of composite fault plans — link flaps, burst-loss windows, NAT
reboots, server restarts, kills and revives — plus a set of **global
invariants** every run must satisfy regardless of what the plan did:

* every connect attempt terminates (success or failure — never a hang);
* no leaked timers once the actors are shut down;
* NAT mapping tables stay bounded;
* every memoised forwarding closure and outbound mapping is what a fresh
  lookup would return (a memo is never served stale);
* no payload crosses from one peer's session into another's
  (:class:`LeakProbe`);
* the same seed replays to a byte-identical wire trace (captured with
  :func:`tests.conftest.wire_tap`).

It is a test instrument, not part of the simulated system.  Fault targets
are *names* (resolved by the injector at fire time), so tests compose it
freely with the scenario builders.

Typical soak iteration::

    rng = SeededRng(seed, "chaos")
    plan = random_fault_plan(
        rng, links=["backbone"], nats=["NAT-A", "NAT-B"], servers=["S"]
    )
    sc = build_two_nats(seed=seed)
    tracker = AttemptTracker()
    connector.connect(2, tracker.expect("A->B"))
    sc.inject_faults(plan)
    sc.run_for(plan.horizon + grace)
    violations = check_invariants(sc.net, nats=sc.nats.values(), attempts=tracker)
    assert violations == []
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, List, Optional, Sequence

from repro.netsim.addresses import Endpoint, IPv4Address
from repro.netsim.faults import (
    FAULT_LINK_FLAP,
    FAULT_NAT_REBOOT,
    FAULT_SERVER_KILL,
    FAULT_SERVER_RESTART,
    FAULT_SERVER_REVIVE,
    FaultPlan,
)
from repro.netsim.packet import IpProtocol
from repro.util.rng import SeededRng

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.nat.device import NatDevice
    from repro.netsim.network import Network


@dataclass(frozen=True)
class ChaosConfig:
    """Knobs for random fault-plan generation.

    Attributes:
        warmup: no fault fires before this time (lets registrations and the
            first connects settle, so plans stress *established* state too).
        horizon: faults fire in ``[warmup, horizon)``; the soak should run
            to at least ``horizon`` plus a recovery grace period.
    """

    warmup: float = 5.0
    horizon: float = 45.0


#: How many faults one plan composes, inclusive.
EVENTS_RANGE = (3, 8)
#: (min, max) seconds a flapped link stays down.
FLAP_RANGE = (0.5, 3.0)
#: (min, max) seconds between a ``server-kill`` and its paired
#: ``server-revive``.
KILL_DEAD_RANGE = (3.0, 10.0)


def random_fault_plan(
    rng: SeededRng,
    links: Sequence[str] = (),
    nats: Sequence[str] = (),
    servers: Sequence[str] = (),
    config: Optional[ChaosConfig] = None,
) -> FaultPlan:
    """Compose a deterministic random :class:`FaultPlan` from *rng*.

    Targets are names: link names for flaps, NAT node names for reboots,
    actor names (as passed to ``FaultPlan.schedule(targets=...)``) for server
    faults.  Every ``server-kill`` is paired with a ``server-revive`` inside
    the horizon, so a run always ends with every server answering — the
    recovery, not the outage, is what the soak measures.
    """
    cfg = config or ChaosConfig()
    families: List[str] = []
    if links:
        families.append("flap")
    if nats:
        families.append("nat-reboot")
    if servers:
        families.append("server-restart")
        families.append("server-kill")
    if not families:
        raise ValueError("random_fault_plan needs at least one target family")

    entries = []
    count = rng.randint(*EVENTS_RANGE)
    killed_until = {name: 0.0 for name in servers}
    for _ in range(count):
        time = rng.uniform(cfg.warmup, cfg.horizon)
        family = rng.choice(families)
        if family == "flap":
            duration = rng.uniform(*FLAP_RANGE)
            entries.append((time, FAULT_LINK_FLAP, rng.choice(list(links)), duration))
        elif family == "nat-reboot":
            entries.append((time, FAULT_NAT_REBOOT, rng.choice(list(nats))))
        elif family == "server-restart":
            entries.append((time, FAULT_SERVER_RESTART, rng.choice(list(servers))))
        else:  # server-kill (+ paired revive)
            target = rng.choice(list(servers))
            dead_for = rng.uniform(*KILL_DEAD_RANGE)
            if killed_until[target] > time:
                # Already down around this time; turn it into a restart so
                # plans never depend on kill/revive idempotence for sanity.
                entries.append((time, FAULT_SERVER_RESTART, target))
                continue
            revive_at = min(time + dead_for, cfg.horizon)
            entries.append((time, FAULT_SERVER_KILL, target))
            entries.append((revive_at, FAULT_SERVER_REVIVE, target))
            killed_until[target] = revive_at
    return FaultPlan(entries)


# ---------------------------------------------------------------------------
# Invariants
# ---------------------------------------------------------------------------


@dataclass
class _Attempt:
    label: str
    done: bool = False
    result: object = None


class AttemptTracker:
    """Registers connect attempts and records which ones terminated.

    The harness's first invariant is *liveness*: under any fault plan, every
    attempt must eventually call back — success, fallback, or failure — never
    silently hang.  Pass :meth:`expect`'s return value wherever the API wants
    an ``on_result`` / completion callback.
    """

    def __init__(self) -> None:
        self.attempts: List[_Attempt] = []

    def expect(self, label: str):
        """Declare one attempt; returns the callback that completes it.

        The callback tolerates any argument shape (result objects, sessions,
        nothing at all) and may fire multiple times (an application
        re-running the ladder after a break) — only the first firing marks
        termination.
        """
        record = _Attempt(label=label)
        self.attempts.append(record)

        def complete(*args) -> None:
            record.done = True
            if args:
                record.result = args[0]

        return complete

    @property
    def unfinished(self) -> List[str]:
        return [a.label for a in self.attempts if not a.done]

    def __repr__(self) -> str:
        return (
            f"AttemptTracker({len(self.attempts)} attempts, "
            f"{len(self.unfinished)} unfinished)"
        )


def check_invariants(
    net: "Network",
    nats: Iterable["NatDevice"] = (),
    attempts: Optional[AttemptTracker] = None,
    pending_timer_cap: Optional[int] = None,
    nat_table_cap: int = 256,
    leak_probes: Iterable["LeakProbe"] = (),
) -> List[str]:
    """Evaluate the global invariants; returns human-readable violations.

    Memo coherence is always checked: every entry of every node's
    ``routing.closures`` and of every NAT's ``table.outbound_memo`` must be
    what a fresh lookup returns now.

    Args:
        net: the network under test (its scheduler is inspected).
        nats: the NAT devices whose tables to check.
        attempts: if given, every registered attempt must have terminated.
        pending_timer_cap: if given, at most this many *active* timers may
            remain in the scheduler.  Check it after shutting the actors
            down — a bounded residue (e.g. TIME_WAIT timers) is normal, an
            ever-growing heap is a leak.
        nat_table_cap: upper bound on any NAT's mapping-table size; unbounded
            growth means expiry timers were lost.  When a NAT declares its
            own ``table.capacity`` (adversarial hardening, see
            :mod:`repro.netsim.adversary`) that bound is enforced instead —
            a flood must never push a table past its configured memory.
        leak_probes: :class:`LeakProbe` instances; any cross-peer payload
            leak they witnessed becomes an invariant violation.
    """
    violations: List[str] = []
    # Memo coherence: each forwarding closure equals a fresh routing lookup.
    for node in net.nodes.values():
        for value, closure in node.routing.closures.items():
            dst = IPv4Address(value)
            route = node.routing.try_lookup(dst)
            fresh = None
            if route is not None:
                interface = node.interfaces[route.interface]
                next_hop = route.next_hop if route.next_hop is not None else dst
                fresh = (interface.link, next_hop, interface)
            if closure != fresh:
                violations.append(
                    f"node {node.name} stale forwarding closure for {dst}: "
                    f"{closure} (fresh lookup: {fresh})"
                )
    if attempts is not None:
        for label in attempts.unfinished:
            violations.append(f"connect attempt {label!r} never terminated")
    if pending_timer_cap is not None:
        pending = net.scheduler.pending
        if pending > pending_timer_cap:
            violations.append(
                f"timer leak: {pending} active timers remain "
                f"(cap {pending_timer_cap})"
            )
    for nat in nats:
        table = nat.table
        name = nat.name
        size = len(table)
        cap = table.capacity if table.capacity is not None else nat_table_cap
        if size > cap:
            violations.append(
                f"NAT {name} table unbounded: {size} mappings (cap {cap})"
            )
        # Per-host quota: a quota the table advertises must actually hold.
        quota = table.max_per_host
        if quota is not None:
            for host_key, owned in table._by_host.items():
                if len(owned) > quota:
                    violations.append(
                        f"NAT {name} quota violated: host {host_key} holds "
                        f"{len(owned)} mappings (quota {quota})"
                    )
        # Timer/table skew: more armed expiry timers than live mappings
        # means stale generations are still wired to fire.
        if len(table._timers) > size:
            violations.append(
                f"NAT {name} timer skew: {len(table._timers)} expiry timers for "
                f"{size} mappings"
            )
        # Memo coherence: each memoised outbound mapping is the live one a
        # fresh lookup under the device's effective policy returns.
        for key, mapping in table.outbound_memo.items():
            proto = tuple(IpProtocol)[key[0]]
            private = Endpoint(key[1] >> 16, key[1] & 0xFFFF)
            remote = Endpoint(key[2] >> 16, key[2] & 0xFFFF)
            live = table.lookup_outbound(
                nat._effective_policy(proto, private), proto, private, remote
            )
            if live is not mapping or table.lookup_inbound(
                proto, mapping.public.port
            ) is not mapping:
                violations.append(
                    f"NAT {name} stale outbound memo for {proto.value} "
                    f"{private} -> {remote}: {mapping} (live: {live})"
                )
    for probe in leak_probes:
        violations.extend(probe.violations)
    return violations


def trace_fingerprint(records) -> List[tuple]:
    """Reduce the records of a :func:`tests.conftest.wire_tap` capture to a
    comparable fingerprint.

    Two runs of the same seed must produce identical fingerprints (the
    determinism invariant).  Times are rounded to nanoseconds to wash out
    float formatting noise without hiding real divergence.
    """
    return [
        (
            round(r.time, 9),
            r.link,
            r.sender,
            r.receiver,
            r.event,
            r.packet.proto.value,
            str(r.packet.src),
            str(r.packet.dst),
        )
        for r in records
    ]


class LeakProbe:
    """Asserts no cross-peer data leak: every payload delivered on a watched
    session/stream must carry the stamp of the peer that session belongs to.

    Stamp outbound data with :meth:`stamp`; wire delivery with
    :meth:`watch`.  Violations (payloads from the wrong peer, or unstamped
    attacker bytes that reached an application) accumulate in
    :attr:`violations`, formatted with the offending fingerprint, and feed
    ``check_invariants(..., leak_probes=[probe])``.
    """

    def __init__(self) -> None:
        self.violations: List[str] = []
        self.payloads_checked = 0

    @staticmethod
    def stamp(sender_id: int, payload: bytes = b"") -> bytes:
        return b"from:%d:" % sender_id + payload

    def watch(self, session, expected_sender: int, label: str) -> None:
        """Attach to anything with an ``on_data`` handler slot."""

        def on_data(payload: bytes) -> None:
            self.payloads_checked += 1
            expected = b"from:%d:" % expected_sender
            if not payload.startswith(expected):
                self.violations.append(
                    f"cross-peer leak on {label}: expected payload from peer "
                    f"{expected_sender}, got {payload[:32]!r}"
                )

        session.on_data = on_data
