"""Chaos soak: randomized fault composition plus global run invariants.

Scripted :class:`~repro.netsim.faults.FaultPlan`\\ s exercise the failure
modes someone thought of; the survivability claims of the toolbox (punched
sessions repair themselves, clients fail over between rendezvous servers,
relays resume) are about the failures nobody scripted.  This module closes
that gap with a *chaos harness*: deterministic, seed-driven generation of
composite fault plans — link flaps, burst-loss windows, NAT reboots, server
restarts, kills and revives — plus a set of **global invariants** every run
must satisfy regardless of what the plan did:

* every connect attempt terminates (success or failure — never a hang);
* no leaked timers once the actors are shut down;
* NAT mapping tables stay bounded;
* every memoised forwarding closure and outbound mapping is what a fresh
  lookup would return (a memo is never served stale);
* the same seed replays to a byte-identical wire trace.

The module sits at the netsim layer: it knows nothing about clients or
rendezvous protocols.  Fault targets are *names* (resolved by the injector at
fire time) and invariant subjects are duck-typed (anything with a ``table``,
any scheduler with ``pending``), so tests compose it freely with the
scenario builders one layer up.

Typical soak iteration::

    rng = SeededRng(seed, "chaos")
    plan = random_fault_plan(
        rng, links=["backbone"], nats=["NAT-A", "NAT-B"], servers=["S", "S2"]
    )
    sc = build_two_nats(seed=seed, num_servers=2)
    tracker = AttemptTracker()
    connector.connect(2, tracker.expect("A->B"))
    sc.inject_faults(plan)
    sc.run_for(plan.horizon + grace)
    violations = check_invariants(sc.net, nats=sc.nats.values(), attempts=tracker)
    assert violations == []
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, List, Optional, Sequence, Tuple

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

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.netsim.network import Network


@dataclass(frozen=True)
class ChaosConfig:
    """Knobs for random fault-plan generation.

    Attributes:
        warmup: no fault fires before this time (lets registrations and the
            first connects settle, so plans stress *established* state too).
        horizon: faults fire in ``[warmup, horizon)``; the soak should run
            to at least ``horizon`` plus a recovery grace period.
        min_events / max_events: how many faults one plan composes.
        flap_range: (min, max) seconds a flapped link stays down.
        kill_dead_range: (min, max) seconds between a ``server-kill`` and
            its paired ``server-revive``.
        kill_servers: generate kill/revive pairs (needs actors with
            ``stop``/``start`` — disable when targets only support
            ``restart``).
    """

    warmup: float = 5.0
    horizon: float = 45.0
    min_events: int = 3
    max_events: int = 8
    flap_range: Tuple[float, float] = (0.5, 3.0)
    kill_dead_range: Tuple[float, float] = (3.0, 10.0)
    kill_servers: bool = True


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
    recovery ladder, not the outage, is what the soak measures.
    """
    cfg = config or ChaosConfig()
    families: List[str] = []
    if links:
        families.append("flap")
    if nats:
        families.append("nat-reboot")
    if servers:
        families.append("server-restart")
        if cfg.kill_servers:
            families.append("server-kill")
    if not families:
        raise ValueError("random_fault_plan needs at least one target family")

    plan = FaultPlan()
    count = rng.randint(cfg.min_events, cfg.max_events)
    killed_until = {name: 0.0 for name in servers}
    for _ in range(count):
        time = rng.uniform(cfg.warmup, cfg.horizon)
        family = rng.choice(families)
        if family == "flap":
            duration = rng.uniform(*cfg.flap_range)
            plan.add(time, FAULT_LINK_FLAP, rng.choice(list(links)), duration)
        elif family == "nat-reboot":
            plan.add(time, FAULT_NAT_REBOOT, rng.choice(list(nats)))
        elif family == "server-restart":
            plan.add(time, FAULT_SERVER_RESTART, rng.choice(list(servers)))
        else:  # server-kill (+ paired revive)
            target = rng.choice(list(servers))
            dead_for = rng.uniform(*cfg.kill_dead_range)
            if killed_until[target] > time:
                # Already down around this time; turn it into a restart so
                # plans never depend on kill/revive idempotence for sanity.
                plan.add(time, FAULT_SERVER_RESTART, target)
                continue
            revive_at = min(time + dead_for, cfg.horizon)
            plan.add(time, FAULT_SERVER_KILL, target)
            plan.add(revive_at, FAULT_SERVER_REVIVE, target)
            killed_until[target] = revive_at
    return plan


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
        nothing at all) and may fire multiple times (ladder recoveries) —
        only the first firing marks termination.
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

    @property
    def all_terminated(self) -> bool:
        return not self.unfinished

    def __repr__(self) -> str:
        return (
            f"AttemptTracker({len(self.attempts)} attempts, "
            f"{len(self.unfinished)} unfinished)"
        )


def check_invariants(
    net: "Network",
    nats: Iterable[object] = (),
    attempts: Optional[AttemptTracker] = None,
    pending_timer_cap: Optional[int] = None,
    nat_table_cap: int = 256,
    leak_probes: Iterable[object] = (),
) -> List[str]:
    """Evaluate the global invariants; returns human-readable violations.

    Memo coherence is always checked: every entry of every node's
    ``routing.closures`` and of every NAT's ``table.outbound_memo`` must be
    what a fresh lookup returns now.

    Args:
        net: the network under test (its scheduler is inspected).
        nats: NAT devices (anything with a ``table`` supporting ``len``).
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
        leak_probes: :class:`~repro.netsim.adversary.LeakProbe` instances (or
            anything with a ``violations`` list); any cross-peer payload
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
        table = getattr(nat, "table", None)
        if table is None:
            continue
        name = getattr(nat, "name", repr(nat))
        size = len(table)
        cap = getattr(table, "capacity", None)
        if cap is None:
            cap = nat_table_cap
        if size > cap:
            violations.append(
                f"NAT {name} table unbounded: {size} mappings (cap {cap})"
            )
        # Per-host quota: a quota the table advertises must actually hold.
        quota = getattr(table, "max_per_host", None)
        by_host = getattr(table, "_by_host", None)
        if quota is not None and by_host is not None:
            for host_key, owned in by_host.items():
                if len(owned) > quota:
                    violations.append(
                        f"NAT {name} quota violated: host {host_key} holds "
                        f"{len(owned)} mappings (quota {quota})"
                    )
        # Timer/table skew: more armed expiry timers than live mappings
        # means stale generations are still wired to fire.
        timers = getattr(table, "_timers", None)
        if timers is not None and len(timers) > size:
            violations.append(
                f"NAT {name} timer skew: {len(timers)} expiry timers for "
                f"{size} mappings"
            )
        # Memo coherence: each memoised outbound mapping is the live one a
        # fresh lookup under the device's effective policy returns.
        for key, mapping in getattr(table, "outbound_memo", {}).items():
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
        violations.extend(getattr(probe, "violations", ()))
    return violations


def trace_fingerprint(net: "Network") -> List[tuple]:
    """Reduce a run's packet trace to a comparable fingerprint.

    Two runs of the same seed must produce identical fingerprints (the
    determinism invariant); enable tracing with ``net.trace.enable()`` before
    the run.  Times are rounded to nanoseconds to wash out float formatting
    noise without hiding real divergence.
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
        for r in net.trace.records
    ]
