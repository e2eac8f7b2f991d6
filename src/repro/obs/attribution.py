"""Rule-based failure attribution: "why did this punch fail?".

:func:`explain` walks a per-attempt flight-recorder timeline (see
:mod:`repro.obs.flight`) against the taxonomy of traversal-failure root
causes the paper reasons about informally:

* ``symmetric-mapping-mismatch`` — the NAT allocated **different public
  ports** for the same private endpoint toward different remotes (§5.1's
  non-EI mapping), so the endpoint a peer learned from the rendezvous
  server is not the endpoint its probes actually hit.
* ``inbound-filtered`` — probes reached the NAT but were refused by the
  filtering policy (or found no mapping at all) before any punch hole
  existed.
* ``hairpin-unsupported`` — loopback translation (§3.5) refused; the two
  peers sit behind the same NAT and their public-endpoint probes died at
  the device.
* ``nat-reboot`` — the device lost its translation state mid-session
  (§3.6); every previously punched hole silently broke.
* ``mapping-exhausted`` — the NAT refused to allocate a mapping for the
  attempt's own packets: its translation table (or the attempt's per-host
  quota) was full, typically because an adversarial flood (see
  :mod:`repro.netsim.adversary`) burned the state the punch needed.
* ``spoofed-reset`` — an off-path attacker was sweeping forged RST/ICMP
  at the NAT during the attempt window and the session died by reset;
  hardened runs leave ``rst-invalid`` drops / ``tcp.rst_rejected``
  events instead of a corpse.
* ``rst-by-nat`` — the NAT actively refused an unsolicited SYN with a RST
  or ICMP error (§5.2), killing the TCP simultaneous-open dance.
* ``server-dead`` — the rendezvous server was killed/unreachable during
  the attempt window, so endpoint exchange never completed.
* ``loss-exhausted`` — link-level loss (random, burst, queue overflow, or
  outage) consumed the probe budget.
* ``deadline-timeout`` — the attempt ran out its deadline with no more
  specific evidence.
* ``refused`` — the attempt ended in an error answer with no more specific
  evidence: the rendezvous server refused the request (e.g. the peer is not
  registered), or the peer's end refused the dial.
* ``unknown`` — nothing in the timeline matched (the acceptance bar for
  the Table 1 fleet is that this never happens for a real failure).

Rule order is significance order, tuned against every failure mode the
380-device fleet produces: a reboot explains anything after it; hairpin
refusals outrank RST evidence because a hairpin ``_refuse`` can itself emit
the RST; symmetric mapping divergence outranks plain filter drops because
failed punches through a symmetric NAT *also* shed by-design filter drops
(the NAT Check server's unsolicited probe); an RST/ICMP refusal outranks
the filter drop that triggered it.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.obs.flight import Attempt, FlightEvent, FlightRecorder

CAT_NONE = "none"
CAT_NAT_REBOOT = "nat-reboot"
CAT_EXHAUSTED = "mapping-exhausted"
CAT_SPOOFED = "spoofed-reset"
CAT_HAIRPIN = "hairpin-unsupported"
CAT_SYMMETRIC = "symmetric-mapping-mismatch"
CAT_RST = "rst-by-nat"
CAT_FILTERED = "inbound-filtered"
CAT_SERVER_DEAD = "server-dead"
CAT_LOSS = "loss-exhausted"
CAT_TIMEOUT = "deadline-timeout"
CAT_REFUSED = "refused"
CAT_UNKNOWN = "unknown"

#: Every failure category, in rule-priority order.
CATEGORIES = (
    CAT_NAT_REBOOT,
    CAT_EXHAUSTED,
    CAT_SPOOFED,
    CAT_HAIRPIN,
    CAT_SYMMETRIC,
    CAT_RST,
    CAT_FILTERED,
    CAT_SERVER_DEAD,
    CAT_LOSS,
    CAT_TIMEOUT,
    CAT_REFUSED,
    CAT_UNKNOWN,
)

#: Link-layer drop reasons that count toward loss-budget exhaustion.
_LOSS_REASONS = frozenset(
    {"lost", "burst-lost", "queue-drop", "link-down", "flap-drop", "detach-drop", "no-next-hop"}
)

#: Fault kinds that mean the rendezvous server went away.
_SERVER_FAULTS = frozenset({"server-kill"})


class Verdict:
    """A root-cause ruling with its supporting evidence records."""

    __slots__ = ("category", "reason", "evidence", "attempt")

    def __init__(
        self,
        category: str,
        reason: str,
        evidence: Sequence[FlightEvent] = (),
        attempt: Optional[Attempt] = None,
    ) -> None:
        self.category = category
        self.reason = reason
        self.evidence = list(evidence)
        self.attempt = attempt

    def to_dict(self) -> Dict[str, object]:
        return {
            "category": self.category,
            "reason": self.reason,
            "attempt": self.attempt.to_dict() if self.attempt is not None else None,
            "evidence": [e.to_dict() for e in self.evidence],
        }

    def __repr__(self) -> str:
        return f"Verdict({self.category!r}, {self.reason!r}, evidence={len(self.evidence)})"


def _drops(timeline: Sequence[FlightEvent], *reasons: str) -> List[FlightEvent]:
    wanted = set(reasons)
    return [
        e
        for e in timeline
        if e.kind == "nat.drop" and e.attrs.get("reason") in wanted
    ]


def _mapping_divergence(
    timeline: Sequence[FlightEvent],
) -> Optional[Tuple[List[FlightEvent], str]]:
    """Find nat.map events proving non-EI mapping: same (node, proto,
    private endpoint) bound to more than one public port."""
    groups: Dict[Tuple[object, object, object], List[FlightEvent]] = {}
    for event in timeline:
        if event.kind != "nat.map":
            continue
        key = (event.attrs.get("node"), event.attrs.get("proto"), event.attrs.get("private"))
        groups.setdefault(key, []).append(event)
    for (node, proto, private), events in groups.items():
        ports = {e.attrs.get("public") for e in events}
        if len(ports) > 1:
            reason = (
                f"NAT {node} mapped private {proto} endpoint {private} to "
                f"{len(ports)} different public endpoints ({', '.join(sorted(map(str, ports)))}) "
                "— symmetric (endpoint-dependent) mapping defeats endpoint prediction"
            )
            return events, reason
    return None


def explain(attempt: Attempt, recorder: FlightRecorder) -> Verdict:
    """Attribute an attempt's outcome to a root cause.

    Successful attempts get :data:`CAT_NONE`; failed ones are matched
    against the taxonomy rules in priority order, each returning the
    evidence events that justify the ruling.
    """
    if attempt.succeeded:
        return Verdict(CAT_NONE, "attempt succeeded", attempt=attempt)

    timeline = recorder.timeline(attempt)

    # 1. NAT reboot in the attempt window explains everything after it.
    reboots = [e for e in timeline if e.kind == "nat.reboot"]
    if reboots:
        node = reboots[0].attrs.get("node")
        return Verdict(
            CAT_NAT_REBOOT,
            f"NAT {node} rebooted at t={reboots[0].time:.3f} and lost its "
            "translation state; existing holes silently broke (§3.6)",
            reboots,
            attempt,
        )

    # 2. Allocation refused: the attempt's own packets could not get a
    # mapping — the table (or this host's quota) was full.  Tested right
    # after reboots because an exhausted table also looks like silence or
    # plain filtering downstream.
    starved = _drops(timeline, "table-exhausted", "quota-exceeded")
    if starved:
        node = starved[0].attrs.get("node")
        floods = [
            e
            for e in timeline
            if e.kind == "attack" and e.attrs.get("family") == "exhaustion-flood"
        ]
        blame = (
            " while an exhaustion flood was running"
            if floods
            else ""
        )
        return Verdict(
            CAT_EXHAUSTED,
            f"NAT {node} refused to allocate a mapping for "
            f"{len(starved)} outbound packet(s) — translation state was "
            f"exhausted{blame}; the punch never got a public endpoint",
            starved + floods[:3],
            attempt,
        )

    # 3. Off-path spoofed reset: the session died by RST/ICMP while a
    # spoofed-rst attack was sweeping the NAT in this window.  Must outrank
    # inbound-filtered — the sweep's misses also shed filter drops.
    sweeps = [
        e
        for e in timeline
        if e.kind == "attack" and e.attrs.get("family") == "spoofed-rst"
    ]
    if sweeps:
        died = [
            e
            for e in timeline
            if e.kind == "session.broken" or e.kind == "attempt.end"
        ]
        if attempt.outcome in ("broken", "failed", "timeout", "deadline"):
            return Verdict(
                CAT_SPOOFED,
                f"an off-path attacker ({sweeps[0].attrs.get('attacker')}) was "
                f"sweeping forged resets at {sweeps[0].attrs.get('target')} "
                f"during this window ({len(sweeps)} burst(s)) and the session "
                "died by reset — spoofed RST/ICMP teardown",
                sweeps[:5] + died,
                attempt,
            )

    # 4. Hairpin refusals (these may themselves have emitted a RST, so they
    # must be tested before the RST rule).
    hairpin = _drops(timeline, "hairpin-refused")
    if hairpin:
        node = hairpin[0].attrs.get("node")
        return Verdict(
            CAT_HAIRPIN,
            f"NAT {node} refused hairpin (loopback) translation "
            f"{len(hairpin)} time(s); peers behind the same NAT cannot reach "
            "each other via their public endpoints (§3.5)",
            hairpin,
            attempt,
        )

    # 5. Symmetric-mapping port mismatch.  Checked before plain filter drops
    # because a failed punch through a symmetric NAT also sheds by-design
    # filter drops (e.g. NAT Check's unsolicited secondary probe).
    divergence = _mapping_divergence(timeline)
    if divergence is not None:
        events, reason = divergence
        races = [
            e
            for e in timeline
            if e.kind == "attack" and e.attrs.get("family") == "port-prediction"
        ]
        if races:
            reason += (
                f"; a port-prediction racer ({races[0].attrs.get('attacker')}) "
                "was churning the sequential allocator, sliding the mapping "
                "past the predicted window"
            )
            events = events + races[:3]
        return Verdict(CAT_SYMMETRIC, reason, events, attempt)
    non_ei = [
        e
        for e in timeline
        if e.kind == "nat.map"
        and e.attrs.get("policy") not in (None, "endpoint-independent")
    ]
    blocked = _drops(timeline, "filtered", "no-mapping")
    if non_ei and blocked:
        node = non_ei[0].attrs.get("node")
        return Verdict(
            CAT_SYMMETRIC,
            f"NAT {node} uses {non_ei[0].attrs.get('policy')} mapping and the "
            "peer's probes died unmatched — the predicted public endpoint "
            "was never allocated for this remote",
            non_ei + blocked,
            attempt,
        )

    # 6. Active refusal: the NAT answered an unsolicited SYN with RST/ICMP.
    refused = [
        e
        for e in timeline
        if e.kind == "nat.drop" and e.attrs.get("refusal") in ("rst", "icmp")
    ]
    if refused:
        node = refused[0].attrs.get("node")
        action = refused[0].attrs.get("refusal")
        return Verdict(
            CAT_RST,
            f"NAT {node} actively refused an unsolicited SYN with "
            f"{'a RST' if action == 'rst' else 'an ICMP error'}, aborting the "
            "TCP simultaneous-open dance (§5.2)",
            refused,
            attempt,
        )

    # 7. Passive inbound filtering / no mapping at all.
    if blocked:
        node = blocked[0].attrs.get("node")
        return Verdict(
            CAT_FILTERED,
            f"NAT {node} silently dropped {len(blocked)} inbound probe(s) "
            "before any mapping admitted them (filtering policy, §5.1)",
            blocked,
            attempt,
        )

    # 8. Rendezvous server killed in the attempt window.
    dead = [
        e
        for e in timeline
        if e.kind == "fault" and e.attrs.get("fault") in _SERVER_FAULTS
    ]
    if dead:
        return Verdict(
            CAT_SERVER_DEAD,
            f"rendezvous server {dead[0].attrs.get('target')} was killed at "
            f"t={dead[0].time:.3f}; endpoint exchange could not complete",
            dead,
            attempt,
        )

    # 9. Link loss consumed the probe budget.
    lost = [
        e
        for e in timeline
        if e.kind == "link.drop" and e.attrs.get("reason") in _LOSS_REASONS
    ]
    if lost:
        return Verdict(
            CAT_LOSS,
            f"{len(lost)} packet(s) died on the wire "
            f"({', '.join(sorted({str(e.attrs.get('reason')) for e in lost}))}); "
            "the probe budget was exhausted by loss",
            lost,
            attempt,
        )

    # 10. Deadline ran out with no sharper signal.
    if attempt.outcome in ("timeout", "deadline"):
        return Verdict(
            CAT_TIMEOUT,
            "the attempt's deadline expired with no recorded drop or fault "
            "explaining the silence",
            [e for e in timeline if e.kind == "attempt.end"],
            attempt,
        )

    # 11. An error answer: the outcome a connect gets when S refuses its
    # request (or a punch when its dial is refused).  Last, so it only
    # names what no rule above explains.
    if attempt.outcome == "error":
        return Verdict(
            CAT_REFUSED,
            "the attempt was refused outright — the rendezvous server answered "
            "with an error (e.g. the peer is not registered) or the peer's end "
            "refused the dial — with no drop or fault explaining it",
            [e for e in timeline if e.kind == "attempt.end"],
            attempt,
        )

    return Verdict(
        CAT_UNKNOWN,
        f"no taxonomy rule matched the {len(timeline)}-event timeline",
        timeline,
        attempt,
    )


def explain_all(recorder: FlightRecorder, name: Optional[str] = None) -> List[Verdict]:
    """Explain every (optionally name-filtered) attempt in the recorder."""
    return [explain(a, recorder) for a in recorder.find_attempts(name)]


def render_verdict(verdict: Verdict, max_evidence: int = 12) -> str:
    """Human-readable post-mortem block (the ``--explain`` CLI output)."""
    lines: List[str] = []
    attempt = verdict.attempt
    if attempt is not None:
        window = f"t={attempt.start:.3f}"
        if attempt.end is not None:
            window += f"..{attempt.end:.3f}"
        tags = ", ".join(f"{k}={v}" for k, v in sorted(attempt.tags.items()))
        lines.append(
            f"attempt #{attempt.id} {attempt.name} [{window}] "
            f"outcome={attempt.outcome}" + (f" ({tags})" if tags else "")
        )
    lines.append(f"root cause: {verdict.category}")
    lines.append(f"  {verdict.reason}")
    if verdict.evidence:
        lines.append("evidence:")
        shown = verdict.evidence[:max_evidence]
        for event in shown:
            attrs = ", ".join(
                f"{k}={v}" for k, v in sorted(event.attrs.items()) if k != "packet"
            )
            packet = event.attrs.get("packet")
            detail = attrs + (f" | {packet}" if packet else "")
            lines.append(f"  t={event.time:8.3f}  {event.kind:<14} {detail}")
        if len(verdict.evidence) > len(shown):
            lines.append(f"  ... {len(verdict.evidence) - len(shown)} more event(s)")
    return "\n".join(lines)
