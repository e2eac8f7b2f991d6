"""Robustness under adversity: Table-1-style report for attacked fleets.

For every distinct NAT behaviour in the Table 1 fleet (deduplicated by
behavioural fingerprint, weighted by how many of the 380 devices share it),
this module runs each adversarial workload from
:mod:`repro.netsim.adversary` in three modes:

* ``baseline`` — no attacker; the behaviour's ordinary punch outcome.
* ``attacked`` — the attack runs against an **unhardened** device.
* ``hardened`` — the same attack, same seed, against a device with the
  hardening axes enabled (per-host mapping quotas, RST sequence
  validation, ICMP claim validation) and the matching stack knobs.

Two outcomes are scored per run: *punch success* (did hole punching
deliver a session at all) and *session survival* (did an established
session outlive a fixed observation window under fire).  Failed punches
are attributed through :mod:`repro.obs.attribution`, so the report also
breaks failures down by taxonomy category — the acceptance bar is that
attacked-mode failures attribute to the attack categories
(``mapping-exhausted``, ``spoofed-reset``), not to ``unknown``.

The report is intentionally *separate* from the Table 1 reproduction:
baseline fleet behaviour never enables any hardening axis, so
``repro.analysis.report`` output is unchanged by construction.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, List, Optional, Tuple

from repro.cache.fingerprint import canonical_json, mix_seed
from repro.nat.behavior import FULL_CONE, WELL_BEHAVED, NatBehavior
from repro.natcheck.client import NatCheckConfig
from repro.natcheck.fleet import VENDOR_SPECS, device_behavior, plan_runs
from repro.obs.attribution import explain

#: Attack families reported on (and their scenario protocols below).
FAMILIES = ("exhaustion-flood", "spoofed-rst", "port-prediction")

MODES = ("baseline", "attacked", "hardened")

#: Translation-table memory for exhaustion runs.  This models the device's
#: physical capacity, NOT a hardening knob: attacked and hardened runs get
#: the same finite table, the hardened one merely adds a per-host quota.
TABLE_CAPACITY = 192

#: Per-host mapping quota used by the hardened configurations.
HOST_QUOTA = 64

#: Virtual seconds an established session is observed under fire.
OBSERVATION = 20.0

_DEADLINE = 60.0


@dataclasses.dataclass
class RunResult:
    """One scenario run: did the punch land, did the session survive."""

    punch_ok: bool
    survived: Optional[bool]  # None when no session existed to observe
    verdict: Optional[str] = None  # attribution category of the failure


@dataclasses.dataclass
class Cell:
    """One (family, mode) aggregate over the weighted fleet.

    Each distinct behaviour runs once and counts with its device weight, so
    the tallies are exact over the behaviours swept; the weights are not
    independent trials, and the cell carries no sampling interval.
    """

    family: str
    mode: str
    punched: int = 0
    punch_total: int = 0
    survived: int = 0
    survive_total: int = 0
    verdicts: Dict[str, int] = dataclasses.field(default_factory=dict)

    def add(self, result: RunResult, weight: int) -> None:
        self.punch_total += weight
        if result.punch_ok:
            self.punched += weight
        if result.survived is not None:
            self.survive_total += weight
            if result.survived:
                self.survived += weight
        if result.verdict is not None:
            self.verdicts[result.verdict] = (
                self.verdicts.get(result.verdict, 0) + weight
            )

    @property
    def punch_rate(self) -> float:
        return self.punched / self.punch_total if self.punch_total else 0.0

    @property
    def survival_rate(self) -> Optional[float]:
        if not self.survive_total:
            return None
        return self.survived / self.survive_total


# ---------------------------------------------------------------------------
# Per-family scenario protocols (validated shapes; see tests/test_adversary)
# ---------------------------------------------------------------------------


def _harden_for(family: str, behavior: NatBehavior) -> NatBehavior:
    if family == "spoofed-rst":
        return behavior.but(rst_seq_validation=True, icmp_validation=True)
    return behavior.but(max_mappings_per_host=HOST_QUOTA)


def _run_exhaustion(behavior: NatBehavior, mode: str, seed: int) -> RunResult:
    from repro.core.udp_punch import PunchConfig
    from repro.netsim.adversary import ExhaustionFlood, attach_lan_attacker
    from repro.scenarios.topologies import build_two_nats

    behavior = behavior.but(table_capacity=TABLE_CAPACITY)
    if mode == "hardened":
        behavior = _harden_for("exhaustion-flood", behavior)
    sc = build_two_nats(
        seed=seed, behavior_a=behavior, behavior_b=FULL_CONE, flight=True
    )
    sched = sc.net.scheduler
    nat_a = sc.nats["A"]
    attacker = None
    if mode != "baseline":
        mole = attach_lan_attacker(sc.net, nat_a)
        attacker = ExhaustionFlood(
            sc.net, host=mole, nat=nat_a, name="flood", interval=0.05, burst=64
        )
        # The flood is already running when the victim first appears: the
        # table is full before registration, the worst case for the victim.
        attacker.start()
        sched.run_until(sched.now + 6.0)
    config = PunchConfig(keepalive_interval=1.0, broken_after_missed=3)
    for client in sc.clients.values():
        client.punch_config = config  # both ends keepalive, so survival is real
    try:
        sc.register_all_udp()
    except Exception:
        # Registration itself was starved: total denial of service.
        if attacker is not None:
            attacker.stop()
        return RunResult(punch_ok=False, survived=None, verdict="mapping-exhausted")
    sessions: list = []
    failed: list = []
    sc.clients["A"].connect_udp(
        2, on_session=sessions.append, on_failure=failed.append, config=config
    )
    sched.run_while(lambda: not sessions and not failed, sched.now + _DEADLINE)
    if not sessions:
        if attacker is not None:
            attacker.stop()
        return RunResult(punch_ok=False, survived=None, verdict=_verdict_of(sc))
    sched.run_until(sched.now + OBSERVATION)
    if attacker is not None:
        attacker.stop()
    broken = sessions[0].broken
    return RunResult(
        punch_ok=True,
        survived=not broken,
        verdict=_session_verdict(sc, "session.udp") if broken else None,
    )


def _run_spoofed_rst(behavior: NatBehavior, mode: str, seed: int) -> RunResult:
    from repro.netsim.adversary import SpoofedRstInjector, attach_wan_attacker
    from repro.scenarios.topologies import build_two_nats

    if mode == "hardened":
        behavior = _harden_for("spoofed-rst", behavior)
    sc = build_two_nats(
        seed=seed, behavior_a=behavior, behavior_b=WELL_BEHAVED, flight=True
    )
    if mode == "hardened":
        for label in ("A", "B"):
            stack = sc.hosts[label].stack
            stack.tcp.rst_seq_validation = True
            stack.tcp.icmp_validation = True
    sched = sc.net.scheduler
    try:
        sc.register_all_tcp()
    except Exception:
        return RunResult(punch_ok=False, survived=None, verdict="unknown")
    streams: list = []
    failed: list = []
    sc.clients["A"].connect_tcp(
        2, on_stream=streams.append, on_failure=failed.append
    )
    sched.run_while(lambda: not streams and not failed, sched.now + _DEADLINE)
    if not streams:
        # The attack targets established sessions; a punch this behaviour
        # cannot complete anyway is a baseline property, not attack damage.
        return RunResult(punch_ok=False, survived=None, verdict=_verdict_of(sc))
    stream = streams[0]
    stream.start_keepalives(1.0, broken_after_missed=3)
    attacker = None
    if mode != "baseline":
        offpath = attach_wan_attacker(sc.net, sc.net.links["backbone"])
        attacker = SpoofedRstInjector(
            sc.net,
            host=offpath,
            nat=sc.nats["A"],
            forged_src=stream.remote,
            spoof_icmp=True,
            known_remote=stream.remote,
        )
        attacker.start()
    sched.run_until(sched.now + OBSERVATION)
    if attacker is not None:
        attacker.stop()
    broken = stream.broken
    return RunResult(
        punch_ok=True,
        survived=not broken,
        verdict=_session_verdict(sc, "session.tcp") if broken else None,
    )


def _run_port_prediction(behavior: NatBehavior, mode: str, seed: int) -> RunResult:
    from repro.core.udp_punch import PunchConfig
    from repro.netsim.adversary import PortPredictionRacer, attach_lan_attacker
    from repro.scenarios.topologies import build_two_nats

    if mode == "hardened":
        behavior = _harden_for("port-prediction", behavior)
    # The peer must be port-restricted: against a full cone the punch never
    # needs prediction (the cone answers the victim's first probe), so the
    # race would be invisible.  Against WELL_BEHAVED, a symmetric victim
    # only connects if the peer's predicted probes hit the victim's next
    # sequential ports — exactly the state the racer slides.
    sc = build_two_nats(
        seed=seed, behavior_a=behavior, behavior_b=WELL_BEHAVED, flight=True
    )
    sched = sc.net.scheduler
    config = PunchConfig(
        predict_ports=8, keepalive_interval=1.0, broken_after_missed=3
    )
    for client in sc.clients.values():
        client.punch_config = config
    attacker = None
    if mode != "baseline":
        mole = attach_lan_attacker(sc.net, sc.nats["A"])
        attacker = PortPredictionRacer(
            sc.net, host=mole, nat=sc.nats["A"], name="racer", interval=0.05, burst=8
        )
        # Racing starts before the victim registers: an unhardened
        # sequential allocator keeps sliding between registration and
        # punch, so predicted ports are stale by punch time.  A quota
        # freezes the allocator once the racer saturates.
        attacker.start()
        sched.run_until(sched.now + 2.0)
    try:
        sc.register_all_udp()
    except Exception:
        if attacker is not None:
            attacker.stop()
        return RunResult(punch_ok=False, survived=None, verdict="mapping-exhausted")
    sched.run_until(sched.now + 5.0)
    sessions: list = []
    failed: list = []
    sc.clients["A"].connect_udp(
        2, on_session=sessions.append, on_failure=failed.append, config=config
    )
    sched.run_while(lambda: not sessions and not failed, sched.now + _DEADLINE)
    if not sessions:
        if attacker is not None:
            attacker.stop()
        return RunResult(punch_ok=False, survived=None, verdict=_verdict_of(sc))
    sched.run_until(sched.now + OBSERVATION)
    if attacker is not None:
        attacker.stop()
    broken = sessions[0].broken
    return RunResult(
        punch_ok=True,
        survived=not broken,
        verdict=_session_verdict(sc, "session.udp") if broken else None,
    )


def _verdict_of(sc) -> str:
    """Attribute the scenario's failed connect attempt (first one found)."""
    recorder = sc.net.flight
    for name in ("connect.udp", "connect.tcp"):
        for attempt in recorder.find_attempts(name):
            if attempt.finished and not attempt.succeeded:
                return explain(attempt, recorder).category
    return "unknown"


def _session_verdict(sc, name: str) -> str:
    """Attribute the scenario's broken session attempt."""
    recorder = sc.net.flight
    for attempt in recorder.find_attempts(name):
        if attempt.outcome == "broken":
            return explain(attempt, recorder).category
    return "unknown"


_PROTOCOLS: Dict[str, Callable[[NatBehavior, str, int], RunResult]] = {
    "exhaustion-flood": _run_exhaustion,
    "spoofed-rst": _run_spoofed_rst,
    "port-prediction": _run_port_prediction,
}


# ---------------------------------------------------------------------------
# Fleet sweep
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class RobustnessReport:
    """All (family × mode) aggregates plus run metadata."""

    cells: Dict[Tuple[str, str], Cell]
    behaviors: int
    devices: int
    seed: int

    def cell(self, family: str, mode: str) -> Cell:
        return self.cells[(family, mode)]

    def hardening_wins(self, family: str) -> bool:
        """Hardening must recover what the attack destroyed.

        A family that starves the punch shows up in punch counts; one that
        kills established sessions shows up in survival.  Wherever the
        attacked cell is strictly worse than baseline, the hardened cell
        must be strictly better than the attacked one — and hardening must
        never regress either measure.
        """
        baseline = self.cell(family, "baseline")
        attacked = self.cell(family, "attacked")
        hardened = self.cell(family, "hardened")
        base_surv = baseline.survival_rate
        att_surv = attacked.survival_rate
        hard_surv = hardened.survival_rate

        def worse(a: Optional[float], b: Optional[float]) -> bool:
            return a is not None and b is not None and a < b

        no_regress = hardened.punched >= attacked.punched and not worse(
            hard_surv, att_surv
        )
        punch_damage = attacked.punched < baseline.punched
        surv_damage = worse(att_surv, base_surv) or (
            att_surv is None and base_surv is not None
        )
        if not (punch_damage or surv_damage):
            # The attack was toothless against this behaviour subset;
            # hardening just has to not make things worse.
            return no_regress
        punch_recovered = not punch_damage or hardened.punched > attacked.punched
        surv_recovered = not surv_damage or (
            hard_surv is not None and (att_surv is None or hard_surv > att_surv)
        )
        return no_regress and punch_recovered and surv_recovered


def run_robustness(seed: int = 7, quick: bool = False) -> RobustnessReport:
    """Sweep the (deduplicated) Table 1 fleet through every attack × mode.

    ``quick`` keeps only the first few distinct behaviours — the CI smoke
    and benchmark variant.  Every mode of a given (behaviour, family) pair
    runs with the **same** derived seed, so attacked-vs-hardened deltas are
    never seed noise.
    """
    behaviors = [
        device_behavior(spec, index) for spec in VENDOR_SPECS for index in range(spec.population)
    ]
    # One fixed NAT Check config, so the planned runs are the distinct
    # behaviours, each weighted by the devices sharing it.
    plan = plan_runs([(behavior, NatCheckConfig()) for behavior in behaviors], seed)
    pairs = [(behaviors[covered[0]], len(covered)) for covered in plan.values()]
    if quick:
        # Keep a small but *diverse* subset: the first behaviour seen per
        # (UDP mapping, TCP refusal) combination.  Taking the first N rows
        # would miss symmetric-mapping devices entirely — the behaviours
        # the exhaustion and port-prediction attacks actually bite.
        picked: List[Tuple[NatBehavior, int]] = []
        seen_kinds = set()
        for behavior, weight in pairs:
            kind = (behavior.mapping, behavior.tcp_refusal)
            if kind in seen_kinds:
                continue
            seen_kinds.add(kind)
            picked.append((behavior, weight))
        pairs = picked[:6]
    cells = {
        (family, mode): Cell(family, mode)
        for family in FAMILIES
        for mode in MODES
    }
    for behavior, weight in pairs:
        for family in FAMILIES:
            run_seed = mix_seed(seed, f"robustness/{family}/{canonical_json(behavior)}")
            protocol = _PROTOCOLS[family]
            for mode in MODES:
                result = protocol(behavior, mode, run_seed)
                cells[(family, mode)].add(result, weight)
    return RobustnessReport(
        cells=cells,
        behaviors=len(pairs),
        devices=sum(w for _, w in pairs),
        seed=seed,
    )


def render_robustness(report: RobustnessReport) -> str:
    """The human-readable robustness-under-adversity table."""
    lines = [
        "Robustness under adversity "
        f"({report.devices} devices, {report.behaviors} distinct behaviours, "
        f"seed {report.seed})",
        "",
        f"{'attack':<18} {'mode':<10} {'punch success':<22} {'session survival':<18}",
        "-" * 70,
    ]
    for family in FAMILIES:
        for mode in MODES:
            key = (family, mode)
            if key not in report.cells:
                continue
            cell = report.cells[key]
            punch = f"{cell.punched}/{cell.punch_total} ({100.0 * cell.punch_rate:.0f}%)"
            survival = cell.survival_rate
            surv = (
                f"{cell.survived}/{cell.survive_total} ({100.0 * survival:.0f}%)"
                if survival is not None
                else "n/a"
            )
            lines.append(f"{family:<18} {mode:<10} {punch:<22} {surv:<18}")
        attacked = report.cells.get((family, "attacked"))
        if attacked and attacked.verdicts:
            breakdown = ", ".join(
                f"{k}={v}" for k, v in sorted(attacked.verdicts.items())
            )
            lines.append(f"{'':<18} attacked-mode failure attribution: {breakdown}")
        lines.append("")
    for family in FAMILIES:
        if (family, "attacked") in report.cells:
            verdict = "holds" if report.hardening_wins(family) else "REGRESSED"
            lines.append(f"hardening vs {family}: {verdict}")
    return "\n".join(lines)
