"""The simulated device fleet behind Table 1.

The paper's data came from 380 volunteer-submitted NAT Check runs across 68
vendors.  We cannot test the physical devices; instead, for each vendor row
of Table 1 we synthesise a population of simulated NAT devices whose
behaviour mix matches the paper's reported counts, and run the *actual*
NAT Check protocol (all four tests, packet by packet) against every device.
The table our harness prints is therefore a measurement — of simulated
devices constructed to the paper's marginals — not a transcription: if the
NAT model or the NAT Check implementation were wrong, the measured counts
would diverge from the construction.

Denominator modelling: the paper's hairpin/TCP columns have smaller
denominators because those tests shipped in later NAT Check versions
(§6.2); each synthetic device therefore gets a test-version config saying
which tests its "user" ran.

Known paper inconsistency: the per-vendor TCP-hairpin numerators sum to 40,
which exceeds the "All Vendors" 37/286 (Windows' 28/31 dominates).  We
reproduce the per-vendor rows exactly and let the totals row disagree with
the paper by that same margin; EXPERIMENTS.md discusses it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.cache import Fingerprint, behavior_fingerprint
from repro.nat.behavior import NatBehavior
from repro.nat.device import NatDevice
from repro.nat.policy import FilteringPolicy, MappingPolicy, TcpRefusalPolicy
from repro.natcheck.classify import NatCheckReport
from repro.natcheck.client import NatCheckClient, NatCheckConfig
from repro.natcheck.servers import NatCheckServers
from repro.netsim.link import BACKBONE_LINK, LAN_LINK
from repro.netsim.network import Network
from repro.obs.metrics import MetricsRegistry
from repro.transport.stack import attach_stack

Count = Tuple[int, int]  # (supporting, reporting)


@dataclass(frozen=True)
class VendorSpec:
    """One Table 1 row: per-column (supporting, reporting) counts."""

    name: str
    udp: Count
    udp_hairpin: Count
    tcp: Count
    tcp_hairpin: Count

    def __post_init__(self) -> None:
        for label, (n, d) in (
            ("udp", self.udp),
            ("udp_hairpin", self.udp_hairpin),
            ("tcp", self.tcp),
            ("tcp_hairpin", self.tcp_hairpin),
        ):
            if n > d:
                raise ValueError(f"{self.name}.{label}: {n}/{d} is impossible")
        if self.udp_hairpin[1] > self.udp[1] or self.tcp[1] > self.udp[1]:
            raise ValueError(f"{self.name}: sub-test denominator exceeds population")
        if self.tcp_hairpin[1] > self.tcp[1]:
            raise ValueError(f"{self.name}: TCP hairpin reported without TCP test")

    @property
    def population(self) -> int:
        return self.udp[1]


#: Table 1, verbatim per-vendor counts.  "(other)" aggregates the 56 vendors
#: with fewer than five data points so the totals match the paper's
#: denominators (380 / 335 / 286); its TCP-hairpin column is clamped to the
#: TCP denominator and floor 0 (see module docstring).
VENDOR_SPECS: Tuple[VendorSpec, ...] = (
    VendorSpec("Linksys", (45, 46), (5, 42), (33, 38), (3, 38)),
    VendorSpec("Netgear", (31, 37), (3, 35), (19, 30), (0, 30)),
    VendorSpec("D-Link", (16, 21), (11, 21), (9, 19), (2, 19)),
    VendorSpec("Draytek", (2, 17), (3, 12), (2, 7), (0, 7)),
    VendorSpec("Belkin", (14, 14), (1, 14), (11, 11), (0, 11)),
    VendorSpec("Cisco", (12, 12), (3, 9), (6, 7), (2, 7)),
    VendorSpec("SMC", (12, 12), (3, 10), (8, 9), (2, 9)),
    VendorSpec("ZyXEL", (7, 9), (1, 8), (0, 7), (0, 7)),
    VendorSpec("3Com", (7, 7), (1, 7), (5, 6), (0, 6)),
    VendorSpec("Windows", (31, 33), (11, 32), (16, 31), (28, 31)),
    VendorSpec("Linux", (26, 32), (3, 25), (16, 24), (2, 24)),
    VendorSpec("FreeBSD", (7, 9), (3, 6), (2, 3), (1, 1)),
    VendorSpec("(other)", (100, 131), (32, 114), (57, 94), (0, 94)),
)


def device_behavior(spec: VendorSpec, index: int) -> NatBehavior:
    """Deterministically synthesise device *index* of the vendor population.

    Column constraints are satisfied by slicing: the first ``n`` of each
    column's ``d`` reporting devices support the feature.  The columns are
    assigned independently, mirroring the empirical fact that UDP mapping
    behaviour, TCP mapping behaviour, SYN handling, and hairpinning are
    independent implementation choices.
    """
    udp_cone = index < spec.udp[0]
    tcp_tested = index < spec.tcp[1]
    tcp_ok = index < spec.tcp[0]
    udp_hairpin = index < spec.udp_hairpin[0]
    tcp_hairpin = index < spec.tcp_hairpin[0]
    behavior = NatBehavior(
        mapping=(
            MappingPolicy.ENDPOINT_INDEPENDENT
            if udp_cone
            else MappingPolicy.ADDRESS_AND_PORT_DEPENDENT
        ),
        hairpin_udp=udp_hairpin,
        hairpin_tcp=tcp_hairpin,
    )
    if tcp_tested:
        if tcp_ok:
            behavior = behavior.but(
                tcp_mapping=MappingPolicy.ENDPOINT_INDEPENDENT,
                tcp_refusal=TcpRefusalPolicy.DROP,
            )
        elif tcp_hairpin or index % 2 == 0:
            # Fail mode A: consistent translation but active RST rejection
            # (§5.2's "some NATs instead actively reject").  Devices that
            # must support TCP hairpin get this mode, because a symmetric
            # TCP mapping breaks the hairpinned session's return path (the
            # SYN-ACK would be re-mapped to a fresh public port) — Windows
            # ICS is the real-world example: 90% TCP hairpin, 52% TCP punch.
            behavior = behavior.but(
                tcp_mapping=MappingPolicy.ENDPOINT_INDEPENDENT,
                tcp_refusal=TcpRefusalPolicy.RST,
            )
        else:
            # Fail mode B: symmetric TCP translation (§5.1).
            behavior = behavior.but(
                tcp_mapping=MappingPolicy.ADDRESS_AND_PORT_DEPENDENT,
                tcp_refusal=TcpRefusalPolicy.DROP,
            )
    return behavior


def device_config(spec: VendorSpec, index: int) -> NatCheckConfig:
    """Which NAT Check version this 'volunteer' ran (§6.2 denominators)."""
    return NatCheckConfig(
        run_udp_hairpin=index < spec.udp_hairpin[1],
        run_tcp=index < spec.tcp[1],
        run_tcp_hairpin=index < spec.tcp_hairpin[1],
    )


def build_check_network(
    behavior: NatBehavior,
    config: Optional[NatCheckConfig] = None,
    seed: int = 0,
) -> Tuple[Network, NatCheckClient]:
    """Build the standard NAT Check topology without running it.

    Three public servers, the NAT under test, one client host — with a
    flight recorder attached, so every run can be attributed.  Exposed
    separately from :func:`check_device` for callers (the ``--explain``
    CLI, tests) that need the network's recorder after the run.
    """
    net = Network(seed=seed)
    net.attach_flight()
    backbone = net.create_link("backbone", BACKBONE_LINK)
    servers = NatCheckServers(net, backbone)
    nat = NatDevice("NAT-DUT", net.scheduler, behavior, rng=net.rng.child("dut"))
    net.add_node(nat)
    nat.set_wan("155.99.25.11", "0.0.0.0/0", backbone)
    lan = net.create_link("lan", LAN_LINK)
    nat.add_lan("10.0.0.254", "10.0.0.0/24", lan)
    client_host = net.add_host(
        "client", ip="10.0.0.1", network="10.0.0.0/24", link=lan, gateway="10.0.0.254"
    )
    attach_stack(client_host, rng=net.rng.child("stack/client"))
    client = NatCheckClient(client_host, servers.endpoints, config)
    return net, client


def check_device(
    behavior: NatBehavior,
    config: Optional[NatCheckConfig] = None,
    seed: int = 0,
    deadline: float = 60.0,
) -> NatCheckReport:
    """Run the full NAT Check protocol against one simulated NAT.

    Builds a fresh network (three public servers, the NAT under test, one
    client host), runs the client, and returns its report.  A flight
    recorder rides along, so failed phases come back with
    ``report.failure_attribution`` root-cause categories; recording is
    passive, so results are identical with or without it.
    """
    net, client = build_check_network(behavior, config, seed=seed)
    done: List[NatCheckReport] = []
    client.run(done.append)
    net.scheduler.run_while(lambda: not done, deadline)
    if not done:
        raise RuntimeError("NAT Check did not complete within the deadline")
    return done[0]


@dataclass
class FleetCacheStats:
    """What the fingerprint dedup did during one :func:`run_fleet` call."""

    enabled: bool = True
    devices: int = 0
    #: Distinct behavioral fingerprints in the population (the number of
    #: simulations a dedup'd run performs).
    distinct_fingerprints: int = 0
    #: Simulations actually executed this run.
    simulated: int = 0
    #: Reports produced by cloning an in-run result instead of simulating.
    dedup_clones: int = 0

    def publish(self, metrics: MetricsRegistry) -> None:
        """Flow the counts into a :mod:`repro.obs` registry
        (``fleet.cache.*`` counters, picked up by the analysis report)."""
        if not self.enabled:
            metrics.counter("fleet.cache.disabled").inc()
            return
        for name in ("distinct_fingerprints", "simulated", "dedup_clones"):
            metrics.counter(f"fleet.cache.{name}").inc(getattr(self, name))

    def summary(self) -> str:
        if not self.enabled:
            return f"cache disabled: {self.devices} devices simulated individually"
        return (
            f"cache: {self.devices} devices -> "
            f"{self.distinct_fingerprints} distinct fingerprints, "
            f"{self.simulated} simulated, {self.dedup_clones} dedup clones"
        )


@dataclass
class FleetResult:
    """All reports, grouped by vendor, plus failure bookkeeping."""

    reports: Dict[str, List[NatCheckReport]] = field(default_factory=dict)
    cache: Optional[FleetCacheStats] = None

    @property
    def total_devices(self) -> int:
        return sum(len(reports) for reports in self.reports.values())

    def all_reports(self) -> List[NatCheckReport]:
        return [r for reports in self.reports.values() for r in reports]

    def attribution_totals(self) -> Dict[str, Dict[str, int]]:
        """Failure root-cause counts per test phase.

        ``{"udp": {"symmetric-mapping-mismatch": 61, ...}, ...}`` — each
        phase's category counts sum to exactly that Table 1 column's
        failure count (reporting minus supporting), because the client
        derives phase outcomes from the same predicates the table
        aggregates.
        """
        totals: Dict[str, Dict[str, int]] = {}
        for report in self.all_reports():
            for phase, category in report.failure_attribution.items():
                by_category = totals.setdefault(phase, {})
                by_category[category] = by_category.get(category, 0) + 1
        return totals


def device_fingerprint(
    behavior: NatBehavior, config: NatCheckConfig, seed: int
) -> Fingerprint:
    """The behavioral fingerprint of one :func:`check_device` run.

    Covers everything that can influence the outcome: the behaviour axes,
    the NAT Check test config (which tests run, their ports and timers), the
    link profiles :func:`check_device` wires up, and the run seed (folded
    into the derived simulation seed).
    """
    return behavior_fingerprint(
        seed=seed,
        behavior=behavior,
        config=config,
        backbone_link=BACKBONE_LINK,
        lan_link=LAN_LINK,
    )


def plan_runs(
    items: Sequence[Tuple[NatBehavior, NatCheckConfig]], seed: int
) -> Dict[Fingerprint, List[int]]:
    """The distinct NAT Check runs behind *items*, without simulating any.

    Maps each distinct :func:`device_fingerprint` of the ``(behaviour,
    config)`` items, in first-seen order, to the positions in *items* it
    covers: one :func:`check_device` run on ``fingerprint.seed`` stands for
    every item it covers.  The fleet's dedup, the design-space survey and the
    robustness sweep all plan through it.
    """
    plan: Dict[Fingerprint, List[int]] = {}
    for position, (behavior, config) in enumerate(items):
        plan.setdefault(device_fingerprint(behavior, config, seed), []).append(position)
    return plan


def _check_plan(
    items: Sequence[Tuple[NatBehavior, NatCheckConfig]], plan: Dict[Fingerprint, List[int]]
) -> List[NatCheckReport]:
    """Run each of *plan*'s distinct checks once, in plan order; returns, per
    item, the report that stands for it (shared by every item it covers)."""
    by_position: Dict[int, NatCheckReport] = {}
    for fingerprint, covered in plan.items():
        by_position.update(
            dict.fromkeys(covered, check_device(*items[covered[0]], seed=fingerprint.seed))
        )
    return [by_position[position] for position in range(len(items))]


def _check_one(spec: VendorSpec, seed: int, index: int) -> NatCheckReport:
    behavior = device_behavior(spec, index)
    config = device_config(spec, index)
    fingerprint = device_fingerprint(behavior, config, seed)
    report = check_device(behavior, config, seed=fingerprint.seed)
    report.vendor = spec.name
    report.device = f"{spec.name}-{index}"
    return report


def _run_fleet_nocache(
    specs: Sequence[VendorSpec],
    seed: int,
    progress: Optional[Callable[[str, int, int], None]],
) -> FleetResult:
    """The ``--no-cache`` path: simulate every device individually."""
    result = FleetResult()
    for spec in specs:
        vendor_reports: List[NatCheckReport] = []
        for index in range(spec.population):
            vendor_reports.append(_check_one(spec, seed, index))
            if progress is not None:
                progress(spec.name, index + 1, spec.population)
        result.reports[spec.name] = vendor_reports
    return result


def _run_fleet_dedup(
    specs: Sequence[VendorSpec],
    seed: int,
    progress: Optional[Callable[[str, int, int], None]],
) -> FleetResult:
    """The dedup path: one simulation per distinct fingerprint, then a copy
    per device with its identity rewritten."""
    items = [
        (device_behavior(spec, index), device_config(spec, index))
        for spec in specs
        for index in range(spec.population)
    ]
    plan = plan_runs(items, seed)
    checked = iter(_check_plan(items, plan))
    result = FleetResult(
        cache=FleetCacheStats(
            devices=len(items),
            distinct_fingerprints=len(plan),
            simulated=len(plan),
            dedup_clones=len(items) - len(plan),
        )
    )
    for spec in specs:
        result.reports[spec.name] = [
            replace(next(checked), vendor=spec.name, device=f"{spec.name}-{index}")
            for index in range(spec.population)
        ]
        if progress is not None:
            progress(spec.name, spec.population, spec.population)
    return result


def run_fleet(
    specs: Tuple[VendorSpec, ...] = VENDOR_SPECS,
    seed: int = 0,
    progress: Optional[Callable[[str, int, int], None]] = None,
    workers: int = 1,
    cache: bool = True,
    metrics: Optional[MetricsRegistry] = None,
) -> FleetResult:
    """Run NAT Check against the whole synthetic fleet (Table 1's workload).

    The *cache* knob controls the behavioral-fingerprint dedup:

    * ``True`` (default) — in-run dedup: devices with identical
      fingerprints are simulated once and their reports cloned with the
      identity fields rewritten;
    * ``False`` — the ``--no-cache`` path: every device simulated
      individually (the soundness baseline the tier-1 dedup tests compare
      against).

    Nothing is read from or written to disk either way, so the result is a
    pure function of the code and *seed*.  Both paths derive each
    simulation's seed from the device's behavioral fingerprint, so they
    produce field-for-field identical :class:`FleetResult`\\ s, in the same
    order.  Simulations run one after another in the calling process; when
    *metrics* is given, the run's dedup counters are published as
    ``fleet.cache.*``.

    *workers* accepts only ``1``, the serial run, and raises
    :class:`ValueError` for anything else.  It stays for the e2e
    ``table1_survey`` workload, which passes ``workers=1``; ROADMAP item 10
    drops that argument, and then this keyword goes.
    """
    if workers != 1:
        raise ValueError(f"run_fleet runs serially; workers must be 1, got {workers!r}")
    if cache:
        result = _run_fleet_dedup(specs, seed, progress)
    else:
        result = _run_fleet_nocache(specs, seed, progress)
        result.cache = FleetCacheStats(
            enabled=False,
            devices=result.total_devices,
            simulated=result.total_devices,
        )
    if metrics is not None and result.cache is not None:
        result.cache.publish(metrics)
    return result


# -- The NAT design space ------------------------------------------------------
#
# Table 1 measures punch success over the *observed* 2004 vendor mix.  The
# design-space survey asks the generalized question: over every combination
# of the behaviour axes, what fraction of devices supports each hole-punching
# technique?  Each cell runs the real NAT Check protocol (the same
# packet-level measurement as the fleet) once, so the counts are exact.

#: The behaviour axes the survey crosses.  ``tcp_mapping=None`` means
#: "inherit the UDP mapping policy" — included so single-table NATs (the
#: common implementation) appear in the space alongside split-table ones.
DESIGN_SPACE_AXES: Dict[str, Tuple[object, ...]] = {
    "mapping": tuple(MappingPolicy),
    "filtering": tuple(FilteringPolicy),
    "tcp_mapping": (None,) + tuple(MappingPolicy),
    "tcp_refusal": tuple(TcpRefusalPolicy),
    "hairpin_udp": (False, True),
    "hairpin_tcp": (False, True),
}

#: Number of distinct devices the axes can express.
DESIGN_SPACE_SIZE = math.prod(len(options) for options in DESIGN_SPACE_AXES.values())


#: Punch-technique columns the survey reports, mapped to the
#: :class:`~repro.natcheck.classify.NatCheckReport` field holding the outcome.
DESIGN_SPACE_COLUMNS: Tuple[Tuple[str, str], ...] = (
    ("udp", "udp_punch_ok"),
    ("udp_hairpin", "udp_hairpin"),
    ("tcp", "tcp_punch_ok"),
    ("tcp_hairpin", "tcp_hairpin"),
)

_Tally = Dict[str, List[int]]  # column -> [successes, trials]


def _fresh_tally() -> _Tally:
    return {name: [0, 0] for name, _ in DESIGN_SPACE_COLUMNS}


def _tally_record(tally: _Tally) -> Dict[str, object]:
    return {
        name: {
            "successes": successes,
            "trials": trials,
            "rate": successes / trials if trials else 0.0,
        }
        for name, (successes, trials) in tally.items()
    }


def _option_key(option: object) -> str:
    """JSON-safe string key for one axis option (enum value, bool, or the
    tcp_mapping ``None`` sentinel, which means "inherit the UDP policy")."""
    if option is None:
        return "inherit"
    if isinstance(option, bool):
        return "true" if option else "false"
    value = getattr(option, "value", option)
    return str(value)


def survey_design_space(seed: int = 0) -> Dict[str, object]:
    """Punch success over every cell of the NAT design space, counted exactly.

    Plans the full NAT Check protocol (hairpin + TCP) on each of the
    :data:`DESIGN_SPACE_SIZE` cells of the :data:`DESIGN_SPACE_AXES` cross
    product with :func:`plan_runs`, seeded from *seed* as the fleet is, and
    runs each cell once, in product order.

    Returns, per Table 1 column, the exact ``successes`` / ``trials`` /
    ``rate`` over the cells, and a ``sensitivity`` table holding the same
    counts per axis, per option: over the cells holding that option fixed,
    i.e. how much each behavioural axis moves hole-punch success.
    """
    config = NatCheckConfig()
    cells = [
        dict(zip(DESIGN_SPACE_AXES, assignment))
        for assignment in itertools.product(*DESIGN_SPACE_AXES.values())
    ]
    items = [(NatBehavior(**cell), config) for cell in cells]
    columns = _fresh_tally()
    sensitivity: Dict[str, Dict[str, _Tally]] = {
        axis: {_option_key(option): _fresh_tally() for option in options}
        for axis, options in DESIGN_SPACE_AXES.items()
    }
    for cell, report in zip(cells, _check_plan(items, plan_runs(items, seed))):
        tallies = [columns] + [
            sensitivity[axis][_option_key(option)] for axis, option in cell.items()
        ]
        for name, field_name in DESIGN_SPACE_COLUMNS:
            outcome = getattr(report, field_name)
            if outcome is None:
                continue
            for tally in tallies:
                tally[name][0] += outcome
                tally[name][1] += 1
    return {
        "seed": seed,
        "cells": len(cells),
        "columns": _tally_record(columns),
        "sensitivity": {
            axis: {option: _tally_record(tally) for option, tally in options.items()}
            for axis, options in sensitivity.items()
        },
    }
