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
import os
from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from repro.cache import Fingerprint, ResultCache, behavior_fingerprint, mix_seed
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
from repro.util.rng import SeededRng

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


def scale_population(factor: int, specs: Sequence[VendorSpec] = VENDOR_SPECS) -> Tuple[VendorSpec, ...]:
    """A synthetic population *factor* times the size of *specs*.

    Every column count is multiplied, so the scaled fleet preserves the
    per-vendor behaviour mix exactly (each Table 1 percentage is unchanged)
    while the device count grows — ``scale_population(264)`` turns the
    380-device fleet into 100,320 devices.  The behavioural variety does
    *not* grow with the factor, which is precisely why the fingerprint
    dedup makes such populations tractable: the distinct-simulation count
    stays a few dozen regardless of scale.
    """
    if factor < 1:
        raise ValueError(f"scale factor must be >= 1, got {factor}")

    def mul(count: Count) -> Count:
        return (count[0] * factor, count[1] * factor)

    return tuple(
        VendorSpec(s.name, mul(s.udp), mul(s.udp_hairpin), mul(s.tcp), mul(s.tcp_hairpin))
        for s in specs
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
    """What the fingerprint cache did during one :func:`run_fleet` call."""

    enabled: bool = True
    persistent: bool = False
    devices: int = 0
    #: Distinct behavioral fingerprints in the population (the number of
    #: simulations a fully cold, dedup'd run performs).
    distinct_fingerprints: int = 0
    #: Simulations actually executed this run.
    simulated: int = 0
    #: Reports produced by cloning an in-run result instead of simulating.
    dedup_clones: int = 0
    #: Distinct fingerprints served from the persistent store.
    disk_hits: int = 0
    disk_misses: int = 0
    #: Stale records found on disk (code change since they were written).
    invalidations: int = 0
    #: Records written to the persistent store this run.
    stores: int = 0

    def to_dict(self) -> Dict[str, object]:
        return asdict(self)

    def publish(self, metrics: MetricsRegistry) -> None:
        """Flow the counts into a :mod:`repro.obs` registry
        (``fleet.cache.*`` counters, picked up by the analysis report)."""
        if not self.enabled:
            metrics.counter("fleet.cache.disabled").inc()
            return
        for name in (
            "distinct_fingerprints",
            "simulated",
            "dedup_clones",
            "disk_hits",
            "disk_misses",
            "invalidations",
            "stores",
        ):
            metrics.counter(f"fleet.cache.{name}").inc(getattr(self, name))

    def summary(self) -> str:
        if not self.enabled:
            return f"cache disabled: {self.devices} devices simulated individually"
        parts = [
            f"{self.distinct_fingerprints} distinct fingerprints",
            f"{self.simulated} simulated",
            f"{self.dedup_clones} dedup clones",
        ]
        if self.persistent:
            parts.append(f"{self.disk_hits} disk hits")
            if self.invalidations:
                parts.append(f"{self.invalidations} invalidated")
        return f"cache: {self.devices} devices -> " + ", ".join(parts)


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

    def latency_by_vendor(self):
        """Per-vendor punch-latency distributions (see
        :func:`repro.natcheck.table.latency_histograms`)."""
        from repro.natcheck.table import latency_histograms

        return latency_histograms(self.reports)

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


#: Environment override for :func:`run_fleet`'s worker count.  An integer
#: sets the pool size; ``auto`` (or ``0``) means ``os.cpu_count()``.
WORKERS_ENV = "REPRO_FLEET_WORKERS"

#: Devices per parallel task.  Small enough that the biggest vendor rows
#: split across workers, large enough to amortise task/pickle overhead.
FLEET_CHUNK = 16


def device_seed(seed: int, vendor: str, index: int) -> int:
    """Stable per-device seed: same fleet for the same *seed*, everywhere.

    Uses ``zlib.crc32`` (via :func:`repro.cache.mix_seed`, the shared
    derivation recipe) rather than ``hash()`` — the builtin string hash is
    randomized per interpreter by ``PYTHONHASHSEED``, which would silently
    break "same seed => same fleet" across runs and across pool workers.

    Note: since the behavioral-fingerprint cache, fleet simulations are
    seeded by :func:`device_fingerprint` — the same crc32 mix, but over the
    device's behavioural content instead of its identity, so behaviourally
    identical devices replay the *identical* simulation (the property that
    makes dedup and result caching provably sound).  ``device_seed`` remains
    the derivation for callers who want unique-per-device seeds.
    """
    return mix_seed(seed, f"{vendor}:{index}")


def device_fingerprint(
    behavior: NatBehavior, config: NatCheckConfig, seed: int
) -> Fingerprint:
    """The behavioral fingerprint of one :func:`check_device` run.

    Covers everything that can influence the outcome: the behaviour axes,
    the NAT Check test config (which tests run, their ports and timers), the
    link profiles :func:`check_device` wires up, the run seed (folded into
    the derived simulation seed), and — inside the fingerprint — the
    protocol-suite version hash, so results self-invalidate on code change.
    """
    return behavior_fingerprint(
        seed=seed,
        behavior=behavior,
        config=config,
        backbone_link=BACKBONE_LINK,
        lan_link=LAN_LINK,
    )


def resolve_workers(workers: Optional[int]) -> int:
    """Effective pool size: explicit kwarg > ``REPRO_FLEET_WORKERS`` > 1."""
    if workers is None:
        raw = os.environ.get(WORKERS_ENV, "").strip().lower()
        if not raw:
            return 1
        workers = 0 if raw == "auto" else int(raw)
    if workers <= 0:
        workers = os.cpu_count() or 1
    return max(1, workers)


def _check_one(spec: VendorSpec, seed: int, index: int) -> NatCheckReport:
    behavior = device_behavior(spec, index)
    config = device_config(spec, index)
    fingerprint = device_fingerprint(behavior, config, seed)
    report = check_device(behavior, config, seed=fingerprint.seed)
    report.vendor = spec.name
    report.device = f"{spec.name}-{index}"
    return report


def _check_range(
    spec: VendorSpec, seed: int, start: int, stop: int
) -> List[NatCheckReport]:
    """Worker task: run devices ``start:stop`` of one vendor population.

    Module-level (picklable) so :class:`~concurrent.futures.ProcessPoolExecutor`
    can ship it to pool workers; every device builds its own private
    :class:`~repro.netsim.network.Network`, so tasks share no state.
    """
    return [_check_one(spec, seed, index) for index in range(start, stop)]


def _chunk_tasks(
    specs: Sequence[VendorSpec], chunk: int
) -> List[Tuple[int, int, int]]:
    """Vendor-sliced task list: (spec position, start index, stop index)."""
    tasks = []
    for position, spec in enumerate(specs):
        for start in range(0, spec.population, chunk):
            tasks.append((position, start, min(start + chunk, spec.population)))
    return tasks


def _plan_fleet(
    specs: Sequence[VendorSpec], seed: int
) -> Tuple[List[List[Fingerprint]], Dict[str, Tuple[int, int, Fingerprint]]]:
    """Fingerprint every device without simulating anything.

    Returns ``(plan, representatives)``: ``plan[position][index]`` is the
    device's fingerprint, and ``representatives`` maps each distinct
    ``Fingerprint.full`` to the first ``(position, index, fingerprint)``
    carrying it — the one device actually simulated on a cold run.

    Devices are memoised by the boolean threshold key that fully determines
    :func:`device_behavior` + :func:`device_config` (the column slicing
    comparisons plus the fail-mode parity), so planning a 100k-device scaled
    population costs a tuple build and a dict hit per device, not a
    dataclass construction and a sha256.
    ``tests/test_cache_soundness.py::test_plan_matches_direct_fingerprints``
    pins the memo key against the direct derivation.
    """
    plan: List[List[Fingerprint]] = []
    representatives: Dict[str, Tuple[int, int, Fingerprint]] = {}
    for position, spec in enumerate(specs):
        combos: Dict[Tuple[bool, ...], Fingerprint] = {}
        row: List[Fingerprint] = []
        udp_n = spec.udp[0]
        udp_hp_n, udp_hp_d = spec.udp_hairpin
        tcp_n, tcp_d = spec.tcp
        tcp_hp_n, tcp_hp_d = spec.tcp_hairpin
        for index in range(spec.population):
            key = (
                index < udp_n,
                index < udp_hp_n,
                index < udp_hp_d,
                index < tcp_n,
                index < tcp_d,
                index < tcp_hp_n,
                index < tcp_hp_d,
                index % 2 == 0,
            )
            fingerprint = combos.get(key)
            if fingerprint is None:
                behavior = device_behavior(spec, index)
                config = device_config(spec, index)
                fingerprint = combos[key] = device_fingerprint(behavior, config, seed)
                representatives.setdefault(
                    fingerprint.full, (position, index, fingerprint)
                )
            row.append(fingerprint)
        plan.append(row)
    return plan, representatives


def _clone_report(base: NatCheckReport, vendor: str, device: str) -> NatCheckReport:
    """A per-device copy of a shared result with its identity rewritten.

    Bypasses ``__init__`` (instance-dict copy) because a scaled population
    clones hundreds of thousands of reports; every field except the identity
    pair is byte-identical to the base simulation's, which is exactly the
    soundness contract the tier-1 cache tests assert.
    """
    clone = NatCheckReport.__new__(NatCheckReport)
    clone.__dict__.update(base.__dict__)
    clone.__dict__["vendor"] = vendor
    clone.__dict__["device"] = device
    return clone


def _fan_out(
    jobs: Sequence[Tuple[object, VendorSpec, int, int]],
    seed: int,
    effective: int,
    _runner: Callable[[VendorSpec, int, int, int], List[NatCheckReport]],
) -> Iterator[Tuple[object, List[NatCheckReport]]]:
    """Run ``(key, spec, start, stop)`` jobs on a process pool, yielding
    ``(key, reports)`` in completion order; the first error (a job's, or the
    consumer's while handling a result) cancels whatever has not started."""
    from concurrent.futures import ProcessPoolExecutor, as_completed

    with ProcessPoolExecutor(max_workers=min(effective, len(jobs) or 1)) as pool:
        futures = {
            pool.submit(_runner, spec, seed, start, stop): key
            for key, spec, start, stop in jobs
        }
        try:
            for future in as_completed(futures):
                yield futures[future], future.result()
        except BaseException:
            for future in futures:
                future.cancel()
            raise


def _run_fleet_nocache(
    specs: Sequence[VendorSpec],
    seed: int,
    progress: Optional[Callable[[str, int, int], None]],
    effective: int,
    _runner: Callable[[VendorSpec, int, int, int], List[NatCheckReport]],
) -> FleetResult:
    """The ``--no-cache`` path: simulate every device individually."""
    result = FleetResult()
    if effective == 1:
        for spec in specs:
            vendor_reports: List[NatCheckReport] = []
            for index in range(spec.population):
                vendor_reports.append(_check_one(spec, seed, index))
                if progress is not None:
                    progress(spec.name, index + 1, spec.population)
            result.reports[spec.name] = vendor_reports
        return result

    chunks: Dict[Tuple[int, int], List[NatCheckReport]] = {}
    completed = {spec.name: 0 for spec in specs}
    jobs = [
        ((position, start, stop), specs[position], start, stop)
        for position, start, stop in _chunk_tasks(specs, FLEET_CHUNK)
    ]
    for (position, start, stop), reports in _fan_out(jobs, seed, effective, _runner):
        chunks[(position, start)] = reports
        if progress is not None:
            spec = specs[position]
            completed[spec.name] += stop - start
            progress(spec.name, completed[spec.name], spec.population)
    for position, spec in enumerate(specs):
        vendor_reports = []
        for start in range(0, spec.population, FLEET_CHUNK):
            vendor_reports.extend(chunks[(position, start)])
        result.reports[spec.name] = vendor_reports
    return result


def _run_fleet_dedup(
    specs: Sequence[VendorSpec],
    seed: int,
    progress: Optional[Callable[[str, int, int], None]],
    effective: int,
    store: Optional[ResultCache],
    _runner: Callable[[VendorSpec, int, int, int], List[NatCheckReport]],
) -> FleetResult:
    """The cached path: one simulation per distinct fingerprint, then clone."""
    plan, representatives = _plan_fleet(specs, seed)
    total = sum(spec.population for spec in specs)
    stats = FleetCacheStats(
        enabled=True,
        persistent=store is not None,
        devices=total,
        distinct_fingerprints=len(representatives),
    )

    # Resolve each distinct fingerprint: persistent store first, then a
    # simulation of the representative device.
    reports_by_fp: Dict[str, NatCheckReport] = {}
    todo: List[Tuple[int, int, Fingerprint]] = []
    if store is not None:
        before = store.stats()
    for full, (position, index, fingerprint) in representatives.items():
        record = store.get(fingerprint) if store is not None else None
        if record is not None:
            reports_by_fp[full] = NatCheckReport.from_dict(record["report"])
        else:
            todo.append((position, index, fingerprint))
    if store is not None:
        after = store.stats()
        stats.disk_hits = after["hits"] - before["hits"]
        stats.disk_misses = after["misses"] - before["misses"]
        stats.invalidations = after["invalidations"] - before["invalidations"]

    if todo:
        if effective == 1 or len(todo) == 1:
            for position, index, fingerprint in todo:
                reports_by_fp[fingerprint.full] = _runner(
                    specs[position], seed, index, index + 1
                )[0]
        else:
            jobs = [
                (fingerprint.full, specs[position], index, index + 1)
                for position, index, fingerprint in todo
            ]
            for full, reports in _fan_out(jobs, seed, effective, _runner):
                reports_by_fp[full] = reports[0]
        if store is not None:
            stores_before = store.stores
            for position, index, fingerprint in todo:
                store.put(
                    fingerprint,
                    reports_by_fp[fingerprint.full].to_dict(),
                    meta={"vendor": specs[position].name, "index": index},
                )
            stats.stores = store.stores - stores_before
    stats.simulated = len(todo)
    stats.dedup_clones = total - len(representatives)

    result = FleetResult(cache=stats)
    for position, spec in enumerate(specs):
        row = plan[position]
        prefix = spec.name + "-"
        population = spec.population
        vendor_reports = [
            _clone_report(reports_by_fp[row[index].full], spec.name, prefix + str(index))
            for index in range(population)
        ]
        result.reports[spec.name] = vendor_reports
        if progress is not None:
            progress(spec.name, population, population)
    return result


def run_fleet(
    specs: Tuple[VendorSpec, ...] = VENDOR_SPECS,
    seed: int = 0,
    progress: Optional[Callable[[str, int, int], None]] = None,
    workers: Optional[int] = None,
    cache: Union[bool, None, ResultCache] = True,
    metrics: Optional[MetricsRegistry] = None,
    _runner: Callable[[VendorSpec, int, int, int], List[NatCheckReport]] = _check_range,
) -> FleetResult:
    """Run NAT Check against the whole synthetic fleet (Table 1's workload).

    The *cache* knob controls the behavioral-fingerprint layer:

    * ``True`` (default) — in-run dedup **and** the persistent on-disk store
      (``$REPRO_CACHE_DIR`` / ``~/.cache/repro``): devices with identical
      fingerprints are simulated once and their reports cloned with the
      identity fields rewritten, and distinct results persist across runs;
    * a :class:`~repro.cache.ResultCache` — dedup plus that specific store;
    * ``None`` — in-run dedup only, nothing touches disk;
    * ``False`` — the ``--no-cache`` path: every device simulated
      individually (the soundness baseline the tier-1 cache tests compare
      against).

    All paths derive each simulation's seed from the device's behavioral
    fingerprint, so the cached and uncached paths produce field-for-field
    identical :class:`FleetResult`\\ s, in the same order.

    With ``workers > 1`` (or ``REPRO_FLEET_WORKERS`` set) simulations fan
    out over a :class:`~concurrent.futures.ProcessPoolExecutor` — vendor-
    sliced chunks when uncached, one task per distinct fingerprint when
    dedup'd — with identical results either way.  *progress* always runs in
    the calling process; a worker exception propagates to the caller after
    cancelling the remaining tasks.  When *metrics* is given, the run's
    cache counters are published as ``fleet.cache.*``.
    """
    effective = resolve_workers(workers)
    if cache is False:
        result = _run_fleet_nocache(specs, seed, progress, effective, _runner)
        result.cache = FleetCacheStats(
            enabled=False,
            devices=result.total_devices,
            simulated=result.total_devices,
        )
    else:
        if isinstance(cache, ResultCache):
            store: Optional[ResultCache] = cache
        elif cache is True:
            store = ResultCache()
        else:
            store = None
        result = _run_fleet_dedup(specs, seed, progress, effective, store, _runner)
    if metrics is not None and result.cache is not None:
        result.cache.publish(metrics)
    return result


# -- Monte-Carlo parameterized populations ------------------------------------
#
# Table 1 measures punch success over the *observed* 2004 vendor mix.  The
# Monte-Carlo mode asks the generalized question: over the NAT *design
# space* — every combination of the behaviour axes, sampled uniformly —
# what fraction of devices supports each hole-punching technique?  Each
# sampled device runs the real NAT Check protocol (the same packet-level
# measurement as the fleet); the fingerprint dedup makes the sweep cheap,
# because the sampled space is finite and the same combination is only ever
# simulated once.

#: The axis options a Monte-Carlo device draws from, one uniform choice per
#: axis.  ``tcp_mapping=None`` means "inherit the UDP mapping policy" —
#: included so single-table NATs (the common implementation) appear in the
#: population alongside split-table ones.
MONTE_CARLO_AXES: Dict[str, Tuple[object, ...]] = {
    "mapping": tuple(MappingPolicy),
    "filtering": tuple(FilteringPolicy),
    "tcp_mapping": (None,) + tuple(MappingPolicy),
    "tcp_refusal": tuple(TcpRefusalPolicy),
    "hairpin_udp": (False, True),
    "hairpin_tcp": (False, True),
}

#: Number of distinct devices the axes can express.
MONTE_CARLO_SPACE = math.prod(len(options) for options in MONTE_CARLO_AXES.values())


def sample_behavior(rng: SeededRng) -> NatBehavior:
    """Draw one NAT design uniformly from :data:`MONTE_CARLO_AXES`.

    The axes are drawn in the fixed dict order above, one ``rng.choice``
    each, so a given rng stream always reproduces the same device sequence.
    """
    draws = {axis: rng.choice(options) for axis, options in MONTE_CARLO_AXES.items()}
    return NatBehavior(**draws)


def wilson_interval(
    successes: int, trials: int, z: float = 1.96
) -> Tuple[float, float]:
    """Wilson score confidence interval for a binomial proportion.

    Preferred over the normal approximation because punch-success rates sit
    near the extremes (a symmetric-heavy draw can yield rates near 0), where
    the Wald interval collapses or escapes [0, 1].  ``trials == 0`` returns
    the vacuous (0, 1) interval.
    """
    if trials <= 0:
        return (0.0, 1.0)
    phat = successes / trials
    z2 = z * z
    denominator = 1.0 + z2 / trials
    centre = phat + z2 / (2.0 * trials)
    margin = z * math.sqrt(
        phat * (1.0 - phat) / trials + z2 / (4.0 * trials * trials)
    )
    return (
        max(0.0, (centre - margin) / denominator),
        min(1.0, (centre + margin) / denominator),
    )


@dataclass
class MonteCarloColumn:
    """One punch-technique column of the Monte-Carlo survey."""

    successes: int = 0
    trials: int = 0

    def add(self, outcome: Optional[bool], weight: int) -> None:
        if outcome is None:
            return
        self.trials += weight
        if outcome:
            self.successes += weight

    def to_dict(self) -> Dict[str, object]:
        low, high = wilson_interval(self.successes, self.trials)
        return {
            "successes": self.successes,
            "trials": self.trials,
            "rate": self.successes / self.trials if self.trials else 0.0,
            "ci95": [low, high],
        }


#: Punch-technique columns every Monte-Carlo survey reports, mapped to the
#: :class:`~repro.natcheck.classify.NatCheckReport` field holding the outcome.
MONTE_CARLO_COLUMNS: Tuple[Tuple[str, str], ...] = (
    ("udp", "udp_punch_ok"),
    ("udp_hairpin", "udp_hairpin"),
    ("tcp", "tcp_punch_ok"),
    ("tcp_hairpin", "tcp_hairpin"),
)

_Columns = Dict[str, MonteCarloColumn]


def _fresh_columns() -> _Columns:
    return {name: MonteCarloColumn() for name, _ in MONTE_CARLO_COLUMNS}


def _columns_record(columns: _Columns) -> Dict[str, object]:
    return {name: column.to_dict() for name, column in columns.items()}


def _survey_designs(
    designs: Iterable[Tuple[NatBehavior, int]],
    seed: int,
    config: Optional[NatCheckConfig],
    also_into: Optional[Callable[[NatBehavior], Iterable[_Columns]]] = None,
) -> Dict[str, object]:
    """The Monte-Carlo engine both survey modes feed.

    Takes ``(design, weight)`` pairs, simulates each distinct behavioral
    fingerprint once with the full NAT Check protocol (*config* None = every
    probe: hairpin + TCP) and adds every design's outcomes, weighted, into
    the overall columns — and into whatever extra column sets
    ``also_into(design)`` names (the stratified mode's sensitivity buckets).
    Returns the record tail: ``distinct_designs`` (the number of simulations
    actually run) and the ``columns`` table.
    """
    if config is None:
        config = NatCheckConfig(
            run_udp_hairpin=True, run_tcp=True, run_tcp_hairpin=True
        )
    columns = _fresh_columns()
    reports: Dict[str, NatCheckReport] = {}
    for behavior, weight in designs:
        fingerprint = device_fingerprint(behavior, config, seed)
        report = reports.get(fingerprint.full)
        if report is None:
            report = check_device(behavior, config, seed=fingerprint.seed)
            reports[fingerprint.full] = report
        targets = [columns, *also_into(behavior)] if also_into else [columns]
        for name, field_name in MONTE_CARLO_COLUMNS:
            outcome = getattr(report, field_name)
            for target in targets:
                target[name].add(outcome, weight)
    return {
        "distinct_designs": len(reports),
        "columns": _columns_record(columns),
    }


def run_monte_carlo(
    samples: int = 1500,
    seed: int = 0,
    config: Optional[NatCheckConfig] = None,
) -> Dict[str, object]:
    """Survey punch success over a uniformly sampled NAT design space.

    Draws *samples* devices via :func:`sample_behavior` (stream
    ``SeededRng(seed, "monte-carlo")``) and feeds them, weight one each, to
    :func:`_survey_designs`, which dedups them by behavioral fingerprint —
    the sample space holds :data:`MONTE_CARLO_SPACE` distinct designs, so a
    large draw repeats combinations — and simulates each distinct design
    once.

    Returns a record with, per Table 1 column, the weighted success count,
    trial count, success rate, and 95% Wilson confidence interval, plus the
    dedup accounting (``distinct_designs`` is the number of simulations the
    sweep actually ran).
    """
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    rng = SeededRng(seed, "monte-carlo")
    designs = ((sample_behavior(rng), 1) for _ in range(samples))
    return {
        "samples": samples,
        "seed": seed,
        "space_size": MONTE_CARLO_SPACE,
        **_survey_designs(designs, seed, config),
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


def run_monte_carlo_stratified(
    samples: int = 1_000_000,
    seed: int = 0,
    config: Optional[NatCheckConfig] = None,
    strata_limit: Optional[int] = None,
) -> Dict[str, object]:
    """Stratified Monte-Carlo survey with per-axis sensitivity reports.

    Where :func:`run_monte_carlo` draws designs uniformly — so rare corners
    of the space may be missed entirely at small sample counts — this sweep
    treats every cell of the :data:`MONTE_CARLO_AXES` cross product
    (:data:`MONTE_CARLO_SPACE` cells) as a stratum: each cell receives
    ``samples // cells`` draws, and the remainder is spread over distinct
    cells chosen by the seeded stream ``SeededRng(seed, "monte-carlo/
    strata")``.  Every populated cell is simulated at most once (cells that
    alias to the same behavioral fingerprint — e.g. ``tcp_mapping=None``
    against the explicit same policy — share one simulation), so a
    million-sample survey costs at most :data:`MONTE_CARLO_SPACE`
    ``check_device`` runs; the sample count only sharpens the weights.

    Besides the overall per-technique columns, the record carries a
    ``sensitivity`` table: per axis, per option, the weighted success rate
    and 95% Wilson CI of each technique over all strata holding that option
    fixed — i.e. how much each behavioral axis moves hole-punch success.

    Args:
        samples: total draws to allocate across strata.
        seed: stream seed (also mixed into each design's simulation seed).
        config: probe plan; defaults to the full protocol (hairpin + TCP).
        strata_limit: cap the sweep to the first N cells in axis product
            order — the CI smoke knob; None sweeps the full space.
    """
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    if strata_limit is not None and strata_limit < 1:
        raise ValueError(f"strata_limit must be >= 1, got {strata_limit}")
    axis_names = tuple(MONTE_CARLO_AXES)
    cells = list(itertools.product(*MONTE_CARLO_AXES.values()))
    if strata_limit is not None:
        cells = cells[:strata_limit]
    allocation = [samples // len(cells)] * len(cells)
    remainder = samples - allocation[0] * len(cells)
    if remainder:
        rng = SeededRng(seed, "monte-carlo/strata")
        for index in rng.sample(range(len(cells)), remainder):
            allocation[index] += 1

    sensitivity: Dict[str, Dict[str, _Columns]] = {
        axis: {_option_key(option): _fresh_columns() for option in options}
        for axis, options in MONTE_CARLO_AXES.items()
    }
    designs = [
        (NatBehavior(**dict(zip(axis_names, assignment))), weight)
        for assignment, weight in zip(cells, allocation)
        if weight
    ]

    def buckets_of(behavior: NatBehavior) -> Iterable[_Columns]:
        return (
            sensitivity[axis][_option_key(getattr(behavior, axis))]
            for axis in axis_names
        )

    return {
        "samples": samples,
        "seed": seed,
        "space_size": MONTE_CARLO_SPACE,
        "strata": len(cells),
        "strata_populated": len(designs),
        "strata_limit": strata_limit,
        **_survey_designs(designs, seed, config, also_into=buckets_of),
        "sensitivity": {
            axis: {
                option: _columns_record(buckets)
                for option, buckets in options.items()
            }
            for axis, options in sensitivity.items()
        },
    }
