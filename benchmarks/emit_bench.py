"""Emit the repo's benchmark records (``BENCH_obs.json``, ``BENCH_perf.json``).

Each bench suite registers an emitter with :func:`emitter`; one invocation
measures every suite and writes every record, so perf PRs always refresh the
full baseline set in a single run.  Shared measurements (scheduler event
throughput, NAT echo throughput) are memoised on the :class:`BenchContext`
so suites that report the same number never pay for it twice.

Records:

``BENCH_obs.json``
    The observability-era record: RunProfiler dumps for the scheduler and
    NAT-echo workloads, the uncached Table 1 fleet wall time, and the
    ``obs_overhead`` flight-recorder cost record (attached vs detached NAT
    packet path; the detached path must stay within 2% of the
    ``nat_packets_per_second`` workload).

``BENCH_perf.json``
    The perf-overhaul record: scheduler events/s, NAT packets/s, the
    uncached Table 1 fleet wall time (the same measurement as
    ``BENCH_obs.json``'s, taken once per run), the ``adversarial`` record
    (forged packet injection rate plus the robustness sweep's hardening
    verdicts),
    the ``rendezvous_scale`` record (the sharded registration plane at
    10k/100k/1M peers vs a per-peer-timer baseline, plus the untimed
    ``table_bytes_per_registration`` / ``wheel_bytes_per_registrant``
    footprint ``check_regression.py`` holds to 10 %; see
    ``rendezvous_scale.py``), and the ``cold_start`` record (per entry point,
    the ``repro`` modules a fresh interpreter loads — an exact count, which
    ``check_regression.py`` refuses to let rise — and the import wall time,
    informational).

Run:  PYTHONPATH=src python benchmarks/emit_bench.py [--quick] [--only NAME]
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from typing import Callable, Dict

from repro.nat import behavior as B
from repro.nat.device import NatDevice
from repro.natcheck.fleet import VENDOR_SPECS, run_fleet
from repro.netsim.addresses import Endpoint
from repro.netsim.clock import Scheduler
from repro.netsim.link import LAN_LINK
from repro.netsim.network import Network
from repro.obs.profile import RunProfiler
from repro.transport.stack import attach_stack

BENCH_EMITTERS: Dict[str, Callable[["BenchContext"], dict]] = {}


def emitter(filename: str):
    """Register a bench-suite emitter under its output filename."""

    def register(fn: Callable[["BenchContext"], dict]):
        BENCH_EMITTERS[filename] = fn
        return fn

    return register


class BenchContext:
    """Memoises measurements shared between emitters (run once, report twice)."""

    def __init__(self, quick: bool = False) -> None:
        self.quick = quick
        self._cache: Dict[str, object] = {}

    def get(self, name: str, measure: Callable[[], object]):
        if name not in self._cache:
            self._cache[name] = measure()
        return self._cache[name]


# -- workloads ---------------------------------------------------------------

#: Minimum untimed work (wall seconds) a hot-path benchmark runs before its
#: measured rounds start.  A cold interpreter under-reports steady-state
#: throughput by ~25% on this workload (adaptive-interpreter specialisation,
#: allocator and packet-pool growth, CPU frequency ramp), and a single
#: fixed warmup round (~40 ms) does not cover the ramp.
_WARMUP_SECONDS = 0.5


@contextlib.contextmanager
def quiesced_gc():
    """Suspend the cyclic collector around a timed window (the stdlib
    ``timeit`` convention): collection pauses otherwise land at arbitrary
    points inside runs and cost the packet benches up to ~15% of their
    measured rate, all of it noise rather than workload."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def bench_scheduler(events: int = 50_000) -> dict:
    """Self-rescheduling timer chain: pure heap push/pop throughput."""
    scheduler = Scheduler()
    count = {"n": 0}

    def tick() -> None:
        count["n"] += 1
        if count["n"] < events:
            scheduler.call_later(0.001, tick)

    scheduler.call_later(0.0, tick)
    with quiesced_gc(), RunProfiler(scheduler=scheduler) as prof:
        scheduler.run(max_events=events * 2)
    assert count["n"] == events
    return prof.to_dict()


def bench_packets(packets: int = 5_000, rounds: int = 5) -> dict:
    """UDP echo round trips through one NAT: link + NAT + stack hot paths.

    Best-of-N (same defence against machine-load spikes as
    :func:`bench_obs_overhead`): each round builds a fresh topology, and the
    round with the highest packet rate is the one reported.  Warmup rounds
    are untimed and run until at least ``_WARMUP_SECONDS`` of work has
    elapsed — in a cold process the first few hundred milliseconds pay
    one-time costs (bytecode specialisation, allocator and packet-pool
    growth, CPU frequency ramp) that are not the workload's steady state.
    """
    best = None
    warmed = 0.0
    measured = 0
    while True:
        net = Network(seed=1)
        backbone = net.create_link("backbone")
        server = net.add_host(
            "S", ip="18.181.0.31", network="0.0.0.0/0", link=backbone
        )
        attach_stack(server)
        nat = NatDevice("NAT", net.scheduler, B.WELL_BEHAVED, rng=net.rng.child("n"))
        net.add_node(nat)
        nat.set_wan("155.99.25.11", "0.0.0.0/0", backbone)
        lan = net.create_link("lan", LAN_LINK)
        nat.add_lan("10.0.0.254", "10.0.0.0/24", lan)
        client = net.add_host(
            "C", ip="10.0.0.1", network="10.0.0.0/24", link=lan, gateway="10.0.0.254"
        )
        attach_stack(client)
        echo = server.stack.udp.socket(1234)
        # Bound method, not a lambda: sendto(payload, dest) already has the
        # echo handler's (payload, src) signature, and the wrapper frame is
        # one call per server packet.
        echo.on_datagram = echo.sendto
        received = []
        sock = client.stack.udp.socket(4321)
        sock.on_datagram = lambda d, src: received.append(d)
        dest = Endpoint("18.181.0.31", 1234)
        payload = b"x" * 32
        for _ in range(packets):
            sock.sendto(payload, dest)
        with quiesced_gc(), RunProfiler(network=net) as prof:
            net.run_until(30.0)
        assert len(received) == packets
        result = prof.to_dict()
        if warmed < _WARMUP_SECONDS:
            warmed += result["wall_seconds"]
            continue  # warmup round: measured but never reported
        if best is None or result["packets_per_second"] > best["packets_per_second"]:
            best = result
        measured += 1
        if measured >= rounds:
            return best


def _echo_throughput(packets: int, flight: bool) -> float:
    """Raw link-level packets/s of the bench_packets echo topology, with or
    without a flight recorder attached (no profiler — only the workload is
    timed; the packet count matches ``RunProfiler.packets_per_second``'s
    definition so the two rates compare directly)."""
    net = Network(seed=1)
    if flight:
        net.attach_flight()
    backbone = net.create_link("backbone")
    server = net.add_host("S", ip="18.181.0.31", network="0.0.0.0/0", link=backbone)
    attach_stack(server)
    nat = NatDevice("NAT", net.scheduler, B.WELL_BEHAVED, rng=net.rng.child("n"))
    net.add_node(nat)
    nat.set_wan("155.99.25.11", "0.0.0.0/0", backbone)
    lan = net.create_link("lan", LAN_LINK)
    nat.add_lan("10.0.0.254", "10.0.0.0/24", lan)
    client = net.add_host(
        "C", ip="10.0.0.1", network="10.0.0.0/24", link=lan, gateway="10.0.0.254"
    )
    attach_stack(client)
    echo = server.stack.udp.socket(1234)
    echo.on_datagram = echo.sendto  # bound method: same signature, no wrapper frame
    received = []
    sock = client.stack.udp.socket(4321)
    sock.on_datagram = lambda d, src: received.append(d)
    dest = Endpoint("18.181.0.31", 1234)
    payload = b"x" * 32
    for _ in range(packets):
        sock.sendto(payload, dest)
    with quiesced_gc():
        started = time.perf_counter()
        net.run_until(30.0)
        wall = time.perf_counter() - started
    assert len(received) == packets
    return net.total_packets_sent() / wall if wall > 0 else 0.0


def bench_batched_delivery(packets: int = 10_000, rounds: int = 3) -> dict:
    """Batched-link throughput: one link, two hosts, a one-tick burst.

    Every datagram is sent at t=0, so the whole burst coalesces into one
    delivery batch per link and the measurement isolates ``sendto`` +
    ``Link.transmit`` append + scheduler drain + ``receive`` demux — no
    NAT, no routing beyond the on-link next hop.  The send loop is inside
    the timed window: a design that moves work from fire time to transmit
    time must pay for it here.  Best-of-N with an untimed warmup round, as
    in :func:`bench_packets`.
    """
    best = 0.0
    for attempt in range(rounds + 1):
        net = Network(seed=1)
        wire = net.create_link("wire", LAN_LINK)
        sender = net.add_host("A", ip="10.0.0.1", network="10.0.0.0/24", link=wire)
        attach_stack(sender)
        receiver = net.add_host("B", ip="10.0.0.2", network="10.0.0.0/24", link=wire)
        attach_stack(receiver)
        received = []
        sink = receiver.stack.udp.socket(1234)
        sink.on_datagram = lambda d, src: received.append(d)
        sock = sender.stack.udp.socket(4321)
        dest = Endpoint("10.0.0.2", 1234)
        payload = b"x" * 32
        with quiesced_gc():
            started = time.perf_counter()
            for _ in range(packets):
                sock.sendto(payload, dest)
            net.run_until(1.0)
            wall = time.perf_counter() - started
        assert len(received) == packets
        if attempt > 0 and wall > 0:
            best = max(best, packets / wall)
    return {"packets": packets, "rounds": rounds, "packets_per_second": best}


def bench_obs_overhead(
    ctx: "BenchContext", packets: int = 5_000, rounds: int = 3
) -> dict:
    """Flight-recorder cost on the NAT packet hot path.

    Interleaved best-of-N: the detached and attached runs alternate so a
    machine-load spike cannot bias one side, and each side reports its best
    round (the standard defence against scheduler noise).  The acceptance
    bar is that the *detached* path — the ``is not None`` guards every
    packet now crosses — costs under 2% against the PR 5
    ``nat_packets_per_second`` workload measured in this same process.
    """
    detached = attached = 0.0
    for _ in range(rounds):
        detached = max(detached, _echo_throughput(packets, flight=False))
        attached = max(attached, _echo_throughput(packets, flight=True))
    baseline = ctx.get("nat_udp_echo", bench_packets)["packets_per_second"]
    ratio = detached / baseline if baseline > 0 else 0.0
    assert ratio >= 0.98, (
        f"flight-recorder guards slowed the detached NAT packet path by "
        f"{(1 - ratio) * 100:.1f}% (>2%) vs nat_packets_per_second"
    )
    return {
        "packets": packets,
        "rounds": rounds,
        "detached_packets_per_second": detached,
        "attached_packets_per_second": attached,
        "attached_overhead_pct": (
            100.0 * (1.0 - attached / detached) if detached > 0 else 0.0
        ),
        "baseline_packets_per_second": baseline,
        "detached_vs_baseline": ratio,
    }


def bench_fleet(ctx: "BenchContext") -> dict:
    """Wall time of the uncached Table 1 fleet — the raw-simulation
    baseline the dedup speedup is measured against."""
    specs = VENDOR_SPECS[:2] if ctx.quick else VENDOR_SPECS
    started = time.perf_counter()
    fleet = run_fleet(specs=specs, seed=42, cache=False)
    wall = time.perf_counter() - started
    return {
        "wall_seconds": wall,
        "devices": fleet.total_devices,
        "devices_per_second": fleet.total_devices / wall if wall > 0 else 0.0,
        "quick": ctx.quick,
    }


def bench_adversarial(quick: bool = False) -> dict:
    """Attack-injection throughput plus the robustness sweep's headline.

    Two numbers: how fast the adversary layer can push forged packets
    through a live NAT topology (wall-clock injection rate of an
    :class:`~repro.netsim.adversary.ExhaustionFlood` against a quota-hardened
    device), and the punch-success rates of the robustness report's quick
    behaviour subset in all three modes.  The report half is a correctness
    canary more than a timing: ``hardening_holds`` flipping false in a bench
    run means an adversarial regression even if every throughput gate passes.
    """
    from repro.analysis.robustness import run_robustness
    from repro.nat.behavior import FULL_CONE, SYMMETRIC
    from repro.netsim.adversary import ExhaustionFlood, attach_lan_attacker
    from repro.scenarios.topologies import build_two_nats

    behavior = SYMMETRIC.but(table_capacity=192, max_mappings_per_host=64)
    sc = build_two_nats(seed=42, behavior_a=behavior, behavior_b=FULL_CONE)
    mole = attach_lan_attacker(sc.net, sc.nats["A"])
    attacker = ExhaustionFlood(
        sc.net, host=mole, nat=sc.nats["A"], name="flood", interval=0.01, burst=64
    )
    attacker.start()
    with quiesced_gc():
        started = time.perf_counter()
        sc.net.scheduler.run_until(10.0)
        wall = time.perf_counter() - started
    attacker.stop()
    injection_rate = attacker.packets_sent / wall if wall > 0 else 0.0

    started = time.perf_counter()
    report = run_robustness(seed=42, quick=True)
    report_wall = time.perf_counter() - started
    families = {}
    for family in ("exhaustion-flood", "spoofed-rst", "port-prediction"):
        families[family] = {
            mode: report.cell(family, mode).punch_rate
            for mode in ("baseline", "attacked", "hardened")
        }
        families[family]["hardening_holds"] = report.hardening_wins(family)
    return {
        "attack_packets_per_second": injection_rate,
        "attack_packets": attacker.packets_sent,
        "robustness_devices": report.devices,
        "robustness_wall_seconds": report_wall,
        "families": families,
        "quick": quick,
    }


# -- emitters ----------------------------------------------------------------


def _environment() -> dict:
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count() or 1,
    }


@emitter("BENCH_obs.json")
def emit_obs(ctx: BenchContext) -> dict:
    record = dict(_environment())
    record.pop("cpu_count")  # keep the historical BENCH_obs shape
    record["scheduler"] = ctx.get("scheduler", bench_scheduler)
    record["nat_udp_echo"] = ctx.get("nat_udp_echo", bench_packets)
    record["table1_fleet"] = ctx.get("table1_fleet", lambda: bench_fleet(ctx))
    record["obs_overhead"] = ctx.get(
        "obs_overhead", lambda: bench_obs_overhead(ctx)
    )
    return record


@emitter("BENCH_perf.json")
def emit_perf(ctx: BenchContext) -> dict:
    scheduler = ctx.get("scheduler", bench_scheduler)
    echo = ctx.get("nat_udp_echo", bench_packets)
    record = dict(_environment())
    record["scheduler_events_per_second"] = scheduler["events_per_second"]
    record["nat_packets_per_second"] = echo["packets_per_second"]
    # Link-level view of the same echo workload: every wire hop counted
    # (4 per round trip vs the 3 application-level packets above), no
    # profiler in the loop.
    record["nat_link_packets_per_second"] = ctx.get(
        "nat_link", lambda: max(_echo_throughput(5_000, flight=False) for _ in range(3))
    )
    record["batched_delivery"] = ctx.get("batched_delivery", bench_batched_delivery)
    record["table1_fleet"] = ctx.get("table1_fleet", lambda: bench_fleet(ctx))
    record["adversarial"] = ctx.get(
        "adversarial", lambda: bench_adversarial(quick=ctx.quick)
    )
    record["rendezvous_scale"] = ctx.get(
        "rendezvous_scale", lambda: bench_rendezvous_subprocess(quick=ctx.quick)
    )
    record["cold_start"] = ctx.get("cold_start", bench_cold_start)
    return record


def bench_rendezvous_subprocess(quick: bool = False) -> dict:
    """Run the rendezvous scale bench in a fresh interpreter.

    The workload is memory-layout sensitive: a million slotted registration
    objects measured after the fleet and the adversarial sweep have churned
    this process's arenas read systematically slower than the same code on
    a clean heap — which is how CI's ``rendezvous-scale`` job and the
    standalone CLI run it.  Process isolation keeps the committed record
    comparable to both, and keeps the 1M-peer churn from contaminating the
    gated packet benches in this process.
    """
    script = os.path.join(
        os.path.dirname(os.path.abspath(__file__)), "rendezvous_scale.py"
    )
    cmd = [sys.executable, script]
    if quick:
        cmd.append("--quick")
    result = subprocess.run(cmd, check=True, capture_output=True, text=True)
    return json.loads(result.stdout)


#: Entry point -> the statement a fresh interpreter executes: the package
#: itself, what ``benchmarks/e2e``'s workloads import first (simulator,
#: registry, fleet, scenario builder), and the smallest thing a user runs
#: (``--list`` needs only the behaviour presets).
COLD_START_ENTRY_POINTS = {
    "repro": "import repro",
    "repro.netsim.network": "import repro.netsim.network",
    "repro.core.registry": "import repro.core.registry",
    "repro.natcheck.fleet": "import repro.natcheck.fleet",
    "repro.scenarios.topologies": "import repro.scenarios.topologies",
    "python -m repro.natcheck --list": (
        "import contextlib, io, runpy\n"
        "sys.argv = ['natcheck', '--list']\n"
        "with contextlib.suppress(SystemExit), contextlib.redirect_stdout(io.StringIO()):\n"
        "    runpy.run_module('repro.natcheck', run_name='__main__')"
    ),
}

_COLD_START_SCRIPT = """\
import sys, time
started = time.perf_counter()
{statement}
wall = time.perf_counter() - started
print(sum(1 for name in sys.modules if name.startswith("repro")), wall)
"""


def bench_cold_start(processes: int = 5) -> dict:
    """What each entry point costs a fresh interpreter.

    ``repro_modules`` is exact on any host (the package ``__init__`` files
    export lazily, so it is the entry point's real dependency closure);
    ``import_wall_ms`` is the median over *processes* fresh interpreters and
    is recorded for the reader, not gated.
    """
    record = {}
    for entry_point, statement in COLD_START_ENTRY_POINTS.items():
        script = _COLD_START_SCRIPT.format(statement=statement)
        counts, walls = set(), []
        for _ in range(processes):
            done = subprocess.run(
                [sys.executable, "-c", script], check=True, capture_output=True, text=True
            )
            count, wall = done.stdout.split()
            counts.add(int(count))
            walls.append(float(wall))
        if len(counts) != 1:
            raise RuntimeError(f"{entry_point}: module count varies between runs: {counts}")
        record[entry_point] = {
            "repro_modules": counts.pop(),
            "import_wall_ms": 1000.0 * statistics.median(walls),
        }
    return record


# -- driver ------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="fleet benches use only the first two vendors")
    parser.add_argument("--only", action="append", default=None,
                        metavar="NAME", choices=sorted(BENCH_EMITTERS),
                        help="emit only the named record (repeatable)")
    parser.add_argument("--out-dir", default=".",
                        help="directory the records are written into")
    parser.add_argument("--profile", metavar="PATH", default=None,
                        help="dump a cProfile of the NAT echo loop to PATH "
                             "(pstats format; load with pstats.Stats)")
    args = parser.parse_args(argv)
    selected = args.only or sorted(BENCH_EMITTERS)
    os.makedirs(args.out_dir, exist_ok=True)
    ctx = BenchContext(quick=args.quick)
    for filename in selected:
        record = BENCH_EMITTERS[filename](ctx)
        path = os.path.join(args.out_dir, filename)
        with open(path, "w") as fh:
            json.dump(record, fh, indent=2)
            fh.write("\n")
        print(f"wrote {path}")
    if "BENCH_perf.json" in selected:
        perf = BENCH_EMITTERS["BENCH_perf.json"](ctx)
        fleet = perf["table1_fleet"]
        print(f"  scheduler: {perf['scheduler_events_per_second']:,.0f} events/s")
        print(f"  nat echo:  {perf['nat_packets_per_second']:,.0f} packets/s")
        print("  fleet:     {devices} devices in {wall_seconds:.2f}s".format(**fleet))
        adv = perf["adversarial"]
        holds = all(f["hardening_holds"] for f in adv["families"].values())
        print(
            "  adversarial: {rate:,.0f} forged packets/s; robustness "
            "({devices} devices) hardening {verdict}".format(
                rate=adv["attack_packets_per_second"],
                devices=adv["robustness_devices"],
                verdict="holds" if holds else "REGRESSED",
            )
        )
        rdv = perf["rendezvous_scale"]
        print(
            "  rendezvous: {live:,} live registrations max; "
            "{rate:,.0f} registrations/s, lookup p95 {p95:.2f}us, "
            "x{speedup:.1f} vs per-peer timers; {table:.0f} B table + "
            "{wheel:.0f} B wheel per peer".format(
                live=rdv["max_live_registrations"],
                rate=rdv["registrations_per_second"],
                p95=rdv["lookup_p95_us"],
                speedup=rdv["speedup_vs_timer_baseline"],
                table=rdv["table_bytes_per_registration"],
                wheel=rdv["wheel_bytes_per_registrant"],
            )
        )
        cold = perf["cold_start"]
        print("  cold start: " + "; ".join(
            f"{name} {cell['repro_modules']} modules {cell['import_wall_ms']:.0f} ms"
            for name, cell in cold.items()
        ))
    if args.profile:
        # A separate profiled run, after the records are emitted, so the
        # profiler's ~4x call overhead never contaminates a recorded number.
        import cProfile

        profiler = cProfile.Profile()
        profiler.enable()
        bench_packets(rounds=1)
        profiler.disable()
        profiler.dump_stats(args.profile)
        print(f"wrote {args.profile} (cProfile of the NAT echo loop)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
