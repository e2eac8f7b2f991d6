"""Adversarial workloads: attacks, hardening knobs, invariants, report.

Covers :mod:`repro.netsim.adversary` plus the robustness sweep protocols in
:mod:`repro.analysis.robustness`.  Each attack family is validated as a
baseline / attacked / hardened triad: the attack must do real damage to an
unhardened device and the matching hardening axis must take the damage back,
with the failure correctly attributed by :mod:`repro.obs.attribution`.

The ``soak`` marker mirrors the chaos soak: ``ADVERSARIAL_SEED_BASE`` /
``ADVERSARIAL_SEED_COUNT`` env vars drive a randomized-seed sweep that
asserts the bounded-state and no-cross-peer-leak invariants under flood
(run with ``-m soak``).
"""

import os

import pytest

from repro.analysis.robustness import (
    _run_exhaustion,
    _run_port_prediction,
    _run_spoofed_rst,
    run_robustness,
)
from repro.core.udp_punch import PunchConfig
from repro.nat.behavior import FULL_CONE, SYMMETRIC, WELL_BEHAVED
from repro.nat.mapping import QuotaExceeded, TableExhausted
from repro.nat.policy import MappingPolicy
from repro.natcheck.client import NatCheckConfig
from repro.natcheck.fleet import VENDOR_SPECS, device_behavior, plan_runs
from repro.netsim.adversary import (
    ExhaustionFlood,
    SpoofedRstInjector,
    attach_lan_attacker,
    attach_wan_attacker,
)
from repro.netsim.addresses import IPv4Address
from repro.netsim.faults import FaultPlan
from repro.scenarios.topologies import build_two_nats

from tests.chaos import LeakProbe, check_invariants

SEED = 424242


# ---------------------------------------------------------------------------
# Attack triads: baseline works, attack breaks it, hardening takes it back
# ---------------------------------------------------------------------------


class TestExhaustionFloodTriad:
    def test_baseline_punches_and_survives(self):
        result = _run_exhaustion(SYMMETRIC, "baseline", SEED)
        assert result.punch_ok
        assert result.survived

    def test_attacked_is_starved_and_attributed(self):
        result = _run_exhaustion(SYMMETRIC, "attacked", SEED)
        assert not result.punch_ok
        assert result.verdict == "mapping-exhausted"

    def test_hardened_quota_restores_the_punch(self):
        result = _run_exhaustion(SYMMETRIC, "hardened", SEED)
        assert result.punch_ok
        assert result.survived


class TestSpoofedRstTriad:
    def test_baseline_stream_survives_observation(self):
        result = _run_spoofed_rst(WELL_BEHAVED, "baseline", SEED)
        assert result.punch_ok
        assert result.survived

    def test_attacked_stream_dies_by_spoofed_reset(self):
        result = _run_spoofed_rst(WELL_BEHAVED, "attacked", SEED)
        assert result.punch_ok  # the punch itself is untouched
        assert result.survived is False
        assert result.verdict == "spoofed-reset"

    def test_hardened_validation_shrugs_off_the_sweep(self):
        result = _run_spoofed_rst(WELL_BEHAVED, "hardened", SEED)
        assert result.punch_ok
        assert result.survived


class TestPortPredictionTriad:
    def test_baseline_prediction_lands(self):
        result = _run_port_prediction(SYMMETRIC, "baseline", SEED)
        assert result.punch_ok

    def test_racer_slides_the_allocator_past_the_window(self):
        result = _run_port_prediction(SYMMETRIC, "attacked", SEED)
        assert not result.punch_ok
        assert result.verdict == "symmetric-mapping-mismatch"

    def test_quota_freezes_the_allocator_for_the_racer(self):
        result = _run_port_prediction(SYMMETRIC, "hardened", SEED)
        assert result.punch_ok


# ---------------------------------------------------------------------------
# Attacker lifecycle and fault-plan composition
# ---------------------------------------------------------------------------


def _flood_scenario(seed, capacity=64, quota=None):
    behavior = SYMMETRIC.but(table_capacity=capacity, max_mappings_per_host=quota)
    sc = build_two_nats(
        seed=seed, behavior_a=behavior, behavior_b=FULL_CONE, flight=True
    )
    mole = attach_lan_attacker(sc.net, sc.nats["A"])
    attacker = ExhaustionFlood(
        sc.net, host=mole, nat=sc.nats["A"], name="flood", interval=0.05, burst=32
    )
    return sc, attacker


class TestAttackerLifecycle:
    def test_start_stop_idempotent_and_restartable(self):
        sc, attacker = _flood_scenario(seed=SEED + 1)
        sched = sc.net.scheduler
        attacker.start()
        attacker.start()  # no-op
        sched.run_until(sched.now + 1.0)
        first = attacker.packets_sent
        assert first > 0
        attacker.stop()
        attacker.stop()  # no-op
        sched.run_until(sched.now + 1.0)
        assert attacker.packets_sent == first  # silent while stopped
        attacker.start()
        sched.run_until(sched.now + 1.0)
        assert attacker.packets_sent > first

    def test_arm_schedules_a_bounded_attack_window(self):
        sc, attacker = _flood_scenario(seed=SEED + 2)
        sched = sc.net.scheduler
        attacker.arm(sched.now + 1.0, duration=2.0)
        sched.run_until(sched.now + 0.5)
        assert not attacker.active
        sched.run_until(sched.now + 1.0)
        assert attacker.active
        sched.run_until(sched.now + 2.5)
        assert not attacker.active
        assert attacker.packets_sent > 0

    def test_fault_plan_drives_attacker_on_and_off(self):
        sc, attacker = _flood_scenario(seed=SEED + 3)
        sched = sc.net.scheduler
        plan = FaultPlan([
            (1.0, "server-revive", "flood"),  # revive == start()
            (3.0, "server-kill", "flood"),  # kill == stop()
        ])
        sc.inject_faults(plan, extra_targets={"flood": attacker})
        sched.run_until(2.0)
        assert attacker.active
        assert attacker.packets_sent > 0
        sched.run_until(3.5)  # the kill has fired by now
        assert not attacker.active
        ceased_at = attacker.packets_sent
        sched.run_until(5.0)
        assert attacker.packets_sent == ceased_at

    def test_bursts_are_metered_and_recorded(self):
        sc, attacker = _flood_scenario(seed=SEED + 4)
        sched = sc.net.scheduler
        attacker.start()
        sched.run_until(sched.now + 1.0)
        attacker.stop()
        counter = sc.net.metrics.counter("attack.bursts", family=attacker.family)
        assert counter.value == attacker.bursts_fired > 0
        bursts = [
            e for e in sc.net.flight.events() if e.kind == "attack"
        ]
        assert len(bursts) == attacker.bursts_fired
        assert all(e.attrs["family"] == "exhaustion-flood" for e in bursts)


# ---------------------------------------------------------------------------
# Invariants under flood (satellite: bounded state + no-cross-peer-leak)
# ---------------------------------------------------------------------------


class TestInvariantsUnderFlood:
    def test_flooded_table_stays_within_declared_capacity(self):
        sc, attacker = _flood_scenario(seed=SEED + 5, capacity=64)
        sched = sc.net.scheduler
        attacker.start()
        sched.run_until(sched.now + 5.0)
        attacker.stop()
        table = sc.nats["A"].table
        assert len(table) <= 64
        assert table.exhaustions > 0  # the flood really hit the wall
        assert check_invariants(sc.net, nats=sc.nats.values()) == []

    def test_quota_bounds_the_attacking_host(self):
        sc, attacker = _flood_scenario(seed=SEED + 6, capacity=64, quota=8)
        sched = sc.net.scheduler
        attacker.start()
        sched.run_until(sched.now + 5.0)
        attacker.stop()
        table = sc.nats["A"].table
        assert len(table._by_host.get(int(IPv4Address("10.0.0.66")), ())) <= 8
        assert table.quota_refusals > 0
        assert check_invariants(sc.net, nats=sc.nats.values()) == []

    def test_capacity_violation_is_reported(self):
        from repro.netsim.addresses import Endpoint
        from repro.netsim.packet import IpProtocol

        sc, _ = _flood_scenario(seed=SEED + 7, capacity=64)
        table = sc.nats["A"].table
        table.create(
            MappingPolicy.ADDRESS_AND_PORT_DEPENDENT,
            IpProtocol.UDP,
            Endpoint("10.0.0.1", 5000),
            Endpoint("203.0.113.9", 9000),
            idle_timeout=30.0,
        )
        # Declared memory shrinks below live state: the checker must flag it.
        table.capacity = 0
        violations = check_invariants(sc.net, nats=sc.nats.values())
        assert any("table unbounded" in v for v in violations)

    def test_leak_probe_feeds_invariant_checker(self):
        sc = build_two_nats(seed=SEED + 8)
        probe = LeakProbe()

        class _FakeSession:
            on_data = None

        session = _FakeSession()
        probe.watch(session, expected_sender=2, label="A<-B")
        session.on_data(LeakProbe.stamp(2, b"hello"))  # legitimate
        session.on_data(LeakProbe.stamp(3, b"evil"))  # cross-peer
        session.on_data(b"raw-attacker-bytes")  # unstamped
        assert probe.payloads_checked == 3
        violations = check_invariants(sc.net, leak_probes=[probe])
        assert len(violations) == 2
        assert all("cross-peer leak on A<-B" in v for v in violations)

    def test_no_leak_across_punched_sessions_under_flood(self):
        # Quota-hardened: the flood is contained, so the table invariant
        # holds while the attacker is still spraying into the session's NAT.
        sc, attacker = _flood_scenario(seed=SEED + 9, capacity=None, quota=64)
        sched = sc.net.scheduler
        sc.register_all_udp()
        sessions = []
        sc.clients["A"].connect_udp(2, on_session=sessions.append)
        sc.wait_for(lambda: bool(sessions), 30.0)
        probe = LeakProbe()
        probe.watch(sessions[0], expected_sender=2, label="A<-B")
        attacker.start()
        # B chats back to A through the punched hole, mid-flood: every
        # payload A's application sees must carry B's stamp.
        sc.wait_for(lambda: sc.clients["B"].sessions.get(1) is not None, 10.0)
        b_session = sc.clients["B"].sessions[1]
        for _ in range(5):
            b_session.send(LeakProbe.stamp(2, b"pong"))
            sched.run_until(sched.now + 0.5)
        attacker.stop()
        assert probe.payloads_checked >= 5
        assert check_invariants(
            sc.net, nats=sc.nats.values(), leak_probes=[probe]
        ) == []


# ---------------------------------------------------------------------------
# Satellite regression: reset() vs stale expiry timers (generation guard)
# ---------------------------------------------------------------------------


class TestResetGenerationGuard:
    def _table(self):
        from repro.nat.mapping import NatTable
        from repro.nat.policy import PortAllocation
        from repro.netsim.clock import Scheduler
        from repro.util.rng import SeededRng

        return NatTable(
            scheduler=Scheduler(),
            public_ip="155.99.25.11",
            allocation=PortAllocation.SEQUENTIAL,
            port_base=62000,
            rng=SeededRng(1, "t"),
        )

    def test_reset_cancels_all_expiry_timers(self):
        from repro.netsim.addresses import Endpoint
        from repro.netsim.packet import IpProtocol

        table = self._table()
        for i in range(5):
            table.create(
                MappingPolicy.ENDPOINT_INDEPENDENT,
                IpProtocol.UDP,
                Endpoint("10.0.0.1", 4000 + i),
                Endpoint("138.76.29.7", 31000),
                idle_timeout=10.0,
            )
        assert len(table._timers) == 5
        table.reset()
        assert len(table._timers) == 0

    def test_leaked_stale_timer_cannot_kill_new_generation_mapping(self):
        """A pre-reset expiry timer that escaped cancellation must no-op.

        Regression for the reset/generation hazard: before the generation
        counter, a timer armed against the old table could fire after a
        reboot and remove a *new* mapping that happened to reuse the key.
        """
        from repro.netsim.addresses import Endpoint
        from repro.netsim.packet import IpProtocol

        table = self._table()
        sched = table.scheduler
        private = Endpoint("10.0.0.1", 4321)
        remote = Endpoint("138.76.29.7", 31000)
        old = table.create(
            MappingPolicy.ENDPOINT_INDEPENDENT,
            IpProtocol.UDP,
            private,
            remote,
            idle_timeout=5.0,
        )
        old_generation = table.generation
        # Simulate the leak: the armed Timer handle escapes _timers, so
        # reset() cannot cancel it and it WILL fire.
        leaked = table._timers.pop(old.key)
        assert leaked is not None
        table.reset()
        renewed = table.create(
            MappingPolicy.ENDPOINT_INDEPENDENT,
            IpProtocol.UDP,
            private,
            remote,
            idle_timeout=120.0,
        )
        assert renewed.key == old.key  # same translation key, new generation
        sched.run_until(sched.now + 10.0)  # stale timer fires in here
        assert table._by_key.get(renewed.key) is renewed  # survived
        # Direct guard checks for both stale-callback paths.
        table._check_expiry(old, 5.0, old_generation)
        table._close_now(old, old_generation)
        assert table._by_key.get(renewed.key) is renewed

    def test_exceptions_expose_refusal_taxonomy(self):
        from repro.netsim.addresses import Endpoint
        from repro.netsim.packet import IpProtocol

        table = self._table()
        table.capacity = 1
        table.create(
            MappingPolicy.ENDPOINT_INDEPENDENT,
            IpProtocol.UDP,
            Endpoint("10.0.0.1", 4321),
            Endpoint("138.76.29.7", 31000),
            idle_timeout=30.0,
        )
        with pytest.raises(TableExhausted):
            table.create(
                MappingPolicy.ENDPOINT_INDEPENDENT,
                IpProtocol.UDP,
                Endpoint("10.0.0.2", 4321),
                Endpoint("138.76.29.7", 31000),
                idle_timeout=30.0,
            )
        table.capacity = None
        table.max_per_host = 1
        with pytest.raises(QuotaExceeded):
            table.create(
                MappingPolicy.ENDPOINT_INDEPENDENT,
                IpProtocol.UDP,
                Endpoint("10.0.0.1", 9999),
                Endpoint("138.76.29.7", 31000),
                idle_timeout=30.0,
            )


# ---------------------------------------------------------------------------
# Spoofed-RST hardening details
# ---------------------------------------------------------------------------


class TestSpoofedRstHardening:
    def test_hardened_nat_logs_rst_invalid_drops(self):
        behavior = WELL_BEHAVED.but(rst_seq_validation=True, icmp_validation=True)
        sc = build_two_nats(seed=SEED + 10, behavior_a=behavior, flight=True)
        for label in ("A", "B"):
            sc.hosts[label].stack.tcp.rst_seq_validation = True
        sched = sc.net.scheduler
        sc.register_all_tcp()
        streams = []
        sc.clients["A"].connect_tcp(2, on_stream=streams.append)
        sc.wait_for(lambda: bool(streams), 60.0)
        stream = streams[0]
        offpath = attach_wan_attacker(sc.net, sc.net.links["backbone"])
        attacker = SpoofedRstInjector(
            sc.net,
            host=offpath,
            nat=sc.nats["A"],
            forged_src=stream.remote,
        )
        attacker.start()
        sched.run_until(sched.now + 10.0)
        attacker.stop()
        assert not stream.broken
        drops = [
            e
            for e in sc.net.flight.events()
            if e.kind == "nat.drop" and e.attrs.get("reason") == "rst-invalid"
        ]
        assert drops, "hardened NAT should reject forged RSTs by sequence"


# ---------------------------------------------------------------------------
# The robustness report itself
# ---------------------------------------------------------------------------


class TestRobustnessReport:
    def test_quick_subset_is_behavior_diverse(self):
        # The sweep plans the fleet under one fixed NAT Check config, so its
        # runs are the fleet's distinct behaviours; symmetric ones among them.
        behaviors = [
            device_behavior(spec, index)
            for spec in VENDOR_SPECS
            for index in range(spec.population)
        ]
        plan = plan_runs([(b, NatCheckConfig()) for b in behaviors], seed=7)
        mappings = {behaviors[covered[0]].mapping for covered in plan.values()}
        assert MappingPolicy.ADDRESS_AND_PORT_DEPENDENT in mappings

    def test_quick_report_hardening_holds_everywhere(self):
        report = run_robustness(seed=7, quick=True)
        for family in ("exhaustion-flood", "spoofed-rst", "port-prediction"):
            attacked = report.cell(family, "attacked")
            baseline = report.cell(family, "baseline")
            # The attack did real, attributed damage...
            damaged = attacked.punched < baseline.punched or (
                attacked.survival_rate is not None
                and baseline.survival_rate is not None
                and attacked.survival_rate < baseline.survival_rate
            ) or (attacked.survival_rate is None and baseline.survival_rate is not None)
            assert damaged, f"{family}: attack was toothless in quick mode"
            assert attacked.verdicts, f"{family}: no failure attribution"
            assert "unknown" not in attacked.verdicts
            # ...and hardening took it back.
            assert report.hardening_wins(family), family
        assert report.devices > 0
        assert len(report.cells) == 9


# ---------------------------------------------------------------------------
# Adversarial soak (deselected by default; CI runs it with -m soak)
# ---------------------------------------------------------------------------

SEED_BASE = int(os.environ.get("ADVERSARIAL_SEED_BASE", "17000"))
SEED_COUNT = int(os.environ.get("ADVERSARIAL_SEED_COUNT", "10"))


@pytest.mark.soak
@pytest.mark.parametrize("seed", range(SEED_BASE, SEED_BASE + SEED_COUNT))
def test_adversarial_soak(seed):
    """Flood a hardened, finite NAT while a victim punches and chats.

    Every seed must end with: the victim attempt terminated, the table
    bounded by its declared capacity, the attacker bounded by its quota,
    no timer skew, and no cross-peer payload leak.
    """
    behavior = SYMMETRIC.but(table_capacity=128, max_mappings_per_host=48)
    sc = build_two_nats(seed=seed, behavior_a=behavior, flight=True)
    sched = sc.net.scheduler
    mole = attach_lan_attacker(sc.net, sc.nats["A"])
    attacker = ExhaustionFlood(
        sc.net, host=mole, nat=sc.nats["A"], name="flood", interval=0.05, burst=48
    )
    attacker.start()
    sched.run_until(sched.now + 2.0)
    sc.register_all_udp()
    config = PunchConfig(keepalive_interval=1.0, broken_after_missed=3)
    for client in sc.clients.values():
        client.punch_config = config
    sessions, failures = [], []
    sc.clients["A"].connect_udp(
        2, on_session=sessions.append, on_failure=failures.append, config=config
    )
    sched.run_while(lambda: not sessions and not failures, sched.now + 60.0)
    probe = LeakProbe()
    if sessions:
        probe.watch(sessions[0], expected_sender=2, label=f"seed{seed}:A<-B")
        sessions[0].send(LeakProbe.stamp(1, b"soak"))
    sched.run_until(sched.now + 10.0)
    attacker.stop()
    assert sessions or failures, f"seed {seed}: punch attempt never terminated"
    table = sc.nats["A"].table
    assert len(table._by_host.get(int(IPv4Address("10.0.0.66")), ())) <= 48
    violations = check_invariants(
        sc.net, nats=sc.nats.values(), leak_probes=[probe]
    )
    assert violations == [], f"seed {seed}: {violations}"
