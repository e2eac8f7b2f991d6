"""Chaos soak: randomized fault plans, global invariants, determinism.

Tier-1 keeps a handful of smoke tests (plan generation, invariant checker,
one full chaos run, one determinism pair).  The real soak — ``-m soak`` —
sweeps ``CHAOS_SEED_COUNT`` seeds from ``CHAOS_SEED_BASE``, running every
seed three times: once untapped, so batched delivery and packet recycling
run under the fault plan, then twice under the wire tap to assert
byte-identical wire traces on top of the liveness, timer, and NAT-table
invariants.
"""

import contextlib
import os

import pytest

from repro.core.connector import P2PConnector
from repro.core.protocol import TRANSPORT_UDP
from repro.core.udp_punch import PunchConfig
from repro.netsim.faults import (
    FAULT_SERVER_KILL,
    FAULT_SERVER_REVIVE,
    KNOWN_FAULTS,
)
from repro.scenarios import build_two_nats
from repro.util.rng import SeededRng

from tests.chaos import (
    AttemptTracker,
    ChaosConfig,
    check_invariants,
    random_fault_plan,
    trace_fingerprint,
)
from tests.conftest import rerun_ladder_on_break, wire_tap

CHAOS_CONFIG = ChaosConfig(warmup=6.0, horizon=40.0)
GRACE = 25.0
PENDING_TIMER_CAP = 64
NAT_TABLE_CAP = 64


def _chaos_plan(seed, config=CHAOS_CONFIG):
    return random_fault_plan(
        SeededRng(seed, "chaos"),
        links=["backbone"],
        nats=["NAT-A", "NAT-B"],
        servers=["S"],
        config=config,
    )


def _chaos_run(seed, trace=False):
    """One full chaos iteration; returns (violations, fingerprint-or-None).

    With *trace* the whole run is under :func:`wire_tap`, which keeps every
    link on the per-packet route; without it the plain links take the fast
    path, batched delivery and packet recycling included.
    """
    sc = build_two_nats(seed=seed)
    with wire_tap(sc.net) if trace else contextlib.nullcontext() as records:
        violations = _chaos_drive(sc, seed)
    return violations, (trace_fingerprint(records) if trace else None)


def _chaos_drive(sc, seed):
    punch = PunchConfig(keepalive_interval=1.0, broken_after_missed=5)
    for c in sc.clients.values():
        c.punch_config = punch
    sc.register_all_udp()
    for c in sc.clients.values():
        c.start_server_keepalives(interval=1.0)
    sc.inject_faults(_chaos_plan(seed))

    tracker = AttemptTracker()

    def attempt(label, client, peer_id):
        # The soak's application re-runs the ladder up to twice after a
        # break, 0.5 s after it and doubling, at most 8 s.
        connector = P2PConnector(client, transport=TRANSPORT_UDP, phase_timeout=6.0)
        rerun_ladder_on_break(
            connector, peer_id, tracker.expect(label), retries=2, backoff=0.5, cap=8.0
        )

    attempt("A->B pre-chaos", sc.clients["A"], 2)
    # A second attempt launched once faults are already flying.
    sc.scheduler.call_later(
        CHAOS_CONFIG.warmup + 2.0, attempt, "B->A mid-chaos", sc.clients["B"], 1
    )
    sc.run_until(CHAOS_CONFIG.horizon + GRACE)

    # Shut the actors down, drain, then look for leaked timers.
    for c in sc.clients.values():
        c.stop_server_keepalives()
    for record in tracker.attempts:
        channel = getattr(record.result, "channel", None)
        if channel is not None and hasattr(channel, "close"):
            channel.close()
    sc.run_for(5.0)
    return check_invariants(
        sc.net,
        nats=sc.nats.values(),
        attempts=tracker,
        pending_timer_cap=PENDING_TIMER_CAP,
        nat_table_cap=NAT_TABLE_CAP,
    )


class TestPlanGeneration:
    def test_same_seed_same_plan(self):
        first = [(e.time, e.fault, e.target, e.arg) for e in _chaos_plan(900).events]
        second = [(e.time, e.fault, e.target, e.arg) for e in _chaos_plan(900).events]
        assert first == second
        assert first  # never an empty plan

    def test_different_seeds_differ(self):
        plans = {
            tuple((e.time, e.fault, e.target) for e in _chaos_plan(seed).events)
            for seed in range(900, 910)
        }
        assert len(plans) > 1

    def test_events_stay_inside_window_and_kills_are_paired(self):
        for seed in range(920, 940):
            plan = _chaos_plan(seed)
            revives = {}
            for e in plan.events:
                assert e.fault in KNOWN_FAULTS
                assert CHAOS_CONFIG.warmup <= e.time <= CHAOS_CONFIG.horizon
                if e.fault == FAULT_SERVER_REVIVE:
                    revives.setdefault(e.target, []).append(e.time)
            for e in plan.events:
                if e.fault == FAULT_SERVER_KILL:
                    assert any(t >= e.time for t in revives.get(e.target, [])), (
                        f"seed {seed}: kill of {e.target} at {e.time} has no "
                        f"revive inside the horizon"
                    )

    def test_plan_requires_at_least_one_target_family(self):
        with pytest.raises(ValueError):
            random_fault_plan(SeededRng(1, "chaos"))


class TestInvariantChecker:
    def test_tracker_flags_unterminated_attempts(self):
        sc = build_two_nats(seed=950)
        tracker = AttemptTracker()
        done = tracker.expect("finishes")
        tracker.expect("hangs")
        done("some-result")
        violations = check_invariants(sc.net, attempts=tracker)
        assert violations == ["connect attempt 'hangs' never terminated"]
        assert tracker.unfinished == ["hangs"]

    def test_timer_cap_flags_leaks(self):
        sc = build_two_nats(seed=951)
        for i in range(30):
            sc.scheduler.call_later(100.0 + i, lambda: None)
        violations = check_invariants(sc.net, pending_timer_cap=10)
        assert any("timer leak" in v for v in violations)
        assert check_invariants(sc.net, pending_timer_cap=1000) == []


    def test_stale_memo_entries_are_reported(self):
        sc = build_two_nats(seed=952)
        for client in sc.clients.values():
            client.register_udp()
        sc.run_for(2.0)
        nat = sc.nats["A"]
        assert nat.routing.closures and nat.table.outbound_memo  # warm
        assert check_invariants(sc.net, nats=sc.nats.values()) == []
        # A closure pointing out of the wrong interface ...
        value, (link, next_hop, interface) = next(iter(nat.routing.closures.items()))
        other = next(i for i in nat.interfaces.values() if i is not interface)
        nat.routing.closures[value] = (other.link, next_hop, other)
        # ... and a memo entry that outlived its mapping.
        key, mapping = next(iter(nat.table.outbound_memo.items()))
        nat.table.remove(mapping)
        nat.table.outbound_memo[key] = mapping
        violations = check_invariants(sc.net, nats=sc.nats.values())
        assert len(violations) == 2
        assert "stale forwarding closure" in violations[0]
        assert "stale outbound memo" in violations[1]


class TestChaosSmoke:
    def test_one_chaos_run_holds_all_invariants(self):
        violations, _ = _chaos_run(seed=960)
        assert violations == []

    def test_same_seed_replays_to_identical_wire_trace(self):
        _, first = _chaos_run(seed=961, trace=True)
        _, second = _chaos_run(seed=961, trace=True)
        assert first  # tracing actually captured traffic
        assert first == second


SEED_BASE = int(os.environ.get("CHAOS_SEED_BASE", "9000"))
SEED_COUNT = int(os.environ.get("CHAOS_SEED_COUNT", "25"))


@pytest.mark.soak
@pytest.mark.parametrize("seed", range(SEED_BASE, SEED_BASE + SEED_COUNT))
def test_chaos_soak(seed):
    """Each parametrized case is three full runs: invariants on the fast
    path, then invariants + determinism under the wire tap."""
    violations, _ = _chaos_run(seed)
    assert violations == [], f"seed {seed} (untapped): {violations}"
    violations, first = _chaos_run(seed, trace=True)
    assert violations == [], f"seed {seed}: {violations}"
    _, second = _chaos_run(seed, trace=True)
    assert first == second, f"seed {seed}: same-seed trace diverged"
