"""Unit tests for the virtual-time scheduler."""

import pytest

from repro.core.registry import KeepaliveWheel, RegistrationTable
from repro.netsim.clock import Scheduler
from repro.netsim.link import LinkProfile


def test_starts_at_zero():
    assert Scheduler().now == 0.0


def test_call_later_fires_in_order():
    s = Scheduler()
    fired = []
    s.call_later(2.0, fired.append, "b")
    s.call_later(1.0, fired.append, "a")
    s.call_later(3.0, fired.append, "c")
    s.run()
    assert fired == ["a", "b", "c"]


def test_clock_advances_to_event_time():
    s = Scheduler()
    times = []
    s.call_later(1.5, lambda: times.append(s.now))
    s.run()
    assert times == [1.5]
    assert s.now == 1.5


def test_same_time_fires_in_scheduling_order():
    s = Scheduler()
    fired = []
    for tag in "abcde":
        s.call_at(1.0, fired.append, tag)
    s.run()
    assert fired == list("abcde")


def test_cancel_prevents_firing():
    s = Scheduler()
    fired = []
    timer = s.call_later(1.0, fired.append, "x")
    timer.cancel()
    s.run()
    assert fired == []
    assert not timer.active and not timer.fired


def test_cancel_is_idempotent():
    s = Scheduler()
    timer = s.call_later(1.0, lambda: None)
    timer.cancel()
    timer.cancel()
    assert not timer.active and not timer.fired
    assert s.events_cancelled == 1


def test_cancel_after_firing_is_noop():
    """A fired timer must stay 'fired', not also count as cancelled."""
    s = Scheduler()
    timer = s.call_later(1.0, lambda: None)
    s.run()
    assert timer.fired
    timer.cancel()
    assert timer.fired
    assert s.events_cancelled == 0


def test_timer_active_lifecycle():
    s = Scheduler()
    timer = s.call_later(1.0, lambda: None)
    assert timer.active
    s.run()
    assert timer.fired
    assert not timer.active


def test_cannot_schedule_in_past():
    s = Scheduler()
    s.call_later(1.0, lambda: None)
    s.run()
    with pytest.raises(ValueError):
        s.call_at(0.5, lambda: None)


def test_negative_delay_rejected():
    with pytest.raises(ValueError):
        Scheduler().call_later(-0.1, lambda: None)


NAN = float("nan")


@pytest.mark.parametrize("drive", [
    lambda s: s.call_later(NAN, lambda: None),
    lambda s: s.call_at(NAN, lambda: None),
    lambda s: s.run_until(NAN),
    lambda s: s.run_while(lambda: True, NAN),
], ids=["call_later", "call_at", "run_until", "run_while"])
def test_nan_times_are_rejected(drive):
    """No comparison orders NaN: a NaN timer would fire between its
    neighbours with ``now = nan``, and a NaN clock poisons every later
    deadline.  The clock and the heap are left as they were."""
    s = Scheduler()
    fired = []
    s.call_later(1.0, fired.append, 1)
    with pytest.raises(ValueError):
        drive(s)
    assert s.now == 0.0 and fired == [] and s.pending == 1
    s.run_until(2.0)
    assert fired == [1] and s.now == 2.0


@pytest.mark.parametrize("build", [
    lambda: LinkProfile(latency=NAN),
    lambda: LinkProfile(jitter=NAN),
    lambda: LinkProfile(reorder_delay=NAN),
    lambda: LinkProfile(reorder=0.1, reorder_delay=NAN),
    lambda: LinkProfile(bandwidth_bps=NAN),
    lambda: LinkProfile(bandwidth_bps=1e6, max_queue_delay=NAN),
    lambda: RegistrationTable(lambda: 0.0, ttl=NAN),
    lambda: RegistrationTable(lambda: 0.0, ttl=30.0, sweep_granularity=NAN),
    lambda: KeepaliveWheel(Scheduler(), granularity=NAN),
], ids=["latency", "jitter", "reorder_delay", "reorder_delay-on", "bandwidth_bps",
        "max_queue_delay", "ttl", "sweep_granularity", "wheel-granularity"])
def test_nan_durations_are_rejected_at_construction(build):
    """A NaN duration is refused where it is given, not later as "cannot
    convert float NaN to integer" or as a NaN clock."""
    with pytest.raises(ValueError):
        build()


def test_negative_zero_and_infinite_times_still_schedule():
    s = Scheduler()
    fired = []
    s.call_later(-0.0, fired.append, "now")
    s.call_later(float("inf"), fired.append, "never")
    s.run_until(1.0)
    assert fired == ["now"] and s.pending == 1


def test_run_until_stops_at_deadline():
    s = Scheduler()
    fired = []
    s.call_later(1.0, fired.append, 1)
    s.call_later(5.0, fired.append, 5)
    s.run_until(2.0)
    assert fired == [1]
    assert s.now == 2.0
    s.run_until(10.0)
    assert fired == [1, 5]


def test_run_until_backwards_rejected():
    s = Scheduler()
    s.run_until(5.0)
    with pytest.raises(ValueError):
        s.run_until(1.0)


def test_run_until_advances_clock_even_without_events():
    s = Scheduler()
    s.run_until(7.0)
    assert s.now == 7.0


def test_step_returns_false_when_empty():
    assert Scheduler().step() is False


def test_step_fires_exactly_one():
    s = Scheduler()
    fired = []
    s.call_later(1.0, fired.append, 1)
    s.call_later(2.0, fired.append, 2)
    assert s.step() is True
    assert fired == [1]


def test_callbacks_can_schedule_more():
    s = Scheduler()
    fired = []

    def chain(n):
        fired.append(n)
        if n < 5:
            s.call_later(1.0, chain, n + 1)

    s.call_later(1.0, chain, 1)
    s.run()
    assert fired == [1, 2, 3, 4, 5]
    assert s.now == 5.0


def test_run_event_cap():
    s = Scheduler()

    def forever():
        s.call_later(0.001, forever)

    s.call_later(0.0, forever)
    with pytest.raises(RuntimeError):
        s.run(max_events=100)


def test_run_while_condition_met():
    s = Scheduler()
    box = []
    s.call_later(1.0, box.append, 1)
    assert s.run_while(lambda: not box, deadline=5.0) is True
    assert s.now == 1.0


def test_run_while_deadline():
    s = Scheduler()
    assert s.run_while(lambda: True, deadline=3.0) is False
    assert s.now == 3.0


def test_run_while_never_fires_past_deadline():
    """A cancelled timer at the head of the heap must not let the live
    event behind it — due after the deadline — fire."""
    s = Scheduler()
    fired = []
    s.call_at(1.0, fired.append, "dead").cancel()
    s.call_at(10.0, fired.append, "late")
    assert s.run_while(lambda: True, deadline=5.0) is False
    assert fired == []
    assert s.now == 5.0
    s.run_until(10.0)
    assert fired == ["late"]


def test_clock_is_monotone_across_mixed_drivers():
    s = Scheduler()
    seen = []
    for when in (1.0, 2.0, 3.0, 4.0, 6.0, 9.0):
        s.call_at(when, lambda: seen.append(s.now))
    s.call_at(2.5, lambda: None).cancel()
    clock = [s.now]
    s.step()
    clock.append(s.now)
    s.run(max_events=1, strict=False)
    clock.append(s.now)
    s.run_while(lambda: len(seen) < 3, deadline=5.0)
    clock.append(s.now)
    s.run_until(5.0)
    clock.append(s.now)
    s.run_while(lambda: True, deadline=2.0)  # a deadline already behind us
    clock.append(s.now)
    s.run_while(lambda: True, deadline=7.0)
    clock.append(s.now)
    s.run()
    clock.append(s.now)
    assert clock == [0.0, 1.0, 2.0, 3.0, 5.0, 5.0, 7.0, 9.0]
    assert seen == [1.0, 2.0, 3.0, 4.0, 6.0, 9.0]


def test_pending_counts_active_only():
    s = Scheduler()
    t1 = s.call_later(1.0, lambda: None)
    s.call_later(2.0, lambda: None)
    assert s.pending == 2
    t1.cancel()
    assert s.pending == 1


def test_zero_delay_fires():
    s = Scheduler()
    fired = []
    s.call_later(0.0, fired.append, 1)
    s.run()
    assert fired == [1]
    assert s.now == 0.0


def test_callback_arguments_passed():
    s = Scheduler()
    got = []
    s.call_later(1.0, lambda a, b, c: got.append((a, b, c)), 1, "two", 3.0)
    s.run()
    assert got == [(1, "two", 3.0)]


def test_cancel_mid_run_from_other_callback():
    s = Scheduler()
    fired = []
    victim = s.call_at(2.0, fired.append, "victim")
    s.call_at(1.0, victim.cancel)
    s.run()
    assert fired == []


# -- lazy compaction of cancelled timers -------------------------------------


def test_compaction_bounds_heap_after_mass_cancellation():
    """10k timers, 9k cancelled: the heap must shed the dead entries instead
    of carrying them until their (possibly distant) due times."""
    s = Scheduler()
    timers = [s.call_later(1.0 + (i % 100), lambda: None) for i in range(10_000)]
    for timer in timers[:9_000]:
        timer.cancel()
    assert s.pending == 1_000
    assert len(s._heap) < 2 * 1_000  # raw heap, cancelled entries included
    assert s.compactions > 0
    assert s.compacted_entries > 0
    assert s.run() == 1_000  # every survivor still fires


def test_compaction_disabled_keeps_dead_entries():
    s = Scheduler()
    s.compaction_enabled = False
    timers = [s.call_later(1.0, lambda: None) for _ in range(1_000)]
    for timer in timers[:900]:
        timer.cancel()
    assert len(s._heap) == 1_000
    assert s.pending == 100
    assert s.compactions == 0
    assert s.run() == 100


def test_compaction_preserves_tie_break_order():
    """Surviving entries keep their insertion sequence numbers, so same-time
    timers still fire in scheduling order after a rebuild."""
    s = Scheduler()
    s.COMPACT_MIN = 4
    fired = []
    keep = [s.call_at(1.0, fired.append, tag) for tag in "abcde"]
    doomed = [s.call_at(1.0, fired.append, f"x{i}") for i in range(20)]
    for timer in doomed:
        timer.cancel()
    assert s.compactions > 0
    s.run()
    assert fired == list("abcde")
    assert all(t.fired for t in keep)


def test_pending_correct_through_pop_of_cancelled_entries():
    """Cancelled entries popped organically (no compaction) must keep the
    O(1) pending count in sync."""
    s = Scheduler()
    s.compaction_enabled = False
    keep = s.call_later(2.0, lambda: None)
    victim = s.call_later(1.0, lambda: None)
    victim.cancel()
    assert s.pending == 1
    s.run()
    assert s.pending == 0
    assert keep.fired


def _punched_fingerprint(compaction_enabled):
    """Same-seed UDP punch run (jitter + loss), fingerprinted.

    The protocol alone cancels too few timers to ever cross the compaction
    threshold, so a scripted mid-run churn burst (identical in both runs)
    schedules-and-cancels a block of dummy timers — enough dead heap
    entries to force a rebuild while real deliveries are in flight.
    """
    from repro.netsim.link import LinkProfile
    from repro.scenarios import build_two_nats
    from tests.chaos import trace_fingerprint
    from tests.conftest import wire_tap

    sc = build_two_nats(
        seed=77,
        backbone_profile=LinkProfile(latency=0.02, jitter=0.01, loss=0.05),
    )
    sc.scheduler.compaction_enabled = compaction_enabled

    def churn():
        batch = [sc.scheduler.call_later(60.0, lambda: None) for _ in range(256)]
        for timer in batch[:224]:
            timer.cancel()

    with wire_tap(sc.net) as records:
        for client in sc.clients.values():
            client.register_udp(max_tries=8)
        sc.wait_for(lambda: all(c.udp_registered for c in sc.clients.values()), 15.0)
        sc.scheduler.call_later(0.05, churn)
        done = {}
        sc.clients["A"].connect_udp(
            2,
            on_session=lambda session: done.setdefault("s", session),
            on_failure=lambda err: done.setdefault("f", err),
        )
        sc.scheduler.run_while(lambda: not done, sc.scheduler.now + 20.0)
    return trace_fingerprint(records), sc.scheduler.compactions


def test_same_seed_trace_identical_with_and_without_compaction():
    """Compaction is pure bookkeeping: compaction enabled and disabled must
    replay byte-identical wire traces for the same seed."""
    baseline, _ = _punched_fingerprint(compaction_enabled=False)
    compacted, compactions = _punched_fingerprint(compaction_enabled=True)
    assert compactions > 0, "scenario never compacted; test proves nothing"
    assert compacted == baseline
