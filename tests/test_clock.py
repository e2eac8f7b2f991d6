"""Unit tests for the virtual-time scheduler."""

import pytest

from repro.netsim.clock import Scheduler


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
    assert timer.cancelled
    assert not timer.fired


def test_cancel_is_idempotent():
    s = Scheduler()
    timer = s.call_later(1.0, lambda: None)
    timer.cancel()
    timer.cancel()
    assert timer.cancelled


def test_cancel_after_firing_is_noop():
    """A fired timer must stay 'fired', not become fired *and* cancelled."""
    s = Scheduler()
    timer = s.call_later(1.0, lambda: None)
    s.run()
    assert timer.fired
    timer.cancel()
    assert timer.fired
    assert not timer.cancelled
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
    assert s.queue_depth < 2 * 1_000
    assert s.compactions > 0
    assert s.compacted_entries > 0
    assert s.run() == 1_000  # every survivor still fires


def test_compaction_disabled_keeps_dead_entries():
    s = Scheduler()
    s.compaction_enabled = False
    timers = [s.call_later(1.0, lambda: None) for _ in range(1_000)]
    for timer in timers[:900]:
        timer.cancel()
    assert s.queue_depth == 1_000
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
    from repro.netsim.chaos import trace_fingerprint
    from repro.netsim.link import LinkProfile
    from repro.scenarios import build_two_nats

    sc = build_two_nats(
        seed=77,
        backbone_profile=LinkProfile(latency=0.02, jitter=0.01, loss=0.05),
    )
    sc.scheduler.compaction_enabled = compaction_enabled
    sc.net.trace.enable()
    for client in sc.clients.values():
        client.register_udp(max_tries=8)
    sc.wait_for(lambda: all(c.udp_registered for c in sc.clients.values()), 15.0)

    def churn():
        batch = [sc.scheduler.call_later(60.0, lambda: None) for _ in range(256)]
        for timer in batch[:224]:
            timer.cancel()

    sc.scheduler.call_later(0.05, churn)
    done = {}
    sc.clients["A"].connect_udp(
        2,
        on_session=lambda session: done.setdefault("s", session),
        on_failure=lambda err: done.setdefault("f", err),
    )
    sc.scheduler.run_while(lambda: not done, sc.scheduler.now + 20.0)
    return trace_fingerprint(sc.net), sc.scheduler.compactions


def test_same_seed_trace_identical_with_and_without_compaction():
    """Compaction is pure bookkeeping: compaction enabled and disabled must
    replay byte-identical wire traces for the same seed."""
    baseline, _ = _punched_fingerprint(compaction_enabled=False)
    compacted, compactions = _punched_fingerprint(compaction_enabled=True)
    assert compactions > 0, "scenario never compacted; test proves nothing"
    assert compacted == baseline
