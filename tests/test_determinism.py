"""Determinism guarantees: identical seeds replay identical runs."""

from repro.natcheck.fleet import check_device
from repro.nat import behavior as B
from repro.netsim.link import LinkProfile
from repro.scenarios import build_two_nats

from tests.chaos import trace_fingerprint
from tests.conftest import wire_tap


def _punch_trace(seed):
    sc = build_two_nats(seed=seed, backbone_profile=LinkProfile(
        latency=0.02, jitter=0.01, loss=0.05))
    with wire_tap(sc.net) as records:
        for c in sc.clients.values():
            c.register_udp(max_tries=8)
        sc.wait_for(lambda: all(c.udp_registered for c in sc.clients.values()), 15.0)
        done = {}
        sc.clients["A"].connect_udp(2, on_session=lambda s: done.setdefault("s", s),
                                    on_failure=lambda e: done.setdefault("f", e))
        sc.scheduler.run_while(lambda: not done, sc.scheduler.now + 20.0)
    return trace_fingerprint(records)


def test_identical_seed_identical_wire_trace():
    """Every packet event — including jittered delays and random losses —
    replays identically for the same seed."""
    assert _punch_trace(31415) == _punch_trace(31415)


def test_different_seeds_diverge():
    assert _punch_trace(1) != _punch_trace(2)


def test_natcheck_report_deterministic():
    r1 = check_device(B.RST_SENDER, seed=9)
    r2 = check_device(B.RST_SENDER, seed=9)
    assert r1.summary() == r2.summary()
    assert r1.elapsed == r2.elapsed
    assert (r1.udp_ep1, r1.udp_ep2, r1.tcp_ep1, r1.tcp_ep2) == (
        r2.udp_ep1, r2.udp_ep2, r2.tcp_ep1, r2.tcp_ep2
    )


def test_table1_headline_regression():
    """Pin the Table 1 totals in the unit suite, not only the benches."""
    from repro.natcheck.fleet import run_fleet
    from repro.natcheck.table import table1_rows

    rows = {r.vendor: r for r in table1_rows(run_fleet(seed=42).reports)}
    totals = rows["All Vendors"]
    assert totals.udp == (310, 380)
    assert totals.udp_hairpin == (80, 335)
    assert totals.tcp == (184, 286)
