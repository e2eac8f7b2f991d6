"""NAT Check: protocol correctness, classification, fleet synthesis, table."""

import pytest

from repro.nat import behavior as B
from repro.nat.policy import FilteringPolicy, MappingPolicy, TcpRefusalPolicy
from repro.natcheck import messages as m
from repro.natcheck.classify import NatCheckReport
from repro.natcheck.client import NatCheckConfig
from repro.natcheck.fleet import (
    VENDOR_SPECS,
    VendorSpec,
    check_device,
    device_behavior,
    device_config,
    run_fleet,
)
from repro.natcheck.table import PAPER_TABLE1, Table1Row, render_table1, table1_rows
from repro.transport.tcp import FrameBuffer
from repro.util.errors import ProtocolError


class TestMessages:
    @pytest.mark.parametrize("message", [
        m.Probe(m.UDP_PROBE, 7),
        m.Probe(m.TCP_HAIRPIN, 0xFFFFFFFF),
        m.Echo(m.UDP_ECHO, 7, observed=__import__("repro.netsim.addresses", fromlist=["Endpoint"]).Endpoint("1.2.3.4", 5)),
        m.Forward(m.TCP_FORWARD, 9, client=__import__("repro.netsim.addresses", fromlist=["Endpoint"]).Endpoint("9.9.9.9", 80)),
        m.From3(3),
        m.Report(4, m.SYN_RST),
    ], ids=lambda x: type(x).__name__ + str(getattr(x, "msg_type", "")))
    def test_roundtrip(self, message):
        assert m.unpack(message.pack()) == message

    def test_echo_carries_syn_report(self):
        from repro.netsim.addresses import Endpoint

        e = m.Echo(m.TCP_ECHO, 1, observed=Endpoint("1.1.1.1", 1), syn_report=m.SYN_PENDING)
        assert m.unpack(e.pack()).syn_report == m.SYN_PENDING

    def test_unknown_type(self):
        with pytest.raises(ProtocolError):
            m.unpack(b"\xee\x00\x00\x00\x01")

    def test_truncated(self):
        with pytest.raises(ProtocolError):
            m.unpack(b"\x01\x00")

    def test_empty(self):
        with pytest.raises(ProtocolError):
            m.unpack(b"")

    def test_try_unpack_tolerant(self):
        assert m.try_unpack(b"garbage") is None

    def test_tcp_framing_reassembly(self):
        buf = FrameBuffer(m.unpack)
        data = m.frame_tcp(m.Probe(m.TCP_PROBE, 1)) + m.frame_tcp(m.Report(2, 1))
        out = []
        for i in range(0, len(data), 3):
            out.extend(buf.feed(data[i:i + 3]))
        assert len(out) == 2


class TestClassification:
    def test_well_behaved_classified_punch_friendly(self):
        r = check_device(B.WELL_BEHAVED, seed=1)
        assert r.udp_punch_ok and r.tcp_punch_ok
        assert r.tcp_syn_response == m.SYN_PENDING
        assert r.filters_unsolicited_udp

    def test_symmetric_classified_unfriendly(self):
        r = check_device(B.SYMMETRIC, seed=2)
        assert r.udp_punch_ok is False
        assert r.tcp_punch_ok is False
        assert r.udp_ep1 != r.udp_ep2

    def test_rst_sender_udp_ok_tcp_not(self):
        r = check_device(B.RST_SENDER, seed=3)
        assert r.udp_punch_ok and not r.tcp_punch_ok
        assert r.syn_response_name == "rst"

    def test_icmp_sender_detected(self):
        r = check_device(B.ICMP_SENDER, seed=4)
        assert r.syn_response_name == "icmp"
        assert not r.tcp_punch_ok

    def test_unfiltered_nat_detected(self):
        """§6.1: no filtering doesn't break punching but shows up in the
        firewall-policy indicator and the accepted-SYN path."""
        r = check_device(B.UNFILTERED, seed=5)
        assert r.tcp_punch_ok
        assert not r.filters_unsolicited_udp
        assert r.udp_unsolicited_received
        assert r.tcp_syn_response == m.SYN_CONNECTED
        assert r.tcp_unsolicited_accepted

    def test_hairpin_detected_both_protocols(self):
        r = check_device(B.HAIRPIN_CAPABLE, seed=6)
        assert r.udp_hairpin is True
        assert r.tcp_hairpin is True

    def test_no_hairpin_detected(self):
        r = check_device(B.WELL_BEHAVED, seed=7)
        assert r.udp_hairpin is False
        assert r.tcp_hairpin is False

    def test_hairpin_filters_pessimistic(self):
        """§6.3: a NAT treating hairpin traffic as untrusted tests negative."""
        r = check_device(B.HAIRPIN_CAPABLE.but(hairpin_filters=True), seed=8)
        assert r.udp_hairpin is False

    def test_per_protocol_behaviors_independent(self):
        behavior = B.WELL_BEHAVED.but(
            tcp_mapping=MappingPolicy.ADDRESS_AND_PORT_DEPENDENT,
            hairpin_udp=True,
        )
        r = check_device(behavior, seed=9)
        assert r.udp_punch_ok and not r.tcp_punch_ok
        assert r.udp_hairpin is True and r.tcp_hairpin is False

    def test_tcp_simopen_succeeds_for_drop_nat(self):
        """§6.1.2: after the go-ahead, the client's connect to server 3
        'succeeds immediately' through its freshly punched hole."""
        r = check_device(B.WELL_BEHAVED, seed=10)
        assert r.tcp_simopen_success is True

    def test_config_subsets(self):
        config = NatCheckConfig(run_udp_hairpin=False, run_tcp=False,
                                run_tcp_hairpin=False)
        r = check_device(B.WELL_BEHAVED, config, seed=11)
        assert r.udp_punch_ok is True
        assert r.udp_hairpin is None
        assert r.tcp_punch_ok is None
        assert r.tcp_hairpin is None
        assert not r.tcp_tested

    def test_report_summary_readable(self):
        r = check_device(B.WELL_BEHAVED, seed=12)
        text = r.summary()
        assert "UDP punch: yes" in text and "TCP punch: yes" in text


class TestVendorSpecs:
    def test_specs_validate(self):
        for spec in VENDOR_SPECS:
            assert spec.population == spec.udp[1]

    def test_totals_match_paper_denominators(self):
        assert sum(s.udp[1] for s in VENDOR_SPECS) == 380
        assert sum(s.udp_hairpin[1] for s in VENDOR_SPECS) == 335
        assert sum(s.tcp[1] for s in VENDOR_SPECS) == 286
        assert sum(s.udp[0] for s in VENDOR_SPECS) == 310
        assert sum(s.udp_hairpin[0] for s in VENDOR_SPECS) == 80
        assert sum(s.tcp[0] for s in VENDOR_SPECS) == 184

    def test_impossible_spec_rejected(self):
        with pytest.raises(ValueError):
            VendorSpec("bad", (5, 4), (0, 4), (0, 4), (0, 4))
        with pytest.raises(ValueError):
            VendorSpec("bad", (4, 4), (0, 5), (0, 4), (0, 4))
        with pytest.raises(ValueError):
            VendorSpec("bad", (4, 4), (0, 4), (0, 3), (0, 4))

    def test_device_behavior_matches_column_slices(self):
        spec = VendorSpec("t", (2, 4), (1, 3), (2, 3), (1, 2))
        behaviors = [device_behavior(spec, i) for i in range(4)]
        assert [b.udp_punch_friendly for b in behaviors] == [True, True, False, False]
        assert [b.hairpin_udp for b in behaviors] == [True, False, False, False]
        assert [b.tcp_punch_friendly for b in behaviors][:3] == [True, True, False]

    def test_device_config_models_versions(self):
        spec = VendorSpec("t", (2, 4), (1, 3), (2, 3), (1, 2))
        configs = [device_config(spec, i) for i in range(4)]
        assert [c.run_udp_hairpin for c in configs] == [True, True, True, False]
        assert [c.run_tcp for c in configs] == [True, True, True, False]
        assert [c.run_tcp_hairpin for c in configs] == [True, True, False, False]


class TestFleetAndTable:
    def test_small_fleet_measures_constructed_mix(self):
        spec = VendorSpec("Mini", (3, 4), (2, 4), (2, 3), (1, 3))
        result = run_fleet((spec,), seed=5)
        rows = table1_rows(result.reports)
        mini = next(r for r in rows if r.vendor == "Mini")
        assert mini.udp == (3, 4)
        assert mini.udp_hairpin == (2, 4)
        assert mini.tcp == (2, 3)
        assert mini.tcp_hairpin == (1, 3)

    def test_render_contains_percentages(self):
        spec = VendorSpec("Mini", (1, 2), (0, 1), (1, 1), (0, 1))
        result = run_fleet((spec,), seed=6)
        text = render_table1(result.reports)
        assert "1/2 (50%)" in text
        assert "All Vendors" in text
        assert "paper totals" in text

    def test_row_formatting(self):
        row = Table1Row("X", (45, 46), (5, 42), (33, 38), (3, 38))
        cells = row.cells()
        assert cells[1] == "45/46 (98%)"
        assert cells[2] == "5/42 (12%)"

    def test_round_half_up_like_paper(self):
        assert Table1Row._fmt((1, 8)) == "1/8 (13%)"  # ZyXEL hairpin cell

    def test_empty_denominator(self):
        assert Table1Row._fmt((0, 0)) == "-"

    def test_paper_reference_totals_present(self):
        assert PAPER_TABLE1["All Vendors"][0] == (310, 380)


# -- end-to-end property: NAT Check classifies arbitrary behaviours correctly --

from hypothesis import given, settings, strategies as st

from repro.nat.behavior import NatBehavior

_behaviors = st.builds(
    NatBehavior,
    mapping=st.sampled_from(list(MappingPolicy)),
    filtering=st.sampled_from([FilteringPolicy.ENDPOINT_INDEPENDENT,
                               FilteringPolicy.ADDRESS,
                               FilteringPolicy.ADDRESS_AND_PORT,
                               FilteringPolicy.NONE]),
    tcp_refusal=st.sampled_from(list(TcpRefusalPolicy)),
    tcp_mapping=st.one_of(st.none(), st.sampled_from(list(MappingPolicy))),
    hairpin=st.booleans(),
)


@given(_behaviors, st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_natcheck_classification_matches_any_behavior(behavior, seed):
    """End-to-end property: for ANY combination of mapping / filtering /
    refusal / hairpin knobs, running the full NAT Check protocol against the
    device classifies its punch-friendliness exactly as the ground truth
    predicates predict."""
    report = check_device(behavior, seed=seed)
    assert report.udp_punch_ok == behavior.udp_punch_friendly
    assert report.tcp_punch_ok == behavior.tcp_punch_friendly
    assert report.udp_hairpin == behavior.hairpin_for(
        __import__("repro.netsim.packet", fromlist=["IpProtocol"]).IpProtocol.UDP
    )
