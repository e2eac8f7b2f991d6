"""NatBehavior presets and per-protocol resolution."""

from repro.nat import behavior as B
from repro.nat.policy import FilteringPolicy, MappingPolicy, TcpRefusalPolicy
from repro.netsim.packet import IpProtocol


def test_well_behaved_is_punch_friendly_both_ways():
    assert B.WELL_BEHAVED.udp_punch_friendly
    assert B.WELL_BEHAVED.tcp_punch_friendly
    assert B.WELL_BEHAVED.is_cone


def test_symmetric_is_not():
    assert not B.SYMMETRIC.udp_punch_friendly
    assert not B.SYMMETRIC.tcp_punch_friendly


def test_rst_sender_udp_ok_tcp_not():
    assert B.RST_SENDER.udp_punch_friendly
    assert not B.RST_SENDER.tcp_punch_friendly


def test_icmp_sender_tcp_unfriendly():
    assert not B.ICMP_SENDER.tcp_punch_friendly


def test_but_produces_modified_copy():
    modified = B.WELL_BEHAVED.but(hairpin=True)
    assert modified.hairpin and not B.WELL_BEHAVED.hairpin
    assert modified.mapping is B.WELL_BEHAVED.mapping


def test_mapping_for_protocol_override():
    behavior = B.WELL_BEHAVED.but(tcp_mapping=MappingPolicy.ADDRESS_AND_PORT_DEPENDENT)
    assert behavior.mapping_for(IpProtocol.UDP) is MappingPolicy.ENDPOINT_INDEPENDENT
    assert behavior.mapping_for(IpProtocol.TCP) is MappingPolicy.ADDRESS_AND_PORT_DEPENDENT
    assert behavior.udp_punch_friendly and not behavior.tcp_punch_friendly


def test_hairpin_for_protocol_override():
    behavior = B.WELL_BEHAVED.but(hairpin=False, hairpin_udp=True, hairpin_tcp=False)
    assert behavior.hairpin_for(IpProtocol.UDP)
    assert not behavior.hairpin_for(IpProtocol.TCP)


def test_hairpin_defaults_to_global_flag():
    assert B.HAIRPIN_CAPABLE.hairpin_for(IpProtocol.UDP)
    assert B.HAIRPIN_CAPABLE.hairpin_for(IpProtocol.TCP)


def test_full_cone_filtering():
    assert B.FULL_CONE.filtering is FilteringPolicy.ENDPOINT_INDEPENDENT
    assert B.FULL_CONE.udp_punch_friendly


def test_short_timeout_preset():
    assert B.SHORT_TIMEOUT.udp_timeout == 20.0


def test_presets_are_frozen():
    import pytest

    with pytest.raises(Exception):
        B.WELL_BEHAVED.hairpin = True


# -- canonicalization: equivalent behaviours must fingerprint identically ----


def test_canonical_is_stable_and_complete():
    from repro.cache import canonicalize

    canon = canonicalize(B.WELL_BEHAVED)
    assert canon["__type__"] == "NatBehavior"
    assert canon == canonicalize(B.WELL_BEHAVED)  # pure
    # Every axis is present — a new field silently missing from the
    # fingerprint would make behaviourally different devices collide.
    from dataclasses import fields

    for field in fields(B.WELL_BEHAVED):
        assert field.name in canon


def test_equivalent_timeout_values_fingerprint_identically():
    """int vs float axis values are the same behaviour: 120 and 120.0 must
    produce byte-identical canonical forms and therefore equal fingerprints."""
    from repro.cache import behavior_fingerprint, canonical_json

    int_form = B.WELL_BEHAVED.but(udp_timeout=120)
    float_form = B.WELL_BEHAVED.but(udp_timeout=120.0)
    assert canonical_json(int_form) == canonical_json(float_form)
    fp_int = behavior_fingerprint(seed=5, behavior=int_form)
    fp_float = behavior_fingerprint(seed=5, behavior=float_form)
    assert fp_int == fp_float


def test_but_roundtrip_preserves_fingerprint():
    """``but()`` with no changes (or changes that restore defaults) is the
    identity for fingerprint purposes."""
    from repro.cache import canonical_json

    assert canonical_json(B.SYMMETRIC.but()) == canonical_json(B.SYMMETRIC)
    restored = B.WELL_BEHAVED.but(hairpin=True).but(hairpin=False)
    assert canonical_json(restored) == canonical_json(B.WELL_BEHAVED)


def test_distinct_axes_produce_distinct_fingerprints():
    from repro.cache import behavior_fingerprint

    base = behavior_fingerprint(seed=0, behavior=B.WELL_BEHAVED)
    for variant in (
        B.WELL_BEHAVED.but(hairpin=True),
        B.WELL_BEHAVED.but(udp_timeout=20.0),
        B.SYMMETRIC,
        B.RST_SENDER,
    ):
        assert behavior_fingerprint(seed=0, behavior=variant).core != base.core
    # Same behaviour under a different run seed is a different simulation.
    assert behavior_fingerprint(seed=1, behavior=B.WELL_BEHAVED).core != base.core
