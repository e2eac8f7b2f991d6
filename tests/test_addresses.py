"""Unit + property tests for IPv4 addresses, prefixes, endpoints, pools."""

import pytest
from hypothesis import given, strategies as st

from repro.netsim.addresses import (
    AddressPool,
    Endpoint,
    IPv4Address,
    IPv4Network,
    is_private,
)
from repro.util.errors import AddressError


class TestIPv4Address:
    def test_from_string(self):
        assert int(IPv4Address("10.0.0.1")) == (10 << 24) + 1

    def test_roundtrip_string(self):
        assert str(IPv4Address("155.99.25.11")) == "155.99.25.11"

    def test_from_int(self):
        assert str(IPv4Address(0x0A000001)) == "10.0.0.1"

    def test_from_bytes(self):
        assert IPv4Address(b"\x0a\x00\x00\x01") == IPv4Address("10.0.0.1")

    def test_packed(self):
        assert IPv4Address("1.2.3.4").packed == b"\x01\x02\x03\x04"

    def test_copy_constructor(self):
        a = IPv4Address("1.2.3.4")
        assert IPv4Address(a) == a

    def test_equality_and_hash(self):
        assert IPv4Address("1.2.3.4") == IPv4Address("1.2.3.4")
        assert hash(IPv4Address("1.2.3.4")) == hash(IPv4Address("1.2.3.4"))
        assert IPv4Address("1.2.3.4") != IPv4Address("1.2.3.5")

    def test_ordering(self):
        assert IPv4Address("1.0.0.1") < IPv4Address("2.0.0.0")

    def test_complement_is_involution(self):
        a = IPv4Address("155.99.25.11")
        assert a.complement().complement() == a
        assert a.complement() != a

    @pytest.mark.parametrize(
        "bad",
        [
            "", "1.2.3", "1.2.3.4.5", "256.0.0.1", "a.b.c.d", "01.2.3.4", "-1.0.0.0",
            # Unicode digits: str.isdigit() and int() both accept these.
            "\u0661.\u0662.\u0663.\u0664", "1.2.3.\uff14", "1.2.3.\u00b2", "+1.2.3.4", "1.2.3.4_0",
        ],
    )
    def test_malformed_strings(self, bad):
        # Twice: the parser is memoised, and must never cache a rejection.
        for _ in range(2):
            with pytest.raises(AddressError):
                IPv4Address(bad)

    def test_memoised_parse_keeps_spellings_apart(self):
        """A spelling served from the memo is the one that was parsed: a
        rejected look-alike stays rejected after its canonical twin was
        cached, and accepted spellings still give their own value."""
        assert int(IPv4Address("1.2.3.4")) == 0x01020304
        assert int(IPv4Address(" 1.2.3.4 ")) == 0x01020304  # stripped, as before
        for bad in ("1.2.3.\uff14", "01.2.3.4", "1.2.3.4.", "1.2.3.04"):
            with pytest.raises(AddressError):
                IPv4Address(bad)
        assert int(IPv4Address("1.2.3.4")) == 0x01020304
        assert int(IPv4Address("1.2.3.5")) == 0x01020305

    def test_out_of_range_int(self):
        with pytest.raises(AddressError):
            IPv4Address(1 << 32)
        with pytest.raises(AddressError):
            IPv4Address(-1)

    def test_wrong_byte_length(self):
        with pytest.raises(AddressError):
            IPv4Address(b"\x01\x02\x03")

    def test_unsupported_type(self):
        with pytest.raises(AddressError):
            IPv4Address(3.14)

    @given(st.integers(min_value=0, max_value=0xFFFFFFFF))
    def test_int_string_roundtrip(self, value):
        a = IPv4Address(value)
        assert IPv4Address(str(a)) == a
        assert IPv4Address(a.packed) == a


class TestIPv4Network:
    def test_parse_cidr(self):
        n = IPv4Network("10.0.0.0/8")
        assert n.prefix_len == 8
        assert str(n) == "10.0.0.0/8"

    def test_network_address_masked(self):
        assert str(IPv4Network("10.1.2.3/24").network_address) == "10.1.2.0"

    def test_contains(self):
        n = IPv4Network("192.168.1.0/24")
        assert "192.168.1.55" in n
        assert "192.168.2.1" not in n

    def test_default_route_contains_everything(self):
        n = IPv4Network("0.0.0.0/0")
        assert "1.2.3.4" in n and "255.255.255.255" in n

    def test_host_prefix(self):
        n = IPv4Network("1.2.3.4/32")
        assert "1.2.3.4" in n and "1.2.3.5" not in n

    def test_broadcast(self):
        assert str(IPv4Network("10.0.0.0/24").broadcast_address) == "10.0.0.255"

    def test_num_addresses(self):
        assert IPv4Network("10.0.0.0/24").num_addresses == 256

    def test_hosts_excludes_network_and_broadcast(self):
        hosts = list(IPv4Network("10.0.0.0/29").hosts())
        assert str(hosts[0]) == "10.0.0.1"
        assert str(hosts[-1]) == "10.0.0.6"
        assert len(hosts) == 6

    def test_bad_prefix_length(self):
        for bad in ("33", "x", "", " 8", "8 ", "+8", "-0", "-1", "\u0668", "\uff18", "8.0", "1_0"):
            with pytest.raises(AddressError):
                IPv4Network(f"10.0.0.0/{bad}")
        assert IPv4Network("10.0.0.0/8").prefix_len == 8

    def test_missing_mask(self):
        with pytest.raises(AddressError):
            IPv4Network("10.0.0.0")

    def test_equality(self):
        assert IPv4Network("10.0.0.5/24") == IPv4Network("10.0.0.0/24")

    @given(st.integers(0, 0xFFFFFFFF), st.integers(0, 32))
    def test_network_contains_own_address_range(self, value, prefix_len):
        n = IPv4Network(IPv4Address(value), prefix_len)
        assert n.network_address in n
        assert n.broadcast_address in n


class TestPrivateRealms:
    @pytest.mark.parametrize(
        "addr", ["10.0.0.1", "172.16.0.1", "172.31.255.255", "192.168.1.1", "127.0.0.1"]
    )
    def test_private(self, addr):
        assert is_private(addr)

    @pytest.mark.parametrize(
        "addr", ["155.99.25.11", "8.8.8.8", "172.32.0.1", "192.169.0.1", "11.0.0.0"]
    )
    def test_public(self, addr):
        assert not is_private(addr)


class TestEndpoint:
    def test_construction_and_str(self):
        e = Endpoint("10.0.0.1", 4321)
        assert str(e) == "10.0.0.1:4321"

    def test_parse(self):
        e = Endpoint.parse("155.99.25.11:62000")
        assert e.ip == IPv4Address("155.99.25.11")
        assert e.port == 62000

    def test_parse_malformed(self):
        with pytest.raises(AddressError):
            Endpoint.parse("155.99.25.11")
        with pytest.raises(AddressError):
            Endpoint.parse("1.2.3.4:notaport")
        with pytest.raises(AddressError):
            Endpoint.parse("1.2.3.4:\u0668\u0660")  # Arabic-Indic "80"

    def test_port_range(self):
        with pytest.raises(AddressError):
            Endpoint("1.2.3.4", 65536)
        with pytest.raises(AddressError):
            Endpoint("1.2.3.4", -1)

    def test_immutable(self):
        e = Endpoint("1.2.3.4", 80)
        with pytest.raises(AttributeError):
            e.port = 81

    def test_pack_unpack(self):
        e = Endpoint("138.76.29.7", 31000)
        assert Endpoint.unpack(e.pack()) == e
        assert len(e.pack()) == 6

    def test_unpack_wrong_length(self):
        with pytest.raises(AddressError):
            Endpoint.unpack(b"\x01\x02\x03")

    def test_obfuscation_involution(self):
        e = Endpoint("10.0.0.1", 4321)
        assert e.obfuscated().obfuscated() == e
        assert e.obfuscated().ip != e.ip
        assert e.obfuscated().port == e.port

    def test_is_private(self):
        assert Endpoint("10.0.0.1", 1).is_private
        assert not Endpoint("8.8.8.8", 1).is_private

    def test_hash_and_set_membership(self):
        s = {Endpoint("1.2.3.4", 5), Endpoint("1.2.3.4", 5)}
        assert len(s) == 1

    def test_ordering(self):
        assert Endpoint("1.2.3.4", 1) < Endpoint("1.2.3.4", 2)
        assert Endpoint("1.2.3.4", 9) < Endpoint("1.2.3.5", 1)

    @given(st.integers(0, 0xFFFFFFFF), st.integers(0, 0xFFFF))
    def test_pack_roundtrip_property(self, ip, port):
        e = Endpoint(ip, port)
        assert Endpoint.unpack(e.pack()) == e
        assert Endpoint.parse(str(e)) == e

    def test_shares_the_address_it_is_given(self):
        """An ``IPv4Address`` handed in is kept, not copied (it is immutable);
        every other spelling still goes through the ``IPv4Address`` parser."""
        addr = IPv4Address("138.76.29.7")
        e = Endpoint(addr, 31000)
        assert e.ip is addr
        assert e.obfuscated().obfuscated().ip == addr
        for spelling in ("138.76.29.7", int(addr), bytes(addr), bytearray(bytes(addr))):
            other = Endpoint(spelling, 31000)
            assert type(other.ip) is IPv4Address and other.ip is not addr
            assert other == e and hash(other) == hash(e) and other._key == e._key
            assert not other < e and not e < other
            assert other.pack() == e.pack() and str(other) == str(e)
        for garbage in ("138.76.29", "138.76.29.256", 1 << 32, -1, b"\x01\x02\x03", None, 1.5):
            with pytest.raises(AddressError):
                Endpoint(garbage, 31000)

    def test_subclassed_address_is_normalised(self):
        class Tagged(IPv4Address):
            __slots__ = ("tag",)

        e = Endpoint(Tagged("10.0.0.1"), 1)
        assert type(e.ip) is IPv4Address and e.ip == IPv4Address("10.0.0.1")

    def test_pickle_roundtrip(self):
        import pickle

        e = Endpoint(IPv4Address("10.0.0.1"), 4321)
        clone = pickle.loads(pickle.dumps(e))
        assert clone == e and hash(clone) == hash(e) and clone._key == e._key
        assert type(clone.ip) is IPv4Address


class TestAddressPool:
    def test_deterministic_order(self):
        pool = AddressPool(IPv4Network("10.0.0.0/29"))
        assert [str(pool.allocate()) for _ in range(3)] == [
            "10.0.0.1",
            "10.0.0.2",
            "10.0.0.3",
        ]

    def test_reserved_skipped(self):
        pool = AddressPool(IPv4Network("10.0.0.0/29"), reserved=["10.0.0.1"])
        assert str(pool.allocate()) == "10.0.0.2"

    def test_exhaustion(self):
        pool = AddressPool(IPv4Network("10.0.0.0/30"))  # 2 usable hosts
        pool.allocate()
        pool.allocate()
        with pytest.raises(AddressError):
            pool.allocate()

    def test_release_tracks_allocated(self):
        pool = AddressPool(IPv4Network("10.0.0.0/24"))
        a = pool.allocate()
        assert a in pool.allocated
        pool.release(a)
        assert a not in pool.allocated
