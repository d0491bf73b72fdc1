"""Tests for MAC and IPv4 address value types."""

import pytest
from hypothesis import given, strategies as st

from repro.net.addresses import BROADCAST_MAC, Ipv4Address, MacAddress


class TestMacAddress:
    def test_parse_and_format_roundtrip(self):
        mac = MacAddress("02:00:00:00:00:2a")
        assert str(mac) == "02:00:00:00:00:2a"
        assert int(mac) == 0x02_00_00_00_00_2A

    def test_dash_separator_accepted(self):
        assert MacAddress("02-00-00-00-00-2a") == MacAddress("02:00:00:00:00:2a")

    def test_from_index_is_locally_administered(self):
        mac = MacAddress.from_index(5)
        first_octet = mac.to_bytes()[0]
        assert first_octet & 0x02  # locally administered bit
        assert not mac.is_multicast

    def test_broadcast_detection(self):
        assert BROADCAST_MAC.is_broadcast
        assert BROADCAST_MAC.is_multicast
        assert not MacAddress.from_index(1).is_broadcast

    def test_multicast_detection(self):
        assert MacAddress("01:00:5e:00:00:01").is_multicast

    def test_copy_constructor(self):
        original = MacAddress.from_index(9)
        assert MacAddress(original) == original

    def test_ordering_and_hashing(self):
        a, b = MacAddress(1), MacAddress(2)
        assert a < b
        assert len({a, b, MacAddress(1)}) == 2

    def test_cached_hash_keeps_the_tuple_hash(self):
        # Set and dict iteration order depend on these values.
        for mac in (MacAddress(0), MacAddress("02:00:00:00:00:2a"), BROADCAST_MAC):
            assert hash(mac) == hash(("mac", int(mac)))
            assert hash(MacAddress(mac)) == hash(mac)

    @pytest.mark.parametrize(
        "bad", ["", "02:00:00", "02:00:00:00:00:zz", "1:2:3:4:5:6:7"]
    )
    def test_malformed_strings_rejected(self, bad):
        with pytest.raises(ValueError):
            MacAddress(bad)

    @pytest.mark.parametrize("bad", [-1, 1 << 48])
    def test_out_of_range_integers_rejected(self, bad):
        with pytest.raises(ValueError):
            MacAddress(bad)

    def test_from_index_bounds(self):
        with pytest.raises(ValueError):
            MacAddress.from_index(-1)
        with pytest.raises(ValueError):
            MacAddress.from_index(1 << 24)

    @given(st.integers(min_value=0, max_value=(1 << 48) - 1))
    def test_string_roundtrip_property(self, value):
        mac = MacAddress(value)
        assert MacAddress(str(mac)) == mac

    @given(st.integers(min_value=0, max_value=(1 << 48) - 1))
    def test_bytes_roundtrip_property(self, value):
        mac = MacAddress(value)
        assert int.from_bytes(mac.to_bytes(), "big") == value


class TestIpv4Address:
    def test_parse_and_format_roundtrip(self):
        ip = Ipv4Address("10.0.0.42")
        assert str(ip) == "10.0.0.42"
        assert int(ip) == (10 << 24) + 42

    def test_copy_constructor(self):
        original = Ipv4Address("10.1.2.3")
        assert Ipv4Address(original) == original

    def test_addition(self):
        assert Ipv4Address("10.0.0.1") + 4 == Ipv4Address("10.0.0.5")

    def test_subnet_membership(self):
        net = Ipv4Address("192.168.1.0")
        assert Ipv4Address("192.168.1.77").in_subnet(net, 24)
        assert not Ipv4Address("192.168.2.77").in_subnet(net, 24)

    def test_prefix_zero_matches_everything(self):
        assert Ipv4Address("8.8.8.8").in_subnet(Ipv4Address(0), 0)

    def test_prefix_32_is_exact_match(self):
        host = Ipv4Address("10.0.0.7")
        assert host.in_subnet(host, 32)
        assert not (host + 1).in_subnet(host, 32)

    def test_bad_prefix_rejected(self):
        with pytest.raises(ValueError):
            Ipv4Address("1.2.3.4").in_subnet(Ipv4Address(0), 33)

    @pytest.mark.parametrize("bad", ["", "1.2.3", "1.2.3.256", "a.b.c.d", "1.2.3.4.5"])
    def test_malformed_strings_rejected(self, bad):
        with pytest.raises(ValueError):
            Ipv4Address(bad)

    @pytest.mark.parametrize("bad", [-1, 1 << 32])
    def test_out_of_range_integers_rejected(self, bad):
        with pytest.raises(ValueError):
            Ipv4Address(bad)

    def test_ordering_and_hashing(self):
        a, b = Ipv4Address("10.0.0.1"), Ipv4Address("10.0.0.2")
        assert a < b
        assert len({a, b, Ipv4Address("10.0.0.1")}) == 2

    def test_cached_hash_keeps_the_tuple_hash(self):
        for ip in (Ipv4Address(0), Ipv4Address("10.0.0.7"), Ipv4Address("10.0.0.1") + 5):
            assert hash(ip) == hash(("ipv4", int(ip)))
            assert hash(Ipv4Address(ip)) == hash(ip)

    @given(st.integers(min_value=0, max_value=(1 << 32) - 1))
    def test_string_roundtrip_property(self, value):
        ip = Ipv4Address(value)
        assert Ipv4Address(str(ip)) == ip

    @given(
        st.integers(min_value=0, max_value=(1 << 32) - 1),
        st.integers(min_value=0, max_value=32),
    )
    def test_address_always_in_its_own_subnet(self, value, prefix_len):
        ip = Ipv4Address(value)
        assert ip.in_subnet(ip, prefix_len)
