"""Unit tests for address parsing/formatting helpers."""

import pytest

from repro.exceptions import FieldError
from repro.packet.addresses import ipv4, ipv4_str, ipv6, ipv6_str


class TestIPv4:
    def test_roundtrip(self):
        assert ipv4("10.0.0.1") == 0x0A000001
        assert ipv4_str(0x0A000001) == "10.0.0.1"

    def test_extremes(self):
        assert ipv4("0.0.0.0") == 0
        assert ipv4("255.255.255.255") == 0xFFFFFFFF

    def test_bad_input(self):
        with pytest.raises(FieldError):
            ipv4("10.0.0.256")
        with pytest.raises(FieldError):
            ipv4("not-an-ip")
        with pytest.raises(FieldError):
            ipv4_str(1 << 32)


class TestIPv6:
    def test_roundtrip(self):
        value = ipv6("2001:db8::1")
        assert value == 0x20010DB8000000000000000000000001
        assert ipv6_str(value) == "2001:db8::1"

    def test_bad_input(self):
        with pytest.raises(FieldError):
            ipv6("2001:db8::zz")
        with pytest.raises(FieldError):
            ipv6_str(1 << 128)
