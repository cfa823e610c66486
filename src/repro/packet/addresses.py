"""IPv4/IPv6 address helpers.

All classifier code works on plain integers; these helpers convert between
human-readable notation and the integer form, and generate addresses for
workload synthesis.  They wrap :mod:`ipaddress` so parsing quirks (zone IDs,
shorthand) follow the standard library.
"""

from __future__ import annotations

import ipaddress

from repro.exceptions import FieldError

__all__ = [
    "ipv4",
    "ipv4_str",
    "ipv6",
    "ipv6_str",
]


def ipv4(text: str) -> int:
    """Parse dotted-quad IPv4 notation into a 32-bit integer."""
    try:
        return int(ipaddress.IPv4Address(text))
    except (ipaddress.AddressValueError, ValueError) as exc:
        raise FieldError(f"bad IPv4 address {text!r}: {exc}") from exc


def ipv4_str(value: int) -> str:
    """Format a 32-bit integer as dotted-quad IPv4 notation."""
    if value < 0 or value > 0xFFFFFFFF:
        raise FieldError(f"IPv4 value {value:#x} out of range")
    return str(ipaddress.IPv4Address(value))


def ipv6(text: str) -> int:
    """Parse IPv6 notation into a 128-bit integer."""
    try:
        return int(ipaddress.IPv6Address(text))
    except (ipaddress.AddressValueError, ValueError) as exc:
        raise FieldError(f"bad IPv6 address {text!r}: {exc}") from exc


def ipv6_str(value: int) -> str:
    """Format a 128-bit integer as canonical IPv6 notation."""
    if value < 0 or value > (1 << 128) - 1:
        raise FieldError(f"IPv6 value {value:#x} out of range")
    return str(ipaddress.IPv6Address(value))
