"""Packet crafting substrate: fields, headers, packets, builders, pcap export."""

from repro.packet.addresses import ipv4, ipv4_str, ipv6, ipv6_str
from repro.packet.builder import PacketBuilder
from repro.packet.fields import (
    EXACT_MASK,
    FIELD_ORDER,
    FIELDS,
    WILDCARD_MASK,
    FieldDef,
    FlowKey,
    FlowMask,
    field,
    field_names,
)
from repro.packet.headers import (
    ETHERTYPE_IPV4,
    ETHERTYPE_IPV6,
    ICMP,
    IPv4,
    IPv6,
    PROTO_ICMP,
    PROTO_TCP,
    PROTO_UDP,
    TCP,
    UDP,
    Ethernet,
    internet_checksum,
)
from repro.packet.packet import Packet
from repro.packet.pcap import (
    LINKTYPE_ETHERNET,
    PcapWriter,
    write_pcap,
)

__all__ = [
    "FieldDef",
    "FIELDS",
    "FIELD_ORDER",
    "field",
    "field_names",
    "FlowKey",
    "FlowMask",
    "EXACT_MASK",
    "WILDCARD_MASK",
    "ipv4",
    "ipv4_str",
    "ipv6",
    "ipv6_str",
    "Ethernet",
    "IPv4",
    "IPv6",
    "TCP",
    "UDP",
    "ICMP",
    "ETHERTYPE_IPV4",
    "ETHERTYPE_IPV6",
    "PROTO_TCP",
    "PROTO_UDP",
    "PROTO_ICMP",
    "internet_checksum",
    "Packet",
    "PacketBuilder",
    "PcapWriter",
    "write_pcap",
    "LINKTYPE_ETHERNET",
]
