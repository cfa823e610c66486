"""Unit tests for layered packets: stacks, serialization, flow keys."""

import pytest

from repro.exceptions import PacketError
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
)
from repro.packet.packet import Packet
from tests.packet_oracle import flow_key, parse_packet


def tcp_packet(payload: bytes = b"data") -> Packet:
    return Packet(
        layers=[
            Ethernet(src=1, dst=2),
            IPv4(src=0x0A000001, dst=0x0A000002, proto=PROTO_TCP, ttl=33, tos=4),
            TCP(src_port=1234, dst_port=80),
        ],
        payload=payload,
    )


class TestStackValidation:
    def test_valid_stack(self):
        tcp_packet()  # no exception

    def test_tcp_cannot_follow_ethernet(self):
        with pytest.raises(PacketError, match="cannot follow"):
            Packet(layers=[Ethernet(), TCP()])

    def test_ipv4_cannot_follow_ipv4(self):
        with pytest.raises(PacketError, match="cannot follow"):
            Packet(layers=[IPv4(), IPv4()])

    def test_unsupported_layer_type(self):
        with pytest.raises(PacketError, match="unsupported layer"):
            Packet(layers=["ethernet"])  # type: ignore[list-item]


class TestSerialization:
    def test_roundtrip_tcp(self):
        packet = tcp_packet()
        parsed = parse_packet(packet.to_bytes())
        assert parsed.ip.src == 0x0A000001
        assert parsed.tcp.dst_port == 80
        assert parsed.payload == b"data"

    def test_roundtrip_udp(self):
        packet = Packet(
            layers=[Ethernet(), IPv4(proto=PROTO_UDP), UDP(src_port=53, dst_port=5353)],
            payload=b"q",
        )
        parsed = parse_packet(packet.to_bytes())
        assert parsed.udp.src_port == 53
        assert parsed.payload == b"q"

    def test_roundtrip_icmp(self):
        packet = Packet(layers=[Ethernet(), IPv4(proto=PROTO_ICMP), ICMP(icmp_type=8)])
        parsed = parse_packet(packet.to_bytes())
        assert parsed.layer(ICMP).icmp_type == 8

    def test_roundtrip_ipv6(self):
        packet = Packet(
            layers=[
                Ethernet(ethertype=ETHERTYPE_IPV6),
                IPv6(src=1 << 100, dst=2, next_header=PROTO_TCP),
                TCP(dst_port=443),
            ]
        )
        parsed = parse_packet(packet.to_bytes())
        assert parsed.ip6.src == 1 << 100
        assert parsed.tcp.dst_port == 443

    def test_raw_ip_parsing(self):
        wire = tcp_packet().to_bytes()[Ethernet.HEADER_LEN:]
        parsed = parse_packet(wire, link_layer=False)
        assert parsed.eth is None
        assert parsed.tcp is not None

    def test_wire_length(self):
        packet = tcp_packet(payload=b"x" * 10)
        assert len(packet.to_bytes()) == 14 + 20 + 20 + 10

    def test_empty_packet_raises(self):
        with pytest.raises(PacketError):
            parse_packet(b"", link_layer=False)


class TestFlowKeyExtraction:
    def test_tcp_fields(self):
        key = flow_key(tcp_packet(), in_port=3)
        assert key["in_port"] == 3
        assert key["eth_type"] == ETHERTYPE_IPV4
        assert key["ip_src"] == 0x0A000001
        assert key["ip_proto"] == PROTO_TCP
        assert key["ip_ttl"] == 33
        assert key["ip_tos"] == 4
        assert key["tp_src"] == 1234
        assert key["tp_dst"] == 80

    def test_udp_ports_extracted(self):
        packet = Packet(layers=[Ethernet(), IPv4(proto=PROTO_UDP), UDP(src_port=7, dst_port=9)])
        key = flow_key(packet)
        assert key["tp_src"] == 7
        assert key["tp_dst"] == 9

    def test_icmp_maps_type_code_to_ports(self):
        packet = Packet(layers=[Ethernet(), IPv4(proto=PROTO_ICMP), ICMP(icmp_type=8, code=1)])
        key = flow_key(packet)
        assert key["tp_src"] == 8
        assert key["tp_dst"] == 1

    def test_ipv6_fields(self):
        packet = Packet(
            layers=[Ethernet(ethertype=ETHERTYPE_IPV6), IPv6(src=5, dst=6), TCP()]
        )
        key = flow_key(packet)
        assert key["ipv6_src"] == 5
        assert key["ipv6_dst"] == 6
        assert key["ip_src"] == 0  # v4 fields zero-filled
        assert key["eth_type"] == ETHERTYPE_IPV6

    def test_parse_then_extract_equals_direct_extract(self):
        packet = tcp_packet()
        assert flow_key(parse_packet(packet.to_bytes())) == flow_key(packet)
