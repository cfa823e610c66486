"""Unit tests for the high-level packet builder."""

import pytest

from repro.exceptions import PacketError
from repro.packet.builder import NoiseConfig, PacketBuilder
from repro.packet.fields import FlowKey
from repro.packet.headers import ETHERTYPE_IPV6, PROTO_TCP, PROTO_UDP
from tests.packet_oracle import flow_key


class TestDirectCrafting:
    def test_tcp(self):
        packet = PacketBuilder().tcp(ip_src=1, ip_dst=2, tp_src=3, tp_dst=4, ttl=5, tos=6)
        key = flow_key(packet)
        assert key["ip_src"] == 1
        assert key["tp_dst"] == 4
        assert key["ip_proto"] == PROTO_TCP
        assert key["ip_ttl"] == 5

    def test_udp(self):
        packet = PacketBuilder().udp(tp_dst=53)
        assert flow_key(packet)["ip_proto"] == PROTO_UDP

    def test_default_macs_applied(self):
        builder = PacketBuilder(default_eth_src=0xAA, default_eth_dst=0xBB)
        key = flow_key(builder.tcp())
        assert key["eth_src"] == 0xAA
        assert key["eth_dst"] == 0xBB


class TestFromFlowKey:
    def test_roundtrip_tcp(self):
        builder = PacketBuilder()
        key = FlowKey(ip_proto=PROTO_TCP, ip_src=10, ip_dst=20, tp_src=30, tp_dst=40)
        packet = builder.from_flow_key(key, noise=None)
        extracted = flow_key(packet)
        for field in ("ip_src", "ip_dst", "tp_src", "tp_dst", "ip_proto"):
            assert extracted[field] == key[field]

    def test_roundtrip_udp(self):
        builder = PacketBuilder()
        key = FlowKey(ip_proto=PROTO_UDP, tp_dst=53)
        assert flow_key(builder.from_flow_key(key, noise=None))["ip_proto"] == PROTO_UDP

    def test_ipv6_keys(self):
        builder = PacketBuilder()
        key = FlowKey(eth_type=ETHERTYPE_IPV6, ip_proto=PROTO_TCP, ipv6_src=1 << 90, tp_dst=80)
        packet = builder.from_flow_key(key, noise=None)
        extracted = flow_key(packet)
        assert extracted["ipv6_src"] == 1 << 90
        assert extracted["eth_type"] == ETHERTYPE_IPV6

    def test_noise_only_touches_unimportant_fields(self):
        builder = PacketBuilder(seed=3)
        key = FlowKey(ip_proto=PROTO_TCP, ip_src=10, tp_dst=80)
        noisy = [builder.from_flow_key(key, noise=NoiseConfig()) for _ in range(10)]
        assert all(flow_key(p)["ip_src"] == 10 for p in noisy)
        assert all(flow_key(p)["tp_dst"] == 80 for p in noisy)
        assert len({flow_key(p)["ip_ttl"] for p in noisy}) > 1
        assert len({p.payload for p in noisy}) > 1

    def test_unsupported_protocol(self):
        builder = PacketBuilder()
        with pytest.raises(PacketError):
            builder.from_flow_key(FlowKey(ip_proto=132), noise=None)  # SCTP

    def test_deterministic_per_seed(self):
        key = FlowKey(ip_proto=PROTO_TCP, tp_dst=80)
        a = PacketBuilder(seed=5).from_flow_key(key).to_bytes()
        b = PacketBuilder(seed=5).from_flow_key(key).to_bytes()
        assert a == b

