"""High-level packet crafting: the ergonomic layer attack tooling builds on.

The :class:`PacketBuilder` crafts TCP/UDP packets from keyword
arguments, converts :class:`~repro.packet.fields.FlowKey` objects (ICMP
ones included) back into concrete packets (used when replaying adversarial traces through the
simulated switch as real wire packets), and adds the "random noise on
unimportant header fields" the paper uses to exhaust the microflow cache.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import PacketError
from repro.packet.fields import FlowKey
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

__all__ = ["PacketBuilder", "NoiseConfig"]


@dataclass(frozen=True)
class NoiseConfig:
    """Which "unimportant" fields to randomize, per the paper's §5.2.

    The paper adds noise (e.g. varying TTL) to attack traces "to increase
    the entropy hence using up the microflow cache": the microflow cache
    matches exactly on *all* fields, so any varying field defeats it while
    leaving megaflow behaviour untouched.
    """

    vary_ttl: bool = True
    vary_tos: bool = False
    vary_payload: bool = True
    payload_len: int = 46  # minimal Ethernet payload


class PacketBuilder:
    """Craft concrete packets (optionally with deterministic random noise).

    Args:
        seed: seed for the internal RNG used for noise; crafting is fully
            deterministic for a given seed.
        default_eth_src / default_eth_dst: MACs applied when not overridden.
    """

    def __init__(
        self,
        seed: int = 0,
        default_eth_src: int = 0x020000000001,
        default_eth_dst: int = 0x020000000002,
    ) -> None:
        self._rng = np.random.default_rng(seed)
        self.default_eth_src = default_eth_src
        self.default_eth_dst = default_eth_dst

    # -- direct crafting ------------------------------------------------------
    def tcp(
        self,
        ip_src: int = 0,
        ip_dst: int = 0,
        tp_src: int = 0,
        tp_dst: int = 0,
        ttl: int = 64,
        tos: int = 0,
        payload: bytes = b"",
        flags: int = TCP.FLAG_SYN,
    ) -> Packet:
        """Craft an Ethernet/IPv4/TCP packet."""
        return Packet(
            layers=[
                Ethernet(src=self.default_eth_src, dst=self.default_eth_dst),
                IPv4(src=ip_src, dst=ip_dst, proto=PROTO_TCP, ttl=ttl, tos=tos),
                TCP(src_port=tp_src, dst_port=tp_dst, flags=flags),
            ],
            payload=payload,
        )

    def udp(
        self,
        ip_src: int = 0,
        ip_dst: int = 0,
        tp_src: int = 0,
        tp_dst: int = 0,
        ttl: int = 64,
        tos: int = 0,
        payload: bytes = b"",
    ) -> Packet:
        """Craft an Ethernet/IPv4/UDP packet."""
        return Packet(
            layers=[
                Ethernet(src=self.default_eth_src, dst=self.default_eth_dst),
                IPv4(src=ip_src, dst=ip_dst, proto=PROTO_UDP, ttl=ttl, tos=tos),
                UDP(src_port=tp_src, dst_port=tp_dst),
            ],
            payload=payload,
        )

    # -- FlowKey -> Packet -----------------------------------------------------
    def from_flow_key(self, key: FlowKey, noise: NoiseConfig | None = None) -> Packet:
        """Materialize a concrete packet realizing ``key``.

        Fields the flow key leaves at zero stay zero (they are *values*, not
        wildcards — a FlowKey is always concrete).  Noise, when given, only
        touches fields the paper calls unimportant (TTL/ToS/payload), so the
        classification-relevant part of the key is preserved exactly.
        """
        ttl = key["ip_ttl"] or 64
        tos = key["ip_tos"]
        payload = b""
        if noise is not None:
            if noise.vary_ttl:
                ttl = int(self._rng.integers(2, 255))
            if noise.vary_tos:
                tos = int(self._rng.integers(0, 256))
            if noise.vary_payload:
                payload = self._rng.bytes(noise.payload_len)

        eth = Ethernet(
            src=key["eth_src"] or self.default_eth_src,
            dst=key["eth_dst"] or self.default_eth_dst,
            ethertype=key["eth_type"] or ETHERTYPE_IPV4,
        )
        proto = key["ip_proto"] or PROTO_TCP

        ip_layer: IPv4 | IPv6
        if eth.ethertype == ETHERTYPE_IPV6 or key["ipv6_src"] or key["ipv6_dst"]:
            eth.ethertype = ETHERTYPE_IPV6
            ip_layer = IPv6(
                src=key["ipv6_src"],
                dst=key["ipv6_dst"],
                next_header=proto,
                hop_limit=ttl,
                traffic_class=tos,
            )
        else:
            ip_layer = IPv4(src=key["ip_src"], dst=key["ip_dst"], proto=proto, ttl=ttl, tos=tos)

        layers: list = [eth, ip_layer]
        if proto == PROTO_TCP:
            layers.append(TCP(src_port=key["tp_src"], dst_port=key["tp_dst"]))
        elif proto == PROTO_UDP:
            layers.append(UDP(src_port=key["tp_src"], dst_port=key["tp_dst"]))
        elif proto == PROTO_ICMP:
            layers.append(ICMP(icmp_type=key["tp_src"] & 0xFF, code=key["tp_dst"] & 0xFF))
        else:
            raise PacketError(f"cannot materialize packet for ip_proto={proto}")
        return Packet(layers=layers, payload=payload)
